"""Exact q-series arithmetic and partition statistics for identity checking."""

from .series import (
    Monomial,
    TriSeries,
    ONE,
    Q,
    Y,
    Z,
    YQ,
    pochhammer_finite,
    pochhammer_infinite,
)
from .partitions import (
    PartitionStats,
    consecutive_runs,
    durfee,
    durfee_gf,
    enumerate_partitions,
    format_partition,
    kmeasure,
    kmeasure_bruteforce,
    measure_gf,
    measure_gfs,
    parse_partition,
    partition_stats,
    runs_gf,
    sylvester_counts,
    sylvester_gfs,
)
from .identities import (
    IdentityReport,
    Mismatch,
    default_tasks,
    distinct_measure_gf_product,
    distinct_measure_gf_sum,
    durfee_gf_closed,
    partition_measure_gf_product,
    partition_measure_gf_sum,
    qdiff_residual,
    run_suite,
)

__version__ = "0.1.0"
