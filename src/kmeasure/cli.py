"""Command-line interface: verification suites, partition statistics, tables.

Exit status contract: 0 when everything checked passed, 1 when at least one
identity or equidistribution claim failed or a write met a closed stdout, 2 on
usage or parse errors (the parser refuses every malformed argument, with its
usage line), 130 on an interrupt (SIGINT, as from Ctrl-C), which
ends a run with one stderr line and no worker left running.  SIGTERM (as
from kill or timeout) ends a pooled run with 143, 128 + SIGTERM, once its
workers are stopped and reaped (see :mod:`kmeasure.forked`); a serial run
has no worker, and the signal itself ends it, which a shell also reports
as 143.
``entrypoint`` leaves through ``os._exit`` once stdout and stderr are
flushed, so a run pays for no interpreter teardown; under a profiler or
tracer (cProfile, coverage) it exits normally, so that their report is
written.  ``main`` returns its exit status and never exits.
Plain and csv output carry no timings, so identical configurations produce
byte-identical output; json includes per-check elapsed_ms.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

USAGE_ERROR = 2
DEFAULT_KS = [1, 2, 3, 4, 5]


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("k list must be comma-separated integers")
    if not ks:
        raise argparse.ArgumentTypeError("k list must name at least one k")
    if any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("each k must be a positive integer")
    return ks


def _int_at_least(low: int):
    """The argparse type of an int of at least ``low``, 0 or 1."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {'positive' if low else 'nonnegative'} integer")
        return value

    return parse


def _partition(text: str) -> tuple[int, ...]:
    """The argparse type of a partition in the format of
    :func:`kmeasure.partitions.parse_partition`."""
    try:
        return partitions.parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _default_jobs() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_parser() -> argparse.ArgumentParser:
    positive, nonnegative = _int_at_least(1), _int_at_least(0)
    parser = argparse.ArgumentParser(
        prog="kmeasure",
        description="Exact verification of partition k-measure series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("--qcap", type=nonnegative, default=20, help="q-truncation order")
    verify.add_argument("--k", type=_parse_k_list, default=DEFAULT_KS,
                        help="comma-separated k values")
    verify.add_argument("--identity", default=None,
                        help="only run checks whose name contains this substring")
    verify.add_argument("--format", dest="fmt", choices=("plain", "json", "csv"),
                        default="plain")
    verify.add_argument("--jobs", type=positive, default=None,
                        help="forked worker processes, at most one per unit of checks "
                             "(default: the CPUs it may run on)")

    stats = sub.add_parser("stats", help="statistics of one partition")
    stats.add_argument("partition", type=_partition, help='comma-separated parts, e.g. "4,3,1"; empty for the empty partition')
    stats.add_argument("--k", type=_parse_k_list, default=DEFAULT_KS)
    stats.add_argument("--format", dest="fmt", choices=("plain", "json"), default="plain")

    table = sub.add_parser("table", help="joint distribution tables per n")
    table.add_argument("--n-max", type=nonnegative, required=True)
    table.add_argument("--pair", choices=("mu2-durfee", "muk-length", "sylvester"),
                       default="mu2-durfee")
    table.add_argument("--k", type=positive, default=2, help="k for the muk-length pair")
    table.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"),
                       default="plain")
    return parser


# ------------------------------------------------------------------ verify


def cmd_verify(qcap: int, ks, identity: str | None, fmt: str, jobs: int) -> int:
    tasks = identities.default_tasks(qcap, ks)
    if identity is not None:
        tasks = [task for task in tasks if identity in task[0]]
        if not tasks:
            print(f"error: no identity matches {identity!r}", file=sys.stderr)
            return USAGE_ERROR
    reports = identities.run_suite(tasks, jobs=jobs)
    if fmt == "json":
        print(identities.reports_json(reports))
    elif fmt == "csv":
        print(identities.reports_csv(reports))
    else:
        print(identities.reports_table(reports))
        failed = sum(1 for r in reports if not r.passed)
        print(f"\n{len(reports) - failed}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


# ------------------------------------------------------------------- stats


def cmd_stats(parts, ks, fmt: str) -> int:
    stats = partitions.partition_stats(parts, ks)
    if fmt == "json":
        print(json.dumps({"partition": list(parts), **stats._asdict()}, indent=2))
    else:
        print(f"partition: {partitions.format_partition(parts) or '(empty)'}")
        print(f"size:      {stats.size}")
        print(f"length:    {stats.length}")
        print(f"smallest:  {stats.smallest}")
        print(f"durfee:    {stats.durfee}")
        for k, measure in stats.measures.items():
            print(f"measure k={k}: {measure}")
    return 0


# ------------------------------------------------------------------- table


def _table_rows(n_max: int, pair: str, k: int):
    """Rows (n, statistic value, lhs count, rhs count, match) per n <= n_max.

    mu2-durfee and sylvester compare two distributions a theorem asserts
    are equal; muk-length is informational (no equality claimed).  Each
    histogram is a marginal of a counted series, read once for every n.
    """
    if pair == "sylvester":
        lhs, rhs = partitions.sylvester_gfs(n_max)
    else:
        measure = partitions.measure_gf(n_max, 2 if pair == "mu2-durfee" else k)
        lhs = measure.set_y(1)
        rhs = partitions.durfee_gf(n_max).set_y(1) if pair == "mu2-durfee" else measure.set_z(1)
    rows = []
    histograms = zip(partitions._histograms(lhs, n_max), partitions._histograms(rhs, n_max))
    for n, (a_hist, b_hist) in enumerate(histograms):
        for value in sorted(set(a_hist) | set(b_hist)):
            a, b = a_hist.get(value, 0), b_hist.get(value, 0)
            rows.append((n, value, a, b, a == b))
    return rows


def cmd_table(n_max: int, pair: str, k: int, fmt: str) -> int:
    rows = _table_rows(n_max, pair, k)
    if fmt == "csv":
        print("n,statistic_value,count_lhs,count_rhs,match")
        for row in rows:
            print(",".join(str(x) for x in row))
    elif fmt == "json":
        print(json.dumps([
            dict(n=n, statistic_value=v, count_lhs=a, count_rhs=b, match=m)
            for n, v, a, b, m in rows
        ], indent=2))
    else:
        print(f"{'n':>4} {'value':>6} {'lhs':>8} {'rhs':>8}  match")
        for n, v, a, b, m in rows:
            flag = "" if m else "  <-- MISMATCH"
            print(f"{n:>4} {v:>6} {a:>8} {b:>8}  {str(m).lower()}{flag}")
    mismatch = any(not m for *_rest, m in rows)
    # muk-length carries no equality claim, so mismatches there are expected
    return 1 if mismatch and pair != "muk-length" else 0


def main(argv=None) -> int:
    # the engine loads here, not at the top of the module, so that an
    # interrupt while it compiles lands inside entrypoint's try
    global identities, partitions
    from . import identities, partitions

    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize and re-raise
        return USAGE_ERROR if exc.code else 0
    if args.command == "verify":
        jobs = args.jobs if args.jobs is not None else _default_jobs()
        return cmd_verify(args.qcap, args.k, args.identity, args.fmt, jobs)
    if args.command == "stats":
        return cmd_stats(args.partition, args.k, args.fmt)
    return cmd_table(args.n_max, args.pair, args.k, args.fmt)


def _exit(code: int):
    """Flush stdout and stderr, then end the process with ``code``.

    It leaves through ``os._exit``, which skips interpreter teardown,
    unless a profiler or tracer is installed (on Python 3.12+ also as a
    ``sys.monitoring`` tool): cProfile and coverage write their report at
    teardown.  A closed stdout raises BrokenPipeError from the flush.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # sys.monitoring tool ids run from 0 to 5
    monitored = hasattr(sys, "monitoring") and any(map(sys.monitoring.get_tool, range(6)))
    if sys.getprofile() or sys.gettrace() or monitored:
        sys.exit(code)
    os._exit(code)


def entrypoint():
    try:
        _exit(main())
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # on the way out raises no second error, and exit 1 as on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _exit(1)
    except KeyboardInterrupt:
        # the pool has reaped its workers on the way out; 128 + SIGINT, as
        # a shell reports a command that SIGINT ended
        print("kmeasure: interrupted", file=sys.stderr)
        _exit(130)


if __name__ == "__main__":
    entrypoint()
