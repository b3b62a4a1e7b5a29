"""Partition enumeration, statistics, and enumerated generating functions."""

from collections import Counter

import pytest

from kmeasure import partitions, series
from kmeasure.partitions import (
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
from kmeasure.series import Monomial, Q, TriSeries, YQ, pochhammer_infinite
from series_reads import coefficients


def test_enumerate_all_of_four():
    assert list(enumerate_partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_zero_is_empty_partition():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(0, "distinct")) == [()]


def test_enumerate_distinct_of_six():
    assert list(enumerate_partitions(6, "distinct")) == [(6,), (5, 1), (4, 2), (3, 2, 1)]


def test_enumerate_odd_families():
    assert list(enumerate_partitions(5, "odd")) == [(5,), (3, 1, 1), (1, 1, 1, 1, 1)]
    assert list(enumerate_partitions(8, "distinct-odd")) == [(7, 1), (5, 3)]


def test_enumerate_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        list(enumerate_partitions(4, "even"))


def test_kmeasure_examples():
    assert kmeasure((4, 3, 1), 2) == 2
    assert kmeasure((3, 1, 1), 1) == 2   # 1-measure counts distinct values
    assert kmeasure((3, 1, 1), 3) == 1
    assert kmeasure((), 7) == 0


def test_kmeasure_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        kmeasure((2, 1), 0)
    with pytest.raises(ValueError):
        kmeasure_bruteforce((2, 1), -1)


def test_bruteforce_examples():
    assert kmeasure_bruteforce((4, 3, 1), 2) == 2
    assert kmeasure_bruteforce((), 3) == 0
    assert kmeasure_bruteforce((5, 3, 1), 2) == 3


def test_bruteforce_scope():
    too_many = tuple(range(26, 0, -1))
    with pytest.raises(ValueError, match="oracle scope exceeded"):
        kmeasure_bruteforce(too_many, 1)


def test_greedy_matches_bruteforce_small():
    for n in range(13):
        for parts in enumerate_partitions(n):
            for k in range(1, 5):
                assert kmeasure(parts, k) == kmeasure_bruteforce(parts, k)


def test_durfee_examples():
    assert durfee((4, 3, 1)) == 2
    assert durfee((1,)) == 1
    assert durfee(()) == 0
    assert durfee((3, 3, 3)) == 3


def test_durfee_bounds():
    for n in range(15):
        for parts in enumerate_partitions(n):
            d = durfee(parts)
            assert d * d <= n
            assert d <= len(parts)


def test_measure_monotone_in_k():
    for n in range(13):
        for parts in enumerate_partitions(n):
            values = [kmeasure(parts, k) for k in range(1, 6)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert values[0] == len(set(parts))


def test_consecutive_runs():
    assert consecutive_runs((5, 4, 2, 1)) == 2
    assert consecutive_runs((3, 2, 1)) == 1
    assert consecutive_runs((6, 4, 2)) == 3
    assert consecutive_runs(()) == 0
    with pytest.raises(ValueError, match="requires distinct parts"):
        consecutive_runs((3, 3, 1))


def test_measure_gf_layers_k1():
    # partitions of 3: (3)->y z, (2,1)->y^2 z^2, (1,1,1)->y^3 z
    gf = measure_gf(3, 1)
    assert sorted(
        (e, f, c) for (j, e, f, c) in gf.terms() if j == 3
    ) == [(1, 1, 1), (2, 2, 1), (3, 1, 1)]


def test_measure_gf_zero_order():
    assert measure_gf(0, 2) == TriSeries.one(0)


def test_measure_gf_distinct_k2_layer_from_oracle():
    expected = Counter()
    for parts in enumerate_partitions(3, "distinct"):
        expected[(len(parts), kmeasure_bruteforce(parts, 2))] += 1
    gf = measure_gf(3, 2, "distinct")
    got = Counter()
    for j, e, f, c in gf.terms():
        if j == 3:
            got[(e, f)] = c
    assert got == expected
    assert got == Counter({(1, 1): 1, (2, 1): 1})  # (3) and (2,1), both measure 1


def test_measure_gfs_consistent_with_single():
    gfs = measure_gfs(6, [1, 3], "distinct")
    assert gfs[1] == measure_gf(6, 1, "distinct")
    assert gfs[3] == measure_gf(6, 3, "distinct")


def test_measure_gf_z_marginal_independent_of_k():
    # summing out z must give the (length, size) series whatever k is
    gfs = measure_gfs(10, [1, 2, 3])
    collapsed = {k: gf.set_z(1) for k, gf in gfs.items()}
    assert collapsed[1] == collapsed[2] == collapsed[3]
    # and that series is the inverse Pochhammer product
    assert collapsed[1] == pochhammer_infinite(YQ, 1, 10).invert()


def test_measure_gf_total_mass_is_partition_count():
    # q-order 80: about 10^8 partitions, out of reach of enumeration
    gf = measure_gf(80, 2).set_z(1).set_y(1)
    product = pochhammer_infinite(Q, 1, 80).invert()
    assert gf == product
    gfd = measure_gf(80, 2, "distinct").set_z(1).set_y(1)
    distinct_product = pochhammer_infinite(Monomial(-1, q=1), 1, 80)
    assert gfd == distinct_product


def test_durfee_gf_layers():
    gf = durfee_gf(4)
    assert [(j, e, f, c) for (j, e, f, c) in gf.terms() if j == 1] == [(1, 1, 1, 1)]
    assert coefficients(gf)[4, 2, 2] == 1  # only (2,2) has a 2x2 square with 2 parts
    assert coefficients(gf)[0, 0, 0] == 1


def _enumerated_gf(qcap, statistic, family="all"):
    """Reference series: sum y^length z^statistic q^size by enumeration."""
    terms = [
        (n, len(parts), statistic(parts), 1)
        for n in range(qcap + 1)
        for parts in enumerate_partitions(n, family)
    ]
    return TriSeries.from_terms(terms, qcap)


@pytest.mark.parametrize("family", ["all", "distinct", "odd", "distinct-odd"])
def test_measure_gfs_match_enumeration(family):
    ks = range(1, 8)
    for qcap in range(21):
        gfs = measure_gfs(qcap, ks, family)
        for k in ks:
            expected = _enumerated_gf(qcap, lambda parts: kmeasure(parts, k), family)
            assert gfs[k] == expected, (family, k, qcap)


def test_durfee_gf_matches_enumeration():
    for qcap in range(26):
        assert durfee_gf(qcap) == _enumerated_gf(qcap, durfee), qcap


def test_counting_dps_are_exact_at_the_narrowest_width(monkeypatch):
    # Below the kernel's start width a DP takes W from p(qcap) alone:
    # p(24) = 1575 needs 16-bit slots, and a count of 129 overflows 8 bits
    monkeypatch.setattr(series, "_START_WIDTH", 8)
    qcap = 24
    for family in ("all", "distinct"):
        gf = measure_gf(qcap, 2, family)
        assert gf.width == 16
        assert gf == _enumerated_gf(qcap, lambda parts: kmeasure(parts, 2), family)
    gf = durfee_gf(qcap)
    assert gf.width == 16 and max(abs(c) for *_, c in gf.terms()) == 129
    assert gf == _enumerated_gf(qcap, durfee)
    gf = runs_gf(qcap)
    assert gf.width == 16
    assert gf.set_z(1) == measure_gf(qcap, 1, "distinct").set_y(1).set_z(1)


def test_measure_gf_takes_a_k_past_the_q_order_at_once():
    # gaps between parts of at most qcap stay below qcap, so every k above
    # qcap gives the series of k = qcap + 1, from as few gap states
    for family in ("all", "distinct", "odd", "distinct-odd"):
        assert measure_gf(10, 10**9, family) == measure_gf(10, 11, family)


def test_durfee_gf_total_mass_at_order_80():
    assert durfee_gf(80).set_y(1).set_z(1) == pochhammer_infinite(Q, 1, 80).invert()


def test_oracles_reject_negative_order():
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        measure_gf(-1, 2)
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        measure_gfs(-2, [1, 2])
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        durfee_gf(-1)
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        runs_gf(-1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        sylvester_counts(-1)


def test_measure_gfs_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        measure_gfs(3, [], "bogus")


def test_measure_gfs_checks_the_order_then_the_family_then_each_k():
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        measure_gfs(-2, [])
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        measure_gfs(-1, [0], "bogus")
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        measure_gfs(3, [0], "bogus")


def test_sylvester_counts_examples():
    assert sylvester_counts(5) == (Counter({1: 2, 2: 1}), Counter({1: 2, 2: 1}))
    assert sylvester_counts(0) == (Counter({0: 1}), Counter({0: 1}))
    assert sylvester_counts(1) == (Counter({1: 1}), Counter({1: 1}))


def test_runs_gf_matches_enumeration():
    qcap = 40
    terms = [
        (n, 0, consecutive_runs(parts), 1)
        for n in range(qcap + 1)
        for parts in enumerate_partitions(n, "distinct")
    ]
    assert runs_gf(qcap) == TriSeries.from_terms(terms, qcap)


def test_sylvester_gfs_match_enumeration():
    n_max = 40
    odd, runs = sylvester_gfs(n_max)
    # both sides are series in q and z alone: the value is the z-exponent
    assert all(e == 0 for s in (odd, runs) for _, e, _, _ in s.terms())
    sides = zip(partitions._histograms(odd, n_max), partitions._histograms(runs, n_max))
    for n, (by_distinct, by_runs) in enumerate(sides):
        odd_ref = Counter(len(set(parts)) for parts in enumerate_partitions(n, "odd"))
        runs_ref = Counter(
            consecutive_runs(parts) for parts in enumerate_partitions(n, "distinct")
        )
        # Counter equality ignores zero entries, so rule them out on their own
        assert (by_distinct, by_runs) == (odd_ref, runs_ref), n
        assert 0 not in by_distinct.values() and 0 not in by_runs.values(), n
        assert sylvester_counts(n) == (by_distinct, by_runs), n


def test_sylvester_histograms_agree_medium():
    for n in range(26):
        by_distinct, by_runs = sylvester_counts(n)
        assert by_distinct == by_runs


def test_parse_partition():
    assert parse_partition("4,3,1") == (4, 3, 1)
    assert parse_partition("") == ()
    assert parse_partition(" 5 , 5 , 2 ") == (5, 5, 2)
    with pytest.raises(ValueError, match="weakly decreasing"):
        parse_partition("1,3")
    with pytest.raises(ValueError, match="positive"):
        parse_partition("3,0")
    with pytest.raises(ValueError, match="not an integer"):
        parse_partition("3,x")


def test_format_partition_round_trip():
    assert format_partition((4, 3, 1)) == "4,3,1"
    assert format_partition(()) == ""
    assert parse_partition(format_partition((7, 7, 2))) == (7, 7, 2)


def test_partition_stats_bundle():
    stats = partition_stats((4, 3, 1), ks=(1, 2, 3))
    assert stats == PartitionStats(
        size=8, length=3, smallest=1, durfee=2, measures={1: 3, 2: 2, 3: 2}
    )
    empty = partition_stats((), ks=(1, 2))
    assert empty.size == 0 and empty.smallest == 0 and empty.durfee == 0
    assert empty.measures == {1: 0, 2: 0}


@pytest.mark.parametrize("k", [0, -2])
def test_partition_stats_refuses_a_nonpositive_k(k):
    # as kmeasure does: a "k-measure" with k < 1 is no statistic
    with pytest.raises(ValueError, match="k must be positive"):
        partition_stats((5, 3, 1), ks=(k,))
