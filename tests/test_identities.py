"""Closed-form builders and identity checks at desk-scale truncations."""

import errno
import json
import os
import select
import signal

import pytest

from kmeasure import identities
from kmeasure.identities import (
    BAILEY_DAUM_PARAMS,
    EULER_FIRST_PARAMS,
    EULER_SECOND_PARAMS,
    HEINE_GENERAL_PARAMS,
    IdentityReport,
    Mismatch,
    _Artifacts,
    _qdiff_residual,
    bailey_daum_sides,
    default_tasks,
    distinct_measure_gf_product,
    distinct_measure_gf_sum,
    durfee_gf_closed,
    euler_first_sides,
    euler_second_sides,
    generalized_heine_sides,
    partition_measure_gf_product,
    partition_measure_gf_sum,
    reports_csv,
    reports_json,
    reports_table,
    run_suite,
)
from kmeasure.partitions import (
    ORACLE_FAMILIES,
    _histograms,
    durfee_gf,
    enumerate_partitions,
    kmeasure,
    measure_gf,
    measure_gfs,
    runs_gf,
    sylvester_gfs,
)
from kmeasure.series import (
    Monomial,
    Q,
    TriSeries,
    YQ,
    Z,
    _first_difference,
    _pochhammer_apply,
    pochhammer_finite,
    pochhammer_infinite,
)
from series_reads import coefficients, truncated


# ----------------------------------------------------------- sum forms


def test_partition_sum_form_order_zero():
    assert partition_measure_gf_sum(3, 0) == TriSeries.one(0)


def test_partition_sum_form_matches_enumeration_k2():
    assert partition_measure_gf_sum(2, 3) == measure_gf(3, 2)


def test_partition_sum_form_k1_z_marginal():
    # at z=1 only the n=0 summand survives (the (1-z)^n factor vanishes),
    # leaving the plain partition series
    collapsed = partition_measure_gf_sum(1, 10).set_z(1)
    assert collapsed == pochhammer_infinite(YQ, 1, 10).invert()


def test_distinct_sum_form_order_zero():
    assert distinct_measure_gf_sum(4, 0) == TriSeries.one(0)


def test_distinct_sum_form_matches_enumeration_k2():
    assert distinct_measure_gf_sum(2, 3) == measure_gf(3, 2, "distinct")


def test_distinct_sum_form_signed_specialization():
    # y -> -y, z -> 1 must reproduce the signed length count over
    # distinct partitions, layer by layer
    specialized = distinct_measure_gf_sum(3, 8).set_z(1).set_y(-1)
    expected = []
    for n in range(9):
        signed = sum(
            (-1) ** len(parts) for parts in enumerate_partitions(n, "distinct")
        )
        if signed:
            expected.append((n, 0, 0, signed))
    assert specialized == TriSeries.from_terms(expected, 8)


def test_sum_forms_reject_bad_k():
    with pytest.raises(ValueError):
        partition_measure_gf_sum(0, 5)
    with pytest.raises(ValueError):
        distinct_measure_gf_sum(0, 5)


# ------------------------------------------------------- product forms


def test_partition_product_form_cross_check():
    got = partition_measure_gf_product(2, 3)
    want = truncated(partition_measure_gf_sum(2, 3), 3)
    assert got == want


def test_partition_product_form_order_zero():
    assert partition_measure_gf_product(2, 0) == TriSeries.one(0)


def test_partition_product_form_z_cannot_exceed_q():
    # the statistic is at most the size, so assembled coefficients with
    # z-exponent above the q-exponent must have cancelled
    s = partition_measure_gf_product(3, 6)
    assert all(f <= j for (j, e, f, c) in s.terms())


def test_partition_product_form_rejects_k1():
    with pytest.raises(ValueError, match="degenerate base q\\^0"):
        partition_measure_gf_product(1, 5)


def test_distinct_product_form_cross_checks():
    got = distinct_measure_gf_product(1, 4)
    assert got == truncated(distinct_measure_gf_sum(1, 4), 4)
    got = distinct_measure_gf_product(3, 5)
    assert got == truncated(measure_gf(5, 3, "distinct"), 5)


# ------------------------------------------------------------- durfee


def test_durfee_closed_form_order_zero():
    assert durfee_gf_closed(0) == TriSeries.one(0)


def test_durfee_closed_form_square_coefficient():
    assert coefficients(durfee_gf_closed(4))[4, 2, 2] == 1


def test_durfee_closed_form_matches_enumeration():
    assert durfee_gf_closed(12) == durfee_gf(12)


# ------------------------------- reference: every summand from scratch
#
# The builders derive summand n+1 from summand n and stop at the first
# summand that vanishes.  These references rebuild each summand's
# Pochhammer products from scratch, divide through the dense inverse, and
# sum to explicit bounds on the summands' q-order or z-degree.  A monomial
# factor is a one-term series, multiplied in by the Cauchy product.


def _one_term(m, qcap):
    return TriSeries.from_terms([(m.q, m.y, m.z, m.coeff)], qcap)


def _reference_partition_sum(k, qcap):
    total = TriSeries(qcap)
    n = 0
    while n * (n + 1) // 2 <= qcap:
        front = Monomial((-1) ** n, q=n * (n + 1) // 2, y=n)
        term = pochhammer_finite(Z, k - 1, n, qcap) * _one_term(front, qcap)
        total = total + term * pochhammer_finite(Q, 1, n, qcap).invert()
        n += 1
    return total * pochhammer_infinite(YQ, 1, qcap).invert()


def _reference_partition_product(k, qcap):
    base = Monomial(1, q=k - 1)
    total = TriSeries(qcap)
    for n in range(qcap + 1):
        term = TriSeries.from_terms([(0, 0, n, 1)], qcap)
        term = term * pochhammer_finite(base, k - 1, n, qcap).invert()
        term = term * pochhammer_finite(YQ, 1, (k - 1) * n, qcap).invert()
        total = total + term
    return total * pochhammer_infinite(Z, k - 1, qcap)


def _reference_distinct_sum(k, qcap):
    total = TriSeries(qcap)
    for n in range(qcap + 1):
        front = Monomial((-1) ** n, q=n, y=n)
        term = pochhammer_finite(Z, k, n, qcap) * _one_term(front, qcap)
        total = total + term * pochhammer_finite(Q, 1, n, qcap).invert()
    return total * pochhammer_infinite(Monomial(-1, q=1, y=1), 1, qcap)


def _reference_distinct_product(k, qcap):
    total = TriSeries(qcap)
    for n in range(qcap + 1):
        term = pochhammer_finite(Monomial(-1, q=1, y=1), 1, k * n, qcap)
        term = term * _one_term(Monomial(1, z=n), qcap)
        term = term * pochhammer_finite(Monomial(1, q=k), k, n, qcap).invert()
        total = total + term
    return total * pochhammer_infinite(Z, k, qcap)


def _reference_durfee(qcap):
    total = TriSeries(qcap)
    n = 0
    while n * n <= qcap:
        term = TriSeries.from_terms([(n * n, n, n, 1)], qcap)
        term = term * pochhammer_finite(YQ, 1, n, qcap).invert()
        total = total + term * pochhammer_finite(Q, 1, n, qcap).invert()
        n += 1
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_forms_match_summands_built_from_scratch(k):
    for qcap in range(13):
        assert partition_measure_gf_sum(k, qcap) == _reference_partition_sum(k, qcap)
        assert distinct_measure_gf_sum(k, qcap) == _reference_distinct_sum(k, qcap)
        if k >= 2:
            got = partition_measure_gf_product(k, qcap)
            assert got == _reference_partition_product(k, qcap)
        assert distinct_measure_gf_product(k, qcap) == _reference_distinct_product(k, qcap)


def test_durfee_closed_form_matches_summands_built_from_scratch():
    for qcap in range(13):
        assert durfee_gf_closed(qcap) == _reference_durfee(qcap)


def _series_whose_z_never_passes_q(qcap):
    """(name, series) for the counted series, and the closed forms whose
    summands carry no more z than q."""
    for family in ORACLE_FAMILIES:
        for k in range(1, 8):
            yield f"measure_gf({family}, {k})", measure_gf(qcap, k, family)
    yield "durfee_gf", durfee_gf(qcap)
    yield "runs_gf", runs_gf(qcap)
    for k in range(1, 8):
        yield f"partition_measure_gf_sum({k})", partition_measure_gf_sum(k, qcap)
        yield f"distinct_measure_gf_sum({k})", distinct_measure_gf_sum(k, qcap)
    yield "durfee_gf_closed", durfee_gf_closed(qcap)
    for t in (Q, YQ):
        for sides in (euler_first_sides, bailey_daum_sides):
            lhs, rhs = sides(t, qcap)
            yield f"{sides.__name__}({t}) lhs", lhs
            yield f"{sides.__name__}({t}) rhs", rhs


def test_default_zcap_drops_nothing():
    # a k-measure, a Durfee side or a number of runs never exceeds the
    # length, nor the length the size: every term q^j z^f has f <= j, so
    # the cut in z at the q-order drops no term of these series.  A term
    # with j < f <= 16 would show at q-order 16 as one with f > j.
    for qcap in range(17):
        for name, series in _series_whose_z_never_passes_q(qcap):
            assert all(f <= j for j, _, f, _ in series.terms()), (qcap, name)


# ----------------------------------------------------- q-difference


@pytest.mark.parametrize("family", ["all", "distinct"])
@pytest.mark.parametrize("k", [1, 2])
def test_qdiff_residual_zero(family, k):
    assert _qdiff_residual(measure_gf(10, k, family), k, family).is_zero()


def test_qdiff_residual_zero_order():
    assert _qdiff_residual(measure_gf(0, 3), 3, "all").is_zero()


def test_qdiff_residual_distinct_k4():
    assert _qdiff_residual(measure_gf(12, 4, "distinct"), 4, "distinct").is_zero()


@pytest.mark.parametrize("key", ["sum-form", "product-form", "qdiff", "nonnegative"])
def test_family_checks_reject_bad_family(monkeypatch, key):
    # the family is refused before any series is built
    def no_build(*args):
        raise AssertionError(f"built {args}")

    for fname in ("measure_gf", "partition_measure_gf_sum", "partition_measure_gf_product",
                  "distinct_measure_gf_sum", "distinct_measure_gf_product"):
        monkeypatch.setattr(identities, fname, no_build)
    report = _run(key, k=2, qcap=5, family="weird")
    assert report.error == "ValueError: unknown family 'weird'"


# ------------------------------------------------------------ checks


def _run(key, **kwargs):
    """The report of one check, run alone as a one-task suite."""
    (report,) = run_suite([(key, key, kwargs)])
    return report


def _passes(key, *kwargs_list):
    return all(_run(key, **kwargs).passed for kwargs in kwargs_list)


def test_sum_form_checks_pass():
    for family in ("all", "distinct"):
        report = _run("sum-form", k=3, qcap=10, family=family)
        assert report.passed and report.first_failure is None and report.error is None
        assert report.k == 3 and report.qcap == 10 and report.zcap is None


def test_product_form_checks_pass():
    assert _passes("product-form", dict(k=2, qcap=8, family="all"),
                   dict(k=1, qcap=8, family="distinct"))
    # its report names the cut in z, which is the q-order
    report = _run("product-form", k=2, qcap=8, family="all")
    assert (report.k, report.qcap, report.zcap) == (2, 8, 8)


def test_qdiff_check_pass():
    assert _passes("qdiff", dict(k=2, qcap=10, family="all"),
                   dict(k=2, qcap=10, family="distinct"))


def test_equidistribution_and_closed_form():
    assert _passes("durfee-equidistribution", dict(qcap=12))
    assert _passes("durfee-closed-form", dict(qcap=12))


def test_parity_check_passes_and_counts_n8():
    assert _passes("parity-distinct-odd", dict(qcap=12))
    # n = 8 spot value: signed excess equals the two distinct-odd partitions
    signed = sum(
        -1 if (len(p) + kmeasure(p, 2)) % 2 else 1 for p in enumerate_partitions(8)
    )
    assert signed == 2
    assert list(enumerate_partitions(8, "distinct-odd")) == [(7, 1), (5, 3)]
    # n = 2 has no distinct-odd partition
    assert sum(1 for _ in enumerate_partitions(2, "distinct-odd")) == 0


def test_nonnegativity_checks_pass():
    assert _passes("nonnegative", dict(k=2, qcap=12, family="all"),
                   dict(k=1, qcap=12, family="distinct"))


def test_sylvester_check_passes():
    report = _run("sylvester-runs", qcap=20)
    assert report.passed and report.qcap == 20 and report.k is None
    # q-order 80 counts 1.65 million partitions, which are never enumerated
    assert _passes("sylvester-runs", dict(qcap=80))


def _histogram_scan(odd, runs, n_max):
    """The first failure as the per-n histogram scan of sylvester-runs
    reported it before the check compared series: the least n whose
    histograms differ, and there the least differing value."""
    for n, (by_distinct, by_runs) in enumerate(
        zip(_histograms(odd, n_max), _histograms(runs, n_max))
    ):
        if by_distinct != by_runs:
            r = min(
                v for v in set(by_distinct) | set(by_runs)
                if by_distinct.get(v, 0) != by_runs.get(v, 0)
            )
            return (n, r, 0, by_distinct.get(r, 0), by_runs.get(r, 0))
    return None


@pytest.mark.parametrize("side, terms", [
    (1, [(7, 0, 2, 1)]),  # one count off by one
    (1, [(3, 0, 1, -2)]),  # a count cancelled to zero
    (0, [(5, 0, 9, 1)]),  # a value no partition of n has
    (0, [(12, 0, 3, 5), (12, 0, 1, -1)]),  # two values at one n: the least wins
    (1, [(9, 0, 2, 4), (6, 0, 4, -3)]),  # two n: the least wins
])
def test_failing_sylvester_reports_as_the_histogram_scan(monkeypatch, side, terms):
    n_max = 14
    sides = list(sylvester_gfs(n_max))
    sides[side] = sides[side] + TriSeries.from_terms(terms, n_max)
    monkeypatch.setattr(identities, "sylvester_gfs", lambda n: tuple(sides))
    report = _run("sylvester-runs", qcap=n_max)
    assert not report.passed and report.error is None
    assert report.first_failure == Mismatch(*_histogram_scan(*sides, n_max))


# ------------------------------------------------- building blocks


def test_euler_first_parameters():
    assert _passes("euler-first", *(dict(t=t, qcap=8) for t in EULER_FIRST_PARAMS))


def test_euler_first_partition_series():
    lhs, rhs = euler_first_sides(Q, 10)
    assert lhs == rhs == pochhammer_infinite(Q, 1, 10).invert()


def test_euler_first_rejects_constant():
    with pytest.raises(ValueError):
        euler_first_sides(Monomial(1), 8)
    with pytest.raises(ValueError):
        euler_first_sides(Z, 8)  # z parameter without a q-exponent


def test_euler_second_parameters():
    assert _passes("euler-second", *(dict(t=t, qcap=10) for t in EULER_SECOND_PARAMS))


def test_euler_second_pentagonal_layers():
    # oracle: signed count of distinct partitions per Euler's pentagonal
    # number theorem, by direct enumeration
    qcap = 12
    expected = TriSeries.from_terms(
        (
            (n, 0, 0, sum((-1) ** len(p) for p in enumerate_partitions(n, "distinct")))
            for n in range(qcap + 1)
        ),
        qcap,
    )
    assert pochhammer_infinite(Q, 1, qcap) == expected
    assert _passes("euler-second", dict(t=Q, qcap=qcap))


def test_bailey_daum_parameters():
    assert _passes("bailey-daum", *(dict(a=a, qcap=12) for a in BAILEY_DAUM_PARAMS))


def test_heine_limit_passes():
    assert _passes("heine-limit", dict(qcap=12))


def test_generalized_heine_parameters():
    assert _passes("heine-general", *(dict(qcap=10, **params)
                                      for _, params in HEINE_GENERAL_PARAMS))


def test_generalized_heine_rejects_bad_ratio():
    with pytest.raises(ValueError, match="parameter specialization unsupported"):
        generalized_heine_sides(
            a=Q, b=Monomial(1, q=2), c=Q, t=Q, h=1, qcap=8
        )


def test_generalized_heine_rejects_degenerate_params():
    with pytest.raises(ValueError):
        generalized_heine_sides(a=Q, b=Q, c=Q, t=Q, h=0, qcap=8)
    with pytest.raises(ValueError):
        generalized_heine_sides(a=Q, b=Q, c=Monomial(1, q=2), t=Z, h=1, qcap=8)


HEINE_H1 = dict(a=YQ, c=Monomial(1, q=2), t=Monomial(1, q=1, z=1), h=1, qcap=4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Q.divide(Monomial(0)), ZeroDivisionError, "division by the zero monomial"),
    (lambda: TriSeries.one(4).scale_y(-1), ValueError, "scale_y exponent must be nonnegative"),
    (lambda: pochhammer_finite(Q, -1, 2, 4), ValueError, "pochhammer step must be nonnegative"),
    (lambda: pochhammer_finite(Q, 1, -1, 4), ValueError, "pochhammer length must be nonnegative"),
    (lambda: euler_second_sides(Monomial(-1), 4), ValueError, "constant parameter"),
    (lambda: generalized_heine_sides(b=Monomial(0), **HEINE_H1), ValueError,
     "parameter specialization unsupported"),
    (lambda: generalized_heine_sides(b=Monomial(1, y=1), **HEINE_H1), ValueError,
     "sum does not terminate: b needs q-order or z-order"),
    (lambda: enumerate_partitions(-1), ValueError, "n must be nonnegative"),
    (lambda: measure_gfs(4, [2, 0]), ValueError, "k must be positive"),
    (lambda: measure_gfs(4, [-1]), ValueError, "k must be positive"),
], ids=["divide-by-zero-monomial", "scale_y-negative", "pochhammer-negative-step",
        "pochhammer-negative-length", "euler-second-constant", "heine-b-zero",
        "heine-b-no-q-or-z", "enumerate-negative-n", "measure-k-zero", "measure-k-negative"])
def test_each_refusal_names_its_reason(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_generalized_heine_rational_coefficients():
    # c/b = 2q: coefficients other than 1 keep the ring integral; c/b =
    # 3/2 q is no integer monomial, and the check reports it unsupported
    params = dict(a=YQ, b=Monomial(2, q=1), t=Monomial(1, q=1), h=1, qcap=8)
    assert _passes("heine-general", dict(params, c=Monomial(4, q=2)))
    report = _run("heine-general", **dict(params, c=Monomial(3, q=2)))
    assert not report.passed
    assert report.error == "ValueError: parameter specialization unsupported"


def test_failing_building_block_reports_its_first_difference(monkeypatch):
    # a right side off by q^3 y: the check reports the pair's first difference
    qcap = 8
    lhs, rhs = euler_second_sides(YQ, qcap)
    extra = TriSeries.from_terms([(3, 1, 0, 1)], qcap)
    a, b = coefficients(lhs).get((3, 1, 0), 0), coefficients(rhs).get((3, 1, 0), 0)
    expected = Mismatch(3, 1, 0, a, b + 1)
    real = identities.pochhammer_infinite
    monkeypatch.setattr(
        identities, "pochhammer_infinite", lambda *args: real(*args) + extra
    )
    report = _run("euler-second", t=YQ, qcap=qcap)
    assert not report.passed and report.error is None
    assert report.first_failure == expected
    assert (report.k, report.qcap, report.zcap) == (None, qcap, qcap)


def test_statistic_bounds_in_closed_forms():
    # any coefficient of y^l z^m q^n counts partitions with measure m and
    # length l, so m <= l <= n must hold wherever a term survives
    for s in (partition_measure_gf_sum(2, 12), distinct_measure_gf_sum(3, 12)):
        assert all(f <= e <= j or j == 0 for (j, e, f, _) in s.terms())


# -------------------------------------------------------- reporting


def test_report_failure_coordinates():
    lhs = TriSeries.one(5)
    rhs = TriSeries.from_terms([(0, 0, 0, 1), (2, 1, 0, 3)], 5)
    fail = _first_difference(lhs, rhs)
    report = identities._report(("demo", "demo", dict(qcap=5)), 0.0, fail)
    assert not report.passed and report.error is None
    assert report.first_failure == Mismatch(2, 1, 0, 0, 3)
    assert "q^2 y^1 z^0" in str(report.first_failure)
    assert (report.k, report.qcap, report.zcap) == (None, 5, None)


def _seeded(built):
    """A memo that hands these series to the checks."""
    memo = _Artifacts()
    memo._built.update(built)
    return memo


def _run_seeded(monkeypatch, built, key, **kwargs):
    """The report of one check whose unit memo starts from ``built``."""
    monkeypatch.setattr(identities, "_Artifacts", lambda: _seeded(built))
    return _run(key, **kwargs)


@pytest.mark.parametrize("k, substitutions", [(1, [1]), (2, [1, 2])])
def test_qdiff_residual_substitutes_each_power_once(monkeypatch, k, substitutions):
    calls = []
    scale_y = TriSeries.scale_y

    def counted(self, j):
        calls.append(j)
        return scale_y(self, j)

    monkeypatch.setattr(TriSeries, "scale_y", counted)
    assert _qdiff_residual(measure_gf(12, k), k, "all").is_zero()
    assert sorted(calls) == substitutions


def test_failing_qdiff_reports_the_residual_against_zero(monkeypatch):
    qcap = 10
    g = measure_gf(qcap, 3)  # the series of the wrong k
    advanced = _pochhammer_apply(g.scale_y(2), YQ, 1, 2, divide=True)
    residual = g - g.scale_y(1) - advanced * _one_term(Monomial(1, q=1, y=1, z=1), qcap)
    j, e, f, c = residual.terms()[0]
    built = {("measure", qcap, 2, "all"): g}
    report = _run_seeded(monkeypatch, built, "qdiff", k=2, qcap=qcap, family="all")
    assert report.first_failure == Mismatch(j, e, f, c, 0)


def test_failing_nonnegativity_reports_the_first_bad_term(monkeypatch):
    qcap = 8
    for series in (
        pochhammer_infinite(YQ, 1, qcap),  # packed, negative terms
        TriSeries.from_terms([(0, 0, 0, 1), (3, 1, 0, -2)], qcap),  # dict layers
    ):
        j, e, f, c = next(t for t in series.terms() if t[3] < 0)
        built = {("closed_sum", 1, qcap, "distinct"): series}
        report = _run_seeded(monkeypatch, built, "nonnegative", k=1, qcap=qcap, family="distinct")
        assert report.first_failure == Mismatch(j, e, f, c, 0)


def test_failing_parity_reports_the_first_n_of_either_pair(monkeypatch):
    def loop(signs, counts, product, qcap):
        # the per-n scan the check made before it compared series
        rows = [coefficients(s) for s in (signs, counts, product)]
        for n in range(qcap + 1):
            a, b, c = (row.get((n, 0, 0), 0) for row in rows)
            if a != b:
                return Mismatch(n, 0, 0, a, b)
            if b != c:
                return Mismatch(n, 0, 0, b, c)
        return None

    qcap = 12
    product = pochhammer_infinite(Monomial(-1, q=1), 2, qcap)
    odd = measure_gf(qcap, 1, "odd")
    # first a wrong count: both pairs fail at n = 2, and the first reports;
    # then sign series that agree with it: only the second pair fails
    flat = odd.set_y(1).set_z(1)
    for built in (
        {("measure", qcap, 1, "distinct-odd"): odd},
        {("measure", qcap, 1, "distinct-odd"): odd, ("measure", qcap, 2, "all"): flat},
    ):
        memo = _seeded(built)
        signs = memo.measure(qcap, 2, "all").set_y(-1).set_z(-1)
        counts = memo.measure(qcap, 1, "distinct-odd").set_y(1).set_z(1)
        expected = loop(signs, counts, product, qcap)
        assert expected is not None
        report = _run_seeded(monkeypatch, built, "parity-distinct-odd", qcap=qcap)
        assert report.first_failure == expected


def test_report_serialization_round_trip():
    report = _run("sum-form", k=2, qcap=6, family="all")
    data = report.to_dict()
    assert data["name"] == "sum-form"
    assert data["passed"] is True
    assert data["first_failure"] is None
    assert isinstance(data["elapsed_ms"], float)
    parsed = json.loads(reports_json([report]))
    assert parsed[0]["k"] == 2


def test_report_formats_on_failure():
    bad = IdentityReport(
        "demo", 3, 6, None, False, Mismatch(1, 0, 0, -1, 2), 0.01
    )
    table = reports_table([bad])
    assert "FAIL" in table and "-1 != 2" in table
    csv = reports_csv([bad])
    assert csv.splitlines()[0] == "name,k,qcap,zcap,passed,first_failure"
    assert "False" in csv


def test_default_suite_runs_green():
    tasks = default_tasks(6, [1, 2])
    reports = run_suite(tasks)
    assert reports and all(r.passed for r in reports)
    names = [(r.name, r.k) for r in reports]
    assert names == sorted(names, key=lambda p: (p[0], p[1] if p[1] else 0))


def test_suite_parallel_matches_serial():
    tasks = default_tasks(5, [2])
    serial = run_suite(tasks, jobs=1)
    parallel = run_suite(tasks, jobs=2)
    assert [(r.name, r.k, r.passed) for r in serial] == [
        (r.name, r.k, r.passed) for r in parallel
    ]


# ------------------------------------------------------ shared series


def _without_elapsed(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]


def _counting_builds(monkeypatch):
    """Record the arguments of every build of a shared series, by builder."""
    builds = {}

    def counting(fname):
        real = getattr(identities, fname)

        def fake(*args):
            builds.setdefault(fname, []).append(args)
            return real(*args)

        monkeypatch.setattr(identities, fname, fake)

    for fname in ("measure_gf", "durfee_gf", "partition_measure_gf_sum",
                  "distinct_measure_gf_sum", "partition_measure_gf_product",
                  "distinct_measure_gf_product", "durfee_gf_closed"):
        counting(fname)

    def counts(fname):
        keys = builds.get(fname, [])
        return {key: keys.count(key) for key in keys}

    return counts


def test_suite_builds_each_shared_series_once_per_unit(monkeypatch):
    counts = _counting_builds(monkeypatch)
    reports = run_suite(default_tasks(8, [1, 2, 3]), jobs=1)
    assert all(r.passed for r in reports)

    assert set(counts("measure_gf").values()) == {1}
    # one series per (family, k), and the distinct-odd count of the parity
    # check, which reads it from the ("all", 2) unit's memo
    assert set(counts("measure_gf")) == {
        (8, 1, "all"), (8, 1, "distinct"), (8, 2, "all"), (8, 2, "distinct"),
        (8, 3, "all"), (8, 3, "distinct"), (8, 1, "distinct-odd"),
    }
    assert counts("durfee_gf") == {(8,): 1}
    assert set(counts("distinct_measure_gf_sum").values()) == {1}
    # nonnegative[all] at k also reads the sum form at k + 1, which is the
    # sum form of the unit at k + 1
    assert max(counts("partition_measure_gf_sum").values()) <= 2
    # heine-limit reads the ("all", 2) unit's product form and Durfee closed
    # form, which durfee-closed-form reads too
    assert counts("durfee_gf_closed") == {(8,): 1}
    assert counts("partition_measure_gf_product") == {(2, 8): 1, (3, 8): 1}
    assert set(counts("distinct_measure_gf_product").values()) == {1}


def test_heine_limit_builds_its_product_form_in_the_durfee_unit(monkeypatch):
    # with no k = 2 unit, the Durfee unit builds the product form once
    counts = _counting_builds(monkeypatch)
    tasks = default_tasks(8, [3])
    assert not any(task[2].get("k") == 2 for task in tasks)
    assert all(r.passed for r in run_suite(tasks, jobs=1))
    assert counts("partition_measure_gf_product") == {(2, 8): 1, (3, 8): 1}
    assert counts("durfee_gf_closed") == {(8,): 1}
    (unit,) = {identities._unit_key(i, task) for i, task in enumerate(tasks)
               if task[1] in ("heine-limit", "durfee-closed-form")}
    assert unit == ("all", 2)


def test_sharing_changes_no_report():
    tasks = default_tasks(10, [1, 2, 3, 4])
    alone = [report for task in tasks for report in run_suite([task])]
    alone.sort(key=lambda r: (r.name, r.k if r.k is not None else 0))
    expected = _without_elapsed(alone)
    assert all(r.passed for r in alone)
    assert _without_elapsed(run_suite(tasks, jobs=1)) == expected
    assert _without_elapsed(run_suite(tasks, jobs=2)) == expected
    assert _without_elapsed(run_suite(tasks, jobs=3)) == expected
    # more jobs than units: one worker per unit
    assert _without_elapsed(run_suite(tasks, jobs=1000)) == expected


def test_checks_leave_shared_series_unchanged(monkeypatch):
    memos = []

    class Recording(identities._Artifacts):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(identities, "_Artifacts", Recording)
    run_suite(default_tasks(10, [1, 2, 3]), jobs=1)
    shared = [(key, series) for memo in memos for key, series in memo._built.items()]
    assert {key[0] for key, _ in shared} == {
        "measure", "closed_sum", "product", "durfee_closed", "durfee",
    }
    for (getter, *args), series in shared:
        assert getattr(identities._Artifacts(), getter)(*args) == series


# ------------------------------------------------------ forked workers


def test_plan_is_the_task_order(monkeypatch):
    # Units start in the order their first task appears, and the default
    # suite lists its costliest check first.
    from kmeasure import forked

    plans = []

    def no_workers(run_unit, lost, plan, workers):
        plans.append(plan)
        return [None] * len(plan)  # every unit runs in this process

    monkeypatch.setattr(forked, "run_forked", no_workers)
    tasks = default_tasks(6, [1, 2])
    assert all(r.passed for r in run_suite(tasks, jobs=2))
    (plan,) = plans
    assert sum(map(len, plan)) == len(tasks)
    firsts = [tasks.index(unit[0]) for unit in plan]
    assert firsts == sorted(firsts)
    assert [name for name, _, _ in plan[0]] == ["heine-general[h=1]"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_forks_no_more_workers_than_units(monkeypatch):
    # three units: ("all", 2), ("distinct", 2) and the Sylvester check
    tasks = [
        task for task in default_tasks(6, [2])
        if task[1] in ("sum-form", "durfee-equidistribution", "sylvester-runs")
    ]
    expected = _without_elapsed(run_suite(tasks, jobs=1))
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert _without_elapsed(run_suite(tasks, jobs=10**6)) == expected
    assert len(forks) == 3
    _assert_no_child_left()


_TEST_PROCESS = os.getpid()


def _refuse_the_parent():
    """Fail a lost unit that runs in the test process, which would
    otherwise end pytest with no summary and no test name."""
    if os.getpid() == _TEST_PROCESS:
        raise AssertionError("a lost unit ran in the parent")


def _exit(status):
    def die(memo, **kwargs):
        _refuse_the_parent()
        os._exit(status)

    return die


def _kill(memo, **kwargs):
    _refuse_the_parent()
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("dying", [
    {"durfee-closed-form": (_exit(3), 3)},
    {"durfee-closed-form": (_kill, -signal.SIGKILL)},
    # more deaths than workers: each dead worker is replaced while units
    # are left, and each lost unit carries the status of its own worker
    {"durfee-closed-form": (_exit(3), 3), "sylvester-runs": (_exit(4), 4),
     "bailey-daum": (_kill, -signal.SIGKILL)},
])
def test_dead_worker_fails_only_its_unit(monkeypatch, dying):
    tasks = default_tasks(6, [1, 2])
    expected = {(r["name"], r["k"]): r for r in _without_elapsed(run_suite(tasks, jobs=1))}
    for key, (die, _) in dying.items():
        monkeypatch.setitem(identities._CHECK_FUNCS, key, die)
    statuses = {}  # unit key -> status of the worker that dies in it
    for index, (_, key, _) in enumerate(tasks):
        if key in dying:
            statuses[identities._unit_key(index, tasks[index])] = dying[key][1]

    reports = _without_elapsed(run_suite(tasks, jobs=2))
    assert len(reports) == len(tasks)
    by_name = {(r["name"], r["k"]): r for r in reports}
    for index, (name, _, kwargs) in enumerate(tasks):
        status = statuses.get(identities._unit_key(index, tasks[index]))
        want = expected[(name, kwargs.get("k"))]
        if status is not None:
            want = dict(want, passed=False, first_failure=None,
                        error=f"ChildProcessError: worker exited with status {status}")
        assert by_name[(name, kwargs.get("k"))] == want
    # the ("all", 2) unit lost every one of its checks, not only the one that died
    assert sum(not r["passed"] for r in reports) > len(dying)
    _assert_no_child_left()


def test_lost_unit_carries_the_status_of_its_own_worker(monkeypatch):
    # The worker that takes plan unit 0 dies (status 5) before it runs a
    # check, and later workers die in the euler-first units (status 4).
    tasks = default_tasks(6, [1, 2])
    expected = {(r["name"], r["k"]): r for r in _without_elapsed(run_suite(tasks, jobs=1))}
    units = {}
    for index, task in enumerate(tasks):
        units.setdefault(identities._unit_key(index, task), []).append(task)
    first = next(iter(units.values()))  # plan unit 0, heine-general[h=1]
    statuses = {(name, kwargs.get("k")): 5 for name, _, kwargs in first}
    statuses.update({(name, None): 4 for name, key, _ in tasks if key == "euler-first"})
    parent, real_read = os.getpid(), os.read

    def read(fd, size):
        data = real_read(fd, size)
        if data == (0).to_bytes(4, "little") and os.getpid() != parent:
            os._exit(5)  # a worker that has just read the index of unit 0
        return data

    monkeypatch.setattr(os, "read", read)
    monkeypatch.setitem(identities._CHECK_FUNCS, "euler-first", _exit(4))
    reports = _without_elapsed(run_suite(tasks, jobs=2))
    assert len(reports) == len(tasks)
    for report in reports:
        key = (report["name"], report["k"])
        want = expected[key]
        if key in statuses:
            want = dict(want, passed=False, first_failure=None,
                        error=f"ChildProcessError: worker exited with status {statuses[key]}")
        assert report == want
    _assert_no_child_left()


_FDS = "/proc/self/fd"


def _unreadable(file):
    raise RuntimeError("unreadable batch")


@pytest.mark.skipif(not os.path.isdir(_FDS), reason="no /proc/self/fd to list")
@pytest.mark.parametrize("case", ["normal", "dying", "raising"])
def test_suite_leaves_no_pipe_open(monkeypatch, case):
    import marshal

    tasks = default_tasks(6, [1, 2])
    before = sorted(os.listdir(_FDS))
    if case == "normal":
        run_suite(tasks, jobs=2)
    elif case == "dying":
        monkeypatch.setitem(identities._CHECK_FUNCS, "durfee-closed-form", _exit(3))
        run_suite(tasks, jobs=3)
    else:
        monkeypatch.setattr(marshal, "load", _unreadable)
        with pytest.raises(RuntimeError, match="unreadable batch"):
            run_suite(tasks, jobs=2)
    assert sorted(os.listdir(_FDS)) == before
    _assert_no_child_left()


def _fails_after(function, count, error):
    """``function``, which raises ``error`` once it has run ``count`` times."""
    calls = 0

    def wrapper(*args):
        nonlocal calls
        calls += 1
        if calls > count:
            raise error
        return function(*args)

    return wrapper


def _unit_names(tasks):
    """The units ``run_suite`` plans for ``tasks``, by the name of each
    unit's first check."""
    units = {}
    for index, task in enumerate(tasks):
        units.setdefault(identities._unit_key(index, task), []).append(task)
    return {_unit_name(unit): unit for unit in units.values()}


def _unit_name(unit):
    name, _, kwargs = unit[0]
    return f"{name}@{kwargs.get('k')}"


def _log_units(monkeypatch, path):
    """Make every run of a unit, in any process, append its pid and unit
    name to ``path``; return a function that reads them back as pairs."""
    run_unit = identities._run_unit

    def logged(unit):
        with open(path, "a") as log:  # appends from several processes land whole
            log.write(f"{os.getpid()} {_unit_name(unit)}\n")
        return run_unit(unit)

    monkeypatch.setattr(identities, "_run_unit", logged)
    return lambda: [(int(pid), name) for pid, name in map(str.split, path.read_text().splitlines())]


def _cannot_start(error):
    return f"kmeasure: cannot start a worker ({error}); checks no worker takes run in this process\n"


@pytest.mark.parametrize("name, count, error", [
    # no worker starts
    ("fork", 0, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    # one real worker starts and holds a unit; the second fork fails
    ("fork", 1, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    # one real worker starts; the second worker's result pipe cannot be made
    ("pipe", 3, OSError(errno.EMFILE, "Too many open files")),
])
def test_suite_runs_in_the_parent_when_workers_cannot_start(
    monkeypatch, capsys, tmp_path, name, count, error
):
    tasks = default_tasks(6, [1, 2])
    units = sorted(_unit_names(tasks))
    expected = _without_elapsed(run_suite(tasks, jobs=1))
    fds = os.path.isdir(_FDS) and sorted(os.listdir(_FDS))
    runs = _log_units(monkeypatch, tmp_path / "runs")
    monkeypatch.setattr(os, name, _fails_after(getattr(os, name), count, error))
    assert _without_elapsed(run_suite(tasks, jobs=2)) == expected
    assert capsys.readouterr().err == _cannot_start(error)
    # Each unit runs once.  With no worker, all of them run in this process;
    # with one, that worker takes them all.
    assert sorted(unit for _, unit in runs()) == units
    in_parent = sorted(unit for pid, unit in runs() if pid == os.getpid())
    assert in_parent == (units if count == 0 else [])
    assert not fds or sorted(os.listdir(_FDS)) == fds
    _assert_no_child_left()


def test_failed_replacement_fork_reruns_no_unit(monkeypatch, capsys, tmp_path):
    # The worker that holds the ("all", 2) unit dies in durfee-closed-form
    # (status 3), and the fork that would replace it, the third, fails.  The
    # other worker waits, in every unit the plan puts after that one, for
    # that fork to be tried, so the death and the failed fork come while
    # units are left to hand out.
    tasks = default_tasks(20, [1, 2, 3])
    units = _unit_names(tasks)
    plan = list(units.values())
    lost = units["heine-limit@None"]  # the ("all", 2) unit starts with heine-limit
    later = plan[plan.index(lost) + 1:]
    expected = _without_elapsed(run_suite(tasks, jobs=1))
    parent, gate = os.getpid(), os.pipe()
    closed_form = identities._CHECK_FUNCS["durfee-closed-form"]

    def dies_in_workers(memo, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return closed_form(memo, **kwargs)

    monkeypatch.setitem(identities._CHECK_FUNCS, "durfee-closed-form", dies_in_workers)
    runs = _log_units(monkeypatch, tmp_path / "runs")
    logged = identities._run_unit

    def gated(unit):
        if os.getpid() != parent and unit in later:
            select.select([gate[0]], [], [], 60)  # the failing fork opens the gate
        return logged(unit)

    monkeypatch.setattr(identities, "_run_unit", gated)
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) <= 2:
            return real_fork()
        os.write(gate[1], b"x")
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    try:
        reports = _without_elapsed(run_suite(tasks, jobs=2))
    finally:
        os.close(gate[0])
        os.close(gate[1])
    assert len(forks) == 3  # two real workers, and no fork after the failed one
    assert capsys.readouterr().err == _cannot_start(
        BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"))
    lost_checks = {(name, kwargs.get("k")) for name, _, kwargs in lost}
    for report, want in zip(reports, expected, strict=True):
        if (want["name"], want["k"]) in lost_checks:
            want = dict(want, passed=False, first_failure=None,
                        error="ChildProcessError: worker exited with status 3")
        assert report == want
    # every unit ran exactly once, each in a worker
    assert sorted(unit for _, unit in runs()) == sorted(units)
    assert all(pid != parent for pid, _ in runs())
    _assert_no_child_left()


def test_suite_reaps_its_workers_when_the_parent_raises(monkeypatch):
    import marshal

    def broken(file):
        raise RuntimeError("unreadable batch")

    monkeypatch.setattr(marshal, "load", broken)
    with pytest.raises(RuntimeError, match="unreadable batch"):
        run_suite(default_tasks(6, [1, 2]), jobs=2)
    _assert_no_child_left()


def test_worker_that_dies_within_a_record_loses_only_its_unit(monkeypatch):
    # The worker that runs the Sylvester unit sends the first half of that
    # unit's record, flushes it, and exits with status 6.  The parent reads a
    # record cut short, which it must take for the worker's death.
    import marshal

    tasks = default_tasks(6, [1, 2])
    expected = _without_elapsed(run_suite(tasks, jobs=1))
    fds = os.path.isdir(_FDS) and sorted(os.listdir(_FDS))
    run_unit, dump, held = identities._run_unit, marshal.dump, []

    def remembered(unit):
        held[:] = [unit]
        return run_unit(unit)

    def cut(outcomes, file):
        if held[0][0][1] != "sylvester-runs":
            return dump(outcomes, file)
        _refuse_the_parent()
        record = marshal.dumps(outcomes)
        file.write(record[:len(record) // 2])
        file.flush()
        os._exit(6)

    monkeypatch.setattr(identities, "_run_unit", remembered)
    monkeypatch.setattr(marshal, "dump", cut)
    reports = _without_elapsed(run_suite(tasks, jobs=2))
    for report, want in zip(reports, expected, strict=True):
        if want["name"] == "sylvester-runs":
            want = dict(want, passed=False, first_failure=None,
                        error="ChildProcessError: worker exited with status 6")
        assert report == want
    assert sum(not r["passed"] for r in reports) == 1
    assert not fds or sorted(os.listdir(_FDS)) == fds
    _assert_no_child_left()


def test_pooled_outcomes_carry_a_large_failure_and_an_error_exactly(monkeypatch):
    # a worker sends back plain data: a 4,000-bit coefficient comes back
    # exact, and a unit-mate that raises reports its own error
    fail = (3, 1, 0, 2**4000 + 1, -(2**3999))

    def raises(memo, **kwargs):
        raise ArithmeticError("unit-mate raised")

    # both checks belong to the ("all", 2) unit
    monkeypatch.setitem(identities._CHECK_FUNCS, "durfee-closed-form", lambda memo, **kwargs: fail)
    monkeypatch.setitem(identities._CHECK_FUNCS, "parity-distinct-odd", raises)
    tasks = default_tasks(6, [1, 2])
    pooled = run_suite(tasks, jobs=2)
    assert _without_elapsed(pooled) == _without_elapsed(run_suite(tasks, jobs=1))
    by_name = {r.name: r for r in pooled}
    failed = by_name["durfee-closed-form"]
    assert type(failed.first_failure) is Mismatch and failed.first_failure == fail
    assert by_name["parity-distinct-odd"].error == "ArithmeticError: unit-mate raised"
    assert sum(not r.passed for r in pooled) == 2
    _assert_no_child_left()


def test_suite_runs_more_units_than_the_work_pipe_holds(monkeypatch):
    # 20,000 units, each handed out and sent back in a round trip of its own
    def instant(memo):
        return None

    monkeypatch.setitem(identities._CHECK_FUNCS, "instant", instant)
    tasks = [(f"instant[{i}]", "instant", {}) for i in range(20_000)]
    reports = run_suite(tasks, jobs=2)
    assert [r.name for r in reports] == sorted(name for name, _, _ in tasks)
    assert all(r.passed for r in reports)
    _assert_no_child_left()
