"""Closed-form builders and identity checks at desk-scale truncations."""

import json
import os
import signal
from fractions import Fraction

import pytest

from kmeasure import identities
from kmeasure.identities import (
    BAILEY_DAUM_PARAMS,
    EULER_FIRST_PARAMS,
    EULER_SECOND_PARAMS,
    HEINE_GENERAL_PARAMS,
    IdentityReport,
    Mismatch,
    bailey_daum,
    default_tasks,
    distinct_measure_gf_product,
    distinct_measure_gf_sum,
    durfee_closed_check,
    durfee_gf_closed,
    equidistribution_check,
    euler_first,
    euler_first_sides,
    euler_second,
    generalized_heine,
    heine_limit,
    nonnegativity_check,
    parity_check,
    partition_measure_gf_product,
    partition_measure_gf_sum,
    product_form_check,
    qdiff_check,
    qdiff_residual,
    reports_csv,
    reports_json,
    reports_table,
    run_suite,
    sum_form_check,
    sylvester_check,
)
from kmeasure.partitions import durfee_gf, enumerate_partitions, kmeasure, measure_gf
from kmeasure.series import (
    Monomial,
    Q,
    TriSeries,
    YQ,
    Z,
    pochhammer_finite,
    pochhammer_infinite,
)


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
    got = partition_measure_gf_product(2, 3, 3)
    want = partition_measure_gf_sum(2, 3).truncate(zcap=3)
    assert got == want


def test_partition_product_form_order_zero():
    assert partition_measure_gf_product(2, 0, 0) == TriSeries.one(0, 0)


def test_partition_product_form_z_cannot_exceed_q():
    # the statistic is at most the size, so assembled coefficients with
    # z-exponent above the q-exponent must have cancelled
    s = partition_measure_gf_product(3, 6, 6)
    assert all(f <= j for (j, e, f, c) in s.terms())


def test_partition_product_form_rejects_k1():
    with pytest.raises(ValueError, match="degenerate base q\\^0"):
        partition_measure_gf_product(1, 5, 5)


def test_distinct_product_form_cross_checks():
    got = distinct_measure_gf_product(1, 4, 4)
    assert got == distinct_measure_gf_sum(1, 4).truncate(zcap=4)
    got = distinct_measure_gf_product(3, 5, 5)
    assert got == measure_gf(5, 3, "distinct").truncate(zcap=5)


# ------------------------------------------------------------- durfee


def test_durfee_closed_form_order_zero():
    assert durfee_gf_closed(0) == TriSeries.one(0)


def test_durfee_closed_form_square_coefficient():
    assert durfee_gf_closed(4).coefficient(4, 2, 2) == 1


def test_durfee_closed_form_matches_enumeration():
    assert durfee_gf_closed(12) == durfee_gf(12)


# ------------------------------- reference: every summand from scratch
#
# The builders derive summand n+1 from summand n and stop at the first
# summand that vanishes.  These references rebuild each summand's
# Pochhammer products from scratch, divide through the dense inverse, and
# sum to explicit bounds on the summands' q-order or z-degree.


def _reference_partition_sum(k, qcap):
    total = TriSeries.zero(qcap)
    n = 0
    while n * (n + 1) // 2 <= qcap:
        front = Monomial((-1) ** n, q=n * (n + 1) // 2, y=n)
        term = pochhammer_finite(Z, k - 1, n, qcap).times_monomial(front)
        total = total + term / pochhammer_finite(Q, 1, n, qcap)
        n += 1
    return total / pochhammer_infinite(YQ, 1, qcap)


def _reference_partition_product(k, qcap, zcap):
    base = Monomial(1, q=k - 1)
    total = TriSeries.zero(qcap, zcap)
    for n in range(zcap + 1):
        term = TriSeries.from_monomial(Monomial(1, z=n), qcap, zcap)
        term = term / pochhammer_finite(base, k - 1, n, qcap, zcap)
        term = term / pochhammer_finite(YQ, 1, (k - 1) * n, qcap, zcap)
        total = total + term
    return total * pochhammer_infinite(Z, k - 1, qcap, zcap)


def _reference_distinct_sum(k, qcap):
    total = TriSeries.zero(qcap)
    for n in range(qcap + 1):
        front = Monomial((-1) ** n, q=n, y=n)
        term = pochhammer_finite(Z, k, n, qcap).times_monomial(front)
        total = total + term / pochhammer_finite(Q, 1, n, qcap)
    return total * pochhammer_infinite(Monomial(-1, q=1, y=1), 1, qcap)


def _reference_distinct_product(k, qcap, zcap):
    total = TriSeries.zero(qcap, zcap)
    for n in range(zcap + 1):
        term = pochhammer_finite(Monomial(-1, q=1, y=1), 1, k * n, qcap, zcap)
        term = term.times_monomial(Monomial(1, z=n))
        term = term / pochhammer_finite(Monomial(1, q=k), k, n, qcap, zcap)
        total = total + term
    return total * pochhammer_infinite(Z, k, qcap, zcap)


def _reference_durfee(qcap, zcap):
    total = TriSeries.zero(qcap, zcap)
    n = 0
    while n * n <= qcap:
        term = TriSeries.from_monomial(Monomial(1, q=n * n, y=n, z=n), qcap, zcap)
        term = term / pochhammer_finite(YQ, 1, n, qcap, zcap)
        total = total + term / pochhammer_finite(Q, 1, n, qcap, zcap)
        n += 1
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_forms_match_summands_built_from_scratch(k):
    for qcap in range(13):
        assert partition_measure_gf_sum(k, qcap) == _reference_partition_sum(k, qcap)
        assert distinct_measure_gf_sum(k, qcap) == _reference_distinct_sum(k, qcap)
        for zcap in range(13):
            if k >= 2:
                got = partition_measure_gf_product(k, qcap, zcap)
                assert got == _reference_partition_product(k, qcap, zcap)
            got = distinct_measure_gf_product(k, qcap, zcap)
            assert got == _reference_distinct_product(k, qcap, zcap)


def test_durfee_closed_form_matches_summands_built_from_scratch():
    for qcap in range(13):
        for zcap in (None, *range(13)):
            assert durfee_gf_closed(qcap, zcap) == _reference_durfee(qcap, zcap)


# ----------------------------------------------------- q-difference


@pytest.mark.parametrize("family", ["all", "distinct"])
@pytest.mark.parametrize("k", [1, 2])
def test_qdiff_residual_zero(family, k):
    assert qdiff_residual(k, 10, family).is_zero()


def test_qdiff_residual_zero_order():
    assert qdiff_residual(3, 0, "all").is_zero()


def test_qdiff_residual_distinct_k4():
    assert qdiff_residual(4, 12, "distinct").is_zero()


def test_qdiff_rejects_bad_family():
    with pytest.raises(ValueError, match="unknown family"):
        qdiff_residual(2, 5, "weird")


# ----------------------------------------------------- check wrappers


def test_sum_form_checks_pass():
    for family in ("all", "distinct"):
        report = sum_form_check(3, 10, family)
        assert report.passed and report.first_failure is None
        assert report.k == 3 and report.qcap == 10


def test_product_form_checks_pass():
    assert product_form_check(2, 8, 8, "all").passed
    assert product_form_check(1, 8, 8, "distinct").passed


def test_qdiff_check_pass():
    assert qdiff_check(2, 10, "all").passed
    assert qdiff_check(2, 10, "distinct").passed


def test_equidistribution_and_closed_form():
    assert equidistribution_check(12).passed
    assert durfee_closed_check(12).passed


def test_parity_check_passes_and_counts_n8():
    assert parity_check(12).passed
    # n = 8 spot value: signed excess equals the two distinct-odd partitions
    signed = sum(
        -1 if (len(p) + kmeasure(p, 2)) % 2 else 1 for p in enumerate_partitions(8)
    )
    assert signed == 2
    assert list(enumerate_partitions(8, "distinct-odd")) == [(7, 1), (5, 3)]
    # n = 2 has no distinct-odd partition
    assert sum(1 for _ in enumerate_partitions(2, "distinct-odd")) == 0


def test_nonnegativity_checks_pass():
    assert nonnegativity_check(2, 12, "all").passed
    assert nonnegativity_check(1, 12, "distinct").passed


def test_sylvester_check_passes():
    assert sylvester_check(20).passed
    # q-order 80 counts 1.65 million partitions, which are never enumerated
    assert sylvester_check(80).passed


# ------------------------------------------------- building blocks


def test_euler_first_parameters():
    for t in EULER_FIRST_PARAMS:
        assert euler_first(t, 8, 8).passed


def test_euler_first_partition_series():
    lhs, rhs = euler_first_sides(Q, 10)
    assert lhs == rhs == pochhammer_infinite(Q, 1, 10).invert()


def test_euler_first_rejects_constant():
    with pytest.raises(ValueError):
        euler_first(Monomial(1), 8, 8)
    with pytest.raises(ValueError):
        euler_first(Z, 8, None)  # z parameter without a z-cap


def test_euler_second_parameters():
    for t in EULER_SECOND_PARAMS:
        assert euler_second(t, 10, 6).passed


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
    assert euler_second(Q, qcap).passed


def test_bailey_daum_parameters():
    for a in BAILEY_DAUM_PARAMS:
        assert bailey_daum(a, 12).passed


def test_heine_limit_passes():
    assert heine_limit(12, 12).passed


def test_heine_limit_matches_product_form_k2():
    from kmeasure.identities import heine_limit_sides

    lhs, _ = heine_limit_sides(10, 10)
    assert lhs == partition_measure_gf_product(2, 10, 10)


def test_generalized_heine_parameters():
    for _, params in HEINE_GENERAL_PARAMS:
        assert generalized_heine(qcap=10, zcap=10, **params).passed


def test_generalized_heine_rejects_bad_ratio():
    with pytest.raises(ValueError, match="parameter specialization unsupported"):
        generalized_heine(
            a=Q, b=Monomial(1, q=2), c=Q, t=Q, h=1, qcap=8, zcap=8
        )


def test_generalized_heine_rejects_degenerate_params():
    with pytest.raises(ValueError):
        generalized_heine(a=Q, b=Q, c=Q, t=Q, h=0, qcap=8, zcap=8)
    with pytest.raises(ValueError):
        generalized_heine(a=Q, b=Q, c=Monomial(1, q=2), t=Z, h=1, qcap=8, zcap=8)


def test_generalized_heine_rational_coefficients():
    # coefficient ratio c/b = 3/2 * q exercises the rational coefficient ring
    report = generalized_heine(
        a=YQ,
        b=Monomial(2, q=1),
        c=Monomial(3, q=2),
        t=Monomial(1, q=1),
        h=1,
        qcap=8,
        zcap=8,
    )
    assert report.passed


def test_statistic_bounds_in_closed_forms():
    # any coefficient of y^l z^m q^n counts partitions with measure m and
    # length l, so m <= l <= n must hold wherever a term survives
    for s in (partition_measure_gf_sum(2, 12), distinct_measure_gf_sum(3, 12)):
        assert all(f <= e <= j or j == 0 for (j, e, f, _) in s.terms())


# -------------------------------------------------------- reporting


def test_report_failure_coordinates():
    lhs = TriSeries.one(5)
    rhs = TriSeries.from_terms([(0, 0, 0, 1), (2, 1, 0, 3)], 5)
    report = identities._verdict("demo", None, lhs, rhs, 5, None, 0.0)
    assert not report.passed
    assert report.first_failure == Mismatch(2, 1, 0, 0, 3)
    assert "q^2 y^1 z^0" in str(report.first_failure)


def test_report_serialization_round_trip():
    report = sum_form_check(2, 6)
    data = report.to_dict()
    assert data["name"] == "sum-form[all]"
    assert data["passed"] is True
    assert data["first_failure"] is None
    assert isinstance(data["elapsed_ms"], float)
    parsed = json.loads(reports_json([report]))
    assert parsed[0]["k"] == 2


def test_report_formats_on_failure():
    bad = IdentityReport(
        "demo", 3, 6, None, False, Mismatch(1, 0, 0, Fraction(1, 2), 2), 0.01
    )
    table = reports_table([bad])
    assert "FAIL" in table and "1/2 != 2" in table
    csv = reports_csv([bad])
    assert csv.splitlines()[0] == "name,k,qcap,zcap,passed,first_failure"
    assert "False" in csv


def test_default_suite_runs_green():
    tasks = default_tasks(6, 6, [1, 2])
    reports = run_suite(tasks)
    assert reports and all(r.passed for r in reports)
    names = [(r.name, r.k) for r in reports]
    assert names == sorted(names, key=lambda p: (p[0], p[1] if p[1] else 0))


def test_suite_parallel_matches_serial():
    tasks = default_tasks(5, 5, [2])
    serial = run_suite(tasks, jobs=1)
    parallel = run_suite(tasks, jobs=2)
    assert [(r.name, r.k, r.passed) for r in serial] == [
        (r.name, r.k, r.passed) for r in parallel
    ]


# ------------------------------------------------------ shared series


def _without_elapsed(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]


def test_suite_builds_each_shared_series_once_per_unit(monkeypatch):
    builds = {}

    def counting(fname):
        real = getattr(identities, fname)

        def fake(*args):
            builds.setdefault(fname, []).append(args)
            return real(*args)

        monkeypatch.setattr(identities, fname, fake)

    for fname in ("measure_gf", "durfee_gf", "partition_measure_gf_sum",
                  "distinct_measure_gf_sum"):
        counting(fname)
    reports = run_suite(default_tasks(8, 8, [1, 2, 3]), jobs=1)
    assert all(r.passed for r in reports)

    def counts(fname):
        keys = builds[fname]
        return {key: keys.count(key) for key in keys}

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


def test_sharing_changes_no_report():
    tasks = default_tasks(10, 10, [1, 2, 3, 4])
    alone = [identities._CHECK_FUNCS[key](name=name, **kwargs) for name, key, kwargs in tasks]
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
    run_suite(default_tasks(10, 10, [1, 2, 3]), jobs=1)
    shared = [(key, series) for memo in memos for key, series in memo._built.items()]
    assert {key[0] for key, _ in shared} == {"measure", "closed_sum", "durfee"}
    for (getter, *args), series in shared:
        assert getattr(identities._Artifacts(), getter)(*args) == series


# ------------------------------------------------------ forked workers


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_forks_no_more_workers_than_units(monkeypatch):
    # three units: ("all", 2), ("distinct", 2) and the Sylvester check
    tasks = [
        task for task in default_tasks(6, 6, [2])
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


def _exit(status):
    return lambda **kwargs: os._exit(status)


def _kill(**kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("dying", [
    {"durfee-closed-form": (_exit(3), 3)},
    {"durfee-closed-form": (_kill, -signal.SIGKILL)},
    # more deaths than workers: each dead worker is replaced while units
    # are left, and each lost unit carries the status of its own worker
    {"durfee-closed-form": (_exit(3), 3), "sylvester-runs": (_exit(4), 4),
     "heine-limit": (_kill, -signal.SIGKILL)},
])
def test_dead_worker_fails_only_its_unit(monkeypatch, dying):
    tasks = default_tasks(6, 6, [1, 2])
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


def test_suite_reaps_its_workers_when_the_parent_raises(monkeypatch):
    import pickle

    def broken(data):
        raise RuntimeError("unreadable batch")

    monkeypatch.setattr(pickle, "loads", broken)
    with pytest.raises(RuntimeError, match="unreadable batch"):
        run_suite(default_tasks(6, 6, [1, 2]), jobs=2)
    _assert_no_child_left()


def test_suite_runs_more_units_than_the_work_pipe_holds(monkeypatch):
    # 20,000 four-byte indices overflow a 64 KiB pipe, so the parent must
    # keep reading results while it waits to write the rest of the work
    def instant(name=None):
        return IdentityReport(name, None, 0, None, True, None, 0.0)

    monkeypatch.setitem(identities._CHECK_FUNCS, "instant", instant)
    tasks = [(f"instant[{i}]", "instant", {}) for i in range(20_000)]
    reports = run_suite(tasks, jobs=2)
    assert [r.name for r in reports] == sorted(name for name, _, _ in tasks)
    assert all(r.passed for r in reports)
    _assert_no_child_left()
