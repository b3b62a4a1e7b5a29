"""Acceptance suite: every headline claim at full scale, tolerance zero.

Each test covers one numbered criterion, compares exact integer
coefficients (a pass means every retained coefficient agrees), and prints
one summary line.  Closed-form series are shared through module-scoped
fixtures so the expensive builders run once.
"""

import time
from collections import Counter

import pytest

from kmeasure.identities import (
    BAILEY_DAUM_PARAMS,
    EULER_FIRST_PARAMS,
    EULER_SECOND_PARAMS,
    HEINE_GENERAL_PARAMS,
    _qdiff_residual,
    bailey_daum_sides,
    distinct_measure_gf_product,
    distinct_measure_gf_sum,
    durfee_gf_closed,
    euler_first_sides,
    euler_second_sides,
    generalized_heine_sides,
    partition_measure_gf_product,
    partition_measure_gf_sum,
)
from kmeasure.partitions import (
    durfee,
    durfee_gf,
    enumerate_partitions,
    kmeasure,
    kmeasure_bruteforce,
    measure_gf,
    measure_gfs,
)
from kmeasure.series import Monomial, pochhammer_infinite
from series_reads import coefficients, truncated

KS = (1, 2, 3, 4, 5)


def announce(criterion, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail}, {time.time() - started:.1f}s)")
    assert ok


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def enum_all_30():
    return measure_gfs(30, KS, "all")


@pytest.fixture(scope="module")
def enum_distinct_30():
    return measure_gfs(30, KS, "distinct")


@pytest.fixture(scope="module")
def p_sums_30():
    return {k: partition_measure_gf_sum(k, 30) for k in KS}


@pytest.fixture(scope="module")
def d_sums_30():
    return {k: distinct_measure_gf_sum(k, 30) for k in KS}


@pytest.fixture(scope="module")
def p_products_30():
    return {k: partition_measure_gf_product(k, 30) for k in KS if k >= 2}


@pytest.fixture(scope="module")
def d_products_30():
    return {k: distinct_measure_gf_product(k, 30) for k in KS}


@pytest.fixture(scope="module")
def sums_40():
    # inner Pochhammer steps k-1 and k both appear in the nonnegativity
    # claims; parameters 1..6 of the sum form cover steps 0..5
    p = {k: partition_measure_gf_sum(k, 40) for k in range(1, 7)}
    d = {k: distinct_measure_gf_sum(k, 40) for k in KS}
    return p, d


@pytest.fixture(scope="module")
def durfee_trio_25():
    gfs = measure_gfs(25, [2], "all")
    return gfs[2], durfee_gf(25), durfee_gf_closed(25)


@pytest.fixture(scope="module")
def building_blocks_12():
    sides = []
    for t in EULER_FIRST_PARAMS:
        sides.append((f"euler-first[t={t}]", euler_first_sides(t, 12)))
    for t in EULER_SECOND_PARAMS:
        sides.append((f"euler-second[t={t}]", euler_second_sides(t, 12)))
    for a in BAILEY_DAUM_PARAMS:
        sides.append((f"bailey-daum[a={a}]", bailey_daum_sides(a, 12)))
    heine_limit = partition_measure_gf_product(2, 12), durfee_gf_closed(12)
    sides.append(("heine-limit", heine_limit))
    for label, params in HEINE_GENERAL_PARAMS:
        sides.append(
            (f"heine-general[{label}]", generalized_heine_sides(qcap=12, **params))
        )
    return sides


# --------------------------------------------------------------- criteria


def test_criterion_01_partition_sum_form(enum_all_30, p_sums_30):
    started = time.time()
    bad = [k for k in KS if p_sums_30[k] != enum_all_30[k]]
    announce(1, not bad, f"sum form vs enumeration, all partitions, k=1..5, qcap 30", started)


def test_criterion_02_partition_product_form(p_sums_30, p_products_30):
    started = time.time()
    bad = [
        k for k in (2, 3, 4, 5)
        if p_products_30[k] != p_sums_30[k]
    ]
    announce(2, not bad, "product vs sum form, all partitions, k=2..5, qcap 30", started)


def test_criterion_03_distinct_forms(enum_distinct_30, d_sums_30, d_products_30):
    started = time.time()
    bad = [k for k in KS if d_sums_30[k] != enum_distinct_30[k]]
    bad += [
        k for k in KS if d_products_30[k] != d_sums_30[k]
    ]
    announce(3, not bad, "sum and product forms, distinct partitions, k=1..5, qcap 30", started)


def test_criterion_04_qdiff_residuals():
    started = time.time()
    bad = [
        (k, family)
        for k in KS
        for family in ("all", "distinct")
        if not _qdiff_residual(measure_gf(25, k, family), k, family).is_zero()
    ]
    announce(4, not bad, "q-difference residuals, both families, k=1..5, qcap 25", started)


def test_criterion_05_durfee_equidistribution(durfee_trio_25):
    started = time.time()
    enumerated_2measure, enumerated_durfee, closed = durfee_trio_25
    ok = enumerated_2measure == enumerated_durfee == closed
    # y = 1 marginal: per-n histograms of the two statistics coincide
    marginal_a = enumerated_2measure.set_y(1)
    marginal_b = enumerated_durfee.set_y(1)
    ok = ok and marginal_a == marginal_b
    marginal = coefficients(marginal_a)
    for n in (10, 17, 25):
        by_measure = Counter(kmeasure(p, 2) for p in enumerate_partitions(n))
        by_durfee = Counter(durfee(p) for p in enumerate_partitions(n))
        ok = ok and by_measure == by_durfee
        ok = ok and all(
            marginal.get((n, 0, m), 0) == c for m, c in by_measure.items()
        )
    announce(5, ok, "2-measure vs Durfee trivariate and marginal, qcap 25", started)


def test_criterion_06_distinct_odd_parity():
    started = time.time()
    product = coefficients(pochhammer_infinite(Monomial(-1, q=1), 2, 40))
    ok = True
    for n in range(41):
        signed = sum(
            -1 if (len(p) + kmeasure(p, 2)) % 2 else 1
            for p in enumerate_partitions(n)
        )
        odd_distinct = sum(1 for _ in enumerate_partitions(n, "distinct-odd"))
        ok = ok and signed == odd_distinct == product.get((n, 0, 0), 0)
        if n == 8:
            ok = ok and signed == 2  # the partitions 7+1 and 5+3
    announce(6, ok, "signed count = distinct-odd count = product coefficients, n <= 40", started)


def test_criterion_07_nonnegativity(sums_40):
    started = time.time()
    p, d = sums_40
    series_list = [p[k] for k in range(1, 7)] + [d[k] for k in KS]
    ok = all(
        type(c) is int and c >= 0
        for s in series_list
        for (_, _, _, c) in s.terms()
    )
    announce(7, ok, "nonnegative integer coefficients, both families, qcap 40", started)


def test_criterion_08_building_blocks(building_blocks_12):
    started = time.time()
    bad = [label for label, (lhs, rhs) in building_blocks_12 if lhs != rhs]
    announce(8, not bad, f"{len(building_blocks_12)} building-block identities at qcap 12", started)


def test_criterion_09_greedy_equals_bruteforce():
    started = time.time()
    checked = 0
    ok = True
    for n in range(26):
        for parts in enumerate_partitions(n):
            for k in KS:
                ok = ok and kmeasure(parts, k) == kmeasure_bruteforce(parts, k)
            checked += 1
    announce(9, ok, f"greedy vs exhaustive measure on {checked} partitions, k=1..5", started)


def test_criterion_10_sylvester():
    started = time.time()
    from kmeasure.partitions import sylvester_counts

    ok = all(
        sylvester_counts(n)[0] == sylvester_counts(n)[1] for n in range(41)
    )
    announce(10, ok, "odd-part vs consecutive-run histograms, n <= 40", started)


def test_criterion_11_integer_coefficients(
    p_sums_30, d_sums_30, p_products_30, d_products_30, sums_40,
    durfee_trio_25, building_blocks_12,
):
    started = time.time()
    series_list = (
        list(p_sums_30.values())
        + list(d_sums_30.values())
        + list(p_products_30.values())
        + list(d_products_30.values())
        + list(sums_40[0].values())
        + list(sums_40[1].values())
        + [durfee_trio_25[2]]
        + [s for _, pair in building_blocks_12 for s in pair]
    )
    ok = all(
        type(c) is int
        for s in series_list
        for (_, _, _, c) in s.terms()
    )
    announce(11, ok, f"int coefficients in all {len(series_list)} closed-form series", started)
