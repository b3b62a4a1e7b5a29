"""Property-based tests: ring axioms, inversion, Pochhammer cocycles, truncation."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kmeasure.partitions import kmeasure, kmeasure_bruteforce
from kmeasure.series import (
    Monomial,
    TriSeries,
    pochhammer_finite,
    pochhammer_infinite,
)

QCAP = 6
ZCAP = 3

coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0),
    st.builds(
        Fraction,
        st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0),
        st.integers(min_value=1, max_value=3),
    ),
)

terms = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=QCAP),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=ZCAP),
        coeffs,
    ),
    max_size=8,
)


@st.composite
def series(draw, zcap=ZCAP):
    return TriSeries.from_terms(draw(terms), QCAP, zcap)


@st.composite
def unit_series(draw):
    # constant term pinned to 1 and no other q^0 terms: always invertible
    s = draw(series())
    picked = [(j, e, f, c) for (j, e, f, c) in s.terms() if j > 0]
    picked.append((0, 0, 0, 1))
    return TriSeries.from_terms(picked, QCAP, ZCAP)


small_monomials = st.builds(
    Monomial,
    coeffs,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
)


@given(series(), series(), series())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series())
def test_additive_inverse(a):
    assert (a - a).is_zero()
    assert (a + (-a)).is_zero()


@given(unit_series())
@settings(max_examples=60)
def test_invert_round_trip(u):
    assert u * u.invert() == TriSeries.one(QCAP, ZCAP)


@given(
    small_monomials,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_pochhammer_cocycle(a, h, n, m):
    # (a;q^h)_n * (a q^{hn};q^h)_m = (a;q^h)_{n+m}
    left = pochhammer_finite(a, h, n, QCAP, ZCAP) * pochhammer_finite(
        a.shift_q(h * n), h, m, QCAP, ZCAP
    )
    assert left == pochhammer_finite(a, h, n + m, QCAP, ZCAP)


@given(
    small_monomials.filter(lambda m: m.q + m.y + m.z > 0),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_pochhammer_infinite_splits(a, h, n):
    # (a;q^h)_inf = (a;q^h)_n * (a q^{hn};q^h)_inf whenever the shifted
    # argument is still legal (h*n within the cap keeps it meaningful)
    shifted = a.shift_q(h * n)
    whole = pochhammer_infinite(a, h, QCAP, ZCAP)
    split = pochhammer_finite(a, h, n, QCAP, ZCAP) * pochhammer_infinite(
        shifted, h, QCAP, ZCAP
    )
    assert whole == split


q_monomials = small_monomials.map(lambda m: m.shift_q(1))


@given(series(), q_monomials)
def test_divide_one_minus_undoes_times_one_minus(s, m):
    assert s.times_one_minus(m).divide_one_minus(m) == s


@given(series(), q_monomials)
@settings(max_examples=60)
def test_divide_one_minus_matches_invert(s, m):
    divisor = TriSeries.one(QCAP, ZCAP).times_one_minus(m)
    assert s.divide_one_minus(m) == s * divisor.invert()


@given(small_monomials, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=4))
def test_pochhammer_finite_is_binomial_fold(a, h, n):
    fold = TriSeries.one(QCAP, ZCAP)
    for i in range(n):
        fold = fold.times_one_minus(a.shift_q(h * i))
    assert pochhammer_finite(a, h, n, QCAP, ZCAP) == fold


@given(
    small_monomials.filter(lambda m: m.q + m.y + m.z > 0),
    st.integers(min_value=1, max_value=3),
)
def test_pochhammer_infinite_is_binomial_fold(a, h):
    # factors past the q-cap are 1, so QCAP + 1 of them cover the product
    fold = TriSeries.one(QCAP, ZCAP)
    for i in range(QCAP + 1):
        fold = fold.times_one_minus(a.shift_q(h * i))
    assert pochhammer_infinite(a, h, QCAP, ZCAP) == fold


@given(series(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_scale_y_composes(s, i, j):
    assert s.scale_y(i).scale_y(j) == s.scale_y(i + j)


@given(series(), series(), st.integers(min_value=0, max_value=QCAP))
def test_truncation_consistency_mul(a, b, n):
    assert (a * b).truncate(n) == a.truncate(n) * b.truncate(n)


@given(series(), series(), st.integers(min_value=0, max_value=ZCAP))
def test_truncation_consistency_add_z(a, b, m):
    assert (a + b).truncate(zcap=m) == a.truncate(zcap=m) + b.truncate(zcap=m)


@given(unit_series(), st.integers(min_value=0, max_value=QCAP))
@settings(max_examples=40)
def test_truncation_consistency_invert(u, n):
    assert u.invert().truncate(n) == u.truncate(n).invert()


@given(
    small_monomials,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=QCAP),
)
def test_truncation_consistency_pochhammer(a, h, n, cap):
    got = pochhammer_finite(a, h, n, QCAP, ZCAP).truncate(cap)
    assert got == pochhammer_finite(a, h, n, cap, ZCAP)


@given(series(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=QCAP))
def test_truncation_consistency_scale_y(s, j, cap):
    assert s.scale_y(j).truncate(cap) == s.truncate(cap).scale_y(j)


@st.composite
def partitions_strategy(draw):
    parts = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=8))
    return tuple(sorted(parts, reverse=True))


@given(partitions_strategy(), st.integers(min_value=1, max_value=5))
def test_greedy_measure_matches_exhaustive(parts, k):
    assert kmeasure(parts, k) == kmeasure_bruteforce(parts, k)
