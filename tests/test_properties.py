"""Property-based tests: ring axioms, inversion, Pochhammer cocycles, truncation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmeasure.partitions import kmeasure, kmeasure_bruteforce
from kmeasure.series import (
    Monomial,
    TriSeries,
    _encode,
    _first_difference,
    _pochhammer_apply,
    _slot_width,
    _split,
    pochhammer_finite,
    pochhammer_infinite,
)
from series_reads import truncated

# Every series is cut in q and in z at QCAP, so z-exponents are drawn up to
# it: sums, products, inverses and binomial steps then cross the cut in z.
QCAP = 6

coeffs = st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0)

terms = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=QCAP),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=QCAP),
        coeffs,
    ),
    max_size=8,
)


@st.composite
def series(draw):
    return TriSeries.from_terms(draw(terms), QCAP)


@st.composite
def unit_series(draw):
    # constant term pinned to 1 and no other q^0 terms: always invertible
    s = draw(series())
    picked = [(j, e, f, c) for (j, e, f, c) in s.terms() if j > 0]
    picked.append((0, 0, 0, 1))
    return TriSeries.from_terms(picked, QCAP)


small_monomials = st.builds(
    Monomial,
    coeffs,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
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
    assert (a + (TriSeries(QCAP) - a)).is_zero()


@given(unit_series())
@settings(max_examples=60)
def test_invert_round_trip(u):
    assert u * u.invert() == TriSeries.one(QCAP)


@given(
    small_monomials,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_pochhammer_cocycle(a, h, n, m):
    # (a;q^h)_n * (a q^{hn};q^h)_m = (a;q^h)_{n+m}
    left = pochhammer_finite(a, h, n, QCAP) * pochhammer_finite(a.shift_q(h * n), h, m, QCAP)
    assert left == pochhammer_finite(a, h, n + m, QCAP)


@given(
    small_monomials.filter(lambda m: m.q + m.y + m.z > 0),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_pochhammer_infinite_splits(a, h, n):
    # (a;q^h)_inf = (a;q^h)_n * (a q^{hn};q^h)_inf whenever the shifted
    # argument is still legal (h*n within the cap keeps it meaningful)
    shifted = a.shift_q(h * n)
    whole = pochhammer_infinite(a, h, QCAP)
    split = pochhammer_finite(a, h, n, QCAP) * pochhammer_infinite(shifted, h, QCAP)
    assert whole == split


q_monomials = small_monomials.map(lambda m: m.shift_q(1))


@given(series(), q_monomials)
def test_divide_one_minus_undoes_times_one_minus(s, m):
    assert _pochhammer_apply(s.times_one_minus(m), m, 0, 1, divide=True) == s


@given(series(), q_monomials)
@settings(max_examples=60)
def test_divide_one_minus_matches_invert(s, m):
    divisor = TriSeries.one(QCAP).times_one_minus(m)
    assert _pochhammer_apply(s, m, 0, 1, divide=True) == s * divisor.invert()


@given(small_monomials, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=4))
def test_pochhammer_finite_is_binomial_fold(a, h, n):
    fold = TriSeries.one(QCAP)
    for i in range(n):
        fold = fold.times_one_minus(a.shift_q(h * i))
    assert pochhammer_finite(a, h, n, QCAP) == fold


@given(
    small_monomials.filter(lambda m: m.q + m.y + m.z > 0),
    st.integers(min_value=1, max_value=3),
)
def test_pochhammer_infinite_is_binomial_fold(a, h):
    # factors past the q-cap are 1, so QCAP + 1 of them cover the product
    fold = TriSeries.one(QCAP)
    for i in range(QCAP + 1):
        fold = fold.times_one_minus(a.shift_q(h * i))
    assert pochhammer_infinite(a, h, QCAP) == fold


# ------------------------------------------------------- dict references
#
# The dict arithmetic that packed rows replaced, kept as the reference for
# every packed operation: a series is a list over q of {(y_exp, z_exp): c}
# layers, and its q-order, the cut in q and z, is the list's length less 1.


def accumulate(layer, key, c):
    v = layer.get(key, 0) + c
    if v:
        layer[key] = v
    else:
        layer.pop(key, None)


def layers_of(terms, qcap):
    """The layers of (q, y, z, c) terms cut in q and z at qcap, equal keys
    summed."""
    layers = [{} for _ in range(qcap + 1)]
    for j, e, f, c in terms:
        if j <= qcap and f <= qcap:
            accumulate(layers[j], (e, f), c)
    return layers


def terms_of(layers):
    return [(j, e, f, c) for j, layer in enumerate(layers) for (e, f), c in layer.items()]


def poly_mul_acc(acc, pa, pb, qcap, negate=False):
    """acc += pa * pb (as (y,z)-polynomial dicts), dropping z-exponents > qcap."""
    for (e1, f1), c1 in pa.items():
        if negate:
            c1 = -c1
        for (e2, f2), c2 in pb.items():
            f = f1 + f2
            if f <= qcap:
                accumulate(acc, (e1 + e2, f), c1 * c2)


def dict_combine(a, b, sign):
    out = [dict(layer) for layer in a]
    for layer, other in zip(out, b):
        for key, c in other.items():
            accumulate(layer, key, sign * c)
    return out


def dict_mul(a, b):
    out = [{} for _ in a]
    for j1, pa in enumerate(a):
        for j2 in range(len(a) - j1):
            poly_mul_acc(out[j1 + j2], pa, b[j2], len(a) - 1)
    return out


def dict_invert(a):
    """The layer recursion c_j = -sum_{i=1..j} a_i * c_{j-i} of a series
    whose q^0 layer is 1."""
    out = [{(0, 0): 1}]
    for j in range(1, len(a)):
        acc = {}
        for i in range(1, j + 1):
            poly_mul_acc(acc, a[i], out[j - i], len(a) - 1, negate=True)
        out.append(acc)
    return out


def dict_scale_y(a, j):
    out = [{} for _ in a]
    for s, layer in enumerate(a):
        for (e, f), c in layer.items():
            if s + j * e < len(a):
                out[s + j * e][(e, f)] = c
    return out


def dict_substitute(a, value, which):
    out = [{} for _ in a]
    for tgt, layer in zip(out, a):
        for (e, f), c in layer.items():
            key, power = ((0, f), e) if which == "y" else ((e, 0), f)
            accumulate(tgt, key, c * value**power)
    return out


def dict_times_monomial(a, m):
    out = [{} for _ in a]
    for j in range(len(a) - m.q):
        for (e, f), c in a[j].items():
            if m.coeff and f + m.z < len(a):
                out[j + m.q][(e + m.y, f + m.z)] = m.coeff * c
    return out


# ------------------------------------------- packed kernel vs dict steps


def dict_step(s, m, divide):
    """Reference binomial step on the dict layers, one term at a time:
    out = s - m*s, or out = s + m*out read from the layers already solved
    (m.q >= 1 keeps the read below the write)."""
    if m.coeff == 0 or max(m.q, m.z) > s.qcap:
        return s
    out = [dict(layer) for layer in s._layers]
    src = out if divide else s._layers
    c0 = m.coeff if divide else -m.coeff
    for j in range(m.q, s.qcap + 1):
        tgt = out[j]
        for (e, f), c in src[j - m.q].items():
            f2 = f + m.z
            if f2 > s.qcap:
                continue
            accumulate(tgt, (e + m.y, f2), c0 * c)
    return TriSeries.from_terms(terms_of(out), s.qcap)


# Coefficients on both sides of the 64-bit slot boundary, so that packed
# slots run into the width the kernel starts from and force it to widen.
wide_coeffs = st.builds(
    lambda sign, bits, offset: sign * ((1 << bits) + offset),
    st.sampled_from((1, -1)),
    st.integers(min_value=59, max_value=66),
    st.integers(min_value=-2, max_value=2),
)
wide_terms = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=QCAP),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=QCAP),
        st.one_of(coeffs, wide_coeffs),
    ),
    max_size=8,
)
wide_series = st.builds(TriSeries.from_terms, wide_terms, st.just(QCAP))
step_monomials = st.one_of(
    small_monomials, st.builds(Monomial, wide_coeffs, st.integers(0, 2), st.integers(0, 2))
)


@given(st.one_of(series(), wide_series), step_monomials)
@settings(max_examples=200)
def test_packed_product_matches_dict_step(s, m):
    # includes q-order-0 factors that carry y or z, and the cut in z
    assert s.times_one_minus(m) == dict_step(s, m, divide=False)


@given(st.one_of(series(), wide_series), step_monomials.map(lambda m: m.shift_q(1)))
@settings(max_examples=200)
def test_packed_quotient_matches_dict_step(s, m):
    quotient = _pochhammer_apply(s, m, 0, 1, divide=True)
    assert quotient == dict_step(s, m, divide=True)


@given(
    st.one_of(series(), wide_series),
    small_monomials,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
def test_packed_chain_matches_dict_steps(s, a, h, n, divide):
    if divide:
        a = a.shift_q(1)
    fold = s
    for i in range(n):
        fold = dict_step(fold, a.shift_q(h * i), divide)
    assert _pochhammer_apply(s, a, h, n, divide) == fold


def one_minus_layers(m):
    return layers_of([(0, 0, 0, 1), (m.q, m.y, m.z, -m.coeff)], QCAP)


# Each public operation with a monomial m, and its dict reference.
chain_ops = {
    "step": (lambda s, m: s.times_one_minus(m),
             lambda la, m: dict_mul(la, one_minus_layers(m))),
    "add": (lambda s, m: s._sum(s, m),
            lambda la, m: dict_combine(la, dict_times_monomial(la, m), 1)),
    "mul": (lambda s, m: s * TriSeries.one(QCAP).times_one_minus(m),
            lambda la, m: dict_mul(la, one_minus_layers(m))),
    "scale_y": (lambda s, m: s.scale_y(m.q + 1),
                lambda la, m: dict_scale_y(la, m.q + 1)),
}


@given(
    wide_series,
    st.lists(st.tuples(st.sampled_from(sorted(chain_ops)), step_monomials), min_size=1, max_size=4),
)
@settings(max_examples=200)
def test_chains_keep_every_series_within_its_width(s, ops):
    # wide coefficients cross 64 bits partway through a chain, so steps
    # widen series that are already packed
    layers = layers_of(s.terms(), QCAP)
    for name, m in ops:
        op, reference = chain_ops[name]
        s, layers = op(s, m), reference(layers, m)
        assert max(s.bound).bit_length() < s.width
        assert_holds(s, layers)


@given(series(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_scale_y_composes(s, i, j):
    assert s.scale_y(i).scale_y(j) == s.scale_y(i + j)


@given(series(), series(), st.integers(min_value=0, max_value=QCAP))
def test_truncation_consistency_mul(a, b, n):
    assert truncated(a * b, n) == truncated(a, n) * truncated(b, n)


@given(series(), series(), st.integers(min_value=0, max_value=QCAP))
def test_truncation_consistency_add_z(a, b, n):
    # the cut at a lower q-order cuts z there too
    assert truncated(a + b, n) == truncated(a, n) + truncated(b, n)


@given(unit_series(), st.integers(min_value=0, max_value=QCAP))
@settings(max_examples=40)
def test_truncation_consistency_invert(u, n):
    assert truncated(u.invert(), n) == truncated(u, n).invert()


@given(
    small_monomials,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=QCAP),
)
def test_truncation_consistency_pochhammer(a, h, n, cap):
    got = truncated(pochhammer_finite(a, h, n, QCAP), cap)
    assert got == pochhammer_finite(a, h, n, cap)


@given(series(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=QCAP))
def test_truncation_consistency_scale_y(s, j, cap):
    assert truncated(s.scale_y(j), cap) == truncated(s, cap).scale_y(j)


# ------------------------------------------------------ packed comparison


def dict_difference(a, b):
    """The first failure of the dict-diff verdict on two lists of layers:
    the least (q, y, z) where they differ, with the coefficients of a and b
    there."""
    for j, (la, lb) in enumerate(zip(a, b)):
        keys = [key for key in la.keys() | lb.keys() if la.get(key, 0) != lb.get(key, 0)]
        if keys:
            e, f = min(keys)
            return j, e, f, la.get((e, f), 0), lb.get((e, f), 0)
    return None


def held_as(s, width):
    """s as packed rows at ``width``, or at the width its majorant asks for
    if that is wider; unlike the kernel, this may narrow a series."""
    held = _slot_width(max(s.bound).bit_length(), width)
    rows = [{f: sum(c << (held * e) for e, c in enumerate(_split(v, s.width)))
             for f, v in row.items()} for row in s.rows]
    return TriSeries(s.qcap, held, rows, list(s.bound))


widths = st.sampled_from((8, 16, 64))


@st.composite
def near_pairs(draw):
    """Two series that often agree, or differ in a few terms."""
    a = draw(st.one_of(series(), wide_series))
    delta = draw(st.lists(
        st.tuples(st.integers(0, QCAP), st.integers(0, 3), st.integers(0, QCAP), coeffs),
        max_size=2,
    ))
    if a.terms() and draw(st.booleans()):
        j, e, f, c = draw(st.sampled_from(a.terms()))
        delta.append((j, e, f, -c))
    return a, TriSeries.from_terms(a.terms() + delta, QCAP)


@given(near_pairs(), widths, widths)
@settings(max_examples=300)
def test_first_difference_matches_dict_diff(pair, width_a, width_b):
    # equal and different widths
    a, b = pair
    expected = dict_difference(layers_of(a.terms(), QCAP), layers_of(b.terms(), QCAP))
    ha, hb = held_as(a, width_a), held_as(b, width_b)
    assert _first_difference(ha, hb) == expected
    assert (ha == hb) == (expected is None)


EDGE_WIDTH = 8
EDGE = 2 ** (EDGE_WIDTH - 1) - 1
edge_layers = st.lists(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, QCAP)),
        st.sampled_from((EDGE, -EDGE, EDGE - 1, 1 - EDGE, 1, -1)),
        max_size=6,
    ),
    min_size=QCAP + 1,
    max_size=QCAP + 1,
)


def edge_packed(layers):
    """Layers packed at EDGE_WIDTH.  A comparison, a decode and the sign
    mask need only every slot below 2^(W-1), so the majorant is EDGE."""
    rows = [_encode(layer, EDGE_WIDTH) for layer in layers]
    return TriSeries(QCAP, EDGE_WIDTH, rows, [EDGE] * (QCAP + 1))


@given(edge_layers, st.integers(0, QCAP), st.tuples(st.integers(0, 3), st.integers(0, QCAP)),
       st.sampled_from((0, 1, -1, 2 * EDGE, -2 * EDGE)))
@settings(max_examples=300)
def test_slots_at_the_width_edge_compare_and_decode(layers, j, key, change):
    # b differs from a by up to 2^W - 2 in one slot that may sit between
    # two slots at the edge, which borrow from it
    other = [dict(layer) for layer in layers]
    c = other[j].get(key, 0) + change
    if -EDGE <= c <= EDGE and c:
        other[j][key] = c
    else:
        other[j].pop(key, None)
    a, b = edge_packed(layers), edge_packed(other)
    expected = dict_difference(layers, other)
    assert _first_difference(a, b) == expected
    assert (a == b) == (expected is None)
    assert a._layers == layers


@given(edge_layers)
@settings(max_examples=300)
def test_sign_mask_at_the_width_edge(layers):
    expected = all(c > 0 for layer in layers for c in layer.values())
    assert edge_packed(layers).is_nonnegative() == expected


def test_sign_mask_reaches_the_top_slot():
    # a lone negative coefficient makes the int negative: only the top
    # slot's bit W-1 shows it
    for terms in ([(0, 1, 0, -1)], [(2, 3, 1, -EDGE)], [(1, 0, 0, 5), (1, 2, 0, -1)]):
        layers = TriSeries.from_terms(terms, QCAP)._layers
        assert not edge_packed(layers).is_nonnegative()


def test_comparison_refuses_slots_past_the_majorant():
    # 2^8 at y^0 and 1 at y^1 are the same int at W = 8; a side whose
    # majorant does not fit the width must stop the comparison, and every
    # other read, with an error that survives python -O
    wide = TriSeries(0, 8, [{0: 256}], [256])
    shifted = TriSeries(0, 8, [{0: 256}], [1])
    with pytest.raises(OverflowError):
        _first_difference(wide, shifted)
    with pytest.raises(OverflowError):
        _first_difference(shifted, wide)
    with pytest.raises(OverflowError):
        wide.is_nonnegative()
    with pytest.raises(OverflowError):
        wide.scale_y(1)
    for read in (wide.terms, wide.__repr__):
        with pytest.raises(OverflowError):
            read()


# --------------------------------------------- packed operations vs dicts

# Coefficients whose slots sit at the edge 2^(W-1) - 1 of the widths the
# operands are held at.  A z-exponent of QCAP + 1 is past the cut, which
# the build drops.
edge_coeffs = st.sampled_from((127, -127, 2**15 - 1, -(2**15 - 1), 2**63 - 1, -(2**63 - 1)))
operand_terms = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=QCAP),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=QCAP + 1),
        st.one_of(coeffs, wide_coeffs, edge_coeffs),
    ),
    max_size=8,
)


@st.composite
def operands(draw):
    """A series held at one of several widths, with its reference layers."""
    terms = draw(operand_terms)
    series = held_as(TriSeries.from_terms(terms, QCAP), draw(widths))
    return series, layers_of(terms, QCAP)


@st.composite
def unit_operands(draw):
    """An invertible series: q^0 layer 1, plus terms of positive q-order."""
    terms = [(j, e, f, c) for j, e, f, c in draw(operand_terms) if j > 0]
    terms.append((0, 0, 0, 1))
    series = held_as(TriSeries.from_terms(terms, QCAP), draw(widths))
    return series, layers_of(terms, QCAP)


def assert_holds(got, layers):
    """got decodes to the reference layers, and its majorant bounds the
    absolute coefficients of every row."""
    assert got._layers == layers
    for bound, layer in zip(got.bound, layers):
        assert bound >= sum(map(abs, layer.values()))


@given(operands(), operands())
@settings(max_examples=200)
def test_packed_sums_match_dicts(a, b):
    (a, la), (b, lb) = a, b
    assert_holds(a + b, dict_combine(la, lb, 1))
    assert_holds(a - b, dict_combine(la, lb, -1))
    negated = TriSeries(QCAP) - a
    assert_holds(negated, dict_combine([{} for _ in la], la, -1))


@given(operands(), operands())
@settings(max_examples=200)
def test_packed_product_matches_dicts(a, b):
    (a, la), (b, lb) = a, b
    assert_holds(a * b, dict_mul(la, lb))


@given(unit_operands())
@settings(max_examples=200)
def test_packed_invert_matches_dicts(u):
    u, layers = u
    assert_holds(u.invert(), dict_invert(layers))


@given(operands(), st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_packed_scale_y_matches_dicts(a, j):
    a, layers = a
    assert_holds(a.scale_y(j), dict_scale_y(layers, j))


@given(operands(), st.sampled_from((-1, 1)))
@settings(max_examples=200)
def test_packed_substitution_matches_dicts(a, sign):
    a, layers = a
    assert_holds(a.set_y(sign), dict_substitute(layers, sign, "y"))
    assert_holds(a.set_z(sign), dict_substitute(layers, sign, "z"))


@pytest.mark.parametrize("width", [8, 16, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_substitution_at_the_width_edge(width, sign):
    # Each row's majorant is 2^(W-1) - 1, and the slots of one key in it
    # sum to +-(2^(W-1) - 1): half the modulus 2^W - 1 of set_y(1), the
    # largest balanced residue there is.
    edge = 2 ** (width - 1) - 1
    terms = [
        (1, 2, 1, edge),
        (2, 0, 0, edge - 1), (2, 1, 0, 1),
        (3, 0, 2, -1), (3, 3, 2, 1 - edge),
        (4, 1, 0, -edge),
        (5, 0, 1, edge - 3), (5, 2, 1, -1), (5, 3, 3, 2),
    ]
    a = held_as(TriSeries.from_terms(terms, QCAP), width)
    assert a.width == width and max(a.bound) == edge
    layers = layers_of(terms, QCAP)
    assert_holds(a.set_y(sign), dict_substitute(layers, sign, "y"))
    assert_holds(a.set_z(sign), dict_substitute(layers, sign, "z"))


@given(operands(), small_monomials)
@settings(max_examples=200)
def test_packed_times_monomial_matches_dicts(a, m):
    # a sum onto zero scales by the monomial, as qdiff does with -yzq
    a, layers = a
    assert_holds(TriSeries(QCAP)._sum(a, m), dict_times_monomial(layers, m))


# ------------------------------------------------ operands stay as they were


def snapshot(s):
    return s.width, [dict(row) for row in s.rows], list(s.bound)


# Each public operation with an operand a and a monomial m.
unary_ops = {
    "sum": lambda a, m: a._sum(a, m),
    "times_one_minus": lambda a, m: a.times_one_minus(m),
    "scale_y": lambda a, m: a.scale_y(m.q + 1),
    "set_y": lambda a, m: a.set_y(1 if m.coeff > 0 else -1),
    "set_z": lambda a, m: a.set_z(1 if m.coeff > 0 else -1),
    "pochhammer": lambda a, m: _pochhammer_apply(a, m.shift_q(1), 1, 3, divide=m.coeff > 0),
}
binary_ops = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "first_difference": _first_difference,
}


@given(operands(), operands(), unit_operands(), small_monomials)
@settings(max_examples=200)
def test_no_public_operation_changes_its_operands(a, b, u, m):
    # the in-place kernel steps run only on build records: operands held
    # at 8, 16 and 64 bits keep their width, rows and majorant
    (a, _), (b, _), (u, _) = a, b, u
    before = [snapshot(s) for s in (a, b, u)]
    results = [op(a, m) for op in unary_ops.values()]
    for op in binary_ops.values():
        results += [op(a, b), op(b, a)]
    results.append(u.invert())
    assert [snapshot(s) for s in (a, b, u)] == before
    # and no build record leaves the kernel
    assert all(type(r) is TriSeries for r in results if isinstance(r, TriSeries))


@st.composite
def partitions_strategy(draw):
    parts = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=8))
    return tuple(sorted(parts, reverse=True))


@given(partitions_strategy(), st.integers(min_value=1, max_value=5))
def test_greedy_measure_matches_exhaustive(parts, k):
    assert kmeasure(parts, k) == kmeasure_bruteforce(parts, k)
