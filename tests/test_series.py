"""Series arithmetic: constructors, exactness, Pochhammer products, rendering."""

import pickle
from fractions import Fraction

import pytest

from kmeasure import series
from kmeasure.identities import partition_measure_gf_product
from kmeasure.partitions import enumerate_partitions, measure_gf
from kmeasure.series import (
    Form,
    Monomial,
    Q,
    TriSeries,
    YQ,
    Z,
    _Build,
    _pochhammer_apply,
    _qsum,
    pochhammer_finite,
    pochhammer_infinite,
)
from series_reads import coefficients, truncated


Y = Monomial(1, y=1)


def S(terms, qcap):
    return TriSeries.from_terms(terms, qcap)


def test_from_monomial_identity():
    one = S([(0, 0, 0, 1)], 10)
    assert one.terms() == [(0, 0, 0, 1)]
    assert one == TriSeries.one(10)


def test_from_monomial_negative_yq():
    s = S([(1, 1, 0, -1)], 10)
    assert s.terms() == [(1, 1, 0, -1)]


def test_from_monomial_truncates_to_zero():
    s = S([(12, 0, 0, 3)], 10)
    assert s.is_zero()
    s = S([(0, 0, 11, 1)], 10)
    assert s.is_zero()


def test_add_constants():
    a = S([(0, 0, 0, 1), (1, 0, 0, 1)], 5)   # 1 + q
    b = S([(0, 0, 0, 1), (1, 0, 0, -1)], 5)  # 1 - q
    assert (a + b).terms() == [(0, 0, 0, 2)]


def test_sub_self_is_zero():
    s = pochhammer_finite(Z, 1, 2, 6)
    assert (s - s).is_zero()


def test_add_cancellation():
    a = S([(0, 0, 0, 1), (0, 0, 1, -1), (1, 0, 1, -1), (1, 0, 2, 1)], 4)
    b = S([(0, 0, 1, 1), (1, 0, 1, 1)], 4)
    assert (a + b).terms() == [(0, 0, 0, 1), (1, 0, 2, 1)]


def test_add_qcap_mismatch():
    with pytest.raises(ValueError, match="q-caps"):
        TriSeries.one(4) + TriSeries.one(5)


def test_mul_q_binomials():
    a = TriSeries.one(3).times_one_minus(Q)
    b = TriSeries.one(3).times_one_minus(Monomial(1, q=2))
    assert (a * b).terms() == [(0, 0, 0, 1), (1, 0, 0, -1), (2, 0, 0, -1), (3, 0, 0, 1)]


def test_mul_z_binomials():
    a = TriSeries.one(4).times_one_minus(Z)
    b = TriSeries.one(4).times_one_minus(Monomial(1, q=1, z=1))
    expected = S([(0, 0, 0, 1), (0, 0, 1, -1), (1, 0, 1, -1), (1, 0, 2, 1)], 4)
    assert a * b == expected


def test_mul_by_one_is_identity():
    s = pochhammer_infinite(YQ, 1, 6)
    assert s * TriSeries.one(6) == s


def test_invert_geometric():
    s = TriSeries.one(4).times_one_minus(Q)
    assert s.invert().terms() == [(j, 0, 0, 1) for j in range(5)]


def test_invert_one():
    assert TriSeries.one(5).invert() == TriSeries.one(5)


def test_invert_yq_pochhammer_counts_partitions_by_length():
    # independent oracle: enumerate partitions of n <= 3 and tally lengths
    qcap = 3
    expected_terms = []
    for n in range(qcap + 1):
        from collections import Counter
        lengths = Counter(len(parts) for parts in enumerate_partitions(n))
        for ell, count in sorted(lengths.items()):
            expected_terms.append((n, ell, 0, count))
    inv = pochhammer_infinite(YQ, 1, qcap).invert()
    assert inv == S(expected_terms, qcap)


def test_invert_round_trip():
    for s in [
        pochhammer_infinite(YQ, 1, 8),
        pochhammer_finite(Q, 1, 3, 8),
        pochhammer_infinite(Monomial(1, q=1, z=1), 1, 6),
        pochhammer_finite(Monomial(2, q=1, y=2), 1, 2, 8),
    ]:
        assert s * s.invert() == TriSeries.one(s.qcap)


def test_invert_rejects_non_unit_constant():
    s = S([(0, 0, 0, 2)], 4)
    with pytest.raises(ValueError, match="not a formal unit"):
        s.invert()
    with pytest.raises(ValueError, match="not a formal unit"):
        TriSeries(4).invert()


def test_invert_rejects_pure_y_constant_layer():
    # q^0 layer 1 - y has no terminating geometric inverse
    s = TriSeries.one(4).times_one_minus(Y)
    with pytest.raises(ValueError, match="not a formal unit"):
        s.invert()


def test_invert_rejects_z_in_the_constant_layer():
    # 1 - z has a geometric inverse under the cut in z, but invert takes
    # only a q^0 row of exactly 1
    for m in (Z, Monomial(1, y=1, z=1), Monomial(-2, z=2)):
        s = TriSeries.one(4).times_one_minus(m)
        with pytest.raises(ValueError, match="not a formal unit"):
            s.invert()


def _divide_one_minus(s, m):
    """s / (1 - m), one binomial division step."""
    return _pochhammer_apply(s, m, 0, 1, divide=True)


def test_divide_one_minus_geometric():
    # 1/(1 - 2yq^2) = sum (2yq^2)^i
    expected = S([(0, 0, 0, 1), (2, 1, 0, 2), (4, 2, 0, 4)], 5)
    assert _divide_one_minus(TriSeries.one(5), Monomial(2, q=2, y=1)) == expected


def test_divide_one_minus_trivial_factor_is_identity():
    s = pochhammer_finite(YQ, 1, 3, 4)
    assert _divide_one_minus(s, Monomial(0, q=1)) is s
    assert _divide_one_minus(s, Monomial(1, q=5)) is s
    assert _divide_one_minus(s, Monomial(1, q=1, z=5)) is s


def test_divide_one_minus_rejects_q_order_zero():
    for m in (Z, Y):
        with pytest.raises(ValueError, match="positive q-exponent"):
            _divide_one_minus(TriSeries.one(4), m)
        with pytest.raises(ValueError, match="positive q-exponent"):
            _pochhammer_apply(TriSeries.one(4), m, 1, 2, divide=True)


# ----------------------------------------------------------- packed kernel


def test_step_widens_past_wide_input():
    # a majorant past 2^100 needs 104-bit slots; times (1 - 256 y z q) it
    # needs 112
    big = S([(0, 0, 0, 2**100), (1, 1, 0, 1 - 2**90), (2, 3, 1, 3 * 2**70)], 4)
    p = _Build(big)
    assert p.width == 104
    p._step(256, 1, 1, 1, divide=False)
    assert p.width == 112 and max(p.bound).bit_length() < p.width
    shifted = [(j + 1, e + 1, f + 1, -256 * c) for j, e, f, c in big.terms()]
    assert p == S(big.terms() + shifted, 4)


def test_packed_slots_at_the_width_edge_round_trip():
    # a key whose slots sum to 2^63 - 1 in absolute value, next to slots
    # that borrow from it, and single slots just past a 64-bit slot's range,
    # held at their own width and re-encoded wider
    edge = 2**63 - 3
    for terms in (
        [(0, 0, 0, edge), (0, 1, 0, -1), (0, 2, 0, 1)],
        [(0, 0, 0, -edge), (0, 1, 0, 1), (0, 2, 0, -1)],
        [(0, 1, 0, 2**63)],
        [(0, 1, 0, -(2**63)), (1, 0, 1, 2**63 - 1)],
    ):
        s = S(terms, 2)
        assert s.terms() == sorted(terms)
        for width in (0, 72, 128):
            wide = _Build(s, width)
            assert wide.width == max(width, s.width)
            assert wide == s and wide.terms() == s.terms()


def test_a_compare_at_one_width_copies_no_side(monkeypatch):
    # two equal series at one width are read as they sit; only a side at a
    # narrower width is copied wider, and every side read is checked first
    built = []

    class Counted(_Build):
        __slots__ = ()

        def __init__(self, s, width=0):
            built.append(s.width)
            super().__init__(s, width)

    a, b = partition_measure_gf_product(2, 30), measure_gf(30, 2)
    wide = _Build(a, a.width + 8)._series()
    assert a.width == b.width
    monkeypatch.setattr(series, "_Build", Counted)
    assert a == b
    assert built == []
    assert wide == b
    assert built == [b.width]
    outgrown = TriSeries(0, 64, [{}], [2**64])
    for x, y in ((outgrown, TriSeries(0)), (TriSeries(0), outgrown)):
        with pytest.raises(OverflowError):
            x == y


def test_qsum_trusts_an_empty_summand_only_under_the_majorant():
    # 2^64 - y evaluates to 0 at y = 2^64, so at 64-bit slots only the
    # majorant tells an empty summand from a zero one; no integer summand
    # of _qsum can end there, so the empty rows are built by hand
    empty = TriSeries(0, 64, [{}], [2**64])
    with pytest.raises(OverflowError):
        empty.is_zero()


def test_qsum_ends_at_a_summand_that_cancels():
    # T_1 = T_0 q (1 - 1) vanishes by cancellation, under no cut
    assert _qsum(6, Form(Q, 0, ups=((Monomial(1), 1, 1),))) == TriSeries.one(6)
    assert _qsum(6, Form(YQ, 0, ups=((Monomial(1), 0, 2),))) == TriSeries.one(6)


def test_qsum_steps_a_summand_only_in_its_room_in_z():
    # sum_n q^n z^(2n) (z^3 q; q)_n: summand n has 8 - 2n room in z but
    # 8 - n in q, so a step cut at the room in q keeps keys past z = 8
    form = Form(Monomial(1, q=1, z=2), 0, ups=((Monomial(1, q=1, z=3), 1, 1),))
    expected = TriSeries(8)
    for n in range(9):
        summand = S([(n, 0, 2 * n, 1)], 8) * pochhammer_finite(Monomial(1, q=1, z=3), 1, n, 8)
        expected = expected + summand
    assert _qsum(8, form) == expected


def test_pochhammer_finite_z_two_factors():
    expected = S([(0, 0, 0, 1), (0, 0, 1, -1), (1, 0, 1, -1), (1, 0, 2, 1)], 6)
    assert pochhammer_finite(Z, 1, 2, 6) == expected


def test_pochhammer_finite_step_zero_is_binomial_power():
    expected = S([(0, 0, 0, 1), (0, 0, 1, -2), (0, 0, 2, 1)], 6)
    assert pochhammer_finite(Z, 0, 2, 6) == expected


def test_pochhammer_finite_minus_one():
    assert pochhammer_finite(Monomial(-1), 1, 2, 6).terms() == [
        (0, 0, 0, 2),
        (1, 0, 0, 2),
    ]


def test_pochhammer_finite_length_zero():
    assert pochhammer_finite(YQ, 1, 0, 6) == TriSeries.one(6)


def test_pochhammer_infinite_distinct_odd_parts():
    # oracle: count partitions of n into distinct odd parts for n <= 6
    qcap = 6
    expected = [
        sum(1 for _ in enumerate_partitions(n, "distinct-odd")) for n in range(qcap + 1)
    ]
    assert expected == [1, 1, 0, 1, 1, 1, 1]
    s = coefficients(pochhammer_infinite(Monomial(-1, q=1), 2, qcap))
    assert [s.get((n, 0, 0), 0) for n in range(qcap + 1)] == expected


def test_pochhammer_infinite_z_under_caps():
    got = pochhammer_infinite(Z, 1, 2)
    want = TriSeries.one(2)
    for j in range(3):
        want = want.times_one_minus(Monomial(1, q=j, z=1))
    assert got == want


def test_pochhammer_infinite_yq_hand_expansion():
    # (1-yq)(1-yq^2)(1-yq^3) truncated at q^3
    expected = S(
        [(0, 0, 0, 1), (1, 1, 0, -1), (2, 1, 0, -1), (3, 1, 0, -1), (3, 2, 0, 1)], 3
    )
    assert pochhammer_infinite(YQ, 1, 3) == expected


def test_pochhammer_infinite_rejects_step_zero():
    with pytest.raises(ValueError, match="divergent"):
        pochhammer_infinite(Q, 0, 5)


def test_pochhammer_infinite_rejects_constant():
    with pytest.raises(ValueError, match="divergent"):
        pochhammer_infinite(Monomial(1), 1, 5)
    with pytest.raises(ValueError, match="divergent"):
        pochhammer_infinite(Monomial(-1), 1, 5)


def test_scale_y_shifts_q_by_y_exponent():
    s = S([(1, 1, 0, 1)], 5)  # y q
    assert s.scale_y(1).terms() == [(2, 1, 0, 1)]


def test_scale_y_zero_is_identity():
    s = pochhammer_infinite(YQ, 1, 5)
    assert s.scale_y(0) == s


def test_scale_y_bookkeeping():
    s = S([(0, 0, 0, 1), (1, 1, 0, 1), (3, 2, 0, 1)], 7)
    assert s.scale_y(2) == S([(0, 0, 0, 1), (3, 1, 0, 1), (7, 2, 0, 1)], 7)


def test_coefficient_lookup():
    s = coefficients(pochhammer_finite(Z, 1, 2, 6))
    assert s[1, 0, 2] == 1
    assert s[1, 0, 1] == -1
    assert (5, 0, 0) not in s


def test_coefficient_of_zero_series():
    z = TriSeries(4)
    assert coefficients(z) == {}
    assert z.is_zero()


def test_terms_golden_pochhammer():
    # (z;q)_2 = (1 - z)(1 - zq), sorted by q, then y, then z
    assert pochhammer_finite(Z, 1, 2, 6).terms() == [
        (0, 0, 0, 1),
        (0, 0, 1, -1),
        (1, 0, 1, -1),
        (1, 0, 2, 1),
    ]
    assert TriSeries(2).terms() == []


def test_truncate_matches_direct_computation():
    # a series cut to a lower q-order is cut in z there too, as the direct
    # computation is
    a = pochhammer_infinite(YQ, 1, 10)
    assert truncated(a, 6) == pochhammer_infinite(YQ, 1, 6)
    prod = truncated(a * a.invert(), 4)
    assert prod == TriSeries.one(4)
    z8 = pochhammer_infinite(Z, 1, 8)
    assert truncated(z8, 3) == pochhammer_infinite(Z, 1, 3)


def test_default_zcap_is_the_qcap():
    # a term at z = qcap + 1 is past the cut
    s = S([(0, 0, 4, 1), (1, 0, 5, 1)], 4)
    assert s.terms() == [(0, 0, 4, 1)]
    # the z-room and the pending offset live only on a build record
    built = (
        TriSeries(4), TriSeries.one(4), s, s + s, s * s, pochhammer_finite(Z, 1, 2, 4),
        pochhammer_infinite(YQ, 1, 4), pochhammer_infinite(Q, 1, 4).invert(),
        _qsum(4, Form(Z.shift_q(1), 1, downs=((Q, 1, 1),), prefactors=((YQ, 1, True),))),
    )
    for b in built:
        assert type(b) is TriSeries
        assert not hasattr(b, "zcap") and not hasattr(b, "offset")


def test_set_z_at_one_collapses_z():
    s = pochhammer_finite(Z, 1, 2, 4)     # (1-z)(1-zq) -> 0 at z=1
    assert s.set_z(1).is_zero()


def test_set_y_sign_flip():
    s = S([(1, 1, 0, 1), (2, 2, 0, 3)], 4)
    flipped = s.set_y(-1)
    assert flipped.terms() == [(1, 0, 0, -1), (2, 0, 0, 3)]


def test_monomial_str_and_ops():
    assert str(Monomial(-1, q=1, y=1)) == "-q*y"
    assert str(Monomial(5)) == "5"
    assert (Q * Z) == Monomial(1, q=1, z=1)
    assert Monomial(1, q=2).divide(Q) == Q
    with pytest.raises(ValueError):
        Q.divide(Monomial(1, q=2))
    with pytest.raises(ValueError):
        Monomial(1, q=-1)


def test_monomial_is_an_immutable_record():
    m = Monomial(-3, q=2, z=1)
    assert pickle.loads(pickle.dumps(m)) == m
    assert type(pickle.loads(pickle.dumps(m))) is Monomial
    assert hash(m) == hash(Monomial(-3, 2, 0, 1))
    assert {m: 1}[Monomial(-3, q=2, z=1)] == 1
    for field in ("coeff", "q", "y", "z"):
        with pytest.raises(AttributeError):
            setattr(m, field, 0)
    with pytest.raises(AttributeError):
        m.w = 0
    assert m == Monomial(-3, q=2, z=1)
    assert repr(YQ) == "Monomial(coeff=1, q=1, y=1, z=0)"
    assert repr(m) == "Monomial(coeff=-3, q=2, y=0, z=1)"


def test_non_integers_are_refused():
    # every coefficient, exponent, Pochhammer step and length, and
    # substituted value is an int; a ratio that is not integral is no
    # monomial
    for value in (0.5, Fraction(1, 2), Fraction(2, 1), 1.0):
        with pytest.raises(TypeError):
            Monomial(value)
        with pytest.raises(TypeError):
            S([(0, 0, 0, value)], 3)
        for exponents in ((value, 0, 0), (0, value, 0), (0, 0, value)):
            with pytest.raises(TypeError):
                Monomial(1, *exponents)
            with pytest.raises(TypeError):
                S([(*exponents, 1)], 3)
        with pytest.raises(TypeError):
            pochhammer_finite(Monomial(-1, q=1), value, 2, 4)
        with pytest.raises(TypeError):
            pochhammer_finite(Monomial(-1, q=1), 1, value, 4)
        with pytest.raises(TypeError):
            TriSeries.one(3).set_y(value)
        with pytest.raises(TypeError):
            TriSeries.one(3).set_z(value)
    with pytest.raises(ValueError, match="not an integer"):
        Monomial(1).divide(Monomial(2))
    assert Monomial(-6, q=2).divide(Monomial(3, q=1)) == Monomial(-2, q=1)


def test_truncate_refuses_negative_caps():
    # the q-order is fixed when a series is built, and checked there
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        TriSeries.one(-1)
    with pytest.raises(ValueError, match="qcap must be nonnegative"):
        S([], -1)


def test_from_terms_checks_terms_the_caps_drop():
    # a term past the cut in q or in z is checked like any other
    for term in ((0, -1, 0, 1), (5, -1, 0, 1), (1, -1, 9, 1)):
        with pytest.raises(ValueError, match="nonnegative"):
            S([term], 3)
    for term in ((5, 0, 0, 0.5), (0, 0, 2.5, 1), (4.5, 0, 0, 1)):
        with pytest.raises(TypeError):
            S([term], 3)
    assert S([(5, 0, 0, 1), (1, 0, 4, 1)], 3).is_zero()


def _substitute_with_fractions(s, value, which):
    """The layers set_y/set_z built when every power was a Fraction, kept
    as the reference for the integer path."""
    out = [{} for _ in range(s.qcap + 1)]
    for j, layer in enumerate(s._layers):
        tgt = out[j]
        for (e, f), c in layer.items():
            key, power = ((0, f), e) if which == "y" else ((e, 0), f)
            v = tgt.get(key, 0) + c * Fraction(value) ** power
            if v:
                tgt[key] = int(v) if v.denominator == 1 else v
            else:
                tgt.pop(key, None)
    return out


@pytest.mark.parametrize("value", [-1, 1])
def test_substitution_matches_the_fraction_loop(value):
    def typed(layers):
        return [{key: (type(c), c) for key, c in layer.items()} for layer in layers]

    # a counted series and a closed form that the cut in z truncates
    for s in (measure_gf(8, 2), partition_measure_gf_product(2, 8)):
        for which, substitute in (("y", s.set_y), ("z", s.set_z)):
            got = substitute(value)
            assert typed(got._layers) == typed(_substitute_with_fractions(s, value, which))


@pytest.mark.parametrize("value", [0, 2, -2])
def test_substitution_refuses_all_but_signs(value):
    s = measure_gf(6, 2)
    with pytest.raises(ValueError, match="only 1 or -1"):
        s.set_y(value)
    with pytest.raises(ValueError, match="only 1 or -1"):
        s.set_z(value)
