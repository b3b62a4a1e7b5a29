"""Exact truncated power series in q, y, z over the rationals.

This is the arithmetic substrate for coefficient-exact verification of
partition generating function identities.  A :class:`TriSeries` is a formal
power series in ``q`` whose coefficients are polynomials in ``y`` and ``z``,
truncated at a fixed maximal q-exponent ``qcap`` and, optionally, a maximal
z-exponent ``zcap``.  Coefficients are exact: plain Python integers where
possible, ``fractions.Fraction`` otherwise, so equality of two series is a
genuine identity of all retained coefficients, never a numerical tolerance.

The z-cap exists because several product-form series carry a ``z^n`` term at
q-order 0 for every n; a bounded ``zcap`` makes such sums finite while still
determining every coefficient with z-exponent <= zcap exactly.  It is the
formal-series replacement for an analytic smallness assumption on z.

Storage is dense in q and packed in y (Kronecker substitution; von zur
Gathen and Gerhard, *Modern Computer Algebra*, sec. 8.4).  A series is a
list over q of ``{z_exp: int}`` rows, each int being the y-polynomial of
that (q, z) key evaluated at y = 2^W, with rational coefficients held as
integer numerators over one common denominator.  Every operation iterates
q-rows, so truncation is a cheap index bound rather than a filter.  Series
are immutable once built; all operations return new objects (or the
operand itself when it is unchanged) and are safe to run concurrently.

Sums, products, inverses and binomial steps (1 - c y^a z^b q^d), and so
Pochhammer products, work on these ints directly: a binomial step costs
one big-integer shift-and-add per key, a product one big-integer product
per pair of keys.  Three facts make them exact:

- every step is a ring operation of Z[y] (add, multiply, shift by W*a,
  divide exactly by an integer), and evaluation at 2^W keeps all of them
  exact whatever W is;
- the q-cap and the z-cap drop whole keys, which is exact too;
- a packed value is decoded, compared, or an empty one taken for zero,
  only when a majorant kept in lockstep with every step (one nonnegative
  int per q-row, bounding the sum of the absolute numerators there)
  shows that every coefficient lies below 2^(W-1) in absolute value.
  Otherwise the operation is run again at the width the majorant asks
  for, so W follows from the input and is no setting.

Substituting for y (``scale_y``, ``set_y``) reads the W-bit slots of each
int.  Equality and the checks of :mod:`kmeasure.identities` compare rows
as ints, which is a proof under the majorant (:func:`_first_difference`).
The ``{(y_exp, z_exp): coefficient}`` dict layers of a series are only a
view, decoded once when something reads coefficients back: ``terms``,
``coefficient``, a rendering, or a failure report.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from sys import maxsize

Coeff = int | Fraction

_KEEP = object()  # sentinel: "keep the current z-cap"


def _norm_coeff(c: Coeff) -> Coeff:
    """Collapse denominator-1 fractions to plain ints."""
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _fmt_coeff(c: Coeff) -> str:
    """Render a coefficient: integers bare, rationals as num/den."""
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


class _Record:
    """A plain record: its fields are its ``__slots__``, compared and shown
    in that order the way a dataclass would, without the import cost of
    :mod:`dataclasses`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Monomial(_Record):
    """A signed rational multiple of ``q^q * y^y * z^z``.

    Monomials are the parameter type for Pochhammer products and for
    specializing identities: the argument A of (A;q)_n, the t of Euler's
    identities, and so on.  Exponents are nonnegative.  A zero coefficient
    is allowed and denotes the zero monomial (useful as a degenerate
    Pochhammer argument, where every factor collapses to 1).  Monomials
    are immutable and hashable.
    """

    __slots__ = ("coeff", "q", "y", "z")

    def __init__(self, coeff: Coeff, q: int = 0, y: int = 0, z: int = 0):
        if q < 0 or y < 0 or z < 0:
            raise ValueError("monomial exponents must be nonnegative")
        if type(coeff) is not int:
            coeff = _norm_coeff(Fraction(coeff))
        init = object.__setattr__
        init(self, "coeff", coeff)
        init(self, "q", q)
        init(self, "y", y)
        init(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return Monomial, self._values()

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(
            self.coeff * other.coeff,
            self.q + other.q,
            self.y + other.y,
            self.z + other.z,
        )

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact monomial ratio self/other; exponents must not go negative."""
        if other.coeff == 0:
            raise ZeroDivisionError("division by the zero monomial")
        if self.q < other.q or self.y < other.y or self.z < other.z:
            raise ValueError("monomial ratio has a negative exponent")
        return Monomial(
            Fraction(self.coeff) / Fraction(other.coeff),
            self.q - other.q,
            self.y - other.y,
            self.z - other.z,
        )

    def shift_q(self, j: int) -> "Monomial":
        """Multiply by q^j."""
        return Monomial(self.coeff, self.q + j, self.y, self.z)

    def __str__(self):
        if self.coeff == 0:
            return "0"
        parts = []
        for sym, e in (("q", self.q), ("y", self.y), ("z", self.z)):
            if e == 1:
                parts.append(sym)
            elif e > 1:
                parts.append(f"{sym}^{e}")
        body = "*".join(parts)
        if not body:
            return _fmt_coeff(self.coeff)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return "-" + body
        return f"{_fmt_coeff(self.coeff)}*{body}"


# Common monomials, handy when assembling identities.
ONE = Monomial(1)
Q = Monomial(1, q=1)
Y = Monomial(1, y=1)
Z = Monomial(1, z=1)
YQ = Monomial(1, q=1, y=1)
_MINUS_ONE = Monomial(-1)


def _row_mul(acc: dict, ra: dict, rb: dict, limit: int):
    """acc += ra * rb for two rows of packed ints, dropping z-exponents
    above ``limit``: one big-integer product per pair of keys."""
    for f1, v1 in ra.items():
        for f2, v2 in rb.items():
            f = f1 + f2
            if f <= limit:
                w = acc.get(f, 0) + v1 * v2
                if w:
                    acc[f] = w
                else:
                    del acc[f]


class TriSeries:
    """Truncated trivariate formal power series with exact coefficients.

    ``qcap`` is the largest retained q-exponent; ``zcap`` is the largest
    retained z-exponent, or ``None`` for no z truncation.  The series is
    its packed rows, ``_packed``, whose majorant fits their width;
    ``_layers`` is their dict view, decoded on first read.
    """

    __slots__ = ("qcap", "zcap", "_decoded", "_packed")

    def __init__(self, qcap: int, zcap: int | None = None):
        if qcap < 0:
            raise ValueError("qcap must be nonnegative")
        if zcap is not None and zcap < 0:
            raise ValueError("zcap must be nonnegative or None")
        self.qcap = qcap
        self.zcap = zcap
        self._decoded = None
        self._packed = _Packed.zero(qcap, zcap, _START_WIDTH)

    @classmethod
    def _from_packed(cls, p: "_Packed") -> "TriSeries":
        """The series of packed rows that no one mutates afterwards, whose
        majorant fits their width and whose pending offset is the identity."""
        s = cls.__new__(cls)
        s.qcap = p.qcap
        s.zcap = p.zcap
        s._decoded = None
        s._packed = p
        return s

    @property
    def _layers(self) -> list[dict]:
        """Layer j is the ``{(y_exp, z_exp): coefficient}`` dict of q^j, a
        read-only view of the packed rows, decoded once."""
        if self._decoded is None:
            self._decoded = self._packed.unpack()
        return self._decoded

    @property
    def _nterms(self) -> int:
        return sum(len(layer) for layer in self._layers)

    # ---------------------------------------------------------------- build

    @classmethod
    def zero(cls, qcap: int, zcap: int | None = None) -> "TriSeries":
        return cls(qcap, zcap)

    @classmethod
    def one(cls, qcap: int, zcap: int | None = None) -> "TriSeries":
        return cls.from_monomial(ONE, qcap, zcap)

    @classmethod
    def from_monomial(cls, m: Monomial, qcap: int, zcap: int | None = None) -> "TriSeries":
        """The series equal to a single monomial, truncated under the caps."""
        return cls.from_terms([(m.q, m.y, m.z, m.coeff)], qcap, zcap)

    @classmethod
    def from_terms(cls, terms, qcap: int, zcap: int | None = None) -> "TriSeries":
        """Build from an iterable of (q_exp, y_exp, z_exp, coeff) tuples.

        Terms beyond the caps are dropped; repeated exponent triples are
        accumulated.  Inverse of :meth:`terms`.  The rows are packed at the
        narrowest width from the kernel's start up that the terms fit.
        """
        s = cls(qcap, zcap)
        layers = [{} for _ in range(qcap + 1)]
        for j, e, f, c in terms:
            if j > qcap or (zcap is not None and f > zcap) or c == 0:
                continue
            if j < 0 or e < 0 or f < 0:
                raise ValueError("exponents must be nonnegative")
            key = (e, f)
            v = layers[j].get(key, 0) + c
            if v:
                layers[j][key] = v
            else:
                del layers[j][key]
        den = lcm(*(c.denominator for layer in layers for c in layer.values()))
        layers = [
            {key: c.numerator * (den // c.denominator) for key, c in layer.items()}
            for layer in layers
        ]
        bound = [sum(map(abs, layer.values())) for layer in layers]
        width = max(_START_WIDTH, _width_for(max(bound).bit_length()))
        s._packed = _Packed(qcap, zcap, width, den, [_encode(layer, width) for layer in layers], bound)
        return s

    # ------------------------------------------------------------- inspect

    def terms(self):
        """All nonzero terms as (q_exp, y_exp, z_exp, coeff), sorted."""
        out = []
        for j, layer in enumerate(self._layers):
            for (e, f) in sorted(layer):
                out.append((j, e, f, layer[(e, f)]))
        return out

    def coefficient(self, j: int, y_exp: int = 0, z_exp: int = 0) -> Coeff:
        """Exact coefficient of q^j y^y_exp z^z_exp; 0 if absent."""
        if j < 0 or j > self.qcap:
            raise ValueError("beyond truncation")
        if self.zcap is not None and z_exp > self.zcap:
            raise ValueError("beyond truncation")
        if y_exp < 0 or z_exp < 0:
            raise ValueError("exponents must be nonnegative")
        return self._layers[j].get((y_exp, z_exp), 0)

    def is_zero(self) -> bool:
        return self._packed.is_zero()

    def lines(self) -> list[str]:
        """Debug rendering: one ``c * q^j y^e z^f`` line per term.

        Lines are sorted by ascending q-exponent, then y, then z; rationals
        print as num/den and integers without a denominator.  This is the
        stable format used by golden-file tests.
        """
        out = []
        for j, layer in enumerate(self._layers):
            for (e, f) in sorted(layer):
                out.append(f"{_fmt_coeff(layer[(e, f)])} * q^{j} y^{e} z^{f}")
        return out

    def __str__(self):
        return "\n".join(self.lines()) if self._nterms else "0"

    def __repr__(self):
        return f"TriSeries(qcap={self.qcap}, zcap={self.zcap}, terms={self._nterms})"

    def __eq__(self, other):
        if not isinstance(other, TriSeries):
            return NotImplemented
        return (
            self.qcap == other.qcap
            and self.zcap == other.zcap
            and _first_difference(self, other) is None
        )

    __hash__ = None

    # ----------------------------------------------------------- arithmetic
    #
    # Each operation is a ``build(width)`` run by :func:`_packed_build`, from
    # the widest width of its operands up, until its majorant fits.

    def _merged_caps(self, other):
        if self.qcap != other.qcap:
            raise ValueError(
                f"mismatched q-caps: {self.qcap} vs {other.qcap}"
            )
        if self.zcap is None:
            return self.qcap, other.zcap
        if other.zcap is None:
            return self.qcap, self.zcap
        return self.qcap, min(self.zcap, other.zcap)

    def _sum(self, other, sign: Monomial) -> "TriSeries":
        """self + sign*other, over the least common denominator."""
        _, zcap = self._merged_caps(other)

        def build(width):
            total = _Packed.pack(self, width, zcap)
            term = _Packed.pack(other, width, zcap)
            term.times_monomial(sign)
            total.add(term)
            return total

        return _packed_build(build, max(self._packed.width, other._packed.width))

    def __add__(self, other):
        return self._sum(other, ONE)

    def __sub__(self, other):
        return self._sum(other, _MINUS_ONE)

    def __neg__(self):
        return self.times_monomial(_MINUS_ONE)

    def __mul__(self, other):
        """Cauchy product, truncated at the (merged) caps.

        Row j of the product sums row j1 of self times row j - j1 of other,
        and its majorant is the same Cauchy sum of the majorants.
        """
        qcap, zcap = self._merged_caps(other)
        limit = maxsize if zcap is None else zcap

        def build(width):
            a, b = _Packed.pack(self, width, zcap), _Packed.pack(other, width, zcap)
            bound = [
                sum(a.bound[i] * b.bound[j - i] for i in range(j + 1)) for j in range(qcap + 1)
            ]
            product = _Packed(qcap, zcap, width, a.den * b.den, [{} for _ in bound], bound)
            product._check()  # the majorant names the width before any row is built
            for j1, ra in enumerate(a.rows):
                if ra:
                    for j2, rb in enumerate(b.rows[: qcap + 1 - j1]):
                        _row_mul(product.rows[j1 + j2], ra, rb, limit)
            return product

        return _packed_build(build, max(self._packed.width, other._packed.width))

    def times_monomial(self, m: Monomial) -> "TriSeries":
        """Multiply by a single monomial (exact shift and scale)."""
        return TriSeries(self.qcap, self.zcap)._sum(self, m)

    def times_one_minus(self, m: Monomial) -> "TriSeries":
        """Multiply by the binomial (1 - m) in O(terms)."""
        return _pochhammer_apply(self, m, 0, 1)

    def invert(self) -> "TriSeries":
        """Multiplicative inverse under the caps.

        The constant coefficient must be exactly 1.  If the q^0 layer has
        further terms they must all carry z, and zcap must be bounded, so
        that the layer's geometric inverse terminates; otherwise the series
        is not a unit in the truncated ring.

        With numerators A over the denominator d, the q^0 row is A_0 = d - w
        and its inverse d/A_0 = g/d^t, g = sum_{i<=t} w^i d^(t-i), where t is
        the z-cap if w is not empty (w carries z) and 0 if it is.  Row j of
        the inverse is c_j = -(g/d^t) sum_{i=1..j} (A_i/d) c_{j-i}; over the
        common denominator d^(t + qcap*(t+1)) each numerator row divides
        exactly by d^(t+1), and the majorants follow the same recursion.
        """
        qcap, zcap, p = self.qcap, self.zcap, self._packed
        p._check()
        base = p.rows[0]
        if base.get(0) != p.den or (len(base) > 1 and zcap is None):
            raise ValueError("not a formal unit under these caps")
        top = zcap if len(base) > 1 else 0
        limit = maxsize if zcap is None else zcap

        def build(width):
            a = _Packed.pack(self, width)
            den, rows, bound = a.den, a.rows, a.bound
            w = {f: -v for f, v in rows[0].items() if f}
            g, g_bound = {0: 1}, 1
            for i in range(1, top + 1):
                nxt = {0: den**i}
                _row_mul(nxt, w, g, limit)
                g, g_bound = nxt, den**i + (bound[0] - den) * g_bound
            divisor, scale = den ** (top + 1), den ** (qcap * (top + 1))
            inverse = _Packed(
                qcap, zcap, width, den**top * scale,
                [{f: v * scale for f, v in g.items()}], [g_bound * scale],
            )
            out, out_bound = inverse.rows, inverse.bound
            for j in range(1, qcap + 1):
                total = sum(bound[i] * out_bound[j - i] for i in range(1, j + 1))
                out_bound.append(g_bound * total // divisor)
            inverse._check()  # the majorant names the width before any row is built
            for j in range(1, qcap + 1):
                acc = {}
                for i in range(1, j + 1):
                    if rows[i]:
                        _row_mul(acc, rows[i], out[j - i], limit)
                if top:
                    acc, terms = {}, acc
                    _row_mul(acc, g, terms, limit)
                out.append({f: -(v // divisor) for f, v in acc.items()})
            return inverse

        return _packed_build(build, p.width)

    # -------------------------------------------------------- substitution

    def scale_y(self, j: int) -> "TriSeries":
        """Substitute y -> y*q^j; terms pushed past qcap are dropped.

        Exact on the retained range since the q-exponent only grows.  Slot
        e of row s moves to row s + j*e, so the majorant of row r is the
        sum of those of rows r - j*e.
        """
        if j < 0:
            raise ValueError("scale_y exponent must be nonnegative")
        if j == 0:
            return self
        qcap = self.qcap

        def build(width):
            p = _Packed.pack(self, width)
            moved = [{} for _ in range(qcap + 1)]  # row -> z_exp -> {y_exp: slot}
            for s, row in enumerate(p.rows):
                for f, v in row.items():
                    for e, d in enumerate(_split(v, width)):
                        if d and s + j * e <= qcap:
                            moved[s + j * e].setdefault(f, {})[e] = d
            rows = [{f: _join(slots, width) for f, slots in row.items()} for row in moved]
            bound = p.bound  # bound[r] = sum_e bound[r - j*e], summed in place
            for r in range(j, qcap + 1):
                bound[r] += bound[r - j]
            return _Packed(qcap, self.zcap, width, p.den, rows, bound)

        return _packed_build(build, self._packed.width)

    def set_y(self, value: Coeff) -> "TriSeries":
        """Substitute an exact rational value n/d for y: each key's slots
        c_e sum to the numerator sum_e c_e n^e d^(t-e) over d^t, t the
        highest slot of the series."""
        value = Fraction(value)
        n, d = value.numerator, value.denominator

        def build(width):
            p = _Packed.pack(self, width)
            top = max((abs(v).bit_length() // width for row in p.rows for v in row.values()), default=0)
            powers = [n**e * d ** (top - e) for e in range(top + 1)]
            rows = []
            for row in p.rows:
                out = {}
                for f, v in row.items():
                    c = sum(x * power for x, power in zip(_split(v, width), powers))
                    if c:
                        out[f] = c
                rows.append(out)
            bound = [sum(map(abs, row.values())) for row in rows]
            return _Packed(self.qcap, self.zcap, width, p.den * d**top, rows, bound)

        return _packed_build(build, self._packed.width)

    def set_z(self, value: Coeff) -> "TriSeries":
        """Substitute an exact rational value n/d for z.

        The result carries no z content, so its zcap is unbounded.  If this
        series was z-truncated the substitution only sums the retained
        z-range (the caller decides whether that is meaningful).  Each row's
        ints v_f sum to sum_f v_f n^f d^(t-f) over d^t, t the highest
        z-exponent, and max(|n|, d)^t scales the majorant.
        """
        value = Fraction(value)
        n, d = value.numerator, value.denominator

        def build(width):
            p = _Packed.pack(self, width)
            top = max((f for row in p.rows for f in row), default=0)
            powers = [n**f * d ** (top - f) for f in range(top + 1)]
            rows = []
            for row in p.rows:
                v = sum(x * powers[f] for f, x in row.items())
                rows.append({0: v} if v else {})
            scale = max(abs(n), d) ** top
            return _Packed(self.qcap, None, width, p.den * d**top, rows, [scale * b for b in p.bound])

        return _packed_build(build, self._packed.width)

    def truncate(self, qcap: int | None = None, zcap=_KEEP) -> "TriSeries":
        """Re-truncate to tighter caps.

        Loosening a cap is an error: the dropped terms are unknown.
        """
        new_q = self.qcap if qcap is None else qcap
        new_z = self.zcap if zcap is _KEEP else zcap
        if new_q > self.qcap:
            raise ValueError("beyond truncation")
        if self.zcap is not None and (new_z is None or new_z > self.zcap):
            raise ValueError("beyond truncation")
        p = _Packed.pack(self, self._packed.width, new_z)
        p.qcap = new_q
        del p.rows[new_q + 1:], p.bound[new_q + 1:]
        return TriSeries._from_packed(p)


# --------------------------------------------------------- packed kernel

# Slot width a build starts from; the majorant widens it when it must.
_START_WIDTH = 64


def _width_for(bits: int) -> int:
    """The slot width that holds coefficients below 2^bits in absolute
    value: one sign bit more, rounded up to whole bytes."""
    return (bits + 8) // 8 * 8


def _halves(slots: int, width: int) -> bytes:
    """2^(width-1) in each of ``slots`` little-endian slots."""
    return (b"\0" * (width // 8 - 1) + b"\x80") * slots


_HIGH_BITS = {}


def _high_bits(slots: int, width: int) -> int:
    """:func:`_halves` as an int: bit width-1 of each slot.  Added to a
    packed value, it turns every balanced digit into a nonnegative one."""
    key = (slots, width)
    if key not in _HIGH_BITS:
        _HIGH_BITS[key] = int.from_bytes(_halves(slots, width), "little")
    return _HIGH_BITS[key]


def _split(v: int, width: int) -> list[int]:
    """The slots of a packed int, lowest first, in time linear in their
    number; each must lie below 2^(width-1) in absolute value."""
    size, half = width // 8, 1 << (width - 1)
    slots = abs(v).bit_length() // width + 1
    raw = (v + _high_bits(slots, width)).to_bytes(slots * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, len(raw), size)]


def _join(slots: dict, width: int) -> int:
    """The packed int of ``{y_exp: c}``, each |c| below 2^(width-1)."""
    size, half = width // 8, 1 << (width - 1)
    count = max(slots) + 1
    raw = bytearray(_halves(count, width))
    for e, c in slots.items():
        raw[e * size:(e + 1) * size] = (c + half).to_bytes(size, "little")
    return int.from_bytes(raw, "little") - _high_bits(count, width)


def _encode(layer: dict, width: int) -> dict:
    """A layer's ``{(y_exp, z_exp): c}`` as ``{z_exp: int}``, each y-polynomial
    evaluated at y = 2^width; every |c| must be below 2^(width-1)."""
    by_z = {}
    for (e, f), c in layer.items():
        by_z.setdefault(f, {})[e] = c
    return {f: _join(slots, width) for f, slots in by_z.items()}


class _Narrow(Exception):
    """A packed value was about to be read at a width its majorant exceeds."""

    def __init__(self, width: int):
        super().__init__(width)
        self.width = width


_NO_OFFSET = (0, 0, 0, 1)


class _Packed:
    """A series with y packed into one integer per (q, z) key.

    ``rows[j]`` maps a z-exponent f to the y-polynomial of q^j z^f
    evaluated at y = 2^width; the polynomial holds integer numerators over
    the common denominator ``den``.  Every step is a ring operation of Z[y]
    (add, multiply, shift by width*a, divide exactly by an integer), which
    evaluation at 2^width preserves whatever the width, and the caps drop
    whole keys.  Only reading a value back, comparing it, or taking an
    empty series for zero, needs every coefficient below 2^(width-1) in
    absolute value.  ``bound[j]`` is the majorant that vouches for it: at
    least the sum of the absolute numerators of row j, kept in lockstep
    with every step.  Where it does not fit, :class:`_Narrow` names a wider
    width and the build is run again (:func:`_packed_build`).

    Inside a build a series may carry a pending monomial factor, ``offset =
    (q, y, z, coeff)``: it then stands for coeff q^q y^y z^z times its rows,
    and ``qcap``, ``zcap`` are the caps of the rows, the series' caps less
    the offset's exponents.  Binomial steps commute with the factor, so they
    run over the rows under those caps alone; :meth:`add` applies it.
    """

    __slots__ = ("qcap", "zcap", "width", "den", "rows", "bound", "offset")

    def __init__(self, qcap, zcap, width: int, den: int, rows: list, bound: list):
        self.qcap, self.zcap, self.width, self.den = qcap, zcap, width, den
        self.rows, self.bound = rows, bound
        self.offset = _NO_OFFSET

    @classmethod
    def zero(cls, qcap, zcap, width: int) -> "_Packed":
        return cls(qcap, zcap, width, 1, [{} for _ in range(qcap + 1)], [0] * (qcap + 1))

    @classmethod
    def pack(cls, s: TriSeries, width: int, zcap=_KEEP, den: int | None = None) -> "_Packed":
        """A private copy of the rows of s at this width, over ``den``, a
        multiple of their denominator, and without keys above ``zcap``."""
        src = s._packed
        src._check()
        zcap = s.zcap if zcap is _KEEP else zcap
        factor = 1 if den is None else den // src.den
        p = cls(s.qcap, zcap, width, src.den * factor, [], [factor * b for b in src.bound])
        p._check()
        rows = src.rows
        if width != src.width:
            rows = [
                {f: _join(dict(enumerate(_split(v, src.width))), width) for f, v in row.items()}
                for row in rows
            ]
        limit = maxsize if zcap is None else zcap
        p.rows = [{f: factor * v for f, v in row.items() if f <= limit} for row in rows]
        return p

    def copy(self) -> "_Packed":
        p = _Packed(
            self.qcap, self.zcap, self.width, self.den,
            [dict(row) for row in self.rows], list(self.bound),
        )
        p.offset = self.offset
        return p

    def _check(self):
        bits = max(self.bound, default=0).bit_length()
        if bits >= self.width:
            raise _Narrow(_width_for(bits))

    def is_zero(self) -> bool:
        """True iff the series is zero; an empty packed series proves it
        only under the majorant."""
        if any(self.rows):
            return False
        self._check()
        return True

    def is_nonnegative(self) -> bool:
        """True iff every numerator is >= 0, read off the packed ints.

        Under the majorant every balanced digit c of an int v lies in
        (-2^(W-1), 2^(W-1)).  If none is negative, v is their plain
        base-2^W expansion: v >= 0 and bit W-1 of each slot is clear.  If
        one is, either v < 0, or the lowest negative digit takes a borrow
        from the slots above it and sets bit W-1 of its own.  One mask of
        bit W-1 in every slot up to v's top slot tests both: in two's
        complement a negative v sets every bit from its bit length up,
        bit W-1 of that top slot among them.
        """
        self._check()
        width = self.width
        for row in self.rows:
            for v in row.values():
                if v & _high_bits(v.bit_length() // width + 1, width):
                    return False
        return True

    def unpack(self) -> list[dict]:
        """The dict layers, decoded in time linear in their slots."""
        self._check()
        return [self.decode(row) for row in self.rows]

    def decode(self, row: dict) -> dict:
        """One row as a ``{(y_exp, z_exp): c}`` layer; the caller has
        checked the majorant."""
        layer = {}
        for f, v in row.items():
            layer.update({(e, f): c for e, c in enumerate(_split(v, self.width)) if c})
        if self.den != 1:
            layer = {key: _norm_coeff(Fraction(c, self.den)) for key, c in layer.items()}
        return layer
    def _rescale(self, den: int):
        """Bring the common denominator up to ``den``, a multiple of it."""
        factor = den // self.den
        if factor != 1:
            for row in self.rows:
                for f in row:
                    row[f] *= factor
            self.bound = [factor * b for b in self.bound]
            self.den = den

    def add(self, other: "_Packed"):
        """self += other, over the least common denominator of both,
        applying other's pending offset; self carries none."""
        q, y, z, coeff = other.offset
        num, cden = coeff.numerator, coeff.denominator
        den = lcm(self.den, other.den * cden)
        self._rescale(den)
        factor = num * (den // (other.den * cden))
        shift = self.width * y
        for tgt, row in zip(self.rows[q:], other.rows):
            for f, v in row.items():
                w = tgt.get(f + z, 0) + factor * (v << shift)
                if w:
                    tgt[f + z] = w
                else:
                    del tgt[f + z]
        bound = self.bound
        for j, b in enumerate(other.bound, q):
            bound[j] += abs(factor) * b

    def times_monomial(self, m: Monomial):
        """self *= m, held as a pending offset: the rows stay as they are,
        and only those that m pushes past the caps are dropped."""
        q, y, z, coeff = self.offset
        self.offset = (q + m.q, y + m.y, z + m.z, coeff * m.coeff)
        self.qcap = self.qcap - m.q if m.coeff else -1
        keep = max(self.qcap + 1, 0)
        del self.rows[keep:], self.bound[keep:]
        if self.zcap is not None and m.z:
            self.zcap -= m.z
            dropped = range(max(self.zcap + 1, 0), self.zcap + m.z + 1)
            for row in self.rows:
                for f in dropped:
                    row.pop(f, None)

    def step(self, coeff: Coeff, q: int, y: int, z: int, divide: bool):
        """Multiply by (1 - coeff y^y z^z q^q), or divide by it (q >= 1).

        The product reads row j - q before row j is written (descending j);
        the quotient solves out_j = self_j + m*out_{j-q} from rows already
        solved (ascending j).  A rational coefficient n/d scales the
        numerators by d for a product, and by d^K, K = qcap // q, for a
        quotient, whose solved rows then divide exactly by d.
        """
        qcap, zcap, rows, bound = self.qcap, self.zcap, self.rows, self.bound
        num, den = coeff.numerator, coeff.denominator
        if num == 0 or q > qcap or (zcap is not None and z > zcap):
            return
        if divide and q == 0:
            raise ValueError("dividing by (1 - m) needs a positive q-exponent")
        limit = zcap - z if zcap is not None else maxsize
        shift = self.width * y
        # out_j = scale*self_j - num*m*self_{j-q}, or out_j = scale*self_j
        # + num*m*out_{j-q}/den with out_{j-q} a multiple of den
        add, factor = (num > 0) == divide, abs(num)
        scale = den ** (qcap // q) if divide else den
        carried = den if divide else 1
        low = q if scale == 1 else 0  # rows below q change only by the scale
        for j in range(low, qcap + 1) if divide else range(qcap, low - 1, -1):
            tgt = rows[j]
            src = () if j < q else rows[j - q].items() if q else list(tgt.items())
            if scale != 1:
                for f in tgt:
                    tgt[f] *= scale
            if factor != 1 or carried != 1:
                src = [(f, factor * (v // carried)) for f, v in src]
            for f, v in src:
                if f <= limit:
                    if add:
                        w = tgt.get(f + z, 0) + (v << shift)
                    else:
                        w = tgt.get(f + z, 0) - (v << shift)
                    if w:
                        tgt[f + z] = w
                    else:
                        del tgt[f + z]
            if j < q:
                bound[j] *= scale
            else:
                bound[j] = scale * bound[j] + factor * bound[j - q] // carried
        self.den *= scale

    def pochhammer(self, a: Monomial, h: int, n: int | None = None, divide=False):
        """Multiply by (a;q^h)_n, or divide by it, one binomial factor
        (1 - a*q^{h*i}) at a time; ``n = None`` takes every factor under the
        q-cap and needs h >= 1."""
        i = 0
        while (n is None or i < n) and a.q + h * i <= self.qcap:
            self.step(a.coeff, a.q + h * i, a.y, a.z, divide)
            i += 1


def _packed_build(build, width: int = _START_WIDTH) -> TriSeries:
    """Run ``build(width) -> _Packed`` and keep its result packed, widening
    the slots and running the build again whenever the majorant needs it."""
    while True:
        try:
            p = build(width)
            p._check()
            return TriSeries._from_packed(p)
        except _Narrow as narrow:
            width = narrow.width


def _first_difference(a: TriSeries, b: TriSeries):
    """The least (q, y, z) at which a and b differ under their merged caps,
    as ``(q, y, z, coefficient in a, coefficient in b)``; None if they agree.

    Both sides are read at the widest width W of the two, over the least
    common multiple of their denominators (wider where the rescaled
    majorants need it), and rows are compared as ints.  Every slot of
    either side then lies below 2^(W-1) in absolute value, so every slot of
    the difference lies below 2^W, and a nonzero difference cannot vanish
    at y = 2^W: equal ints are a proof.  Only the first row that differs is
    decoded.
    """
    _, zcap = a._merged_caps(b)
    pa, pb = a._packed, b._packed
    den = lcm(pa.den, pb.den)
    bits = max(max(p.bound) * (den // p.den) for p in (pa, pb)).bit_length()
    width = max(pa.width, pb.width, _width_for(bits))
    rows = (_Packed.pack(s, width, zcap, den).rows for s in (a, b))
    for j, (x, y) in enumerate(zip(*rows)):
        if x != y:
            la, lb = pa.decode(pa.rows[j]), pb.decode(pb.rows[j])
            e, f = min(
                key for key in la.keys() | lb.keys()
                if (zcap is None or key[1] <= zcap) and la.get(key, 0) != lb.get(key, 0)
            )
            return j, e, f, la.get((e, f), 0), lb.get((e, f), 0)
    return None


# ------------------------------------------------------------ Pochhammer


def _pochhammer_apply(
    s: TriSeries, a: Monomial, h: int, n: int | None = None, divide=False
) -> TriSeries:
    """Multiply s by (a;q^h)_n, or divide it by that product, one binomial
    factor (1 - a*q^{h*i}) at a time, in one packed kernel run.

    ``n = None`` takes every factor under the q-cap and needs h >= 1.
    Factors that reduce to 1 under the caps are skipped; if all do, s
    itself is returned.
    """
    if a.coeff == 0 or n == 0 or a.q > s.qcap or (s.zcap is not None and a.z > s.zcap):
        return s

    def build(width):
        p = _Packed.pack(s, width)
        p.pochhammer(a, h, n, divide)
        return p

    return _packed_build(build, s._packed.width)


def pochhammer_finite(
    a: Monomial, h: int, n: int, qcap: int, zcap: int | None = None
) -> TriSeries:
    """The finite product prod_{i=0}^{n-1} (1 - a*q^{h*i}), truncated.

    Step ``h = 1`` gives the classical (a;q)_n; general h gives (a;q^h)_n.
    ``h = 0`` is legal and yields the binomial power (1-a)^n.  Factors whose
    q-exponent exceeds qcap (or whose z-exponent exceeds a bounded zcap)
    reduce to 1 under truncation and are skipped.
    """
    if h < 0:
        raise ValueError("pochhammer step must be nonnegative")
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    return _pochhammer_apply(TriSeries.one(qcap, zcap), a, h, n)


def pochhammer_infinite(
    a: Monomial, h: int, qcap: int, zcap: int | None = None
) -> TriSeries:
    """The infinite product prod_{i>=0} (1 - a*q^{h*i}), truncated.

    Requires h >= 1: with h = 0 the product repeats one factor forever.
    A constant argument (all exponents zero) is rejected as well, since it
    would stack infinitely many factors at q-order 0; an argument with a y
    or z exponent is fine because only its i = 0 factor sits at q-order 0.
    """
    if h < 1:
        raise ValueError("divergent infinite product")
    if a.coeff != 0 and a.q == 0 and a.y == 0 and a.z == 0:
        raise ValueError("divergent infinite product")
    return _pochhammer_apply(TriSeries.one(qcap, zcap), a, h)
