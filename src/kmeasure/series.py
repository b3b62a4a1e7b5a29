"""Exact truncated power series in q, y, z over the integers.

This is the arithmetic substrate for coefficient-exact verification of
partition generating function identities.  A :class:`TriSeries` is a formal
power series in ``q`` whose coefficients are polynomials in ``y`` and ``z``,
truncated at a fixed maximal q-exponent ``qcap``, the q-order, in both q
and z.  Coefficients are exact Python integers, so equality
of two series is a genuine identity of all retained coefficients, never a
numerical tolerance.  Every generating function of the paper has integer
coefficients, and so does every monomial, Pochhammer argument and
substituted value here: a non-integer is refused with ``TypeError``, and a
monomial ratio that is not integral with ``ValueError``.

There is one truncation order: a series holds q^j z^f for j, f <= qcap,
and only a summand inside :func:`_qsum` has less room in z.  Several
product-form series carry a ``z^n`` term at q-order 0 for every n, and the
cut in z makes such sums finite while still determining every coefficient
with z-exponent <= qcap exactly; it is the formal-series replacement for an
analytic smallness assumption on z.  Since no monomial has a negative
exponent, dropping the terms past the cut commutes with every ring
operation.  The cut loses nothing in the paper's counted series: a
k-measure, a Durfee side or a number of runs never exceeds the length, nor
the length the size, so their z-exponent is at most their q-exponent.

Storage is dense in q and packed in y (Kronecker substitution; von zur
Gathen and Gerhard, *Modern Computer Algebra*, sec. 8.4).  One class holds
it: a :class:`TriSeries` is a list over q of ``{z_exp: int}`` rows, each int
being the y-polynomial of that (q, z) key evaluated at y = 2^W, plus the
majorant below.  Every operation iterates q-rows, so truncation is a cheap
index bound rather than a filter.  A series never changes once built:
public operations return new series (or the operand itself when it is
unchanged), leave their operands as they were, and are safe to run
concurrently.  The in-place steps of a build are methods of one private
record, :class:`_Build`, a writable copy of a series that never leaves
this module.

Sums, products, inverses and binomial steps (1 - c y^a z^b q^d), and so
Pochhammer products, work on these ints directly: a binomial step costs
one big-integer shift-and-add per key, a product one big-integer product
per pair of keys.  Three facts make them exact:

- every step is a ring operation of Z[y] (add, multiply, shift by W*a),
  and evaluation at 2^W keeps all of them exact whatever W is;
- the cut at the q-order drops whole keys, which is exact too;
- a packed value is decoded, compared, or an empty one taken for zero,
  only when a majorant kept in lockstep with every step (one nonnegative
  int per q-row, bounding the sum of the absolute coefficients there)
  shows that every coefficient lies below 2^(W-1) in absolute value.
  Every operation writes its majorant before its rows, and widens the
  slots first when the majorant asks for it, so a series always fits its
  width, and W follows from the input and is no setting.

``scale_y`` reads the W-bit slots of each int.  Substitutions take y, z =
1 or -1 only, the values at which the paper specializes its identities:
``set_y`` takes each key's balanced residue modulo 2^W - 1 or 2^W + 1, and
``set_z`` adds or subtracts the ints of a row.  ``invert`` takes only a
series whose q^0 row is exactly 1.  Equality and the checks of
:mod:`kmeasure.identities` compare rows as ints, which is a proof under the
majorant (:func:`_first_difference`).
The ``{(y_exp, z_exp): coefficient}`` dict layers of a series are only a
view, decoded once when something reads coefficients back: ``terms``, or
a failure report.

An infinite sum is data too: a :class:`Form` record holds its summand
ratio, a monomial times q^(step*n), the Pochhammer factors that take
summand n to summand n+1, and its infinite prefactors, and :func:`_qsum`
builds it (Gasper and Rahman, *Basic Hypergeometric Series*, ch. 1-3).
Since each summand is a multiple of the one before it, the sum stops
exactly at the first summand that vanishes under the q-order; no builder
needs a truncation bound of its own.  A summand is a build record that
holds its monomial as a pending offset, and the prefactors are applied one
binomial factor at a time, on the same packed rows as the sum.  So every
in-place step of a build, and the offset it carries, runs in this module.
"""

from __future__ import annotations

from collections import namedtuple


def _check_qcap(qcap: int):
    if qcap < 0:
        raise ValueError("qcap must be nonnegative")


def _check_sign(sign) -> int:
    """``sign`` if it is 1 or -1, the only values substituted for y or z."""
    if type(sign) is not int:
        raise TypeError(f"substituted value {sign!r} is not an int")
    if sign not in (1, -1):
        raise ValueError(f"only 1 or -1 can be substituted, not {sign}")
    return sign


class Monomial(namedtuple("Monomial", "coeff q y z")):
    """A signed integer multiple of ``q^q * y^y * z^z``.

    Monomials are the parameter type for Pochhammer products and for
    specializing identities: the argument A of (A;q)_n, the t of Euler's
    identities, and so on.  Exponents are nonnegative.  A zero coefficient
    is allowed and denotes the zero monomial (useful as a degenerate
    Pochhammer argument, where every factor collapses to 1).  Monomials
    are immutable and hashable.
    """

    __slots__ = ()

    def __new__(cls, coeff: int, q: int = 0, y: int = 0, z: int = 0):
        if type(q) is not int or type(y) is not int or type(z) is not int:
            raise TypeError(f"monomial exponents {(q, y, z)!r} are not all ints")
        if q < 0 or y < 0 or z < 0:
            raise ValueError("monomial exponents must be nonnegative")
        if type(coeff) is not int:
            raise TypeError(f"monomial coefficient {coeff!r} is not an int")
        return super().__new__(cls, coeff, q, y, z)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(
            self.coeff * other.coeff,
            self.q + other.q,
            self.y + other.y,
            self.z + other.z,
        )

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact monomial ratio self/other; exponents must not go negative,
        and the coefficient ratio must be an integer."""
        if other.coeff == 0:
            raise ZeroDivisionError("division by the zero monomial")
        if self.q < other.q or self.y < other.y or self.z < other.z:
            raise ValueError("monomial ratio has a negative exponent")
        ratio, rest = divmod(self.coeff, other.coeff)
        if rest:
            raise ValueError("monomial ratio has a coefficient that is not an integer")
        return Monomial(
            ratio,
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
            return str(self.coeff)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return "-" + body
        return f"{self.coeff}*{body}"


# Common monomials, handy when assembling identities.
ONE = Monomial(1)
Q = Monomial(1, q=1)
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

    ``qcap`` is the largest retained exponent of q and of z.  With no rows
    the series is zero; rows and bound are given together.

    ``rows[j]`` maps a z-exponent f to the integer y-polynomial of q^j z^f
    evaluated at y = 2^width.  Every step is a ring operation of Z[y] (add,
    multiply, shift by width*a), which evaluation at 2^width preserves
    whatever the width, and the cut at ``qcap`` drops whole keys.  Only
    reading a value back, comparing it, or taking an empty series for zero,
    needs every coefficient below 2^(width-1) in absolute value.  ``bound[j]`` is the
    majorant that vouches for it: at least the sum of the absolute
    coefficients of row j, kept in lockstep with every step, and every read
    checks it.  An operation writes its majorant first, then re-encodes the
    rows at the width that majorant asks for, and only then does it write
    rows.  ``_layers`` is the dict view of the rows, decoded on first read.

    A series has no in-place method: public operations return new series
    and leave their operands as they were.  A build writes into a
    :class:`_Build`, and hands back a series over its rows.
    """

    __slots__ = ("qcap", "width", "rows", "bound", "_decoded")

    def __init__(self, qcap: int, width: int | None = None,
                 rows: list | None = None, bound: list | None = None):
        _check_qcap(qcap)
        if rows is None:
            rows, bound = [{} for _ in range(qcap + 1)], [0] * (qcap + 1)
        self.qcap = qcap
        self.width = _START_WIDTH if width is None else width
        self.rows, self.bound = rows, bound
        self._decoded = None

    @property
    def _layers(self) -> list[dict]:
        """Layer j is the ``{(y_exp, z_exp): coefficient}`` dict of q^j, a
        read-only view of the rows, decoded once in time linear in their
        slots."""
        if self._decoded is None:
            self._check()
            self._decoded = [self._decode(row) for row in self.rows]
        return self._decoded

    @property
    def _nterms(self) -> int:
        return sum(len(layer) for layer in self._layers)

    # ---------------------------------------------------------------- build

    @classmethod
    def one(cls, qcap: int) -> "TriSeries":
        return cls.from_terms([(0, 0, 0, 1)], qcap)

    @classmethod
    def from_terms(cls, terms, qcap: int) -> "TriSeries":
        """Build from an iterable of (q_exp, y_exp, z_exp, coeff) tuples.

        Every term must make a valid :class:`Monomial`, also one with a q- or
        z-exponent above ``qcap``; such terms are dropped, and repeated
        exponent triples are accumulated.  Inverse of
        :meth:`terms`.  The rows are packed at the narrowest
        width from the kernel's start up that the terms fit.
        """
        _check_qcap(qcap)
        layers = [{} for _ in range(qcap + 1)]
        for j, e, f, c in terms:
            Monomial(c, j, e, f)
            if j > qcap or f > qcap or c == 0:
                continue
            key = (e, f)
            v = layers[j].get(key, 0) + c
            if v:
                layers[j][key] = v
            else:
                del layers[j][key]
        bound = [sum(map(abs, layer.values())) for layer in layers]
        width = _slot_width(max(bound).bit_length())
        return cls(qcap, width, [_encode(layer, width) for layer in layers], bound)

    # ------------------------------------------------------------- inspect

    def terms(self):
        """All nonzero terms as (q_exp, y_exp, z_exp, coeff), sorted."""
        out = []
        for j, layer in enumerate(self._layers):
            for (e, f) in sorted(layer):
                out.append((j, e, f, layer[(e, f)]))
        return out

    def is_zero(self) -> bool:
        """True iff the series is zero; empty rows prove it only under the
        majorant."""
        if any(self.rows):
            return False
        self._check()
        return True

    def is_nonnegative(self) -> bool:
        """True iff every coefficient is >= 0, read off the packed ints.

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

    def __repr__(self):
        return f"TriSeries(qcap={self.qcap}, terms={self._nterms})"

    def __eq__(self, other):
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.qcap == other.qcap and _first_difference(self, other) is None

    __hash__ = None

    # ----------------------------------------------------------- arithmetic

    def _shared_qcap(self, other) -> int:
        """The q-order of two series, which must share it."""
        if self.qcap != other.qcap:
            raise ValueError(
                f"mismatched q-caps: {self.qcap} vs {other.qcap}"
            )
        return self.qcap

    def _sum(self, other, sign: Monomial) -> "TriSeries":
        """self + sign*other."""
        self._shared_qcap(other)
        total, term = _Build(self), _Build(other)
        term._shift(sign)
        total._add(term)
        return total._series()

    def __add__(self, other):
        return self._sum(other, ONE)

    def __sub__(self, other):
        return self._sum(other, _MINUS_ONE)

    def __mul__(self, other):
        """Cauchy product, truncated at the q-order.

        Row j of the product sums row j1 of self times row j - j1 of other,
        and its majorant is the same Cauchy sum of the majorants.
        """
        qcap = self._shared_qcap(other)
        bound = [sum(self.bound[i] * other.bound[j - i] for i in range(j + 1)) for j in range(qcap + 1)]
        width = _slot_width(max(bound).bit_length(), max(self.width, other.width))
        a, b = _Build(self, width), _Build(other, width)
        product = TriSeries(qcap, width, [{} for _ in bound], bound)
        for j1, ra in enumerate(a.rows):
            if ra:
                for j2, rb in enumerate(b.rows[: qcap + 1 - j1]):
                    _row_mul(product.rows[j1 + j2], ra, rb, qcap)
        return product

    def times_one_minus(self, m: Monomial) -> "TriSeries":
        """Multiply by the binomial (1 - m) in O(terms)."""
        return _pochhammer_apply(self, m, 0, 1)

    def invert(self) -> "TriSeries":
        """Multiplicative inverse under the q-order, of a series whose q^0 row
        is exactly 1, as every divisor of the engine's identities is.

        Row j of the inverse is c_j = -sum_{i=1..j} A_i c_{j-i}, and the
        majorants follow the same recursion.
        """
        qcap = self.qcap
        self._check()
        if self.rows[0] != {0: 1}:
            raise ValueError("not a formal unit under these caps")
        bound = self.bound
        out_bound = [1]
        for j in range(1, qcap + 1):
            out_bound.append(sum(bound[i] * out_bound[j - i] for i in range(1, j + 1)))
        width = _slot_width(max(out_bound).bit_length(), self.width)
        rows = _Build(self, width).rows
        out = [{0: 1}]
        for j in range(1, qcap + 1):
            acc = {}
            for i in range(1, j + 1):
                if rows[i]:
                    _row_mul(acc, rows[i], out[j - i], qcap)
            out.append({f: -v for f, v in acc.items()})
        return TriSeries(qcap, width, out, out_bound)

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
        self._check()
        bound = list(self.bound)  # bound[r] = sum_e bound[r - j*e], summed in place
        for r in range(j, qcap + 1):
            bound[r] += bound[r - j]
        width = _slot_width(max(bound).bit_length(), self.width)
        moved = [{} for _ in range(qcap + 1)]  # row -> z_exp -> {y_exp: slot}
        for s, row in enumerate(self.rows):
            for f, v in row.items():
                for e, d in enumerate(_split(v, self.width)):
                    if d and s + j * e <= qcap:
                        moved[s + j * e].setdefault(f, {})[e] = d
        rows = [{f: _join(slots, width) for f, slots in row.items()} for row in moved]
        return TriSeries(qcap, width, rows, bound)

    def set_y(self, sign: int) -> "TriSeries":
        """Substitute y = sign, 1 or -1.

        Modulo 2^W - sign, 2^W is sign, so each key's int is congruent to
        the signed sum of its slots.  The majorant keeps that sum below half
        the modulus, so it is the int's balanced residue: slot 0 alone, the
        same int at any width, under the same majorant.
        """
        modulus = (1 << self.width) - _check_sign(sign)
        half = modulus // 2
        self._check()
        rows = []
        for row in self.rows:
            out = {}
            for f, v in row.items():
                c = (v + half) % modulus - half
                if c:
                    out[f] = c
            rows.append(out)
        return TriSeries(self.qcap, self.width, rows, list(self.bound))

    def set_z(self, sign: int) -> "TriSeries":
        """Substitute z = sign, 1 or -1: each row's ints, negated at odd
        z-exponents when sign is -1, sum to one int of the same width under
        the same majorant.

        It sums the z-exponents up to the q-order, which are all of them for
        a series whose z-exponent never exceeds its q-exponent.
        """
        _check_sign(sign)
        rows = []
        for row in self.rows:
            v = sum(x * sign**f for f, x in row.items())
            rows.append({0: v} if v else {})
        return TriSeries(self.qcap, self.width, rows, list(self.bound))

    # --------------------------------------------------------- packed rows

    def _check(self):
        """Refuse to read rows whose majorant does not fit their width."""
        if max(self.bound, default=0).bit_length() >= self.width:
            raise OverflowError(f"packed slots outgrow their width {self.width}")

    def _decode(self, row: dict) -> dict:
        """One row as a ``{(y_exp, z_exp): c}`` layer; the caller has
        checked the majorant."""
        layer = {}
        for f, v in row.items():
            layer.update({(e, f): c for e, c in enumerate(_split(v, self.width)) if c})
        return layer


class _Build(TriSeries):
    """A private, writable copy of a series, which a build steps in place.

    ``_Build(s, width)`` copies the rows of s at ``width``, or at their own
    width, whichever is wider; :meth:`_series` hands the rows back as a
    plain series once the build is done.  A summand inside :func:`_qsum`
    also carries a pending monomial factor, ``offset = (q, y, z, coeff)``:
    it then stands for coeff q^q y^y z^z times its rows, and ``qcap`` and
    ``zcap`` are the room of the rows in q and in z, the q-order less the
    offset's exponents.  Binomial steps commute with the factor, so they
    run over the rows in that room alone; :meth:`_add` applies it.  With
    no offset ``zcap`` is ``qcap``.
    """

    __slots__ = ("zcap", "offset")

    def __init__(self, s: TriSeries, width: int = 0):
        s._check()
        super().__init__(s.qcap, s.width, [dict(row) for row in s.rows], list(s.bound))
        self.zcap, self.offset = s.qcap, (0, 0, 0, 1)
        self._widen(width)

    def _series(self) -> TriSeries:
        """The rows as a plain series that shares them; the build ends."""
        return TriSeries(self.qcap, self.width, self.rows, self.bound)

    def _widen(self, width: int = 0):
        """Re-encode the rows in place at ``width``, or at the width the
        majorant asks for if that is wider, when it is wider than theirs.

        The caller has written the new majorant but no row yet, so the rows
        still fit the old width and decode there soundly.
        """
        width = _slot_width(max(self.bound, default=0).bit_length(), max(width, self.width))
        old, self.width = self.width, width
        if width > old:
            for row in self.rows:
                for f, v in row.items():
                    row[f] = _widened(v, old, width)

    def _add(self, other: "_Build"):
        """self += other, applying other's pending offset; self carries
        none.  Both end at the wider of their widths and the one the sum's
        majorant asks for."""
        q, y, z, coeff = other.offset
        for j, b in enumerate(other.bound, q):
            self.bound[j] += abs(coeff) * b
        self._widen(other.width)
        other._widen(self.width)
        shift = self.width * y
        for tgt, row in zip(self.rows[q:], other.rows):
            for f, v in row.items():
                w = tgt.get(f + z, 0) + coeff * (v << shift)
                if w:
                    tgt[f + z] = w
                else:
                    del tgt[f + z]

    def _shift(self, m: Monomial):
        """self *= m, held as a pending offset: the rows stay as they are,
        and only the keys that m pushes past the q-order are dropped."""
        q, y, z, coeff = self.offset
        self.offset = (q + m.q, y + m.y, z + m.z, coeff * m.coeff)
        self.qcap = self.qcap - m.q if m.coeff else -1
        keep = max(self.qcap + 1, 0)
        del self.rows[keep:], self.bound[keep:]
        if m.z:
            self.zcap -= m.z
            dropped = range(max(self.zcap + 1, 0), self.zcap + m.z + 1)
            for row in self.rows:
                for f in dropped:
                    row.pop(f, None)

    def _step(self, coeff: int, q: int, y: int, z: int, divide: bool):
        """Multiply by (1 - coeff y^y z^z q^q), or divide by it (q >= 1).

        The product reads row j - q before row j is written (descending j);
        the quotient solves out_j = self_j + m*out_{j-q} from rows already
        solved (ascending j).  Rows below q do not change.  The majorant
        follows the same recursion, and is written first.
        """
        qcap, zcap, rows, bound = self.qcap, self.zcap, self.rows, self.bound
        if coeff == 0 or q > qcap or z > zcap:
            return
        if divide and q == 0:
            raise ValueError("dividing by (1 - m) needs a positive q-exponent")
        # out_j = self_j - coeff*m*self_{j-q}, or out_j = self_j + coeff*m*out_{j-q}
        add, factor = (coeff > 0) == divide, abs(coeff)
        order = range(q, qcap + 1) if divide else range(qcap, q - 1, -1)
        for j in order:
            bound[j] += factor * bound[j - q]
        self._widen()
        limit = zcap - z
        shift = self.width * y
        for j in order:
            tgt = rows[j]
            src = rows[j - q].items() if q else list(tgt.items())
            if factor != 1:
                src = [(f, factor * v) for f, v in src]
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

    def _pochhammer(self, a: Monomial, h: int, n: int | None = None, divide=False):
        """Multiply by (a;q^h)_n, or divide by it, one binomial factor
        (1 - a*q^{h*i}) at a time; ``n = None`` takes every factor under the
        q-cap and needs h >= 1."""
        i = 0
        while (n is None or i < n) and a.q + h * i <= self.qcap:
            self._step(a.coeff, a.q + h * i, a.y, a.z, divide)
            i += 1


# --------------------------------------------------------- packed kernel

# The narrowest slot width; the majorant widens it when it must.
_START_WIDTH = 64


def _slot_width(bits: int, width: int = 0) -> int:
    """``width`` if it holds coefficients below 2^bits in absolute value,
    else the width that does: one sign bit more than ``bits``, rounded up
    to whole bytes, and at least the kernel's start width."""
    if bits < width:
        return width
    return max(_START_WIDTH, (bits + 8) // 8 * 8)


_HIGH_BITS = {}


def _high_bits(slots: int, width: int) -> int:
    """2^(width-1) in each of ``slots`` slots: bit width-1 of each.  Added
    to a packed value, it turns every balanced digit into a nonnegative
    one."""
    key = (slots, width)
    if key not in _HIGH_BITS:
        _HIGH_BITS[key] = int.from_bytes((b"\0" * (width // 8 - 1) + b"\x80") * slots, "little")
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
    high = _high_bits(count, width)
    raw = bytearray(high.to_bytes(count * size, "little"))
    for e, c in slots.items():
        raw[e * size:(e + 1) * size] = (c + half).to_bytes(size, "little")
    return int.from_bytes(raw, "little") - high


def _widened(v: int, old: int, width: int) -> int:
    """The packed int v with its ``old``-bit slots moved to ``width`` bits.
    Each balanced slot plus 2^(old-1) is a nonnegative digit, whose bytes
    are copied into the wider slots at once; the offset is then taken off
    at the new positions."""
    size, wide = old // 8, width // 8
    slots = abs(v).bit_length() // old + 1
    raw = (v + _high_bits(slots, old)).to_bytes(slots * size, "little")
    out = bytearray(slots * wide)
    for k in range(size):
        out[k::wide] = raw[k::size]
    return int.from_bytes(out, "little") - (_high_bits(slots, width) >> (width - old))


def _encode(layer: dict, width: int) -> dict:
    """A layer's ``{(y_exp, z_exp): c}`` as ``{z_exp: int}``, each y-polynomial
    evaluated at y = 2^width; every |c| must be below 2^(width-1)."""
    by_z = {}
    for (e, f), c in layer.items():
        by_z.setdefault(f, {})[e] = c
    return {f: _join(slots, width) for f, slots in by_z.items()}


def _first_difference(a: TriSeries, b: TriSeries):
    """The least (q, y, z) at which a and b, two series of one q-order,
    differ, as ``(q, y, z, coefficient in a, coefficient in b)``; None if
    they agree.

    Both sides are read at the wider width W of the two, and rows are
    compared as ints.  Every slot of either side then lies below 2^(W-1) in
    absolute value, so every slot of the difference lies below 2^W, and a
    nonzero difference cannot vanish at y = 2^W: equal ints are a proof.
    Only the first row that differs is decoded.
    """
    a._shared_qcap(b)
    width = max(a.width, b.width)
    rows = (_Build(s, width).rows for s in (a, b))
    for j, (x, y) in enumerate(zip(*rows)):
        if x != y:
            la, lb = a._decode(a.rows[j]), b._decode(b.rows[j])
            e, f = min(key for key in la.keys() | lb.keys() if la.get(key, 0) != lb.get(key, 0))
            return j, e, f, la.get((e, f), 0), lb.get((e, f), 0)
    return None


# ------------------------------------------------------------ Pochhammer


def _pochhammer_apply(
    s: TriSeries, a: Monomial, h: int, n: int | None = None, divide=False
) -> TriSeries:
    """Multiply s by (a;q^h)_n, or divide it by that product, one binomial
    factor (1 - a*q^{h*i}) at a time, on one copy of s.

    ``n = None`` takes every factor under the q-cap and needs h >= 1.
    Factors that reduce to 1 under the q-order are skipped; if all do, s
    itself is returned.
    """
    if a.coeff == 0 or n == 0 or max(a.q, a.z) > s.qcap:
        return s
    p = _Build(s)
    p._pochhammer(a, h, n, divide)
    return p._series()


def pochhammer_finite(a: Monomial, h: int, n: int, qcap: int) -> TriSeries:
    """The finite product prod_{i=0}^{n-1} (1 - a*q^{h*i}), truncated.

    Step ``h = 1`` gives the classical (a;q)_n; general h gives (a;q^h)_n.
    ``h = 0`` is legal and yields the binomial power (1-a)^n.  Factors whose
    q- or z-exponent exceeds qcap reduce to 1 under truncation and are
    skipped.
    """
    if type(h) is not int or type(n) is not int:
        raise TypeError(f"pochhammer step {h!r} and length {n!r} must be ints")
    if h < 0:
        raise ValueError("pochhammer step must be nonnegative")
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    return _pochhammer_apply(TriSeries.one(qcap), a, h, n)


def pochhammer_infinite(a: Monomial, h: int, qcap: int) -> TriSeries:
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
    return _pochhammer_apply(TriSeries.one(qcap), a, h)


# ------------------------------------------------------------------ sums

# A sum as data: summand n+1 is summand n times ratio * q^(step*n) and the
# ``ups`` / ``downs`` Pochhammer steps, and the sum is multiplied by its
# infinite ``prefactors``; see _qsum.
Form = namedtuple("Form", "ratio step ups downs prefactors", defaults=((), (), ()))


def _qsum(qcap, form) -> TriSeries:
    """prod_{(a,h,divide) in prefactors} (a;q^h)_inf^(-1 if divide else 1)
    * sum_{n>=0} T_n under the q-order, where T_0 = 1 and

        T_{n+1} = T_n * ratio q^{step n} * prod_{(a,h,L) in ups} (a q^{hLn};q^h)_L
                                        / prod_{(a,h,L) in downs} (a q^{hLn};q^h)_L

    so that each (a;q^h) in ``ups`` contributes (a;q^h)_{Ln} to T_n and each
    one in ``downs`` divides by it.  Every later summand is a multiple of
    T_n, so the first T_n that vanishes under the q-order ends the sum
    exactly.  A summand holds its monomial factors as a pending offset, so
    its steps run only over the rows in the room that offset leaves in q
    and z.  The sum and its
    prefactors stay packed, and each step widens them in place when it must.
    """
    term = _Build(TriSeries.one(qcap))
    total = _Build(term)
    n = 0
    while True:
        term._shift(form.ratio.shift_q(form.step * n))
        for factors, divide in ((form.ups, False), (form.downs, True)):
            for a, h, length in factors:
                term._pochhammer(a.shift_q(h * length * n), h, length, divide)
        if term.is_zero():
            break
        total._add(term)
        n += 1
    for a, h, divide in form.prefactors:
        total._pochhammer(a, h, None, divide)
    return total._series()
