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

Storage is dense in the q-exponent and sparse per layer: layer ``j`` is a
``{(y_exp, z_exp): coefficient}`` dict for the coefficient polynomial of
``q^j``.  Every operation iterates q-layers, so truncation is a cheap index
bound rather than a filter.  Series are immutable once built; all operations
return new objects (or the operand itself when it is unchanged) and are safe
to run concurrently.

Multiplying or dividing by binomials (1 - c y^a z^b q^d), and so by
Pochhammer products, runs in one packed kernel (Kronecker substitution;
von zur Gathen and Gerhard, *Modern Computer Algebra*, sec. 8.4).  Inside
it a series is a list over q of ``{z_exp: int}`` rows, each int being the
y-polynomial of that (q, z) key evaluated at y = 2^W, with rational
coefficients held as integer numerators over one common denominator.  A
binomial step then costs one big-integer shift-and-add per key.  Three
facts make the kernel exact:

- every step is a ring operation of Z[y] (add, multiply by an integer,
  shift by W*a, divide exactly by an integer), and evaluation at 2^W keeps
  all of them exact whatever W is;
- the q-cap and the z-cap drop whole keys, which is exact too;
- a packed value is decoded, or an empty one taken for zero, only when a
  majorant kept in lockstep with every step (one nonnegative int per
  q-layer, bounding the sum of the absolute numerators there) shows that
  every coefficient lies below 2^(W-1) in absolute value.  Otherwise the
  build is run again at the width the majorant asks for, so W follows
  from the input and is no setting.

A series leaves the kernel decoded to the dict layers above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from sys import maxsize

Coeff = int | Fraction

_KEEP = object()  # sentinel: "keep the current cap" in truncate()


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


@dataclass(frozen=True)
class Monomial:
    """A signed rational multiple of ``q^q * y^y * z^z``.

    Monomials are the parameter type for Pochhammer products and for
    specializing identities: the argument A of (A;q)_n, the t of Euler's
    identities, and so on.  Exponents are nonnegative.  A zero coefficient
    is allowed and denotes the zero monomial (useful as a degenerate
    Pochhammer argument, where every factor collapses to 1).
    """

    coeff: Coeff
    q: int = 0
    y: int = 0
    z: int = 0

    def __post_init__(self):
        if self.q < 0 or self.y < 0 or self.z < 0:
            raise ValueError("monomial exponents must be nonnegative")
        object.__setattr__(self, "coeff", _norm_coeff(Fraction(self.coeff)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(
            Fraction(self.coeff) * Fraction(other.coeff),
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

    def pow(self, m: int) -> "Monomial":
        return Monomial(Fraction(self.coeff) ** m, self.q * m, self.y * m, self.z * m)

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


def _poly_mul_acc(acc, pa, pb, zcap, negate=False):
    """acc += pa * pb (as (y,z)-polynomial dicts), dropping z-exponents > zcap."""
    for (e1, f1), c1 in pa.items():
        if negate:
            c1 = -c1
        for (e2, f2), c2 in pb.items():
            f = f1 + f2
            if zcap is not None and f > zcap:
                continue
            key = (e1 + e2, f)
            v = acc.get(key, 0) + c1 * c2
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)


class TriSeries:
    """Truncated trivariate formal power series with exact coefficients.

    ``qcap`` is the largest retained q-exponent; ``zcap`` is the largest
    retained z-exponent, or ``None`` for no z truncation.  Stored
    coefficients are never zero, so :meth:`is_zero` is O(1).
    """

    __slots__ = ("qcap", "zcap", "_layers", "_nterms")

    def __init__(self, qcap: int, zcap: int | None = None):
        if qcap < 0:
            raise ValueError("qcap must be nonnegative")
        if zcap is not None and zcap < 0:
            raise ValueError("zcap must be nonnegative or None")
        self.qcap = qcap
        self.zcap = zcap
        self._layers = [{} for _ in range(qcap + 1)]
        self._nterms = 0

    @classmethod
    def _make(cls, qcap, zcap, layers):
        s = cls.__new__(cls)
        s.qcap = qcap
        s.zcap = zcap
        s._layers = layers
        s._nterms = sum(len(layer) for layer in layers)
        return s

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
        s = cls(qcap, zcap)
        if m.coeff != 0 and m.q <= qcap and (zcap is None or m.z <= zcap):
            s._layers[m.q][(m.y, m.z)] = _norm_coeff(m.coeff)
            s._nterms = 1
        return s

    @classmethod
    def from_terms(cls, terms, qcap: int, zcap: int | None = None) -> "TriSeries":
        """Build from an iterable of (q_exp, y_exp, z_exp, coeff) tuples.

        Terms beyond the caps are dropped; repeated exponent triples are
        accumulated.  Inverse of :meth:`terms`.
        """
        layers = [{} for _ in range(qcap + 1)]
        for j, e, f, c in terms:
            if j > qcap or (zcap is not None and f > zcap) or c == 0:
                continue
            if j < 0 or e < 0 or f < 0:
                raise ValueError("exponents must be nonnegative")
            key = (e, f)
            v = layers[j].get(key, 0) + c
            if v:
                layers[j][key] = _norm_coeff(v)
            else:
                layers[j].pop(key, None)
        return cls._make(qcap, zcap, layers)

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
        return self._nterms == 0

    def is_integral(self) -> bool:
        """True iff every stored coefficient has denominator 1."""
        for layer in self._layers:
            for c in layer.values():
                if isinstance(c, Fraction) and c.denominator != 1:
                    return False
        return True

    def max_abs(self) -> Coeff:
        """Largest absolute value among stored coefficients (0 if none)."""
        best = 0
        for layer in self._layers:
            for c in layer.values():
                a = -c if c < 0 else c
                if a > best:
                    best = a
        return best

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
            and self._layers == other._layers
        )

    __hash__ = None

    # ----------------------------------------------------------- arithmetic

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

    def _combine(self, other, sign):
        qcap, zcap = self._merged_caps(other)
        layers = []
        for la, lb in zip(self._layers, other._layers):
            if zcap == self.zcap:
                layer = dict(la)
            else:
                layer = {key: c for key, c in la.items() if key[1] <= zcap}
            for (e, f), c in lb.items():
                if zcap is not None and f > zcap:
                    continue
                key = (e, f)
                v = layer.get(key, 0) + sign * c
                if v:
                    layer[key] = v
                else:
                    layer.pop(key, None)
            layers.append(layer)
        return TriSeries._make(qcap, zcap, layers)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        layers = [{k: -c for k, c in layer.items()} for layer in self._layers]
        return TriSeries._make(self.qcap, self.zcap, layers)

    def __mul__(self, other):
        """Cauchy product, truncated at the (merged) caps."""
        qcap, zcap = self._merged_caps(other)
        out = [{} for _ in range(qcap + 1)]
        la, lb = self._layers, other._layers
        for j1 in range(qcap + 1):
            pa = la[j1]
            if not pa:
                continue
            for j2 in range(qcap + 1 - j1):
                pb = lb[j2]
                if pb:
                    _poly_mul_acc(out[j1 + j2], pa, pb, zcap)
        return TriSeries._make(qcap, zcap, out)

    def __truediv__(self, other):
        return self * other.invert()

    def times_monomial(self, m: Monomial) -> "TriSeries":
        """Multiply by a single monomial (exact shift and scale)."""
        out = [{} for _ in range(self.qcap + 1)]
        c0 = m.coeff
        if c0 != 0:
            zcap = self.zcap
            for j in range(self.qcap - m.q + 1):
                tgt = out[j + m.q]
                for (e, f), c in self._layers[j].items():
                    f2 = f + m.z
                    if zcap is not None and f2 > zcap:
                        continue
                    tgt[(e + m.y, f2)] = _norm_coeff(c0 * c)
        return TriSeries._make(self.qcap, self.zcap, out)

    def times_one_minus(self, m: Monomial) -> "TriSeries":
        """Multiply by the binomial (1 - m) in O(terms)."""
        return _pochhammer_apply(self, m, 0, 1)

    def divide_one_minus(self, m: Monomial) -> "TriSeries":
        """Divide by the binomial (1 - m) in O(terms).

        Solves out = self + m*out layer by layer, which needs m.q >= 1;
        a divisor with q-order 0 goes through :meth:`invert`.  A factor that
        is 1 under the caps returns this series unchanged.
        """
        if m.q == 0:
            raise ValueError("divide_one_minus needs a positive q-exponent")
        return _pochhammer_apply(self, m, 0, 1, divide=True)

    def invert(self) -> "TriSeries":
        """Multiplicative inverse under the caps.

        The constant coefficient must be exactly 1.  If the q^0 layer has
        further terms they must all carry z, and zcap must be bounded, so
        that the layer's geometric inverse terminates; otherwise the series
        is not a unit in the truncated ring.
        """
        zcap = self.zcap
        base = self._layers[0]
        if base.get((0, 0)) != 1:
            raise ValueError("not a formal unit under these caps")
        off = {k: c for k, c in base.items() if k != (0, 0)}
        inv0 = {(0, 0): 1}
        if off:
            if zcap is None or any(f == 0 for (_, f) in off):
                raise ValueError("not a formal unit under these caps")
            # q^0 layer is 1 - w with every w-term carrying z, so
            # sum_{i<=zcap} w^i is its exact inverse below the z-cap.
            w = {k: -c for k, c in off.items()}
            power = {(0, 0): 1}
            while True:
                nxt = {}
                _poly_mul_acc(nxt, power, w, zcap)
                if not nxt:
                    break
                power = nxt
                for key, c in power.items():
                    v = inv0.get(key, 0) + c
                    if v:
                        inv0[key] = v
                    else:
                        inv0.pop(key, None)
        out = [{} for _ in range(self.qcap + 1)]
        out[0] = dict(inv0)
        # layer recursion: a0 * c_j = -sum_{i=1..j} a_i * c_{j-i}
        for j in range(1, self.qcap + 1):
            acc = {}
            for i in range(1, j + 1):
                pa = self._layers[i]
                if pa:
                    _poly_mul_acc(acc, pa, out[j - i], zcap, negate=True)
            if off and acc:
                tmp = {}
                _poly_mul_acc(tmp, inv0, acc, zcap)
                acc = tmp
            out[j] = acc
        return TriSeries._make(self.qcap, zcap, out)

    # -------------------------------------------------------- substitution

    def scale_y(self, j: int) -> "TriSeries":
        """Substitute y -> y*q^j; terms pushed past qcap are dropped.

        Exact on the retained range since the q-exponent only grows.
        """
        if j < 0:
            raise ValueError("scale_y exponent must be nonnegative")
        if j == 0:
            return self
        out = [{} for _ in range(self.qcap + 1)]
        for s, layer in enumerate(self._layers):
            for (e, f), c in layer.items():
                s2 = s + j * e
                if s2 <= self.qcap:
                    out[s2][(e, f)] = c
        return TriSeries._make(self.qcap, self.zcap, out)

    def set_y(self, value: Coeff) -> "TriSeries":
        """Substitute an exact rational value for y."""
        return self._substitute(value, which="y")

    def set_z(self, value: Coeff) -> "TriSeries":
        """Substitute an exact rational value for z.

        The result carries no z content, so its zcap is unbounded.  If this
        series was z-truncated the substitution only sums the retained
        z-range (the caller decides whether that is meaningful).
        """
        return self._substitute(value, which="z")

    def _substitute(self, value, which):
        # an integral value keeps integer coefficients in int arithmetic
        value = _norm_coeff(Fraction(value))
        out = [{} for _ in range(self.qcap + 1)]
        for j, layer in enumerate(self._layers):
            tgt = out[j]
            for (e, f), c in layer.items():
                if which == "y":
                    key, power = (0, f), e
                else:
                    key, power = (e, 0), f
                v = tgt.get(key, 0) + c * value ** power
                if v:
                    tgt[key] = _norm_coeff(v)
                else:
                    tgt.pop(key, None)
        zcap = self.zcap if which == "y" else None
        return TriSeries._make(self.qcap, zcap, out)

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
        out = [{} for _ in range(new_q + 1)]
        for j in range(new_q + 1):
            for (e, f), c in self._layers[j].items():
                if new_z is None or f <= new_z:
                    out[j][(e, f)] = c
        return TriSeries._make(new_q, new_z, out)


# --------------------------------------------------------- packed kernel

# Slot width a build starts from; the majorant widens it when it must.
_START_WIDTH = 64


def _width_for(bits: int) -> int:
    """The slot width that holds coefficients below 2^bits in absolute
    value: one sign bit more, rounded up to whole bytes."""
    return (bits + 8) // 8 * 8


def _halves(slots: int, width: int) -> bytes:
    """2^(width-1) in each of ``slots`` little-endian slots.  Added to a
    packed value, it turns every balanced digit into a nonnegative one."""
    return (b"\0" * (width // 8 - 1) + b"\x80") * slots


def _encode(layer: dict, width: int) -> dict:
    """A layer's ``{(y_exp, z_exp): c}`` as ``{z_exp: int}``, each y-polynomial
    evaluated at y = 2^width in time linear in its degree; every |c| must be
    below 2^(width-1)."""
    size, half = width // 8, 1 << (width - 1)
    by_z = {}
    for (e, f), c in layer.items():
        by_z.setdefault(f, []).append((e, c))
    row = {}
    for f, terms in by_z.items():
        halves = _halves(max(terms)[0] + 1, width)
        raw = bytearray(halves)
        for e, c in terms:
            raw[e * size:(e + 1) * size] = (c + half).to_bytes(size, "little")
        row[f] = int.from_bytes(raw, "little") - int.from_bytes(halves, "little")
    return row


class _Narrow(Exception):
    """A packed value was about to be read at a width its majorant exceeds."""

    def __init__(self, width: int):
        super().__init__(width)
        self.width = width


class _Packed:
    """A series inside the binomial kernel, y packed into one integer.

    ``rows[j]`` maps a z-exponent f to the y-polynomial of q^j z^f
    evaluated at y = 2^width; the polynomial holds integer numerators over
    the common denominator ``den``.  Every step is a ring operation of Z[y]
    (add, multiply by an integer, shift by width*a, divide exactly by an
    integer), which evaluation at 2^width preserves whatever the width, and
    the caps drop whole keys.  Only reading a value back, or taking an empty
    series for zero, needs every coefficient below 2^(width-1) in absolute
    value.  ``bound[j]`` is the majorant that vouches for it: at least the
    sum of the absolute numerators of layer j, kept in lockstep with every
    step.  Where it does not fit, :class:`_Narrow` names a wider width and
    the build is run again (:func:`_packed_build`).
    """

    __slots__ = ("qcap", "zcap", "width", "den", "rows", "bound")

    @classmethod
    def pack(cls, s: TriSeries, width: int) -> "_Packed":
        dens = [
            c.denominator for layer in s._layers for c in layer.values() if type(c) is Fraction
        ]
        den = lcm(*dens)
        layers = [
            {key: c.numerator * (den // c.denominator) for key, c in layer.items()}
            for layer in s._layers
        ] if dens else s._layers
        p = cls.__new__(cls)
        p.qcap, p.zcap, p.width, p.den = s.qcap, s.zcap, width, den
        p.bound = [sum(map(abs, layer.values())) for layer in layers]
        p._check()
        p.rows = [_encode(layer, width) for layer in layers]
        return p

    def copy(self) -> "_Packed":
        p = _Packed.__new__(_Packed)
        p.qcap, p.zcap, p.width, p.den = self.qcap, self.zcap, self.width, self.den
        p.rows = [dict(row) for row in self.rows]
        p.bound = list(self.bound)
        return p

    def _check(self):
        bits = max(self.bound).bit_length()
        if bits >= self.width:
            raise _Narrow(_width_for(bits))

    def is_zero(self) -> bool:
        """True iff the series is zero; an empty packed series proves it
        only under the majorant."""
        if any(self.rows):
            return False
        self._check()
        return True

    def unpack(self) -> TriSeries:
        """The dict-layered series, decoded in time linear in its slots."""
        self._check()
        width, den = self.width, self.den
        size, half = width // 8, 1 << (width - 1)
        offsets = {}
        layers = []
        for row in self.rows:
            layer = {}
            for f, v in row.items():
                slots = abs(v).bit_length() // width + 1
                if slots not in offsets:
                    offsets[slots] = int.from_bytes(_halves(slots, width), "little")
                raw = (v + offsets[slots]).to_bytes(slots * size, "little")
                digits = [
                    int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)
                ]
                layer.update({(e, f): d - half for e, d in enumerate(digits) if d != half})
            if den != 1:
                layer = {key: _norm_coeff(Fraction(c, den)) for key, c in layer.items()}
            layers.append(layer)
        return TriSeries._make(self.qcap, self.zcap, layers)

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
        """self += other, over the least common denominator of both."""
        den = lcm(self.den, other.den)
        self._rescale(den)
        other._rescale(den)
        for tgt, row in zip(self.rows, other.rows):
            for f, v in row.items():
                w = tgt.get(f, 0) + v
                if w:
                    tgt[f] = w
                else:
                    del tgt[f]
        self.bound = [a + b for a, b in zip(self.bound, other.bound)]

    def times_monomial(self, m: Monomial):
        """self *= m."""
        num, den = m.coeff.numerator, m.coeff.denominator
        keep = max(0, self.qcap + 1 - m.q) if num else 0  # rows that stay under the q-cap
        limit = self.zcap - m.z if self.zcap is not None else maxsize
        shift = self.width * m.y
        self.rows = [{} for _ in range(self.qcap + 1 - keep)] + [
            {f + m.z: num * (v << shift) for f, v in row.items() if f <= limit}
            for row in self.rows[:keep]
        ]
        self.bound = [0] * (self.qcap + 1 - keep) + [abs(num) * b for b in self.bound[:keep]]
        self.den *= den

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
            raise ValueError("divide_one_minus needs a positive q-exponent")
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


def _packed_build(build) -> TriSeries:
    """Run ``build(width) -> _Packed`` and decode its result, widening the
    slots and running the build again whenever the majorant needs it."""
    width = _START_WIDTH
    while True:
        try:
            return build(width).unpack()
        except _Narrow as narrow:
            width = narrow.width


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

    return _packed_build(build)


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
