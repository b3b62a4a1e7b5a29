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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        return self._binomial_step(m, divide=False)

    def divide_one_minus(self, m: Monomial) -> "TriSeries":
        """Divide by the binomial (1 - m) in O(terms).

        Solves out = self + m*out layer by layer, which needs m.q >= 1;
        a divisor with q-order 0 goes through :meth:`invert`.  A factor that
        is 1 under the caps returns this series unchanged.
        """
        if m.q == 0:
            raise ValueError("divide_one_minus needs a positive q-exponent")
        return self._binomial_step(m, divide=True)

    def _binomial_step(self, m, divide):
        # out = self - m*self, or out = self + m*out read from the layers
        # already solved (m.q >= 1 keeps the read below the write)
        zcap = self.zcap
        if m.coeff == 0 or m.q > self.qcap or (zcap is not None and m.z > zcap):
            return self
        out = [dict(layer) for layer in self._layers]
        src = out if divide else self._layers
        c0 = m.coeff if divide else -m.coeff
        for j in range(m.q, self.qcap + 1):
            tgt = out[j]
            for (e, f), c in src[j - m.q].items():
                f2 = f + m.z
                if zcap is not None and f2 > zcap:
                    continue
                key = (e + m.y, f2)
                v = tgt.get(key, 0) + c0 * c
                if v:
                    tgt[key] = _norm_coeff(v)
                else:
                    tgt.pop(key, None)
        return TriSeries._make(self.qcap, zcap, out)

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
        out = [{} for _ in range(self.qcap + 1)]
        for j, layer in enumerate(self._layers):
            tgt = out[j]
            for (e, f), c in layer.items():
                if which == "y":
                    key, power = (0, f), e
                else:
                    key, power = (e, 0), f
                v = tgt.get(key, 0) + c * Fraction(value) ** power
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


# ------------------------------------------------------------ Pochhammer


def _pochhammer_apply(
    s: TriSeries, a: Monomial, h: int, n: int | None = None, divide=False
) -> TriSeries:
    """Multiply s by (a;q^h)_n, or divide it by that product, one binomial
    factor (1 - a*q^{h*i}) at a time.

    ``n = None`` takes every factor under the q-cap and needs h >= 1.
    Factors that reduce to 1 under the caps are skipped.
    """
    if a.coeff == 0 or (s.zcap is not None and a.z > s.zcap):
        return s
    i = 0
    while (n is None or i < n) and a.q + h * i <= s.qcap:
        factor = Monomial(a.coeff, a.q + h * i, a.y, a.z)
        s = s.divide_one_minus(factor) if divide else s.times_one_minus(factor)
        i += 1
    return s


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
