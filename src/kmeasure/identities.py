"""Closed-form series builders and coefficient-exact identity checks.

Each check assembles both sides of one identity as :class:`TriSeries`
values and returns the first coefficient at which they differ under the
q-order, or None; :func:`run_suite` times it and writes its report.  Because
the arithmetic is exact, a passing check proves the identity for every
retained coefficient; there is no tolerance anywhere.

Every infinite sum is data: each builder here writes a
:class:`kmeasure.series.Form` record, and :func:`kmeasure.series._qsum`
builds it, so no in-place step of a build runs in this module.  Every
series stays packed, and a passing check decodes none.

One table, :func:`_family`, holds each family's sum form, product form and
q-difference equation; the named builders are its entry points.  The
series that several checks of a unit compare against, the product forms
and the Durfee closed form among them, are built once per unit.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from time import perf_counter

from .partitions import durfee_gf, measure_gf, sylvester_gfs
from .series import (
    Form,
    Monomial,
    Q,
    TriSeries,
    YQ,
    Z,
    _first_difference,
    _pochhammer_apply,
    _qsum,
    pochhammer_infinite,
)

CLOSED_FORM_FAMILIES = ("all", "distinct")
MINUS_YQ = Monomial(-1, q=1, y=1)
Family = namedtuple("Family", "sum product fe")


# ------------------------------------------------------------ closed forms


def _family(family: str, k: int) -> Family:
    """The closed forms of sum y^len z^{k-measure} q^size over a family at
    parameter k, and the q-difference equation (FE) that it satisfies:

    all:
        sum      1/(yq;q)_inf * sum_n (-1)^n y^n q^{n(n+1)/2} (z;q^{k-1})_n / (q;q)_n
        product  (z;q^{k-1})_inf * sum_n z^n / ((q^{k-1};q^{k-1})_n (yq;q)_{(k-1)n})
        FE       g(y) - g(yq) - yzq/(yq;q)_k * g(yq^k) = 0
    distinct (partitions into distinct parts):
        sum      (-yq;q)_inf * sum_n (-1)^n y^n q^n (z;q^k)_n / (q;q)_n
        product  (z;q^k)_inf * sum_n (-yq;q)_{kn} z^n / (q^k;q^k)_n
        FE       g(y) - g(yq) - yzq*(-yq^2;q)_{k-1} * g(yq^k) = 0

    The FE record ``(a, L, divide)`` is its coefficient Pochhammer (a;q)_L,
    which multiplies, or divides when ``divide`` is set.  The powers of q
    in the sum summands make them vanish under the q-cap.  A product
    summand carries exactly z^n, so the product sums vanish past the q-order
    in z.
    k = 1 uses the step-0 product (z;q^0)_n = (1-z)^n in the all family's
    sum; its product form has the degenerate base q^0, which
    :func:`partition_measure_gf_product` refuses.
    """
    if family not in CLOSED_FORM_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if k < 1:
        raise ValueError("k must be positive")
    if family == "all":
        return Family(
            Form(MINUS_YQ, 1, ups=((Z, k - 1, 1),), downs=((Q, 1, 1),),
                 prefactors=((YQ, 1, True),)),
            Form(Z, 0, downs=((Monomial(1, q=k - 1), k - 1, 1), (YQ, 1, k - 1)),
                 prefactors=((Z, k - 1, False),)),
            (YQ, k, True),
        )
    return Family(
        Form(MINUS_YQ, 0, ups=((Z, k, 1),), downs=((Q, 1, 1),),
             prefactors=((MINUS_YQ, 1, False),)),
        Form(Z, 0, ups=((MINUS_YQ, 1, k),), downs=((Monomial(1, q=k), k, 1),),
             prefactors=((Z, k, False),)),
        (Monomial(-1, q=2, y=1), k - 1, False),
    )


def partition_measure_gf_sum(k: int, qcap: int) -> TriSeries:
    """The all family's sum form (see :func:`_family`) under the q-cap."""
    return _qsum(qcap, _family("all", k).sum)


def partition_measure_gf_product(k: int, qcap: int) -> TriSeries:
    """The all family's product form for k >= 2 under the q-order.  k = 1
    is rejected: the base q^0 makes both Pochhammers degenerate."""
    if k < 2:
        raise ValueError("degenerate base q^0")
    return _qsum(qcap, _family("all", k).product)


def distinct_measure_gf_sum(k: int, qcap: int) -> TriSeries:
    """The distinct family's sum form under the q-cap."""
    return _qsum(qcap, _family("distinct", k).sum)


def distinct_measure_gf_product(k: int, qcap: int) -> TriSeries:
    """The distinct family's product form for k >= 1 under the q-order."""
    return _qsum(qcap, _family("distinct", k).product)


# sum_n y^n z^n q^{n^2} / ((yq;q)_n (q;q)_n): a square of side n contributes
# q-order n^2 and z^n, so the summands vanish under the q-order
DURFEE_FORM = Form(Monomial(1, q=1, y=1, z=1), 2, downs=((YQ, 1, 1), (Q, 1, 1)))


def durfee_gf_closed(qcap: int) -> TriSeries:
    """Closed form of sum y^len z^{durfee side} q^size over all partitions,
    :data:`DURFEE_FORM`, under the q-order."""
    return _qsum(qcap, DURFEE_FORM)


def _qdiff_residual(g: TriSeries, k: int, family: str) -> TriSeries:
    """Residual of the family's FE (see :func:`_family`) for the enumerated
    generating function g(y) = sum y^len z^{k-measure} q^size.

    The equation encodes removing all parts of size at most k from a
    partition with smallest part 1.  The residual must be the zero series.
    """
    a, length, divide = _family(family, k).fe
    shifted = g.scale_y(1)
    advanced = _pochhammer_apply(shifted if k == 1 else g.scale_y(k), a, 1, length, divide)
    return (g - shifted)._sum(advanced, Monomial(-1, q=1, y=1, z=1))


# ------------------------------------------------------------ reports


class Mismatch(namedtuple("Mismatch", "q_exp y_exp z_exp lhs rhs")):
    """First failing coefficient of a check, in (q, y, z) scan order.

    Scalar-per-n checks (parity counts, histograms) reuse the slots as
    (n, statistic value, 0).
    """

    __slots__ = ()

    def to_dict(self):
        return {**self._asdict(), "lhs": str(self.lhs), "rhs": str(self.rhs)}

    def __str__(self):
        return (
            f"q^{self.q_exp} y^{self.y_exp} z^{self.z_exp}: "
            f"{self.lhs} != {self.rhs}"
        )


class IdentityReport(namedtuple(
    "IdentityReport", "name k qcap zcap passed first_failure elapsed error", defaults=(None,)
)):
    """Outcome of one verification run; ``error`` is "<ExceptionType>:
    <message>" if the check raised."""

    __slots__ = ()

    def to_dict(self):
        """The fields in order, with ``elapsed`` in ms as ``elapsed_ms``, and
        ``error`` only when it is set."""
        out = self._asdict()
        del out["elapsed"], out["error"]
        out["first_failure"] = self.first_failure and self.first_failure.to_dict()
        out["elapsed_ms"] = round(self.elapsed * 1000, 3)
        if self.error is not None:
            out["error"] = self.error
        return out

    def failure_text(self) -> str:
        """The first failure, or the error of a check that raised."""
        if self.error is not None:
            return self.error
        return "" if self.first_failure is None else str(self.first_failure)


# ---------------------------------------------------------- shared series


class _Artifacts:
    """The series that several checks compare against, each built once on
    first use and kept for one unit of work.

    Builders are looked up by their module-level names at call time.
    Series are immutable, so the checks of a unit share one object each.
    A memo key is the getter's name followed by its arguments.
    """

    def __init__(self):
        self._built = {}

    def _get(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def measure(self, qcap: int, k: int, family: str) -> TriSeries:
        return self._get(("measure", qcap, k, family), lambda: measure_gf(qcap, k, family))

    # The closed-form getters ask the family table first, so that it refuses
    # an unknown family before any build.

    def closed_sum(self, k: int, qcap: int, family: str) -> TriSeries:
        _family(family, k)
        build = partition_measure_gf_sum if family == "all" else distinct_measure_gf_sum
        return self._get(("closed_sum", k, qcap, family), lambda: build(k, qcap))

    def product(self, k: int, qcap: int, family: str) -> TriSeries:
        _family(family, k)
        build = partition_measure_gf_product if family == "all" else distinct_measure_gf_product
        return self._get(("product", k, qcap, family), lambda: build(k, qcap))

    def durfee_closed(self, qcap: int) -> TriSeries:
        return self._get(("durfee_closed", qcap), lambda: durfee_gf_closed(qcap))

    def durfee(self, qcap: int) -> TriSeries:
        return self._get(("durfee", qcap), lambda: durfee_gf(qcap))


# --------------------------------------------------- theorem-level checks
#
# Every check is called as check(memo, **task_kwargs), with the memo of its
# unit, and returns its first failure as (q, y, z, lhs, rhs) in its scan
# order, or None if it passed.


def _sum_form(memo, k, qcap, family):
    """Alternating-sum closed form against the enumerated generating function."""
    return _first_difference(memo.closed_sum(k, qcap, family), memo.measure(qcap, k, family))


def _product_form(memo, k, qcap, family):
    """Product form against the sum form, both cut in q and z at the
    q-order."""
    return _first_difference(memo.product(k, qcap, family), memo.closed_sum(k, qcap, family))


def _qdiff(memo, k, qcap, family):
    """q-difference equation residual must vanish identically."""
    _family(family, k)  # refuses an unknown family before the count
    residual = _qdiff_residual(memo.measure(qcap, k, family), k, family)
    return _first_difference(residual, TriSeries(qcap))


def _equidistribution(memo, qcap):
    """Joint (length, 2-measure) distribution equals joint (length, Durfee)."""
    return _first_difference(memo.measure(qcap, 2, "all"), memo.durfee(qcap))


def _durfee_closed(memo, qcap):
    """Durfee-square closed form against the enumerated Durfee series."""
    return _first_difference(memo.durfee_closed(qcap), memo.durfee(qcap))


def _heine_limit(memo, qcap):
    """The limiting case of Heine's transformation

        (z;q)_inf sum_n z^n/((q;q)_n (yq;q)_n)
            = sum_n y^n z^n q^{n^2} / ((yq;q)_n (q;q)_n)

    whose left side is the all family's product form at k = 2 and whose
    right side is the Durfee closed form, both cut in q and z at the
    q-order."""
    return _first_difference(memo.product(2, qcap, "all"), memo.durfee_closed(qcap))


def _parity(memo, qcap):
    """Three-way signed-count agreement, coefficient by coefficient:

    (i) the excess of partitions of n with len + 2-measure even over odd,
        read from the 2-measure series at y = z = -1,
    (ii) the number of partitions of n into distinct odd parts, counted
         by the distinct-odd oracle at y = z = 1,
    (iii) the q^n coefficient of (-q;q^2)_inf.
    """
    signs = memo.measure(qcap, 2, "all").set_y(-1).set_z(-1)
    counts = memo.measure(qcap, 1, "distinct-odd").set_y(1).set_z(1)
    product = pochhammer_infinite(Monomial(-1, q=1), 2, qcap)
    # the least n at which either pair differs, (i) against (ii) first
    fails = [_first_difference(signs, counts), _first_difference(counts, product)]
    return min((d for d in fails if d is not None), key=lambda d: d[0], default=None)


def _nonnegative(memo, k, qcap, family):
    """Every coefficient of the closed-form series is nonnegative.

    Every series is built over the integers, so integrality holds by
    construction and the check reads signs only.  For the partition family
    both inner-Pochhammer variants are covered: the step-(k-1) series at
    parameter k and the step-k one, which is the same family at parameter
    k+1.
    """
    ks = (k, k + 1) if family == "all" else (k,)
    for series in [memo.closed_sum(j, qcap, family) for j in ks]:
        if not series.is_nonnegative():
            # only a series that fails the packed test pays for the sort
            # into (q, y, z) order
            return next((j, e, f, c, 0) for j, e, f, c in series.terms() if c < 0)
    return None


def _sylvester(memo, qcap):
    """Sylvester's histogram equality for every n <= qcap, reported as
    (n, statistic value, 0) at the least differing n and value."""
    fail = _first_difference(*sylvester_gfs(qcap))
    if fail is None:
        return None
    n, _, value, lhs, rhs = fail
    return n, value, 0, lhs, rhs


# --------------------------------------------- building-block identities


def euler_first_sides(t: Monomial, qcap: int):
    """Both sides of sum_m t^m/(q;q)_m = 1/(t;q)_inf.

    t must carry a positive q-exponent: then the summands vanish under the
    q-cap, and the dense product has the constant term 1 that
    :meth:`TriSeries.invert` needs.  The right side inverts that product on
    purpose: it is an independent route to the binomial division steps of
    the left side.
    """
    if t.q < 1:
        raise ValueError("parameter needs a positive q-exponent")
    lhs = _qsum(qcap, Form(t, 0, downs=((Q, 1, 1),)))
    rhs = pochhammer_infinite(t, 1, qcap).invert()
    return lhs, rhs


def euler_second_sides(t: Monomial, qcap: int):
    """Both sides of sum_m (-t)^m q^{m(m-1)/2}/(q;q)_m = (t;q)_inf.

    Here the q^{m(m-1)/2} factor makes the summands vanish for any
    non-constant t.
    """
    if t.q == 0 and t.y == 0 and t.z == 0:
        raise ValueError("constant parameter")
    lhs = _qsum(qcap, Form(Monomial(-1) * t, 1, downs=((Q, 1, 1),)))
    rhs = pochhammer_infinite(t, 1, qcap)
    return lhs, rhs


def bailey_daum_sides(a: Monomial, qcap: int):
    """Both sides of the summation

        sum_n (a;q)_n q^{n(n+1)/2} / (q;q)_n = (-q;q)_inf (aq;q^2)_inf

    The q^{n(n+1)/2} factor makes the summands vanish regardless of a.
    """
    lhs = _qsum(qcap, Form(Q, 1, ups=((a, 1, 1),), downs=((Q, 1, 1),)))
    rhs = pochhammer_infinite(Monomial(-1, q=1), 1, qcap)
    rhs = _pochhammer_apply(rhs, a.shift_q(1), 2)
    return lhs, rhs


def generalized_heine_sides(a: Monomial, b: Monomial, c: Monomial, t: Monomial, h: int, qcap: int):
    """Both sides of the two-base transformation

        sum_n (a;q^h)_n (b;q)_{hn} t^n / ((q^h;q^h)_n (c;q)_{hn})
            = (b;q)_inf (at;q^h)_inf / ((c;q)_inf (t;q^h)_inf)
              * sum_n (c/b;q)_n (t;q^h)_n b^n / ((q;q)_n (at;q^h)_n)

    Monomial parameters only: c/b must again be a monomial with
    nonnegative exponents.  t and c need positive q-order so the left
    summands vanish (t^n) and every divisor is a formal unit; b needs a
    positive q- or z-exponent for the right summands to vanish under the
    q-order.
    """
    if h < 1:
        raise ValueError("step must be positive")
    if t.q < 1 or c.q < 1:
        raise ValueError("t and c must carry a positive q-exponent")
    if b.coeff == 0:
        raise ValueError("parameter specialization unsupported")
    if b.q == 0 and b.z == 0:
        raise ValueError("sum does not terminate: b needs q-order or z-order")
    try:
        ratio = c.divide(b)
    except ValueError:
        raise ValueError("parameter specialization unsupported") from None
    at = a * t

    lhs = _qsum(qcap, Form(
        t, 0, ups=((a, h, 1), (b, 1, h)), downs=((Monomial(1, q=h), h, 1), (c, 1, h)),
    ))
    rhs = _qsum(qcap, Form(
        b, 0, ups=((ratio, 1, 1), (t, h, 1)), downs=((Q, 1, 1), (at, h, 1)),
        prefactors=((b, 1, False), (at, h, False), (c, 1, True), (t, h, True)),
    ))
    return lhs, rhs


def _sides_check(sides):
    """The check that compares the two sides ``sides(**kwargs)`` builds."""
    return lambda memo, **kwargs: _first_difference(*sides(**kwargs))


# -------------------------------------------------------------- the suite

# Standard parameter sets exercised by `verify` and the acceptance tests.
EULER_FIRST_PARAMS = (Q, YQ, Monomial(1, q=2, z=1))
EULER_SECOND_PARAMS = (Q, YQ, Z)
BAILEY_DAUM_PARAMS = (Monomial(-1), Q, YQ)
HEINE_GENERAL_PARAMS = (
    ("h=1", dict(a=YQ, b=Q, c=Monomial(1, q=2), t=Monomial(1, q=1, z=1), h=1)),
    ("h=2", dict(a=Q, b=Q, c=Monomial(1, q=3), t=Monomial(1, q=2), h=2)),
    ("a=0", dict(a=Monomial(0), b=Q, c=Monomial(1, q=2), t=Q, h=1)),
)

_CHECK_FUNCS = {
    "sum-form": _sum_form,
    "product-form": _product_form,
    "qdiff": _qdiff,
    "nonnegative": _nonnegative,
    "durfee-equidistribution": _equidistribution,
    "durfee-closed-form": _durfee_closed,
    "parity-distinct-odd": _parity,
    "sylvester-runs": _sylvester,
    "euler-first": _sides_check(euler_first_sides),
    "euler-second": _sides_check(euler_second_sides),
    "bailey-daum": _sides_check(bailey_daum_sides),
    "heine-limit": _heine_limit,
    "heine-general": _sides_check(generalized_heine_sides),
}


def default_tasks(qcap: int, ks) -> list[tuple[str, str, dict]]:
    """The full verification suite as (name, check key, kwargs) triples,
    costliest first; a k listed twice is checked once.  Every check runs
    at the one truncation order qcap, in q and in z, so no task names a
    z-cap."""
    # run_suite hands units out in the order their first task appears here,
    # so the largest go first and a pool's wall time nears max(sum / jobs,
    # largest).  Serial check times at q-order 200 (median of 3 runs, 9.8 s
    # in all): heine-general[h=1] 1.96 s, the ("all", 2) unit, which starts
    # at heine-limit, 1.20 s, the ("all", 3) unit 0.79 s, euler-first[t=q^2*z]
    # 0.73 s; the euler-first checks grow faster with the q-order than the
    # family units.
    tasks = []
    for label, params in HEINE_GENERAL_PARAMS:
        tasks.append((f"heine-general[{label}]", "heine-general", dict(qcap=qcap, **params)))
    for t in EULER_FIRST_PARAMS:
        tasks.append((f"euler-first[t={t}]", "euler-first", dict(t=t, qcap=qcap)))
    tasks.append(("heine-limit", "heine-limit", dict(qcap=qcap)))
    for k in dict.fromkeys(ks):
        for family in CLOSED_FORM_FAMILIES:
            tasks.append(
                (f"sum-form[{family}]", "sum-form",
                 dict(k=k, qcap=qcap, family=family))
            )
            if family == "distinct" or k >= 2:
                tasks.append(
                    (f"product-form[{family}]", "product-form",
                     dict(k=k, qcap=qcap, family=family))
                )
            tasks.append(
                (f"qdiff[{family}]", "qdiff", dict(k=k, qcap=qcap, family=family))
            )
            tasks.append(
                (f"nonnegative[{family}]", "nonnegative",
                 dict(k=k, qcap=qcap, family=family))
            )
    tasks.append(("durfee-equidistribution", "durfee-equidistribution", dict(qcap=qcap)))
    tasks.append(("durfee-closed-form", "durfee-closed-form", dict(qcap=qcap)))
    tasks.append(("parity-distinct-odd", "parity-distinct-odd", dict(qcap=qcap)))
    tasks.append(("sylvester-runs", "sylvester-runs", dict(qcap=qcap)))
    for t in EULER_SECOND_PARAMS:
        tasks.append((f"euler-second[t={t}]", "euler-second", dict(t=t, qcap=qcap)))
    for a in BAILEY_DAUM_PARAMS:
        tasks.append((f"bailey-daum[a={a}]", "bailey-daum", dict(a=a, qcap=qcap)))
    return tasks


# The Durfee checks read the 2-measure series, and heine-limit reads the
# k = 2 product form and the Durfee closed form, so they join the ("all", 2)
# unit.
_DURFEE_UNIT = ("durfee-equidistribution", "durfee-closed-form", "parity-distinct-odd",
                "heine-limit")


def _unit_key(index, task):
    """Tasks that read the same shared series share a key."""
    _, key, kwargs = task
    if key in _DURFEE_UNIT:
        return ("all", 2)
    if "family" in kwargs and "k" in kwargs:
        return (kwargs["family"], kwargs["k"])
    return index


# The checks whose reports name a z-cap: each compares series whose
# z-exponent can pass their q-exponent (a product summand carries z^n at
# q-order 0, and Euler's and Heine's parameters may carry z), so the cut in z
# at the q-order is part of what they prove.  Every other check compares
# series that the cut leaves whole, and its report names none.
_Z_CUT_CHECKS = ("heine-general", "euler-first", "euler-second", "heine-limit", "product-form")


def _report(task, elapsed, fail, error=None) -> IdentityReport:
    """The report of a task.  ``fail`` is its check's first failure as
    (q, y, z, lhs, rhs), or None; ``error`` says why the check raised or
    its worker died.  k and qcap come from the task kwargs; zcap is the
    q-order for the checks of :data:`_Z_CUT_CHECKS`, else None."""
    name, key, kwargs = task
    qcap = kwargs.get("qcap")
    return IdentityReport(
        name, kwargs.get("k"), qcap, qcap if key in _Z_CUT_CHECKS else None,
        fail is None and error is None, None if fail is None else Mismatch(*fail), elapsed, error,
    )


def _run_unit(unit) -> list[tuple]:
    """Run the tasks of one unit against one memo of shared series, timing
    each check.

    Each task's outcome is plain data, ``(elapsed, first failure or None,
    error or None)``, which a worker sends back with ``marshal``; the
    failure is the check's builtin tuple (q, y, z, lhs, rhs).  A check that
    raises gets an outcome carrying the error, so its unit-mates still
    report.
    """
    memo = _Artifacts()
    outcomes = []
    for _, key, kwargs in unit:
        fail = error = None
        started = perf_counter()
        try:
            fail = _CHECK_FUNCS[key](memo, **kwargs)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((perf_counter() - started, fail, error))
    return outcomes


def _lost_unit(unit, status) -> list[tuple]:
    """The outcomes, one per task, of a unit whose worker died with exit
    status ``status``."""
    error = f"ChildProcessError: worker exited with status {status}"
    return [(0.0, None, error) for _ in unit]


def run_suite(tasks, jobs: int = 1) -> list[IdentityReport]:
    """Run checks (in parallel when jobs > 1) and sort deterministically.

    Tasks are grouped into units by the shared series they read, and the
    plan is the units in the order their first task appears in ``tasks``,
    which is the order they start in.  With more than one unit and jobs >
    1, they run in min(jobs, units) forked workers (see
    :mod:`kmeasure.forked`); a unit whose worker died reports its loss and
    never runs again.  Units no worker took run in this process: all of
    them when there is one unit, one job, or no fork on the platform, and
    those left over when a pipe or a worker cannot be made.  Every report
    is made here, from a task of the plan and its outcome.
    """
    units = {}
    for index, task in enumerate(tasks):
        units.setdefault(_unit_key(index, task), []).append(task)
    plan = list(units.values())
    workers = min(jobs, len(plan)) if hasattr(os, "fork") else 1
    batches = [None] * len(plan)
    if workers > 1:
        from .forked import run_forked  # serial runs never compile or import it

        batches = run_forked(_run_unit, _lost_unit, plan, workers)
    batches = [_run_unit(unit) if batch is None else batch for unit, batch in zip(plan, batches)]
    reports = [
        _report(task, *outcome)
        for unit, batch in zip(plan, batches)
        for task, outcome in zip(unit, batch, strict=True)
    ]
    return sorted(reports, key=lambda r: (r.name, r.k if r.k is not None else 0))


# ------------------------------------------------------------ rendering


def reports_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_csv(reports) -> str:
    lines = ["name,k,qcap,zcap,passed,first_failure"]
    for r in reports:
        ff = r.failure_text().replace('"', '""')
        k = "" if r.k is None else str(r.k)
        zcap = "" if r.zcap is None else str(r.zcap)
        lines.append(f'{r.name},{k},{r.qcap},{zcap},{r.passed},"{ff}"')
    return "\n".join(lines)


def reports_table(reports) -> str:
    """Fixed-width human-readable report table (no timings: deterministic)."""
    rows = [("IDENTITY", "K", "QCAP", "ZCAP", "STATUS", "FIRST FAILURE")]
    for r in reports:
        rows.append(
            (
                r.name,
                "-" if r.k is None else str(r.k),
                str(r.qcap),
                "-" if r.zcap is None else str(r.zcap),
                "pass" if r.passed else "FAIL",
                r.failure_text(),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    out = []
    for row in rows:
        cells = [row[i].ljust(widths[i]) for i in range(5)]
        out.append(("  ".join(cells) + "  " + row[5]).rstrip())
    return "\n".join(out)
