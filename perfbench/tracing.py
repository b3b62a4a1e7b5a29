"""In-process tracing of `kmeasure verify`, from outside the program.

The tracer wraps the public functions of ``kmeasure.series``,
``kmeasure.partitions``, ``kmeasure.identities`` and ``kmeasure.cli`` and
records one span per call: its layer name, its parent span, its duration
and a small payload (a count, or the key of a build).  Spans stay in memory
until :func:`layer_metrics` turns them into per-layer numbers.

Three properties of the program shape the patching:

- ``identities`` (and the package ``__init__``) bind functions of the other
  modules by name, so every module namespace that holds a wrapped function
  is patched, not only the defining one.
- ``identities._CHECK_FUNCS`` holds the check functions by reference, so
  its values are patched too.
- ``TriSeries.__truediv__`` is ``invert`` followed by ``__mul__``; it is
  not wrapped, so that work is counted once, under those two.

``enumerate_partitions`` returns a generator whose work happens while the
caller iterates, so its span times each ``next()`` and counts the items;
its duration is the sum of those times.
"""

from __future__ import annotations

import functools
from time import perf_counter

from kmeasure import cli, identities, partitions, series
import kmeasure

SERIES_METHODS = {
    "__mul__": "series.mul",
    "invert": "series.invert",
    "times_one_minus": "series.times_one_minus",
    "__add__": "series.add_sub",
    "__sub__": "series.add_sub",
}
POCHHAMMER = ("pochhammer_finite", "pochhammer_infinite")
PARTITION_FUNCS = ("measure_gfs", "measure_gf", "durfee_gf", "kmeasure", "sylvester_counts")
CLOSED_FORMS = (
    "partition_measure_gf_sum",
    "partition_measure_gf_product",
    "distinct_measure_gf_sum",
    "distinct_measure_gf_product",
    "durfee_gf_closed",
)
RENDERERS = ("reports_json", "reports_csv", "reports_table")
CHECK_FAMILIES = tuple(identities._CHECK_FUNCS)

# The layer names whose spans carry a series built for later use; their
# results give series.max_terms and series.max_coeff_bits.
BUILDERS = ("series.pochhammer", "identities.closed_form")

# Every count below is a deterministic function of the command line, so two
# traced passes of one command must give identical values.
EXACT = (
    "series.mul.calls",
    "series.mul.coeff_products",
    "series.invert.calls",
    "series.times_one_minus.calls",
    "series.add_sub.calls",
    "series.pochhammer.calls",
    "series.max_terms",
    "series.max_coeff_bits",
    "partitions.enumerated",
    "partitions.gf_builds",
    "partitions.gf_unique_ratio",
    "identities.closed_form.builds",
    "identities.closed_form.unique_ratio",
)


class Span:
    __slots__ = ("name", "parent", "dur", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.dur = 0.0
        self.info = None


def _mul_coeff_products(a, b) -> int:
    """Coefficient pairs a Cauchy product visits: the sum over
    j1 + j2 <= qcap of the term counts of layer j1 of a and layer j2 of b."""
    qcap = min(a.qcap, b.qcap)
    cumulative, running = [], 0
    for layer in b._layers[: qcap + 1]:
        running += len(layer)
        cumulative.append(running)
    return sum(len(a._layers[j]) * cumulative[qcap - j] for j in range(qcap + 1))


def _gf_keys(qcap, ks, family="all"):
    """The (qcap, k, family) of each series one measure_gfs call builds."""
    return [(qcap, k, family) for k in ks]


def _build_key(fname, *args, **kwargs):
    return (fname, args, tuple(sorted(kwargs.items())))


def _max_coeff_bits(s) -> int:
    best = 0
    for layer in s._layers:
        for c in layer.values():
            if isinstance(c, int):
                bits = abs(c).bit_length()
            else:
                bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            best = max(best, bits)
    return best


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the program."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, info=None, result_info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if info is not None:
                span.info = info(*args, **kwargs)
            self._stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = perf_counter() - start
                self._stack.pop()
            if result_info is not None:
                span.info = result_info(span.info, result)
            return result

        return wrapper

    def _wrap_enumeration(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open("partitions.enumerate")
            span.info = 0
            items = fn(*args, **kwargs)

            def timed():
                while True:
                    start = perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        span.dur += perf_counter() - start
                        return
                    span.dur += perf_counter() - start
                    span.info += 1
                    yield item

            return timed()

        return wrapper

    # ---------------------------------------------------------- patching

    def _set(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def install(self):
        def built(result):
            return (result._nterms, _max_coeff_bits(result))

        TriSeries = series.TriSeries
        for attr, name in SERIES_METHODS.items():
            info = _mul_coeff_products if attr == "__mul__" else None
            self._set(TriSeries, attr, self._wrap(getattr(TriSeries, attr), name, info))

        enumerate_partitions = partitions.enumerate_partitions
        wrapped = {enumerate_partitions: self._wrap_enumeration(enumerate_partitions)}
        for fname in POCHHAMMER:
            fn = getattr(series, fname)
            wrapped[fn] = self._wrap(fn, "series.pochhammer",
                                     result_info=lambda _, result: built(result))
        for fname in PARTITION_FUNCS:
            fn = getattr(partitions, fname)
            info = _gf_keys if fname == "measure_gfs" else None
            wrapped[fn] = self._wrap(fn, f"partitions.{fname}", info)
        for fname in CLOSED_FORMS:
            fn = getattr(identities, fname)
            wrapped[fn] = self._wrap(fn, "identities.closed_form",
                                     functools.partial(_build_key, fname),
                                     lambda key, result: (key, *built(result)))
        for family, fn in identities._CHECK_FUNCS.items():
            wrapped[fn] = self._wrap(fn, f"identities.check.{family}")
        wrapped[identities.run_suite] = self._wrap(identities.run_suite, "identities.run_suite")
        for fname in RENDERERS:
            fn = getattr(identities, fname)
            wrapped[fn] = self._wrap(fn, "cli.render")
        for fname in ("main", "cmd_verify"):
            fn = getattr(cli, fname)
            wrapped[fn] = self._wrap(fn, f"cli.{fname}")

        for module in (series, partitions, identities, cli, kmeasure):
            for name, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    self._set(module, name, wrapped[value])
        for family, fn in identities._CHECK_FUNCS.items():
            self._set(identities._CHECK_FUNCS, family, wrapped[fn])

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers from one traced pass (see the README for each)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] = children.get(id(span.parent), 0.0) + span.dur

    calls, self_s = {}, {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        own = span.dur - children.get(id(span), 0.0)
        self_s[span.name] = self_s.get(span.name, 0.0) + own

    def by_prefix(prefix):
        return sum((t for name, t in self_s.items() if name.startswith(prefix)), 0.0)

    m = {}
    for name in ("mul", "invert", "times_one_minus", "add_sub", "pochhammer"):
        m[f"series.{name}.calls"] = calls.get(f"series.{name}", 0)
        m[f"series.{name}.self_s"] = self_s.get(f"series.{name}", 0.0)
    m["series.mul.coeff_products"] = sum(s.info for s in spans if s.name == "series.mul")
    m["series.self_s"] = by_prefix("series.")
    built = [s.info[-2:] for s in spans if s.name in BUILDERS]
    m["series.max_terms"] = max((terms for terms, _ in built), default=0)
    m["series.max_coeff_bits"] = max((bits for _, bits in built), default=0)

    enumerations = [s for s in spans if s.name == "partitions.enumerate"]
    enumerated = sum(s.info for s in enumerations)
    enumerate_s = sum(s.dur for s in enumerations)
    m["partitions.enumerated"] = enumerated
    m["partitions.self_s"] = by_prefix("partitions.")
    m["partitions.enumerate_rate"] = enumerated / enumerate_s if enumerate_s else 0.0
    gf_keys = [key for s in spans if s.name == "partitions.measure_gfs" for key in s.info]
    m["partitions.gf_builds"] = len(gf_keys)
    m["partitions.gf_unique_ratio"] = len(set(gf_keys)) / len(gf_keys) if gf_keys else 0.0

    closed = [s.info[0] for s in spans if s.name == "identities.closed_form"]
    m["identities.closed_form.builds"] = len(closed)
    m["identities.closed_form.unique_ratio"] = len(set(closed)) / len(closed) if closed else 0.0
    m["identities.closed_form.self_s"] = self_s.get("identities.closed_form", 0.0)

    check_durations = [s.dur for s in spans if s.name.startswith("identities.check.")]
    for family in CHECK_FAMILIES:
        name = f"identities.check.{family}"
        m[f"{name}_s"] = sum((s.dur for s in spans if s.name == name), 0.0)
    m["identities.check.max_s"] = max(check_durations, default=0.0)
    m["cli.render_s"] = sum((s.dur for s in spans if s.name == "cli.render"), 0.0)
    return m
