"""Integer partitions, their statistics, and counted generating functions.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the unique partition of 0.  Besides the classical statistics
(size, length, smallest part, Durfee square side) this module computes the
k-measure: the maximum length of a subsequence of parts whose consecutive
entries differ by at least k.  The 1-measure is the number of distinct part
values.

The generating functions built here, sums of y^length z^statistic q^size
over every partition of n <= qcap, are the oracles for the closed-form
series in :mod:`kmeasure.identities`.  They count partitions by a
transfer-matrix scan over part values, in time polynomial in qcap and with
no algebra on closed forms involved.  Every scan in ascending order is one
interpreter, :func:`_scan`, reading a transfer record: the greedy rule of
the k-measure is one, and the number of runs of consecutive parts another.
The Durfee series keeps a descending scan of its own.  Sylvester's two
sides are such series too, neither tracking length: the odd family by
1-measure, and the distinct-part series by number of runs.  Exhaustive,
deterministic enumeration, :func:`enumerate_partitions`, has no caller in
the engine: it is the reference the tests check those series against, and
a name that the ``perfbench`` tracer wraps.  :func:`partition_stats` reads
the statistics off the partition it is given.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import reduce

from .series import TriSeries, _check_qcap, _slot_width

# family -> (distinct, odd): whether its parts are distinct, and odd
ORACLE_FAMILIES = {"all": (False, False), "distinct": (True, False),
                   "odd": (False, True), "distinct-odd": (True, True)}


def _descend(remaining, max_part, distinct, odd):
    if remaining == 0:
        yield ()
        return
    top = min(remaining, max_part)
    if odd and top % 2 == 0:
        top -= 1
    step = 2 if odd else 1
    for part in range(top, 0, -step):
        cap = part - 1 if distinct else part
        for rest in _descend(remaining - part, cap, distinct, odd):
            yield (part,) + rest


def enumerate_partitions(n: int, family: str = "all"):
    """Yield each partition of n in the family once, lexicographically decreasing.

    Families: "all", "distinct" (strictly decreasing parts), "odd" (odd
    parts), "distinct-odd".  The order is part of the contract; golden
    tests rely on it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if family not in ORACLE_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _descend(n, n, *ORACLE_FAMILIES[family])


def _values_of(parts) -> list[int]:
    """Distinct part values in increasing order.

    Repeated parts never help a k-measure subsequence for k >= 1 (equal
    consecutive entries have gap 0), so every statistic here reduces to the
    set of values.
    """
    return sorted(set(parts))


def kmeasure(parts, k: int) -> int:
    """The k-measure of a partition, by greedy subsequence selection.

    Smallest first, a value is taken whenever it is at least k above the
    last one taken; :func:`kmeasure_bruteforce` is the reference the tests
    hold it to.  Raises ValueError unless k is positive.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    count = 0
    last = None
    for v in _values_of(parts):
        if last is None or v - last >= k:
            count += 1
            last = v
    return count


def kmeasure_bruteforce(parts, k: int) -> int:
    """The k-measure by exhaustive subset search over distinct part values.

    Independent oracle for :func:`kmeasure`; refuses more than 25 distinct
    values (2^25 subsets).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    values = _values_of(parts)
    d = len(values)
    if d > 25:
        raise ValueError("oracle scope exceeded")
    best = 0
    for mask in range(1 << d):
        chosen = [values[i] for i in range(d) if mask >> i & 1]
        if len(chosen) <= best:
            continue
        if all(b - a >= k for a, b in zip(chosen, chosen[1:])):
            best = len(chosen)
    return best


def durfee(parts) -> int:
    """Side of the Durfee square: the largest d with parts[d-1] >= d."""
    d = 0
    while d < len(parts) and parts[d] >= d + 1:
        d += 1
    return d


def consecutive_runs(parts) -> int:
    """Number of maximal runs of consecutive integers among distinct parts.

    E.g. parts (5,4,2,1) has the runs {5,4} and {2,1}, so 2.
    """
    if len(set(parts)) != len(parts):
        raise ValueError("requires distinct parts")
    runs = 0
    prev = None
    for p in sorted(parts):
        if prev is None or p != prev + 1:
            runs += 1
        prev = p
    return runs


class PartitionStats(namedtuple("PartitionStats", "size length smallest durfee measures")):
    """Bundle of the statistics of one partition; ``smallest`` is 0 for the
    empty partition, and ``measures`` maps each k, in increasing order, to
    the k-measure."""

    __slots__ = ()


def partition_stats(parts, ks) -> PartitionStats:
    return PartitionStats(
        size=sum(parts),
        length=len(parts),
        smallest=parts[-1] if parts else 0,
        durfee=durfee(parts),
        measures={k: kmeasure(parts, k) for k in sorted(ks)},
    )


# -------------------------------------------------------------- text format


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse the CLI partition format: comma-separated weakly decreasing parts.

    The empty string is the empty partition.
    """
    text = text.strip()
    if not text:
        return ()
    parts = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            value = int(piece)
        except ValueError:
            raise ValueError(f"bad part {piece!r}: not an integer") from None
        if value <= 0:
            raise ValueError(f"bad part {value}: parts must be positive")
        parts.append(value)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError("parts must be weakly decreasing")
    return tuple(parts)


def format_partition(parts) -> str:
    return ",".join(str(p) for p in parts)


# ------------------------------------------------- generating functions
#
# The series are built by transfer-matrix counting (Stanley, Enumerative
# Combinatorics vol. 1, sec. 4.7): part values are scanned one at a time,
# and a state is a layered series, list index the size, with
# {statistic: count} layers.  Each count is a polynomial in y, the length,
# packed into one int evaluated at y = 2^W (the rows of
# :class:`kmeasure.series.TriSeries`), so a part's y is a shift by W, or by
# 0 where length is summed out.  Every count of size j is a number of
# partitions of j, at most p(j), so it fits a W-bit slot with W from
# p(qcap), and the counted series keeps its rows with p(j) as the majorant
# of row j.  Each value is absent or present with some multiplicity, so a
# partition is counted once, by the path of its multiplicities.  A
# statistic read off that present/absent word by a finite automaton is a
# transfer record, one (absent, present, dz) triple per state, and
# :func:`_scan` reads every such record.  The cost is polynomial in qcap,
# not proportional to the number of partitions.


def _partition_counts(qcap) -> tuple[list[int], int]:
    """p(j) for every j <= qcap, by Euler's product over part values, and
    the slot width W that p(qcap) needs.

    Every counted series starts here, so this is where a negative q-order
    is refused, before any other argument is looked at.
    """
    _check_qcap(qcap)
    counts = [1] + [0] * qcap
    for v in range(1, qcap + 1):
        for j in range(v, qcap + 1):
            counts[j] += counts[j - v]
    return counts, _slot_width(counts[-1].bit_length())


def _unit(qcap):
    """The state of the empty partition."""
    layers = [{} for _ in range(qcap + 1)]
    layers[0][0] = 1
    return layers


def _accumulate(tgt, layer, shift=0, dz=0):
    """tgt += layer, each count shifted up by ``shift`` bits (shift = W for
    one more part) and each statistic raised by dz."""
    for stat, c in layer.items():
        tgt[stat + dz] = tgt.get(stat + dz, 0) + (c << shift)


def _add_into(target, layers):
    for tgt, layer in zip(target, layers):
        _accumulate(tgt, layer)
    return target


def _times_value(layers, v, once, shift):
    """Multiply by 1 + y q^v (once) or 1/(1 - y q^v) in place, y a shift
    by ``shift`` bits.

    One pass of layers[j] += y * layers[j - v]: descending j reads each
    layer before it is updated, ascending j reads it after, which adds the
    copies of v one at a time.
    """
    n = len(layers)
    for j in range(n - 1, v - 1, -1) if once else range(v, n):
        _accumulate(layers[j], layers[j - v], shift)


def _scan(qcap, record, family, length):
    """Sum y^length z^statistic q^size over the partitions of n <= qcap in
    a family, the statistic counted by a transfer record.  A part shifts
    its count by the slot width W; with ``length`` false it shifts it by 0
    bits, so length is summed out and every count sits in slot 0.

    Values are scanned in ascending order.  ``record`` holds one
    ``(absent, present, dz)`` triple per state: a value that is absent
    moves the state to ``absent``, and one that is present, once in the
    distinct families and any number of times in the others, moves it to
    ``present`` and raises the statistic by dz.  In the odd families an
    even value is always absent.  State 0 holds the empty partition, and
    the series is the sum of every state.  A state whose two moves agree
    and add nothing is multiplied by one factor in place; only a real
    choice builds a taken state, and a target state adopts, uncopied, the
    first layers that reach it.
    """
    counts, width = _partition_counts(qcap)
    distinct, odd = ORACLE_FAMILIES[family]
    shift = width if length else 0
    states = [_unit(qcap)] + [[{} for _ in range(qcap + 1)] for _ in record[1:]]
    for v in range(1, qcap + 1):
        reached, absent_only = [None] * len(record), odd and v % 2 == 0
        for layers, (absent, present, dz) in zip(states, record):
            taken = None
            if absent_only:
                pass
            elif absent == present and not dz:
                _times_value(layers, v, distinct, shift)
            else:
                # taken = z^dz y q^v layers, then times 1/(1 - y q^v) for any
                # number of copies; one copy adds straight to a state reached
                taken = distinct and reached[present] or [{} for _ in range(qcap + 1)]
                for j in range(v, qcap + 1):
                    _accumulate(taken[j], layers[j - v], shift, dz)
                if not distinct:
                    _times_value(taken, v, False, shift)
            reached[absent] = layers if reached[absent] is None else _add_into(reached[absent], layers)
            if taken is not None and taken is not reached[present]:
                reached[present] = taken if reached[present] is None else _add_into(reached[present], taken)
        states = [[{} for _ in range(qcap + 1)] if s is None else s for s in reached]
    return TriSeries(qcap, width, reduce(_add_into, states), counts)


def _measure_record(k, qcap):
    """The greedy rule of :func:`kmeasure` as a transfer record.

    State g, 0 < g < k, is the gap since the last value the greedy took,
    and state 0 a gap of k or more, or nothing taken yet.  A present value
    at state 0 is taken (measure + 1, gap 1); at a gap it only adds to the
    length, and the gap grows by one either way, back to state 0 at k.  A
    gap between parts of at most qcap stays below qcap, so a larger k acts
    as qcap + 1.
    """
    low = min(k, qcap + 1)
    after = [g + 1 if g + 1 < low else 0 for g in range(max(low, 1))]
    return ((0, after[0], 1),) + tuple((a, a, 0) for a in after[1:])


def measure_gfs(qcap: int, ks, family: str = "all") -> dict[int, TriSeries]:
    """Sum y^length z^{k-measure} q^size over all partitions of n <= qcap.

    One series per requested k, counted over part values; equal, term for
    term, to summing over :func:`enumerate_partitions`.  Raises ValueError
    for a negative qcap, then for an unknown family, then for a k < 1.
    """
    _check_qcap(qcap)
    if family not in ORACLE_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    ks = list(ks)
    for k in ks:
        if k <= 0:
            raise ValueError("k must be positive")
    return {k: _scan(qcap, _measure_record(k, qcap), family, True) for k in ks}


def measure_gf(qcap: int, k: int, family: str = "all") -> TriSeries:
    """Single-k convenience wrapper around :func:`measure_gfs`."""
    return measure_gfs(qcap, [k], family)[k]


def durfee_gf(qcap: int) -> TriSeries:
    """Sum y^length z^{durfee side} q^size over all partitions of n <= qcap.

    Values are scanned in descending order, so a copy of a value v becomes
    part L + 1 of a partition of length L.  That part widens the Durfee
    square when L < v, so a mask splits each packed count at slot v.
    Copies are added one at a time, in place, over ascending sizes, so the
    state at size j - v already holds the partitions with copies of v when
    size j reads it.
    """
    counts, width = _partition_counts(qcap)
    layers = _unit(qcap)
    for v in range(qcap, 0, -1):
        short = (1 << (width * v)) - 1  # the slots of lengths below v
        for j in range(v, qcap + 1):
            tgt = layers[j]
            for side, c in layers[j - v].items():
                widens = c & short
                if widens:
                    tgt[side + 1] = tgt.get(side + 1, 0) + (widens << width)
                if c != widens:
                    tgt[side] = tgt.get(side, 0) + ((c - widens) << width)
    return TriSeries(qcap, width, layers, counts)


def runs_gf(qcap: int) -> TriSeries:
    """Sum z^{runs} q^size over all partitions into distinct parts of
    n <= qcap, runs as in :func:`consecutive_runs`.

    The record has one state for partitions that do not have v - 1 as a
    part, to which a part v adds a run, and one for those that do, to
    which it adds none.  Length is not tracked, so every count sits in
    slot 0.
    """
    return _scan(qcap, ((0, 1, 1), (0, 1, 0)), "distinct", False)


def sylvester_gfs(n_max: int) -> tuple[TriSeries, TriSeries]:
    """The two sides of Sylvester's theorem for every n <= n_max: the
    odd-part partitions by number of distinct values (their 1-measure) and
    the distinct-part partitions by number of maximal runs, each as z^value
    q^n.  Neither side tracks length."""
    return _scan(n_max, _measure_record(1, n_max), "odd", False), runs_gf(n_max)


def _histograms(series: TriSeries, n_max: int) -> list[Counter]:
    """Per n, the counts by statistic of a counted series in which y or z
    was set to 1, so that the other exponent is the statistic."""
    out = [Counter() for _ in range(n_max + 1)]
    for n, e, f, c in series.terms():
        out[n][e + f] += c
    return out


def sylvester_counts(n: int) -> tuple[Counter, Counter]:
    """Histogram pair behind Sylvester's theorem.

    Returns (odd-part partitions of n counted by number of distinct values,
    distinct-part partitions of n counted by number of maximal consecutive
    runs).  The theorem asserts the two histograms are equal; at n = 0 both
    are {0: 1} for the empty partition.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    odd, runs = sylvester_gfs(n)
    return _histograms(odd, n)[n], _histograms(runs, n)[n]
