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
no algebra on closed forms involved.  Sylvester's two sides are such
series too: the odd family's 1-measure series at y = 1, and the
distinct-part series by number of runs.  Exhaustive, deterministic
enumeration, :func:`enumerate_partitions`, has no caller in the engine: it
is the reference the tests check those series against, and a name that the
``perfbench`` tracer wraps.  :func:`partition_stats` reads the statistics
off the partition it is given.
"""

from __future__ import annotations

from collections import Counter, namedtuple

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
# :class:`kmeasure.series.TriSeries`), so a part's y is a shift by W.  Every
# count of size j is a number of partitions of j, at most p(j), so it fits a
# W-bit slot with W from p(qcap), and the counted series keeps its rows with
# p(j) as the majorant of row j.  Each value is absent or present with some
# multiplicity, so a partition is counted once, by the path of its
# multiplicities.  The cost is polynomial in qcap, not proportional to the
# number of partitions.


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


def _times_value(layers, v, once, width):
    """Multiply by 1 + y q^v (once) or 1/(1 - y q^v) in place.

    One pass of layers[j] += y * layers[j - v]: descending j reads each
    layer before it is updated, ascending j reads it after, which adds the
    copies of v one at a time.
    """
    n = len(layers)
    for j in range(n - 1, v - 1, -1) if once else range(v, n):
        _accumulate(layers[j], layers[j - v], width)


def _measure_series(qcap, k, family, counts, width):
    """Sum y^length z^{k-measure} q^size by counting over part values.

    Values are scanned in ascending order, following the greedy rule of
    :func:`kmeasure`.  The state is one layered series per gap since the
    last value the greedy took, capped at k; gap k also means nothing taken
    yet.  A present value at gap k is taken (measure + 1, gap back to 1);
    at a smaller gap it only adds to the length, so absent and present
    together multiply that state by one factor, in place.  ``counts`` and
    ``width`` come from :func:`_partition_counts`.
    """
    distinct, odd = ORACLE_FAMILIES[family]
    # a gap between parts of at most qcap stays below qcap, so a larger k acts as qcap + 1
    gaps = [[{} for _ in range(qcap + 1)] for _ in range(min(k, qcap + 1) - 1)] + [_unit(qcap)]
    for v in range(1, qcap + 1):
        *lower, top = gaps
        taken = [{} for _ in range(qcap + 1)]
        if not (odd and v % 2 == 0):
            # taken[j] = z y top[j - v] + y taken[j - v], or its first term alone
            for j in range(v, qcap + 1):
                _accumulate(taken[j], top[j - v], width, 1)
                if not distinct:
                    _accumulate(taken[j], taken[j - v], width)
            for layers in lower:
                _times_value(layers, v, distinct, width)
        # gap g becomes g + 1, the taken state gap 1, and gap k - 1 (the
        # taken state itself, at k = 1) joins gap k
        gaps = [taken] + lower + [top]
        _add_into(top, gaps.pop(-2))
    total = gaps.pop()
    for layers in gaps:
        _add_into(total, layers)
    return TriSeries(qcap, width, total, list(counts))  # each series owns its majorant


def measure_gfs(qcap: int, ks, family: str = "all") -> dict[int, TriSeries]:
    """Sum y^length z^{k-measure} q^size over all partitions of n <= qcap.

    One series per requested k, counted over part values; equal, term for
    term, to summing over :func:`enumerate_partitions`.  Raises ValueError
    for a negative qcap, then for an unknown family, then for a k < 1.
    """
    counts, width = _partition_counts(qcap)
    if family not in ORACLE_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    ks = list(ks)
    for k in ks:
        if k <= 0:
            raise ValueError("k must be positive")
    return {k: _measure_series(qcap, k, family, counts, width) for k in ks}


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

    Values are scanned in ascending order, with one state for partitions
    that have v - 1 as a part, to which a part v adds no new run, and one
    for the rest, to which it adds one.  Length is not tracked, so every
    count sits in slot 0.
    """
    counts, width = _partition_counts(qcap)
    rest, ends = _unit(qcap), [{} for _ in range(qcap + 1)]  # ends: v - 1 is a part
    for v in range(1, qcap + 1):
        new_ends = [{} for _ in range(qcap + 1)]
        for j in range(v, qcap + 1):
            _accumulate(new_ends[j], rest[j - v], 0, 1)
            _accumulate(new_ends[j], ends[j - v])
        _add_into(rest, ends)
        ends = new_ends
    _add_into(rest, ends)
    return TriSeries(qcap, width, rest, counts)


def sylvester_gfs(n_max: int) -> tuple[TriSeries, TriSeries]:
    """The two sides of Sylvester's theorem for every n <= n_max: the
    odd-part partitions by number of distinct values (their 1-measure) and
    the distinct-part partitions by number of maximal runs, each as z^value
    q^n."""
    return measure_gf(n_max, 1, "odd").set_y(1), runs_gf(n_max)


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
