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
no algebra on closed forms involved.  Exhaustive, deterministic
enumeration stays as the reference they are tested against, and it still
backs Sylvester's histograms and the per-partition statistics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .series import TriSeries

FAMILIES = ("all", "distinct", "odd", "distinct-odd")


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
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    distinct = family in ("distinct", "distinct-odd")
    odd = family in ("odd", "distinct-odd")
    return _descend(n, n, distinct, odd)


def _values_of(parts) -> list[int]:
    """Distinct part values in increasing order.

    Repeated parts never help a k-measure subsequence for k >= 1 (equal
    consecutive entries have gap 0), so every statistic here reduces to the
    set of values.
    """
    return sorted(set(parts))


def _measure_of_values(values, k) -> int:
    # Greedy smallest-first selection: take a value whenever it is at least
    # k above the last one taken.  Validated against the exhaustive oracle.
    count = 0
    last = None
    for v in values:
        if last is None or v - last >= k:
            count += 1
            last = v
    return count


def kmeasure(parts, k: int) -> int:
    """The k-measure of a partition, by greedy subsequence selection."""
    if k <= 0:
        raise ValueError("k must be positive")
    return _measure_of_values(_values_of(parts), k)


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


@dataclass
class PartitionStats:
    """Bundle of the statistics of one partition."""

    size: int
    length: int
    smallest: int  # 0 for the empty partition
    durfee: int
    measures: dict[int, int] = field(default_factory=dict)


def partition_stats(parts, ks=(1, 2, 3, 4, 5)) -> PartitionStats:
    values = _values_of(parts)
    return PartitionStats(
        size=sum(parts),
        length=len(parts),
        smallest=parts[-1] if parts else 0,
        durfee=durfee(parts),
        measures={k: _measure_of_values(values, k) for k in ks},
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
# {(length, statistic): count} layers.  Each value is absent or present with
# some multiplicity, so a partition is counted once, by the path of its
# multiplicities.  The cost is polynomial in qcap, not proportional to the
# number of partitions.


def _check_oracle_args(qcap, family):
    if qcap < 0:
        raise ValueError("qcap must be nonnegative")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")


def _unit(qcap):
    """The state of the empty partition."""
    layers = [{} for _ in range(qcap + 1)]
    layers[0][(0, 0)] = 1
    return layers


def _accumulate(tgt, layer, dl=0, dz=0):
    """tgt += layer, raising each length by dl and each statistic by dz."""
    for (ell, stat), c in layer.items():
        key = (ell + dl, stat + dz)
        tgt[key] = tgt.get(key, 0) + c


def _add_into(target, layers, dz=0):
    for tgt, layer in zip(target, layers):
        _accumulate(tgt, layer, dz=dz)


def _with_value(layers, v, once):
    """Partitions of ``layers`` with value v added: once, or m >= 1 times.

    The m >= 1 sum is y q^v / (1 - y q^v) times the state, computed by the
    recurrence out[j] = y * (layers[j - v] + out[j - v]).
    """
    out = [{} for _ in layers]
    for j in range(v, len(layers)):
        _accumulate(out[j], layers[j - v], dl=1)
        if not once:
            _accumulate(out[j], out[j - v], dl=1)
    return out


def _measure_series(qcap, k, family):
    """Sum y^length z^{k-measure} q^size by counting over part values.

    Values are scanned in ascending order, following the greedy rule of
    :func:`kmeasure`.  The state is keyed by the gap since the last value
    the greedy took, capped at k; gap k also means nothing taken yet.  A
    present value at gap k is taken (measure + 1, gap back to 1).
    """
    distinct = family in ("distinct", "distinct-odd")
    odd = family in ("odd", "distinct-odd")
    states = {k: _unit(qcap)}
    for v in range(1, qcap + 1):
        new = defaultdict(lambda: [{} for _ in range(qcap + 1)])
        for gap, layers in states.items():
            after = min(k, gap + 1)
            _add_into(new[after], layers)
            if odd and v % 2 == 0:
                continue
            present = _with_value(layers, v, distinct)
            if gap == k:
                _add_into(new[1], present, dz=1)
            else:
                _add_into(new[after], present)
        states = new
    total = [{} for _ in range(qcap + 1)]
    for layers in states.values():
        _add_into(total, layers)
    return TriSeries._make(qcap, None, total)


def measure_gfs(qcap: int, ks, family: str = "all") -> dict[int, TriSeries]:
    """Sum y^length z^{k-measure} q^size over all partitions of n <= qcap.

    One series per requested k, counted over part values; equal, term for
    term, to summing over :func:`enumerate_partitions`.
    """
    _check_oracle_args(qcap, family)
    ks = list(ks)
    for k in ks:
        if k <= 0:
            raise ValueError("k must be positive")
    return {k: _measure_series(qcap, k, family) for k in ks}


def measure_gf(qcap: int, k: int, family: str = "all") -> TriSeries:
    """Single-k convenience wrapper around :func:`measure_gfs`."""
    return measure_gfs(qcap, [k], family)[k]


def durfee_gf(qcap: int) -> TriSeries:
    """Sum y^length z^{durfee side} q^size over all partitions of n <= qcap.

    Values are scanned in descending order, so m copies of a value v become
    parts L + 1 .. L + m of a partition of length L.  Part i widens the
    Durfee square when i <= v, so the m copies add max(0, min(L + m, v) - L)
    to the side.  The state is updated in place
    from the largest size down, so each size is read before anything is
    added to it.
    """
    _check_oracle_args(qcap, "all")
    layers = _unit(qcap)
    for v in range(qcap, 0, -1):
        for s in range(qcap - v, -1, -1):
            for (ell, side), c in list(layers[s].items()):
                for m in range(1, (qcap - s) // v + 1):
                    key = (ell + m, side + max(0, min(ell + m, v) - ell))
                    tgt = layers[s + m * v]
                    tgt[key] = tgt.get(key, 0) + c
    return TriSeries._make(qcap, None, layers)


def sylvester_counts(n: int) -> tuple[Counter, Counter]:
    """Histogram pair behind Sylvester's theorem.

    Returns (odd-part partitions of n counted by number of distinct values,
    distinct-part partitions of n counted by number of maximal consecutive
    runs).  The theorem asserts the two histograms are equal; at n = 0 both
    are {0: 1} for the empty partition.
    """
    by_distinct = Counter(
        len(set(parts)) for parts in enumerate_partitions(n, "odd")
    )
    by_runs = Counter(
        consecutive_runs(parts) for parts in enumerate_partitions(n, "distinct")
    )
    return by_distinct, by_runs
