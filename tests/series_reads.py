"""Test-only reads of a series, built on ``terms`` and ``from_terms``.

The kernel keeps no truncation or coefficient lookup of its own, since no
engine code reads a series that way.  These helpers give the tests both,
as references that do not go through the kernel's private copies.
"""

from kmeasure.series import TriSeries


def truncated(s: TriSeries, qcap: int) -> TriSeries:
    """s at a q-order no higher than its own, cut in q and z there."""
    assert qcap <= s.qcap, "the dropped terms are unknown"
    return TriSeries.from_terms(s.terms(), qcap)


def coefficients(s: TriSeries) -> dict:
    """``{(q_exp, y_exp, z_exp): c}`` of every nonzero term; absent is 0."""
    return {(j, e, f): c for j, e, f, c in s.terms()}
