"""Test-only reads of a series, built on ``terms`` and ``from_terms``.

The kernel keeps no truncation or coefficient lookup of its own, since no
engine code reads a series that way.  These helpers give the tests both,
as references that do not go through the kernel's private copies.
"""

from kmeasure.series import TriSeries


def truncated(s: TriSeries, qcap: int | None = None, zcap: int | None = None) -> TriSeries:
    """s under tighter caps; a cap of None keeps the current one."""
    qcap = s.qcap if qcap is None else qcap
    zcap = s.zcap if zcap is None else zcap
    assert qcap <= s.qcap and zcap <= s.zcap, "the dropped terms are unknown"
    return TriSeries.from_terms(s.terms(), qcap, zcap)


def coefficients(s: TriSeries) -> dict:
    """``{(q_exp, y_exp, z_exp): c}`` of every nonzero term; absent is 0."""
    return {(j, e, f): c for j, e, f, c in s.terms()}
