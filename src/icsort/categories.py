"""The seven source categories and the rule for compositional label vectors.

A label is a 7-element numpy vector of non-negative reals summing to one,
ordered as in ``CATEGORIES``.  Crowd submissions additionally allow a "?"
response, giving the 8-column response set in ``RESPONSES``.
"""

from __future__ import annotations

import numpy as np

CATEGORIES = (
    "Brain",
    "Muscle",
    "Eye",
    "Heart",
    "Line Noise",
    "Channel Noise",
    "Other",
)

N_CATEGORIES = len(CATEGORIES)

#: Crowd-label responses: the seven categories plus the low-confidence "?".
RESPONSES = CATEGORIES + ("?",)
N_RESPONSES = len(RESPONSES)

RESPONSE_INDEX = {name: i for i, name in enumerate(RESPONSES)}

LABEL_SUM_TOL = 1e-6


def first_invalid_label(labels: np.ndarray):
    """The first row of an (n, k) float stack that is not a label vector.

    Returns ``(row, reason)`` naming the first check that row fails (finite
    entries, then non-negative entries, then a sum of 1 within
    ``LABEL_SUM_TOL``), or ``None`` when every row passes.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        totals = labels.sum(axis=1)
    sums_to_one = np.abs(totals - 1.0) <= LABEL_SUM_TOL
    # a row with a non-finite entry has a non-finite total, so whole-array
    # checks settle the common all-valid case without the per-row ones
    if sums_to_one.all() and (labels >= 0).all():
        return None
    finite = np.isfinite(labels).all(axis=1)
    nonnegative = (labels >= 0).all(axis=1)
    bad = np.flatnonzero(~(finite & nonnegative & sums_to_one))
    row = int(bad[0])
    if not finite[row]:
        return row, "label vector contains non-finite entries"
    if not nonnegative[row]:
        return row, "label vector contains negative entries"
    return row, (f"label vector sums to {float(totals[row])!r}, "
                 f"expected 1 within {LABEL_SUM_TOL}")
