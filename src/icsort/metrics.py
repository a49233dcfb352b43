"""Evaluation metrics for compositional (soft) classifier labels.

All operations take a pair of (n, k) arrays: target label vectors and
predicted label vectors, each row a probability distribution over k
categories (``categories.first_invalid_label`` is the one rule for that).
Hard metrics discretize by argmax (ties to the lowest index); soft metrics
consume the full distributions through fuzzy-AND confusion matrices,
preserving the information a hard argmax discards.

ROC points and optimal thresholds share one sorted sweep of the detection
counts (Fawcett, 2006, Alg. 1), O(n log n) per category; thresholds tied on
F1 or accuracy resolve to the larger one.  Every table is a float64 array:
a soft confusion is (k, k), ROC points (m, 3), SOC points (3, 2) and
thresholds (k,).  ``merge_classes`` sums categories by explicit index
groups; the 7-to-7, 7-to-5 and 7-to-2 groups the command line uses live in
``cli.MERGE_SCHEMES``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .categories import CATEGORIES, first_invalid_label
from .errors import ConfigError, DataError

SOFT_AND_MODES = ("strong", "product", "weak")

#: Sentinel threshold strictly above every probability: detects nothing.
ABOVE_MAX = 1.0 + 1e-9

#: Per-category detection thresholds tuned to maximize accuracy on the
#: training corpus, in category order (Brain .. Other).
TRAINING_ACCURACY_THRESHOLDS = (0.44, 0.18, 0.13, 0.33, 0.04, 0.13, 0.15)


def validate_pairs(targets: np.ndarray, predictions: np.ndarray):
    """Check that targets and predictions are matching (n, k) stacks of
    label vectors and return them as float64 arrays.

    Rows are checked by ``first_invalid_label``, targets first; a bad row
    raises a ``DataError`` naming the array, the row and the reason.  A valid
    entry may lie just above 1 (within ``LABEL_SUM_TOL``, or a merged sum
    rounding up), so the arrays are returned clamped to at most 1.
    """
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[1] < 2:
        raise DataError(f"targets must be (n, k) with k >= 2, got {targets.shape}")
    if predictions.shape != targets.shape:
        raise DataError(
            f"predictions shape {predictions.shape} does not match targets {targets.shape}"
        )
    if targets.shape[0] == 0:
        raise DataError("no evaluation pairs given")
    for name, arr in (("targets", targets), ("predictions", predictions)):
        problem = first_invalid_label(arr)
        if problem:
            row, reason = problem
            raise DataError(f"{name} row {row}: {reason}")
    return np.minimum(targets, 1.0), np.minimum(predictions, 1.0)


def balanced_accuracy(targets: np.ndarray, predictions: np.ndarray) -> float:
    """Mean over categories of within-category recall after argmax.

    Categories with no target examples are excluded from the average (a
    warning is emitted so silent class dropout is visible).
    """
    targets, predictions = validate_pairs(targets, predictions)
    true_hard = np.argmax(targets, axis=1)
    pred_hard = np.argmax(predictions, axis=1)
    recalls = []
    missing = []
    for k in range(targets.shape[1]):
        in_class = true_hard == k
        if not np.any(in_class):
            missing.append(k)
            continue
        recalls.append(float(np.mean(pred_hard[in_class] == k)))
    if missing:
        warnings.warn(
            f"categories without target examples excluded from balanced accuracy: {missing}",
            stacklevel=2,
        )
    if not recalls:
        raise DataError("no category has any target examples")
    return float(np.mean(recalls))


def cross_entropy(targets: np.ndarray, predictions: np.ndarray) -> float:
    """Mean per-example cross entropy, reported as a positive loss.

    Predictions are floored at 1e-12 inside the logarithm.
    """
    targets, predictions = validate_pairs(targets, predictions)
    logp = np.log(np.maximum(predictions, 1e-12))
    return float(-np.mean(np.sum(targets * logp, axis=1)))


def confusion_matrix(
    targets: np.ndarray, predictions: np.ndarray, normalized: bool = False
) -> np.ndarray:
    """Hard (argmax) confusion counts; rows are targets, columns predictions.

    With ``normalized=True`` each row is divided by its example count so
    the diagonal holds per-category recall; rows without examples stay
    all-zero and trigger a warning.
    """
    targets, predictions = validate_pairs(targets, predictions)
    k = targets.shape[1]
    true_hard = np.argmax(targets, axis=1)
    pred_hard = np.argmax(predictions, axis=1)
    matrix = np.zeros((k, k))
    np.add.at(matrix, (true_hard, pred_hard), 1.0)
    if normalized:
        row_sums = matrix.sum(axis=1, keepdims=True)
        empty = np.flatnonzero(row_sums[:, 0] == 0)
        if empty.size:
            warnings.warn(f"rows without target examples left all-zero: {empty.tolist()}",
                          stacklevel=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            matrix = np.where(row_sums > 0, matrix / np.where(row_sums == 0, 1, row_sums), 0.0)
    return matrix


def soft_and(x, y, mode: str):
    """Fuzzy conjunction of two membership values in [0, 1].

    ``strong`` assumes minimal overlap (max(0, x + y - 1)), ``product``
    assumes independence (x * y), ``weak`` assumes maximal overlap
    (min(x, y)); strong <= product <= weak always holds, strong up to the
    one rounding of x + y - 1 (at most 2.2e-16).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1) or np.any(y < 0) or np.any(y > 1):
        raise DataError("soft_and arguments must lie in [0, 1]")
    if mode == "strong":
        return np.maximum(0.0, x + y - 1.0)
    if mode == "product":
        return x * y
    if mode == "weak":
        return np.minimum(x, y)
    raise ConfigError(f"unknown soft-AND mode {mode!r}; expected one of {SOFT_AND_MODES}")


def soft_confusion(targets: np.ndarray, predictions: np.ndarray, mode: str) -> np.ndarray:
    """The (k, k) matrix whose entry (i, j) sums soft_and(t_i, p_j) over examples."""
    targets, predictions = validate_pairs(targets, predictions)
    return soft_and(targets[:, :, None], predictions[:, None, :], mode).sum(axis=0)


@dataclass
class RocCurve:
    """Detection operating points for one category as the threshold sweeps up."""

    category: int
    points: np.ndarray  # (m, 3) float64 rows (threshold, fpr, tpr), threshold ascending

    def auc(self) -> float:
        """Trapezoidal area under the (FPR, TPR) curve."""
        fpr, tpr = self.points[::-1, 1], self.points[::-1, 2]  # ascending FPR
        return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def _positives(targets: np.ndarray, category: int) -> np.ndarray:
    """Mask of the examples whose target argmax is ``category``; both classes must occur."""
    positive = np.argmax(targets, axis=1) == category
    if not np.any(positive):
        raise DataError(f"ROC for category {category} undefined: no positive examples")
    if np.all(positive):
        raise DataError(f"ROC for category {category} undefined: no negative examples")
    return positive


def _detection_counts(scores: np.ndarray, positive: np.ndarray):
    """Ascending candidate thresholds (the distinct scores plus 0 and
    ``ABOVE_MAX``) and the true- and false-positive counts at each: how many
    positive and negative scores lie at or above it, by binary search in the
    sorted scores of each class."""
    thresholds = np.unique(np.concatenate([scores, [0.0, ABOVE_MAX]]))
    pos = np.sort(scores[positive])
    neg = np.sort(scores[~positive])
    tp = pos.size - np.searchsorted(pos, thresholds, side="left")
    fp = neg.size - np.searchsorted(neg, thresholds, side="left")
    return thresholds, tp, fp


def roc_curve(targets: np.ndarray, predictions: np.ndarray, category: int) -> RocCurve:
    """ROC points for detecting one category from its predicted probability.

    Positives are examples whose target argmax equals ``category``; a
    detection fires when the predicted probability is at or above the
    threshold.  Thresholds sweep the distinct predicted probabilities plus
    0 (everything detected) and a value above every probability (nothing
    detected).  All points come from one sorted sweep, O(n log n); tied
    scores share one point.

    Raises
    ------
    DataError
        If the category has no positive or no negative examples.
    """
    targets, predictions = validate_pairs(targets, predictions)
    if not 0 <= category < targets.shape[1]:
        raise DataError(f"category {category} out of range")
    positive = _positives(targets, category)
    thresholds, tp, fp = _detection_counts(predictions[:, category], positive)
    n_pos, n_neg = tp[0], fp[0]  # the 0 threshold detects every example
    return RocCurve(category=category,
                    points=np.column_stack([thresholds, fp / n_neg, tp / n_pos]))


def soc_points(targets: np.ndarray, predictions: np.ndarray, category: int) -> np.ndarray:
    """Soft operating characteristic points (strong, product, weak order).

    Each point applies the TPR and FPR formulas to the corresponding soft
    confusion matrix: soft-TPR is the diagonal entry over its row sum, and
    soft-FPR is the column mass from other rows over those rows' total
    mass.  Returned as a (3, 2) float64 array of (soft_fpr, soft_tpr) rows.
    """
    targets, predictions = validate_pairs(targets, predictions)
    if not 0 <= category < targets.shape[1]:
        raise DataError(f"category {category} out of range")
    return soc_from_confusions(
        [soft_confusion(targets, predictions, mode) for mode in SOFT_AND_MODES], category)


def soc_from_confusions(confusions, category: int) -> np.ndarray:
    """``soc_points`` for one category from soft confusion matrices already built.

    ``confusions`` holds one matrix per mode, in ``SOFT_AND_MODES`` order; a
    report builds them once for all its categories.
    """
    points = np.empty((len(SOFT_AND_MODES), 2))
    for point, mode, matrix in zip(points, SOFT_AND_MODES, confusions, strict=True):
        row_mass = matrix[category].sum()
        others = np.delete(np.arange(matrix.shape[0]), category)
        other_mass = matrix[others].sum()
        if row_mass == 0 or other_mass == 0:
            raise DataError(f"SOC point for category {category} undefined under {mode!r}: "
                            "zero confusion mass")
        point[:] = (matrix[others, category].sum() / other_mass,  # (fpr, tpr)
                    matrix[category, category] / row_mass)
    return points


def f1_score(recall, precision):
    """Harmonic mean of recall and precision (floats or arrays); 0 where both are 0."""
    recall = np.asarray(recall, dtype=np.float64)
    precision = np.asarray(precision, dtype=np.float64)
    if not np.all((recall >= 0) & (recall <= 1) & (precision >= 0) & (precision <= 1)):
        raise DataError("recall and precision must lie in [0, 1]")
    total = precision + recall
    f1 = np.divide(2.0 * precision * recall, total, out=np.zeros(total.shape), where=total > 0)
    return float(f1) if f1.ndim == 0 else f1


def f1_isometric(level: float, fpr):
    """TPR locus achieving a fixed F1 score as a function of FPR.

    With positive-class prevalence pi, F1 = c along
    TPR = c * (pi + (1 - pi) * FPR) / (pi * (2 - c)); this is the balanced
    (pi = 1/2) case used when overlaying isometrics on operating-
    characteristic plots.  Values above 1 indicate the level is
    unattainable at that FPR.
    """
    if not 0 < level < 2:
        raise ConfigError(f"F1 level must be in (0, 2), got {level}")
    fpr = np.asarray(fpr, dtype=np.float64)
    return level * (0.5 + 0.5 * fpr) / (0.5 * (2.0 - level))


def optimal_thresholds(
    targets: np.ndarray, predictions: np.ndarray, criterion: str = "f1"
) -> np.ndarray:
    """Per-category thresholds maximizing F1 or accuracy over the ROC sweep.

    Returns a (k,) float64 vector in [0, 1], in category order.  Candidates
    are the ROC thresholds for each category, all scored at once from the
    same sorted sweep of detection counts, O(n log n) per category.  Ties go
    to the larger threshold.  A winning candidate above every score is
    stored as 1.0 (detect only certainties).
    """
    targets, predictions = validate_pairs(targets, predictions)
    if criterion not in ("f1", "accuracy"):
        raise ConfigError(f"unknown criterion {criterion!r}; expected 'f1' or 'accuracy'")
    k = targets.shape[1]
    best = np.empty(k)
    for cat in range(k):
        thresholds, tp, fp = _detection_counts(predictions[:, cat], _positives(targets, cat))
        fn, tn = tp[0] - tp, fp[0] - fp  # the 0 threshold detects every example
        if criterion == "accuracy":
            value = (tp + tn) / (tp + tn + fp + fn)
        else:
            detected = tp + fp
            precision = np.divide(tp, detected, out=np.zeros(tp.shape), where=detected > 0)
            value = f1_score(tp / tp[0], precision)
        last_max = value.size - 1 - np.argmax(value[::-1])  # ties: the larger threshold
        best[cat] = min(thresholds[last_max], 1.0)
    return best


def detect_multilabel(label: np.ndarray, thresholds, names=CATEGORIES) -> set:
    """Names of the categories whose probability meets or exceeds their threshold.

    May return several categories or none.  ``thresholds`` is a vector with
    one value per category, and ``names`` gives the label's categories in
    order.  Threshold values are not range-checked here; a thresholds file
    is checked where it is read (``cli._load_thresholds``).
    """
    label = np.asarray(label, dtype=np.float64)
    values = np.asarray(thresholds, dtype=np.float64)
    if label.shape != values.shape:
        raise DataError(f"label shape {label.shape} does not match thresholds {values.shape}")
    if label.shape != (len(names),):
        raise DataError(f"multi-label detection expects {len(names)} categories")
    return {names[i] for i in np.flatnonzero(label >= values)}


def merge_classes(label: np.ndarray, groups) -> np.ndarray:
    """Sum label mass into merged categories.

    ``label`` is a (k,) vector or an (n, k) stack, summed over its last
    axis.  ``groups`` is a sequence of index groups partitioning 0..k-1;
    output category i holds the summed mass of ``groups[i]``.  Mass is
    conserved exactly.  ``cli.MERGE_SCHEMES`` holds the 7-to-7 (identity),
    7-to-5 and 7-to-2 groups.
    """
    label = np.asarray(label, dtype=np.float64)
    if label.ndim not in (1, 2):
        raise DataError("merge_classes expects a label vector or an (n, k) stack")
    groups = tuple(tuple(g) for g in groups)
    flat = [i for group in groups for i in group]
    if sorted(flat) != list(range(label.shape[-1])):
        raise ConfigError(f"merge groups must partition indices 0..{label.shape[-1] - 1}")
    return np.stack([label[..., list(group)].sum(axis=-1) for group in groups], axis=-1)
