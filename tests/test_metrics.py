"""Evaluation metrics: hard, soft, and threshold-based, against brute force."""

import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from icsort import metrics, plots
from icsort.categories import LABEL_SUM_TOL, first_invalid_label
from icsort.cli import MERGE_SCHEMES, MERGED_NAMES, evaluation_report
from icsort.errors import ConfigError, DataError
from icsort.metrics import (
    ABOVE_MAX,
    SOFT_AND_MODES,
    TRAINING_ACCURACY_THRESHOLDS,
    balanced_accuracy,
    confusion_matrix,
    cross_entropy,
    detect_multilabel,
    f1_isometric,
    f1_score,
    merge_classes,
    optimal_thresholds,
    roc_curve,
    soc_points,
    soft_and,
    soft_confusion,
    validate_pairs,
)


def _one_hot(indices, k=7):
    return np.eye(k)[np.asarray(indices)]


# ------------------------------------------------------------- validation


def test_validate_pairs_rejects_malformed_stacks():
    good = np.full((3, 7), 1.0 / 7.0)
    validate_pairs(good, good)
    with pytest.raises(DataError):
        validate_pairs(good, np.full((4, 7), 1.0 / 7.0))
    with pytest.raises(DataError):
        validate_pairs(np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(DataError):
        validate_pairs(np.empty((0, 7)), np.empty((0, 7)))
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError, match="^predictions row 0: .*non-finite"):
        validate_pairs(good, bad)
    bad = good.copy()
    bad[1] = [-0.1, 0.3, 0.2, 0.2, 0.2, 0.1, 0.1]
    with pytest.raises(DataError, match="^targets row 1: .*negative"):
        validate_pairs(bad, good)
    with pytest.raises(DataError, match="^predictions row 0: .*sums to 0.49"):
        validate_pairs(good, good * 0.5)
    # targets are checked first, and the accepted sum tolerance is 1e-6
    with pytest.raises(DataError, match="^targets row 2: "):
        validate_pairs(np.vstack([good[:2], good[2] * 1.00001]), good * 0.5)
    validate_pairs(good * (1.0 + 9e-7), good)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12),
       damage=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 6), st.sampled_from(
           [("set", np.nan), ("set", np.inf), ("set", -np.inf), ("set", -0.25), ("set", 1e308),
            ("add", 1e-7), ("add", 2e-6), ("move", 0.75)])), max_size=3))
def test_first_invalid_label_matches_a_per_row_reference(seed, n, damage):
    labels = np.random.default_rng(seed).dirichlet(np.ones(7), size=n)
    for row, col, (how, value) in damage:
        if row >= n:
            continue
        if how == "set":
            labels[row, col] = value
        elif how == "add":
            labels[row, col] += value
        else:  # a negative entry in a row that still sums to 1
            labels[row, col] -= value
            labels[row, (col + 1) % 7] += value
    expected = None
    with np.errstate(over="ignore"):  # a row of huge entries sums to inf, quietly
        for row, label in enumerate(labels):
            if not np.all(np.isfinite(label)):
                expected = (row, "non-finite")
            elif np.any(label < 0):
                expected = (row, "negative")
            elif abs(label.sum() - 1.0) > LABEL_SUM_TOL:
                expected = (row, "sums to")
            if expected:
                break
    found = first_invalid_label(labels)
    assert (found is None) == (expected is None)
    if found:
        assert found[0] == expected[0] and expected[1] in found[1]


def test_validate_pairs_clamps_entries_just_above_one():
    # a valid label may hold an entry in (1, 1 + LABEL_SUM_TOL], above both
    # soft_and's domain and the nothing-detected threshold; the clamp to 1
    # lets the soft metrics take it and keeps the ROC's last point (0, 0)
    over = 1.0 + LABEL_SUM_TOL / 2
    assert over > ABOVE_MAX
    targets = _one_hot([0, 1, 0, 1], k=2)
    predictions = np.array([[over, 0.0], [0.5, 0.5], [0.25, 0.75], [0.0, 1.0]])
    _, clamped = validate_pairs(targets, predictions)
    assert clamped[0, 0] == 1.0 and np.array_equal(clamped[1:], predictions[1:])
    assert np.array_equal(soc_points(targets, predictions, 0), soc_points(targets, clamped, 0))
    points = roc_curve(targets, predictions, 0).points
    assert np.array_equal(points[-1], (ABOVE_MAX, 0.0, 0.0))


def test_first_invalid_label_rejects_an_overflowing_sum_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row, reason = first_invalid_label(np.array([[1e308] * 7]))
    assert row == 0 and "sums to" in reason


# --------------------------------------------------------------- soft AND


def test_soft_and_on_the_reference_pair():
    assert soft_and(0.5, 0.8, "strong") == pytest.approx(0.3, abs=1e-12)
    assert soft_and(0.5, 0.8, "product") == pytest.approx(0.4, abs=1e-12)
    assert soft_and(0.5, 0.8, "weak") == pytest.approx(0.5, abs=1e-12)


def test_soft_and_modes_are_ordered_and_broadcast():
    rng = np.random.default_rng(0)
    x = rng.random((5, 1))
    y = rng.random((1, 6))
    strong = soft_and(x, y, "strong")
    product = soft_and(x, y, "product")
    weak = soft_and(x, y, "weak")
    assert strong.shape == product.shape == weak.shape == (5, 6)
    assert np.all(strong <= product + 1e-15)
    assert np.all(product <= weak + 1e-15)

    with pytest.raises(DataError):
        soft_and(1.2, 0.5, "product")
    with pytest.raises(DataError):
        soft_and(0.5, -0.1, "weak")
    with pytest.raises(ConfigError):
        soft_and(0.5, 0.5, "min")


_unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=20))
def test_soft_and_modes_are_ordered_on_any_memberships(pairs):
    # x + y - 1 rounds once, so strong may pass product or weak by an ulp
    # (x = 1.0, y = 0.647693954369504 does); product <= weak is exact
    x, y = (np.array(column) for column in zip(*pairs))
    strong, product, weak = (soft_and(x, y, mode) for mode in ("strong", "product", "weak"))
    eps = np.finfo(np.float64).eps
    assert np.all(strong <= product + eps) and np.all(strong <= weak + eps)
    assert np.all(product <= weak)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(2, 7),
       levels=st.sampled_from([0, 1, 2, 4]))
def test_soft_confusions_are_ordered_entry_wise(seed, n, k, levels):
    # levels > 0 quantizes the rows, so memberships of exactly 0 and 1 occur
    rng = np.random.default_rng(seed)
    targets = rng.dirichlet(np.ones(k), size=n)
    predictions = rng.dirichlet(np.ones(k), size=n)
    if levels:
        targets = np.array([rng.multinomial(levels, row) for row in targets]) / levels
        predictions = np.array([rng.multinomial(levels, row) for row in predictions]) / levels
    strong, product, weak = (soft_confusion(targets, predictions, mode)
                             for mode in ("strong", "product", "weak"))
    slack = 4 * n * np.finfo(np.float64).eps  # per-pair rounding, summed over n pairs
    assert np.all(strong <= product + slack) and np.all(product <= weak + slack)


# ------------------------------------------------------------ hard metrics


def test_balanced_accuracy_averages_per_category_recall():
    targets = _one_hot([0, 0, 1, 2], k=3)
    predictions = _one_hot([0, 1, 1, 2], k=3)
    assert balanced_accuracy(targets, predictions) == pytest.approx(5.0 / 6.0)


def test_balanced_accuracy_warns_and_skips_absent_categories():
    targets = _one_hot([0, 0, 1], k=3)
    predictions = _one_hot([0, 1, 1], k=3)
    with pytest.warns(UserWarning, match="without target examples"):
        value = balanced_accuracy(targets, predictions)
    assert value == pytest.approx((0.5 + 1.0) / 2.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), one_hot=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_balanced_accuracy_is_the_per_category_recall_loop_bit_for_bit(data, n, one_hot, seed):
    k = data.draw(st.integers(2, 7), label="k")
    absent = data.draw(st.sets(st.integers(0, k - 1), max_size=k - 1), label="absent")
    present = [c for c in range(k) if c not in absent]
    rng = np.random.default_rng(seed)
    if one_hot:
        targets = _one_hot(rng.choice(present, size=n), k)
        predictions = _one_hot(rng.integers(0, k, size=n), k)
    else:
        targets = rng.dirichlet(np.ones(k), size=n)
        predictions = rng.dirichlet(np.ones(k), size=n)
        for row in targets:  # move an absent category's peak onto a present one
            top = int(np.argmax(row))
            if top in absent:
                other = rng.choice(present)
                row[top], row[other] = row[other], row[top]
    truth, guess = np.argmax(targets, axis=1), np.argmax(predictions, axis=1)
    expected = np.mean([np.mean(guess[truth == c] == c) for c in range(k) if np.any(truth == c)])
    missing = sorted(set(range(k)) - set(truth.tolist()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = balanced_accuracy(targets, predictions)
    assert value == float(expected)
    assert [str(w.message) for w in caught] == (
        [f"categories without target examples excluded from balanced accuracy: {missing}"]
        if missing else [])


def test_cross_entropy_matches_the_log_loss_formula():
    targets = _one_hot([0, 1], k=3)
    predictions = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
    expected = -(np.log(0.5) + np.log(0.8)) / 2.0
    assert cross_entropy(targets, predictions) == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_floors_vanishing_predictions():
    targets = _one_hot([0], k=3)
    predictions = np.array([[0.0, 0.5, 0.5]])
    assert cross_entropy(targets, predictions) == pytest.approx(-np.log(1e-12))


def test_confusion_matrix_counts_and_normalizes():
    targets = _one_hot([0, 0, 1, 2, 2, 2], k=3)
    predictions = _one_hot([0, 1, 1, 2, 2, 0], k=3)
    counts = confusion_matrix(targets, predictions)
    assert counts.sum() == 6
    np.testing.assert_array_equal(
        counts, [[1, 1, 0], [0, 1, 0], [1, 0, 2]]
    )
    rows = confusion_matrix(targets, predictions, normalized=True)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0)
    assert rows[2, 2] == pytest.approx(2.0 / 3.0)


def test_normalized_confusion_warns_on_empty_rows():
    targets = _one_hot([0, 1], k=3)
    predictions = _one_hot([0, 1], k=3)
    with pytest.warns(UserWarning, match="left all-zero"):
        rows = confusion_matrix(targets, predictions, normalized=True)
    assert np.all(rows[2] == 0.0)


def test_hard_metrics_match_brute_force_on_random_pairs():
    targets, predictions = builders.random_label_pairs(seed=3, n=200)
    assert balanced_accuracy(targets, predictions) == pytest.approx(
        oracles.bf_balanced_accuracy(targets, predictions), abs=1e-12
    )
    assert cross_entropy(targets, predictions) == pytest.approx(
        oracles.bf_cross_entropy(targets, predictions), abs=1e-12
    )
    np.testing.assert_array_equal(
        confusion_matrix(targets, predictions),
        oracles.bf_confusion(targets, predictions),
    )


# ------------------------------------------------------------ soft metrics


def test_soft_confusion_with_one_hot_rows_reduces_to_hard_counts():
    targets = _one_hot([0, 0, 1, 2, 2, 2], k=3)
    predictions = _one_hot([0, 1, 1, 2, 2, 0], k=3)
    hard = confusion_matrix(targets, predictions)
    for mode in ("strong", "product", "weak"):
        np.testing.assert_allclose(soft_confusion(targets, predictions, mode), hard, atol=1e-12)


def test_soft_confusion_matches_brute_force():
    targets, predictions = builders.random_label_pairs(seed=4, n=60)
    for mode in ("strong", "product", "weak"):
        np.testing.assert_allclose(
            soft_confusion(targets, predictions, mode),
            oracles.bf_soft_confusion(targets, predictions, mode),
            atol=1e-12,
        )


def test_soc_points_on_random_pairs_and_perfect_predictions():
    targets, predictions = builders.random_label_pairs(seed=5, n=80)
    for category in (0, 3, 6):
        np.testing.assert_allclose(
            soc_points(targets, predictions, category),
            oracles.bf_soc_points(targets, predictions, category),
            atol=1e-12,
        )

    perfect = _one_hot([0, 1, 2, 0, 1, 2], k=3)
    for category in range(3):
        for fpr, tpr in soc_points(perfect, perfect, category):
            assert tpr == pytest.approx(1.0)
            assert fpr == pytest.approx(0.0)

    single = _one_hot([0, 0], k=3)
    with pytest.raises(DataError):
        soc_points(single, single, 0)  # no off-category mass


def test_soc_points_checks_the_pairs_before_the_category():
    targets, predictions = builders.random_label_pairs(seed=7, n=10)
    bad = predictions.copy()
    bad[2, 0] = np.nan
    for category in (-1, 7):
        with pytest.raises(DataError, match="^predictions row 2: "):
            soc_points(targets, bad, category)
        with pytest.raises(DataError, match=f"^category {category} out of range$"):
            soc_points(targets, predictions, category)


def test_report_soc_points_equal_the_per_category_calls():
    # the report checks the pairs once and its metrics share the checked
    # set's tables; every value must be the per-metric call's own on the
    # raw arrays, bit for bit
    targets, predictions = builders.random_label_pairs(seed=6, n=120)
    report = evaluation_report(targets, predictions, MERGED_NAMES["7"])
    for category, name in enumerate(MERGED_NAMES["7"]):
        assert np.array_equal(report["soc"][name], soc_points(targets, predictions, category))
        curve = roc_curve(targets, predictions, category)
        assert np.array_equal(report["roc"][name], curve.points)
        assert report["auc"][name] == curve.auc()
    assert len(report["optimal_thresholds"]) == 2
    for criterion, entry in report["optimal_thresholds"].items():
        assert np.array_equal(entry["thresholds"],
                              optimal_thresholds(targets, predictions, criterion))
    assert report["balanced_accuracy"] == balanced_accuracy(targets, predictions)
    assert report["cross_entropy"] == cross_entropy(targets, predictions)
    assert np.array_equal(report["confusion"], confusion_matrix(targets, predictions))
    assert np.array_equal(report["confusion_normalized"],
                          confusion_matrix(targets, predictions, normalized=True))
    for mode in SOFT_AND_MODES:
        assert np.array_equal(report["soft_confusions"][mode],
                              soft_confusion(targets, predictions, mode))


def test_a_report_checks_its_pairs_once_and_sweeps_each_category_once(monkeypatch):
    calls = {"first_invalid_label": 0, "_detection_counts": 0}

    def counted(name):
        original = getattr(metrics, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(metrics, name, counted(name))
    targets, predictions = builders.random_label_pairs(seed=6, n=120)
    report = evaluation_report(targets, predictions, MERGED_NAMES["7"])
    assert "optimal_thresholds" in report and "skipped_categories" not in report
    assert calls == {"first_invalid_label": 2, "_detection_counts": 7}


def test_checked_pairs_unpack_and_pass_through_validation():
    targets, predictions = builders.random_label_pairs(seed=9, n=30)
    pairs = validate_pairs(targets, predictions)
    assert validate_pairs(pairs) is pairs
    checked_targets, checked_predictions = pairs
    assert np.array_equal(checked_targets, targets)
    assert np.array_equal(checked_predictions, predictions)
    with pytest.raises(ValueError):  # the tables the metrics share are read from these
        checked_targets[0, 0] = 0.5
    assert np.array_equal(roc_curve(pairs, None, 2).points,
                          roc_curve(targets, predictions, 2).points)


# -------------------------------------------------------------------- ROC


def test_roc_curve_on_a_hand_worked_example():
    # two positives scoring 0.9 / 0.4, two negatives scoring 0.6 / 0.1
    scores = np.array([0.9, 0.6, 0.4, 0.1])
    positive = [True, False, True, False]
    targets = _one_hot([0 if p else 1 for p in positive], k=2)
    predictions = np.stack([scores, 1.0 - scores], axis=1)

    curve = roc_curve(targets, predictions, 0)
    expected = [
        (0.0, 1.0, 1.0),
        (0.1, 1.0, 1.0),
        (0.4, 0.5, 1.0),
        (0.6, 0.5, 0.5),
        (0.9, 0.0, 0.5),
        (1.0 + 1e-9, 0.0, 0.0),
    ]
    assert len(curve.points) == len(expected)
    for got, want in zip(curve.points, expected):
        assert got == pytest.approx(want, abs=1e-12)
    # 3 of the 4 positive/negative score pairs are correctly ordered
    assert curve.auc() == pytest.approx(0.75, abs=1e-12)
    assert curve.category == 0


def test_roc_curve_matches_brute_force():
    targets, predictions = builders.random_label_pairs(seed=6, n=150)
    for category in (0, 2, 6):
        curve = roc_curve(targets, predictions, category)
        reference = oracles.bf_roc_points(targets, predictions, category)
        assert len(curve.points) == len(reference)
        for got, want in zip(curve.points, reference):
            assert got == pytest.approx(want, abs=1e-12)


#: Prediction rows with many shared values, exact 0.0 and 1.0 among them,
#: and a last category that always scores 0.0 (the everything-detected
#: threshold itself), so its sweep has a single distinct score.
_TIED_ROWS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0],
    [0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.0, 0.25, 0.25, 0.0],
    [0.125, 0.125, 0.125, 0.125, 0.25, 0.25, 0.0],
    [0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0],
])


def _tied_pairs(seed: int, n: int):
    rng = np.random.default_rng(seed)
    categories = np.concatenate([np.arange(7), rng.integers(0, 7, size=n - 7)])
    predictions = _TIED_ROWS[rng.integers(0, len(_TIED_ROWS), size=n)]
    return _one_hot(categories), predictions


@pytest.mark.parametrize("seed", [0, 1])
def test_roc_and_thresholds_match_brute_force_on_tied_scores(seed):
    targets, predictions = _tied_pairs(seed, n=300)
    assert np.unique(predictions[:, 6]).tolist() == [0.0]
    for category in range(7):
        curve = roc_curve(targets, predictions, category)
        assert np.array_equal(curve.points, oracles.bf_roc_points(targets, predictions, category))
    assert len(roc_curve(targets, predictions, 6).points) == 2
    for criterion in ("f1", "accuracy"):
        result = optimal_thresholds(targets, predictions, criterion=criterion)
        for category in range(7):
            _, theta = oracles.bf_best_threshold(targets, predictions, category, criterion)
            assert result[category] == theta


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    k=st.integers(2, 5),
    levels=st.sampled_from([0, 1, 2, 4, 16]),
)
def test_roc_sweep_is_monotone_and_thresholds_are_candidates(seed, n, k, levels):
    # levels > 0 quantizes each prediction row to multiples of 1/levels, so
    # scores tie and hit 0.0 and 1.0 exactly; 0 keeps continuous rows
    rng = np.random.default_rng(seed)
    n = max(n, k)
    categories = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    targets = _one_hot(categories, k=k)
    predictions = rng.dirichlet(np.ones(k), size=n)
    if levels:
        predictions = np.array([rng.multinomial(levels, row) for row in predictions]) / levels
    candidates = {}
    for category in range(k):
        points = roc_curve(targets, predictions, category).points
        thresholds, fprs, tprs = points.T
        assert np.all(np.diff(thresholds) > 0)
        assert np.all(np.diff(fprs) <= 0) and np.all(np.diff(tprs) <= 0)
        assert np.array_equal(points[0], (0.0, 1.0, 1.0))
        assert np.array_equal(points[-1], (ABOVE_MAX, 0.0, 0.0))
        candidates[category] = set(thresholds.tolist()) | {1.0}
    for criterion in ("f1", "accuracy"):
        result = optimal_thresholds(targets, predictions, criterion=criterion)
        for category in range(k):
            assert result[category] in candidates[category]


def test_evaluation_report_scales_to_32000_pairs():
    # the sorted sweep is O(n log n); a per-threshold rescan needs minutes here
    targets, predictions = builders.random_label_pairs(seed=9, n=32000)
    started = time.perf_counter()
    report = evaluation_report(targets, predictions, MERGED_NAMES["7"])
    assert time.perf_counter() - started < 30.0
    assert set(report["optimal_thresholds"]) == {"f1", "accuracy"}
    for points in report["roc"].values():
        assert len(points) == 32000 + 2  # continuous scores: all distinct


def _label_rows(rng, n, support, levels, scale):
    """Dirichlet rows on a random support of ``support`` categories (exact
    zeros elsewhere), quantized to multiples of 1/levels when levels > 0,
    then scaled by ``scale``, a factor within the label sum tolerance."""
    rows = np.zeros((n, 7))
    for row in rows:
        keep = rng.choice(7, size=support, replace=False)
        row[keep] = rng.dirichlet(np.ones(support))
        if levels:
            row[:] = rng.multinomial(levels, row) / levels
    return rows * scale


#: The reasons ``evaluation_report`` gives under ``skipped_categories``.
_SKIP_REASON = r"(ROC for category \d+ undefined: no (positive|negative) examples" \
               r"|SOC point for category \d+ undefined under '\w+': zero confusion mass)"


_SCALES = st.sampled_from([1.0, 1.0 + LABEL_SUM_TOL / 2, 1.0 - LABEL_SUM_TOL / 2])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), support=st.integers(1, 7),
       levels=st.sampled_from([0, 1, 2, 4, 16]), scales=st.tuples(_SCALES, _SCALES))
def test_every_valid_pair_set_gives_a_report_at_every_class_count(seed, n, support, levels,
                                                                   scales):
    # exact zeros, ties, entries of exactly 1 and merged sums that round
    # above 1 are all valid labels; a report may skip a category only for
    # the documented reasons, and every ROC table ends detecting nothing
    rng = np.random.default_rng(seed)
    targets, predictions = (_label_rows(rng, n, support, levels, scale) for scale in scales)
    assert first_invalid_label(targets) is None and first_invalid_label(predictions) is None
    for classes, names in MERGED_NAMES.items():
        scheme = MERGE_SCHEMES[classes]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # categories without examples
            report = evaluation_report(merge_classes(targets, scheme),
                                       merge_classes(predictions, scheme), names)
        skipped = report.get("skipped_categories", {})
        assert set(report["roc"]) == set(report["soc"]) == set(names) - set(skipped)
        assert ("optimal_thresholds" in report) == (not skipped)
        for reason in skipped.values():
            assert re.fullmatch(_SKIP_REASON, reason), reason
        for table in report["roc"].values():
            assert np.array_equal(table[0], (0.0, 1.0, 1.0))
            assert np.array_equal(table[-1], (ABOVE_MAX, 0.0, 0.0))


def test_roc_curve_needs_both_classes():
    targets = _one_hot([0, 0], k=3)
    predictions = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(DataError):
        roc_curve(targets, predictions, 0)  # no negatives
    with pytest.raises(DataError):
        roc_curve(targets, predictions, 1)  # no positives
    with pytest.raises(DataError):
        roc_curve(targets, predictions, 5)


# ------------------------------------------------------------- F1 helpers


def test_f1_score_formula_and_edges():
    assert f1_score(0.5, 1.0) == pytest.approx(2.0 / 3.0)
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    with pytest.raises(DataError):
        f1_score(1.2, 0.5)
    with pytest.raises(DataError):
        f1_score(0.5, -0.1)
    with pytest.raises(DataError):
        f1_score(np.nan, 0.5)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0/0 is masked, not warned about
        values = f1_score(np.array([0.5, 0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0, 0.5]))
    assert values.tolist() == [f1_score(0.5, 1.0), 0.0, 1.0, 0.0]
    with pytest.raises(DataError):
        f1_score(np.array([0.5, np.nan]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("prevalence", [0.5])  # the balanced locus f1_isometric draws
@pytest.mark.parametrize("level", [0.25, 0.6, 0.9])
def test_f1_isometric_points_reproduce_their_level(level, prevalence):
    fpr = np.linspace(0.0, 1.0, 11)
    tpr = f1_isometric(level, fpr)
    mask = tpr <= 1.0  # attainable part of the locus
    assert np.any(mask)
    recall = tpr[mask]
    pos = prevalence * recall
    fp = (1.0 - prevalence) * fpr[mask]
    precision = pos / (pos + fp)
    f1 = 2.0 * precision * recall / (precision + recall)
    np.testing.assert_allclose(f1, level, atol=1e-12)


def test_f1_isometric_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        f1_isometric(0.0, [0.5])
    with pytest.raises(ConfigError):
        f1_isometric(2.0, [0.5])


# --------------------------------------------------------------- thresholds


@pytest.mark.parametrize("criterion", ["f1", "accuracy"])
def test_optimal_thresholds_match_brute_force(criterion):
    targets, predictions = builders.random_label_pairs(seed=7, n=120)
    result = optimal_thresholds(targets, predictions, criterion=criterion)
    assert result.shape == (7,) and result.dtype == np.float64
    for category in range(7):
        _, theta = oracles.bf_best_threshold(targets, predictions, category, criterion)
        assert result[category] == pytest.approx(theta, abs=1e-12)
    report = evaluation_report(targets, predictions, MERGED_NAMES["7"])
    entry = report["optimal_thresholds"][criterion]
    assert entry.keys() == {"thresholds", "provenance"}
    assert np.array_equal(entry["thresholds"], result)
    assert entry["provenance"] == f"optimized:{criterion}"


def test_optimal_thresholds_break_ties_upward_and_clamp_to_one():
    # every candidate threshold scores the same accuracy, so the sweep
    # settles on the above-all sentinel and stores it clamped to 1.0
    targets = _one_hot([0, 1], k=2)
    predictions = np.array([[0.1, 0.9], [0.9, 0.1]])
    result = optimal_thresholds(targets, predictions, criterion="accuracy")
    assert result[0] == 1.0

    with pytest.raises(ConfigError):
        optimal_thresholds(targets, predictions, criterion="gini")


def test_detect_multilabel_with_the_tuned_thresholds():
    label = np.array([0.71, 0.04, 0.03, 0.01, 0.01, 0.02, 0.18])
    detected = detect_multilabel(label, TRAINING_ACCURACY_THRESHOLDS)
    assert detected == {"Brain", "Other"}

    vector = np.array(TRAINING_ACCURACY_THRESHOLDS)
    assert detect_multilabel(label, vector) == {"Brain", "Other"}

    nothing = detect_multilabel(np.full(7, 0.01), TRAINING_ACCURACY_THRESHOLDS)
    assert nothing == set()

    with pytest.raises(DataError):
        detect_multilabel(np.full(5, 0.2), TRAINING_ACCURACY_THRESHOLDS)


def test_detect_multilabel_names_merged_categories():
    names = ("Brain", "Muscle", "Eye", "Heart", "Other")
    label = np.array([0.30, 0.05, 0.05, 0.10, 0.50])
    assert detect_multilabel(label, np.full(5, 0.25), names) == {"Brain", "Other"}
    assert detect_multilabel(label[[0, 4]], [0.5, 0.5], ("Brain", "Other")) == {"Other"}
    with pytest.raises(DataError, match="expects 4 categories"):
        detect_multilabel(label, np.full(5, 0.25), names[:4])


# ----------------------------------------------------------------- merging


def test_merging_can_flip_the_argmax():
    label = np.array([0.45, 0.4, 0.15])
    merged = merge_classes(label, ((0,), (1, 2)))
    np.testing.assert_allclose(merged, [0.45, 0.55], atol=1e-12)
    assert np.argmax(label) == 0
    assert np.argmax(merged) == 1


def test_named_merge_schemes():
    label = np.array([0.3, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1])
    five = merge_classes(label, MERGE_SCHEMES["5"])
    np.testing.assert_allclose(five, [0.3, 0.1, 0.1, 0.1, 0.4], atol=1e-15)
    two = merge_classes(label, MERGE_SCHEMES["2"])
    np.testing.assert_allclose(two, [0.3, 0.7], atol=1e-15)
    assert MERGE_SCHEMES["5"] == ((0,), (1,), (2,), (3,), (4, 5, 6))
    assert MERGE_SCHEMES["2"] == ((0,), (1, 2, 3, 4, 5, 6))
    for classes, groups in MERGE_SCHEMES.items():
        assert len(groups) == len(MERGED_NAMES[classes]) == int(classes)


def test_merge_conserves_mass_and_validates_partitions():
    rng = np.random.default_rng(8)
    label = rng.dirichlet(np.ones(7))
    merged = merge_classes(label, MERGE_SCHEMES["5"])
    assert merged.sum() == pytest.approx(label.sum(), abs=1e-12)

    with pytest.raises(ConfigError):
        merge_classes(label, ((0, 1), (1, 2, 3, 4, 5, 6)))  # overlap
    with pytest.raises(ConfigError):
        merge_classes(label, ((0,), (1, 2)))  # missing indices

    stack = rng.dirichlet(np.ones(7), size=6)
    merged = merge_classes(stack, MERGE_SCHEMES["5"])
    assert merged.shape == (6, 5)
    for row, merged_row in zip(stack, merged):
        assert merged_row.tobytes() == merge_classes(row, MERGE_SCHEMES["5"]).tobytes()
        assert merged_row.sum() == pytest.approx(row.sum(), abs=1e-12)
    with pytest.raises(DataError):
        merge_classes(stack[None], MERGE_SCHEMES["5"])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), classes=st.sampled_from(["5", "2"]),
       concentration=st.sampled_from([0.05, 1.0, 20.0]))
def test_merge_conserves_each_rows_mass(seed, n, classes, concentration):
    stack = np.random.default_rng(seed).dirichlet(np.full(7, concentration), size=n)
    merged = merge_classes(stack, MERGE_SCHEMES[classes])
    assert merged.shape == (n, int(classes))
    assert np.all(merged >= 0)
    np.testing.assert_allclose(merged.sum(axis=1), stack.sum(axis=1), rtol=0, atol=1e-15)


# ------------------------------------------------------------------- plots


def _reference_polyline(panel, fprs, tprs, style):
    """The plot's polyline written one f-string per point."""
    points = " ".join(f"{panel.x0 + f*200:.2f},{panel.y0 + (1 - t)*200:.2f}"
                      for f, t in zip(fprs, tprs))
    return f'<polyline fill="none" {style} points="{points}"/>'


def _curve_maps(seed):
    """Random ROC and SOC maps with an empty curve, a one-point curve, points
    whose pixels end in .xx5 and curves given as NumPy arrays."""
    rng = np.random.default_rng(seed)
    # fractions whose pixels end in .xx5: exactly for k / 1600, to the nearest
    # double for (k + 0.5) / 20000
    halves = np.concatenate([np.arange(1601) / 1600, (np.arange(20000) + 0.5) / 20000])
    roc, soc = {}, {}
    for index, name in enumerate(MERGED_NAMES["7"]):
        n = int(rng.integers(2, 40))
        points = np.column_stack([rng.random(n), rng.random(n), rng.random(n)])
        if index == 0:
            points = points[:0]
        elif index == 1:
            points = points[:1]
        elif index == 2:
            points[:, 1:] = rng.choice(halves, size=(n, 2))
        roc[name] = points if index in (3, 4) else points.tolist()
        triple = rng.choice(halves, size=(3, 2)) if index == 5 else rng.random((3, 2))
        soc[name] = triple if index == 4 else triple.tolist()
    del roc[MERGED_NAMES["7"][6]]  # a category with SOC points only
    return roc, soc


@pytest.mark.parametrize("seed", range(4))
def test_evaluation_svg_matches_one_f_string_per_point(monkeypatch, seed):
    roc, soc = _curve_maps(seed)
    svg = plots.evaluation_svg(roc, soc, title="7-class evaluation")
    monkeypatch.setattr(plots._Panel, "polyline", _reference_polyline)
    assert svg == plots.evaluation_svg(roc, soc, title="7-class evaluation")
    assert "points=\"\"" in svg  # the empty curve


def test_evaluation_svg_draws_tied_fprs_in_table_order():
    # the ROC table is ordered by a stable argsort of its FPR column, which
    # keeps the order sorted(rows, key=fpr) gives rows with equal FPRs
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.random(200), rng.integers(0, 5, 200) / 4, rng.random(200)])
    rows = sorted(table.tolist(), key=lambda p: p[1])
    expected = _reference_polyline(plots._Panel(46, 46), [p[1] for p in rows],
                                   [p[2] for p in rows], 'stroke="#c62828" stroke-width="1.5"')
    assert expected in plots.evaluation_svg({"Brain": table}, {})
