"""Optimizer arithmetic, batch sampling, and the training loop."""

import numpy as np
import pytest

import builders
from icsort.errors import ConfigError, NumericError
from icsort.network import (
    LAYER_ORDER,
    Adam,
    TrainConfig,
    initialize_weights,
    train,
)
from icsort.network.training import _expand_orbit, sample_batch


def _unit_grads(weights, value=1.0):
    kernels = {n: np.full_like(weights.kernels[n], value, dtype=np.float64)
               for n in LAYER_ORDER}
    biases = {n: np.full_like(weights.biases[n], value, dtype=np.float64)
              for n in LAYER_ORDER}
    return kernels, biases


def _random_labels(n, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(7), size=n)


# ------------------------------------------------------------------ config


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(class_weights=(1.0, 1.0))
    with pytest.raises(ConfigError):
        TrainConfig(val_interval=0)
    with pytest.raises(ConfigError):
        TrainConfig(early_stop_window=0)


# -------------------------------------------------------------------- adam


def test_adam_first_two_steps_match_the_closed_form():
    config = TrainConfig(learning_rate=3e-4, clip_norm=1e9)
    optimizer = Adam(config)
    weights = initialize_weights(seed=0).astype(np.float64)
    before = {n: weights.kernels[n].copy() for n in LAYER_ORDER}

    lr, b1, b2, eps = 3e-4, 0.5, 0.999, 1e-8

    optimizer.step(weights, *_unit_grads(weights))
    m1, v1 = (1 - b1), (1 - b2)
    step1 = lr * np.sqrt(1 - b2) / (1 - b1) * m1 / (np.sqrt(v1) + eps)
    for name in LAYER_ORDER:
        delta = weights.kernels[name] - before[name]
        assert np.allclose(delta, -step1, atol=1e-15)

    optimizer.step(weights, *_unit_grads(weights))
    m2 = b1 * m1 + (1 - b1)
    v2 = b2 * v1 + (1 - b2)
    step2 = lr * np.sqrt(1 - b2**2) / (1 - b1**2) * m2 / (np.sqrt(v2) + eps)
    for name in LAYER_ORDER:
        delta = weights.kernels[name] - before[name]
        assert np.allclose(delta, -(step1 + step2), atol=1e-15)


def test_adam_keeps_float32_weights_float32():
    weights = initialize_weights(seed=1)
    optimizer = Adam(TrainConfig())
    kernels, biases = _unit_grads(weights, value=0.001)
    optimizer.step(weights, kernels, biases)
    for name in LAYER_ORDER:
        assert weights.kernels[name].dtype == np.float32
        assert weights.biases[name].dtype == np.float32


def test_adam_updates_the_weights_in_place_with_the_out_of_place_bits():
    config = TrainConfig()
    weights = initialize_weights(seed=4)
    arrays = {n: weights.kernels[n] for n in LAYER_ORDER}
    rng = np.random.default_rng(4)
    kernels = {n: rng.normal(0.0, 1e-3, weights.kernels[n].shape).astype(np.float32)
               for n in LAYER_ORDER}
    biases = {n: np.zeros_like(weights.biases[n]) for n in LAYER_ORDER}
    expect = {}
    step_size = float(config.learning_rate * np.sqrt(1.0 - config.beta2) / (1.0 - config.beta1))
    for name in LAYER_ORDER:  # the first step from zero moments, written out of place
        g = kernels[name]
        m = np.zeros_like(g) * config.beta1 + (1.0 - config.beta1) * g
        v = np.zeros_like(g) * config.beta2 + (1.0 - config.beta2) * np.square(g)
        expect[name] = weights.kernels[name] - step_size * m / (np.sqrt(v) + config.epsilon)
    Adam(config).step(weights, kernels, biases)
    for name in LAYER_ORDER:
        assert weights.kernels[name] is arrays[name]
        assert np.array_equal(weights.kernels[name], expect[name])


def test_gradient_clipping_rescales_to_the_global_norm_ceiling():
    eps = 1e-8
    config = TrainConfig(clip_norm=20.0, learning_rate=1.0, epsilon=eps)
    weights = initialize_weights(seed=2).astype(np.float64)

    # all-zero gradients except one entry of 40: global norm 40 -> halved
    kernels, biases = _unit_grads(weights, value=0.0)
    kernels["out"] = kernels["out"].copy()
    kernels["out"].flat[0] = 40.0
    before = weights.kernels["out"].flat[0]
    optimizer = Adam(config)
    optimizer.step(weights, kernels, biases)
    # after clipping g = 20; m/(sqrt(v)+eps) is nearly independent of |g|,
    # so the applied step is the bias-corrected learning rate
    expect = 1.0 * np.sqrt(1 - 0.999) / (1 - 0.5) * 0.5 * 20.0 / (np.sqrt(0.001 * 400.0) + eps)
    assert weights.kernels["out"].flat[0] == pytest.approx(before - expect, abs=1e-12)

    # a below-ceiling gradient is left untouched
    config = TrainConfig(clip_norm=20.0)
    optimizer = Adam(config)
    kernels, biases = _unit_grads(weights, value=0.0)
    kernels["out"] = kernels["out"].copy()
    kernels["out"].flat[0] = 10.0
    optimizer._clip(kernels, biases)
    assert kernels["out"].flat[0] == 10.0


def test_adam_rejects_non_finite_gradients():
    weights = initialize_weights(seed=3)
    optimizer = Adam(TrainConfig())
    kernels, biases = _unit_grads(weights, value=0.0)
    kernels["psd1"] = kernels["psd1"].copy()
    kernels["psd1"].flat[0] = np.inf
    with pytest.raises(NumericError):
        optimizer.step(weights, kernels, biases)


# --------------------------------------------------------------- sampling


def test_sample_batch_balances_present_categories():
    labels = np.zeros((111, 7))
    labels[:100, 0] = 1.0   # plentiful
    labels[100:110, 3] = 1.0  # scarce
    labels[110:, 6] = 1.0   # a single example
    hard = np.argmax(labels, axis=1)
    pools = [np.flatnonzero(hard == k) for k in range(7) if np.any(hard == k)]

    rng = np.random.default_rng(0)
    draws = np.concatenate([sample_batch(rng, pools, 128) for _ in range(50)])
    drawn_cats = hard[draws]
    counts = np.bincount(drawn_cats, minlength=7)
    # absent categories are never drawn
    assert counts[1] == counts[2] == counts[4] == counts[5] == 0
    # present ones are drawn equally often regardless of pool size
    total = len(draws)
    for cat in (0, 3, 6):
        assert counts[cat] == pytest.approx(total / 3, rel=0.1)
    # members within a category are uniform too
    scarce_draws = draws[(draws >= 100) & (draws < 110)]
    member_counts = np.bincount(scarce_draws - 100, minlength=10)
    assert member_counts.min() > 0.5 * member_counts.mean()


def test_orbit_expansion_quadruples_the_set():
    stack = builders.random_stack(3, seed=4)
    labels = _random_labels(3, seed=4)
    big, big_labels = _expand_orbit(stack, labels)
    assert len(big) == 12
    assert big_labels.shape == (12, 7)
    assert np.array_equal(big.topo[0:3], stack.topo)
    assert np.array_equal(big.topo[3:6], stack.topo[:, :, ::-1])
    assert np.array_equal(big.topo[6:9], -stack.topo)
    assert np.array_equal(big.topo[9:12], -stack.topo[:, :, ::-1])
    assert np.array_equal(big.psd[3:6], stack.psd)
    for q in range(4):
        assert np.array_equal(big_labels[3 * q : 3 * q + 3], labels)


# ---------------------------------------------------------------- training


def _tiny_config(**overrides):
    base = dict(
        batch_size=8,
        val_interval=2,
        early_stop_window=1000,
        max_batches=4,
        noise_sigma=0.05,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_training_is_deterministic_per_seed():
    stack = builders.random_stack(12, seed=5)
    labels = _random_labels(12, seed=5)
    val_stack = builders.random_stack(6, seed=6)
    val_labels = _random_labels(6, seed=6)

    runs = [
        train(stack, labels, _tiny_config(), val_stack, val_labels, seed=5)
        for _ in range(2)
    ]
    other = train(stack, labels, _tiny_config(), val_stack, val_labels, seed=6)
    for name in LAYER_ORDER:
        assert np.array_equal(runs[0].weights.kernels[name], runs[1].weights.kernels[name])
        assert np.array_equal(runs[0].weights.biases[name], runs[1].weights.biases[name])
    # nan-aware tuple comparison: the batch-0 entry has no train loss
    assert len(runs[0].history) == len(runs[1].history)
    for left, right in zip(runs[0].history, runs[1].history):
        assert left[0] == right[0]
        np.testing.assert_array_equal(left[1:], right[1:])
    assert any(
        not np.array_equal(runs[0].weights.kernels[name], other.weights.kernels[name])
        for name in LAYER_ORDER
    )


def test_training_history_follows_the_validation_cadence():
    stack = builders.random_stack(12, seed=7)
    labels = _random_labels(12, seed=7)
    val_stack = builders.random_stack(6, seed=8)
    val_labels = _random_labels(6, seed=8)

    lines = []
    result = train(
        stack, labels, _tiny_config(max_batches=6), val_stack, val_labels,
        seed=7, log=lines.append,
    )
    assert [entry[0] for entry in result.history] == [0, 2, 4, 6]
    assert np.isnan(result.history[0][1])  # no train loss before batch 1
    assert all(np.isfinite(entry[2]) for entry in result.history)
    assert result.batches_run == 6
    assert not result.stopped_early
    assert len(lines) == 3 and all("validation loss" in line for line in lines)
    assert result.best_batch in (0, 2, 4, 6)
    assert result.seconds > 0


def test_early_stopping_fires_when_validation_stalls():
    # uniform validation targets are best matched by the near-uniform
    # initial predictions, so training away from them never improves the
    # validation loss and the window closes at the first check
    stack = builders.random_stack(12, seed=9)
    labels = np.eye(7)[np.random.default_rng(9).integers(0, 7, 12)]
    val_stack = builders.random_stack(6, seed=10)
    val_labels = np.full((6, 7), 1.0 / 7.0)

    config = _tiny_config(val_interval=5, early_stop_window=5, max_batches=50)
    result = train(stack, labels, config, val_stack, val_labels, seed=9)
    assert result.stopped_early
    assert result.batches_run < 50
    assert result.best_batch == 0
    # the returned weights are the best checkpoint, not the last state
    fresh = initialize_weights(seed=9)
    for name in LAYER_ORDER:
        assert np.array_equal(result.weights.kernels[name], fresh.kernels[name])


def test_training_diverges_loudly_without_clipping():
    stack = builders.random_stack(12, seed=11)
    labels = _random_labels(12, seed=11)
    config = _tiny_config(
        learning_rate=1e5, clip_norm=None, max_batches=30, noise_sigma=0.0
    )
    # the runaway step overflows float32 on purpose; that is the signal
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        train(stack, labels, config, seed=11)


def test_training_without_validation_needs_a_batch_limit():
    stack = builders.random_stack(8, seed=12)
    labels = _random_labels(8, seed=12)
    with pytest.raises(ConfigError):
        train(stack, labels, TrainConfig(), seed=12)
    result = train(stack, labels, _tiny_config(max_batches=2), seed=12)
    assert result.batches_run == 2
    assert np.isnan(result.best_val_loss)


def test_training_rejects_mismatched_labels():
    stack = builders.random_stack(8, seed=13)
    with pytest.raises(ConfigError):
        train(stack, _random_labels(5, seed=13), _tiny_config(), seed=13)


def test_training_can_resume_from_given_weights():
    stack = builders.random_stack(8, seed=14)
    labels = _random_labels(8, seed=14)
    start = initialize_weights(seed=99)
    result = train(
        stack, labels, _tiny_config(max_batches=1), seed=14, initial_weights=start
    )
    # the starting point was used (not a fresh seed-14 initialization) and
    # the caller's copy was not mutated
    fresh = initialize_weights(seed=99)
    for name in LAYER_ORDER:
        assert np.array_equal(start.kernels[name], fresh.kernels[name])
    assert any(
        not np.array_equal(result.weights.kernels[name], start.kernels[name])
        for name in LAYER_ORDER
    )
