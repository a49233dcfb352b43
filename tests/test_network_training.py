"""Optimizer arithmetic, batch sampling, and the training loop."""

import dataclasses
import tracemalloc
import typing
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from icsort.features import TOPOGRAPHY_ORBIT, FeatureStack
from icsort.errors import ConfigError, NumericError
from icsort.network import (
    LAYER_ORDER,
    Adam,
    TrainConfig,
    initialize_weights,
    train,
)
from icsort.network import model, training
from icsort.network.training import _category_pools, _expand_orbit, sample_batch


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


_COUNT_FIELDS = [name for name, hint in typing.get_type_hints(TrainConfig).items()
                 if int in (hint, *typing.get_args(hint))]


def test_the_count_fields_are_the_int_fields_of_the_train_config():
    assert _COUNT_FIELDS == ["batch_size", "val_interval", "early_stop_window", "max_batches"]


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("field", _COUNT_FIELDS)
def test_train_config_rejects_each_count_below_one(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})
    assert getattr(TrainConfig(**{field: 1}), field) == 1


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


def test_adam_names_the_first_layer_whose_gradient_is_not_finite():
    weights = initialize_weights(seed=3)
    kernels, biases = _unit_grads(weights, value=0.0)
    biases["acf1"] = biases["acf1"].copy()
    biases["acf1"][0] = np.nan
    kernels["out"] = kernels["out"].copy()
    kernels["out"].flat[0] = np.inf
    with pytest.raises(NumericError, match="^gradients of layer 'acf1' are non-finite"):
        Adam(TrainConfig()).step(weights, kernels, biases)


def test_adam_reports_an_overflowing_moment_without_a_warning():
    # without a clip a 1e20 gradient passes the norm check, and its float32
    # square overflows; the moments' check reports it, numpy does not warn
    weights = initialize_weights(seed=3)
    kernels, biases = _unit_grads(weights, value=0.0)
    kernels["topo1"] = kernels["topo1"].copy()
    kernels["topo1"].flat[0] = 1e20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="^optimizer state for 'topo1' overflowed"):
            Adam(TrainConfig(clip_norm=np.inf)).step(weights, kernels, biases)


def test_adam_reports_an_overflowing_update_without_a_warning():
    # a 1e12 gradient's moments stay finite, but at a 1e30 learning rate the
    # float32 update overflows; the step names the layer, numpy does not warn
    weights = initialize_weights(seed=3)
    kernels, biases = _unit_grads(weights, value=0.0)
    kernels["topo1"] = np.full_like(kernels["topo1"], 1e12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="^update of layer 'topo1' made its weights"):
            Adam(TrainConfig(learning_rate=1e30, clip_norm=np.inf)).step(weights, kernels,
                                                                         biases)


def test_training_reports_an_overflowing_last_step():
    # the run ends before a validation would read the overflowed weights
    stack = builders.random_stack(8, seed=26)
    config = _tiny_config(learning_rate=1e300, max_batches=1, val_interval=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="^update of layer '\\w+' made its weights"):
            train(stack, _random_labels(8, seed=26), config, *_val_set(26), seed=26)


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
    rows = (stack.topo, stack.psd, stack.autocorr)
    topo, psd, _, big_labels = _expand_orbit(np.arange(12), rows, labels)
    assert len(topo) == 12
    assert big_labels.shape == (12, 7)
    assert np.array_equal(topo[0:3], stack.topo)
    assert np.array_equal(topo[3:6], stack.topo[:, :, ::-1])
    assert np.array_equal(topo[6:9], -stack.topo)
    assert np.array_equal(topo[9:12], -stack.topo[:, :, ::-1])
    assert np.array_equal(psd[3:6], stack.psd)
    for q in range(4):
        assert np.array_equal(big_labels[3 * q : 3 * q + 3], labels)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_orbit_gather_has_the_bits_of_the_materialized_orbit(dtype):
    # the batch rows are gathered from one float32 copy and mirrored and
    # negated afterwards; both are exact, so they match the whole orbit
    # built in the input dtype and cast, bit for bit (signed zeros too)
    stack = builders.random_stack(9, seed=16)
    topo = stack.topo.astype(dtype) * np.float64(1.0 / 3.0).astype(dtype)
    topo[:, 0, :] = -0.0
    psd, acf = (np.asarray(a, dtype=dtype) / 7 for a in (stack.psd, stack.autocorr))
    labels = _random_labels(9, seed=16)
    reference = oracles.materialized_orbit(topo, psd, acf, labels)
    rows = tuple(a.astype(np.float32) for a in (topo, psd, acf))
    idx = np.random.default_rng(16).integers(0, 9 * len(TOPOGRAPHY_ORBIT), size=50)
    for got, want in zip(_expand_orbit(idx, rows, labels), reference):
        assert got.dtype == want.dtype
        assert got.tobytes() == want[idx].tobytes()


def test_category_pools_index_the_repeated_labels():
    labels = np.eye(7)[np.random.default_rng(17).choice([0, 2, 3, 6], size=30)]
    hard = np.argmax(np.concatenate([labels] * len(TOPOGRAPHY_ORBIT)), axis=1)
    expected = [np.flatnonzero(hard == k) for k in range(7) if np.any(hard == k)]
    pools = _category_pools(labels)
    assert len(pools) == len(expected) == 4
    for got, want in zip(pools, expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)


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

    result = train(stack, labels, _tiny_config(max_batches=6), val_stack, val_labels, seed=7)
    assert [entry[0] for entry in result.history] == [0, 2, 4, 6]
    assert np.isnan(result.history[0][1])  # no train loss before batch 1
    assert all(np.isfinite(entry[2]) for entry in result.history)
    assert result.batches_run == 6
    assert not result.stopped_early
    assert result.best_batch in (0, 2, 4, 6)


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


def _val_set(seed):
    """A small held-out set for runs that do not look at validation."""
    return builders.random_stack(4, seed=seed), _random_labels(4, seed=seed)


def test_training_diverges_loudly_without_clipping():
    stack = builders.random_stack(12, seed=11)
    labels = _random_labels(12, seed=11)
    config = _tiny_config(
        learning_rate=1e5, clip_norm=np.inf, max_batches=30, noise_sigma=0.0
    )
    # the runaway step overflows float32 on purpose; that is the signal
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        train(stack, labels, config, *_val_set(11), seed=11)


def test_training_rejects_mismatched_labels():
    stack = builders.random_stack(8, seed=13)
    with pytest.raises(ConfigError):
        train(stack, _random_labels(5, seed=13), _tiny_config(), *_val_set(13), seed=13)


def _traced_peak(n: int) -> int:
    stack, labels = builders.toy_dataset(n, seed=18)
    stack = FeatureStack(*(a.astype(np.float64) for a in (stack.topo, stack.psd, stack.autocorr)))
    config = TrainConfig(batch_size=8, max_batches=1)
    val_stack, val_labels = _val_set(18)
    tracemalloc.start()
    try:
        train(stack, labels, config, val_stack, val_labels, seed=18)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_grows_with_one_float32_copy_of_the_set():
    # the orbit is drawn per batch, so a float64 stack costs one float32
    # copy of its rows, not the four-fold orbit in both dtypes
    example_bytes = 4 * (32 * 32 + 100 + 100)
    growth = _traced_peak(3000) - _traced_peak(1000)
    assert growth <= 2 * example_bytes * 2000


def test_training_frees_each_step_before_the_next(monkeypatch):
    # the second forward_backward must not start while the first step's
    # gradients are still referenced
    first, alive_at_second = [], []
    inner = training.forward_backward

    def recording(*args):
        if first:
            alive_at_second.extend(ref() is not None for ref in first)
        result = inner(*args)
        if not first:
            first.extend(weakref.ref(g) for grads in result[1:3] for g in grads.values())
            first.append(weakref.ref(result[3]))
            first.extend(weakref.ref(a) for a in args[1:5])
        return result

    monkeypatch.setattr(training, "forward_backward", recording)
    stack = builders.random_stack(8, seed=19)
    train(stack, _random_labels(8, seed=19), _tiny_config(max_batches=2), *_val_set(19),
          seed=19)
    assert first and len(alive_at_second) == len(first)
    assert not any(alive_at_second)


def _names_a_layer_or_an_option(message: str) -> bool:
    options = [field.name for field in dataclasses.fields(TrainConfig)]
    return any(f"'{name}'" in message for name in LAYER_ORDER) or any(
        message.startswith(f"{name} ") for name in options)


@settings(max_examples=30, deadline=None)
@given(
    learning_rate=st.floats(-8, 30).map(lambda exponent: 10.0 ** exponent),
    clip_norm=st.sampled_from([0.0, 1e-3, 20.0, np.inf]),
    noise_sigma=st.one_of(st.just(0.0), st.floats(0, 1e3)),
    class_weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=7, max_size=7),
    scale=st.floats(1, 1e3),
    seed=st.integers(0, 3),
)
def test_training_ends_with_finite_weights_or_one_named_error(learning_rate, clip_norm,
                                                              noise_sigma, class_weights,
                                                              scale, seed):
    stack, labels = builders.toy_dataset(16, seed=seed)
    stack = FeatureStack(*(scale * a for a in (stack.topo, stack.psd, stack.autocorr)))
    config = TrainConfig(batch_size=4, learning_rate=learning_rate, clip_norm=clip_norm,
                         noise_sigma=noise_sigma, class_weights=tuple(class_weights),
                         val_interval=2, max_batches=3)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(model, "LOWERING_CACHE_LIMIT", 0)  # every 2-D layer lowers again by rows
        warnings.simplefilter("error")  # no RuntimeWarning may reach a user's stderr
        try:
            result = train(stack.subset(range(12)), labels[:12], config,
                           stack.subset(range(12, 16)), labels[12:], seed=seed)
        except (NumericError, ConfigError) as exc:
            assert _names_a_layer_or_an_option(str(exc)), str(exc)
            return
    for store in (result.weights.kernels, result.weights.biases):
        assert all(np.all(np.isfinite(store[name])) for name in LAYER_ORDER)
