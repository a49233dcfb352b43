"""Network architecture, convolution primitives, gradients, weight files."""

import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import builders
import oracles
from icsort.errors import ConfigError, DataError, NumericError
from icsort.features import TOPOGRAPHY_ORBIT, orbit_element
from icsort.network import (
    ARCHITECTURE,
    LAYER_ORDER,
    NetworkWeights,
    classify,
    forward,
    forward_backward,
    initialize_weights,
    load_weights,
    save_weights,
    shape_trace,
    weighted_cross_entropy,
)
from icsort.network import convops, model
from icsort.network.convops import (
    conv1d_forward,
    conv2d_backward,
    conv2d_forward,
    leaky_relu,
    leaky_relu_grad,
    same_padding,
    softmax,
    softmax_cross_entropy_grad,
)


# ------------------------------------------------------------ same padding


def test_same_padding_splits_oddness_toward_the_tail():
    assert same_padding(32, 4, 2) == (1, 1)
    assert same_padding(16, 4, 2) == (1, 1)
    assert same_padding(100, 3, 2) == (0, 1)  # odd total pads more at the end
    assert same_padding(50, 3, 2) == (0, 1)
    assert same_padding(25, 3, 2) == (1, 1)
    assert same_padding(7, 3, 1) == (1, 1)


@pytest.mark.parametrize("size,kernel,stride", [(9, 3, 2), (10, 4, 3), (13, 5, 2), (4, 4, 4)])
def test_same_padding_matches_the_ceil_rule(size, kernel, stride):
    assert same_padding(size, kernel, stride) == oracles.pad_amounts(size, kernel, stride)
    lead, trail = same_padding(size, kernel, stride)
    out = (size + lead + trail - kernel) // stride + 1
    assert out == -(-size // stride)


# ------------------------------------------------------------ convolution


@pytest.mark.parametrize("stride,padding", [(1, "valid"), (2, "same"), (3, "same"), (1, "same")])
def test_conv2d_forward_matches_the_naive_loop(stride, padding):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 9, 7, 3))
    w = rng.standard_normal((3, 3, 3, 4))
    b = rng.standard_normal(4)
    fast = conv2d_forward(x, w, b, stride=stride, padding=padding)
    slow = oracles.naive_conv2d(x, w, b, stride=stride, padding=padding)
    assert fast.shape == slow.shape
    assert np.allclose(fast, slow, atol=1e-12)


def test_conv1d_forward_matches_the_naive_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 10, 2))
    w = rng.standard_normal((3, 2, 5))
    b = rng.standard_normal(5)
    fast = conv1d_forward(x, w, b, stride=2, padding="same")
    slow = oracles.naive_conv1d(x, w, b, stride=2, padding="same")
    assert np.allclose(fast, slow, atol=1e-12)


def test_conv2d_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 6, 2))
    w = rng.standard_normal((3, 3, 2, 3))
    b = rng.standard_normal(3)
    y = conv2d_forward(x, w, b, stride=2, padding="same")
    target = rng.standard_normal(y.shape)
    loss = lambda out: float(np.sum((out - target) ** 2))
    dy = 2.0 * (y - target)
    dx, dw, db = conv2d_backward(x, w, 2, "same", dy)

    h = 1e-6
    for arr, grad in ((x, dx), (w, dw), (b, db)):
        flat = arr.ravel()
        for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss(conv2d_forward(x, w, b, stride=2, padding="same"))
            flat[idx] = orig - h
            down = loss(conv2d_forward(x, w, b, stride=2, padding="same"))
            flat[idx] = orig
            numeric = (up - down) / (2 * h)
            assert grad.ravel()[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("n", [1, 3])
def test_phase_scatter_matches_the_tap_by_tap_loop_bitwise(n):
    # every layer of the network, at its own input shape, in both precisions
    trace = shape_trace(n)
    inputs = {model.HEAD.name: trace["merged"]}
    for branch, shape in zip(model.BRANCHES, ((n, 32, 32, 1), (n, 100, 1), (n, 100, 1))):
        for spec in branch:
            inputs[spec.name], shape = shape, trace[spec.name]
    rng = np.random.default_rng(n)
    for spec in ARCHITECTURE:
        shape = inputs[spec.name]
        lower = convops.lower_2d if spec.kind == "conv2d" else convops.lower_1d
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal(shape).astype(dtype)
            w = rng.standard_normal(spec.weight_shape).astype(dtype)
            lowered = lower(x, w.shape, spec.stride, spec.padding)
            dy = rng.standard_normal((*lowered.output_shape, spec.out_channels)).astype(dtype)
            dx, _, _ = convops.backward_lowered(lowered, w, dy)

            ho, wo = (1, *lowered.output_shape[1:])[-2:]  # a 1-D output is one row
            dy_flat = dy.reshape(-1, spec.out_channels)
            dcols = (dy_flat @ w.reshape(-1, spec.out_channels).T).reshape(
                n, ho, wo, *lowered.kernel, -1)
            (top, bottom), (left, right) = lowered.padding
            x4 = x.reshape(n, -1, x.shape[-2], x.shape[-1])
            padded_shape = (n, x4.shape[1] + top + bottom, x4.shape[2] + left + right, x.shape[-1])
            expected = oracles.tap_by_tap_input_grad(dcols, padded_shape, lowered.padding,
                                                     spec.stride)
            assert dx.shape == x.shape, spec.name
            assert dx.reshape(x4.shape).tobytes() == expected.tobytes(), spec.name


def test_forward_and_backward_read_one_lowering():
    # the convops entry points are the lowering composed with the lowered passes
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 9, 7, 3))
    w = rng.standard_normal((3, 3, 3, 4))
    b = rng.standard_normal(4)
    lowered = convops.lower_2d(x, w.shape, 2, "same")
    y = convops.forward_lowered(lowered, w, b)
    assert np.array_equal(y, conv2d_forward(x, w, b, 2, "same"))
    dy = rng.standard_normal(y.shape)
    for got, want in zip(convops.backward_lowered(lowered, w, dy),
                         conv2d_backward(x, w, 2, "same", dy)):
        assert np.array_equal(got, want)
    assert convops.backward_lowered(lowered, w, dy, input_grad=False)[0] is None
    with pytest.raises(ConfigError):
        convops.lower_1d(x, (3, 3, 4), 2, "same")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_writes_the_column_gradient_into_the_spent_lowering(dtype):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 9, 7, 5)).astype(dtype)
    w = rng.standard_normal((4, 4, 5, 6)).astype(dtype)
    lowered = convops.lower_2d(x, w.shape, 2, "same")
    assert lowered.cols.flags.writeable  # an owned copy, not a view of the padded input
    kept = lowered.cols.copy()
    kept.flags.writeable = False  # a read-only matrix keeps a fresh column gradient
    dy = rng.standard_normal((*lowered.output_shape, 6)).astype(dtype)
    fresh = convops.backward_lowered(lowered._replace(cols=kept), w, dy)
    spent = convops.backward_lowered(lowered, w, dy)
    for got, want in zip(spent, fresh):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(kept, convops.lower_2d(x, w.shape, 2, "same").cols)
    # the call consumed its matrix: it now holds the column gradient
    assert lowered.cols.tobytes() == (dy.reshape(-1, 6) @ w.reshape(-1, 6).T).tobytes()


# ----------------------------------------------------------- nonlinearity


def test_leaky_relu_and_its_gradient():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(leaky_relu(x), [-0.4, -0.1, 0.0, 0.5, 2.0], atol=1e-12)
    assert np.allclose(leaky_relu_grad(x), [0.2, 0.2, 0.2, 1.0, 1.0], atol=1e-12)


_TINY = float(np.finfo(np.float32).smallest_subnormal)
_HUGE = float(np.finfo(np.float32).max)
# signed zeros, subnormals (the smallest two negatives round to -0.0 under x0.2),
# the smallest normal and the largest magnitudes
_EDGES = [0.0, -0.0, _TINY, -_TINY, -2 * _TINY, -3 * _TINY, 1e-39, -1e-39,
          float(np.finfo(np.float32).tiny), -float(np.finfo(np.float32).tiny), _HUGE, -_HUGE]


@settings(max_examples=200, deadline=None)
@given(arrays(np.float32, st.integers(1, 64), elements=st.one_of(
    st.sampled_from(_EDGES), st.floats(width=32, allow_nan=False, allow_infinity=False))))
def test_leaky_relu_keeps_the_bits_of_the_branching_form(x):
    def bits(a):
        return a.view(np.uint32)

    alpha = 0.2
    activated = np.where(x > 0, x, alpha * x)
    slope = np.where(x > 0, np.ones((), dtype=x.dtype), np.asarray(alpha, dtype=x.dtype))
    assert np.array_equal(bits(leaky_relu(x, alpha)), bits(activated))
    in_place = x.copy()
    leaky_relu(in_place, alpha, out=in_place)
    assert np.array_equal(bits(in_place), bits(activated))
    assert leaky_relu_grad(x, alpha).dtype == np.float32
    assert np.array_equal(bits(leaky_relu_grad(x, alpha)), bits(slope))
    # the backward evaluates the slope on the output, which keeps the input's sign
    assert np.array_equal(bits(leaky_relu_grad(leaky_relu(x, alpha), alpha)), bits(slope))


def test_softmax_rows_are_shift_invariant_distributions():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 7))
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(softmax(z + 100.0), p, atol=1e-12)
    assert np.all(p > 0)


def test_weighted_cross_entropy_matches_the_formula():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    weights = np.array([2.0, 1.0, 1.0])
    expect = -np.mean(np.sum(weights * targets * np.log(probs), axis=1))
    assert weighted_cross_entropy(probs, targets, weights) == pytest.approx(expect, abs=1e-12)
    # a zero probability is floored, not infinite
    hard = weighted_cross_entropy(
        np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), np.array([1.0, 1.0])
    )
    assert hard == pytest.approx(-np.log(1e-12), rel=1e-9)


def test_softmax_cross_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((3, 7))
    targets = rng.dirichlet(np.ones(7), size=3)
    weights = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    grad = softmax_cross_entropy_grad(softmax(logits), targets, weights)
    h = 1e-6
    for n in range(3):
        for j in range(7):
            bumped = logits.copy()
            bumped[n, j] += h
            up = weighted_cross_entropy(softmax(bumped), targets, weights)
            bumped[n, j] -= 2 * h
            down = weighted_cross_entropy(softmax(bumped), targets, weights)
            numeric = (up - down) / (2 * h)
            assert grad[n, j] == pytest.approx(numeric, rel=1e-5, abs=1e-9)


# ------------------------------------------------------------ architecture


def test_layer_catalog_shapes():
    by_name = {spec.name: spec for spec in ARCHITECTURE}
    assert LAYER_ORDER == (
        "topo1", "topo2", "topo3", "psd1", "psd2", "psd3", "acf1", "acf2", "acf3", "out",
    )
    assert by_name["topo1"].weight_shape == (4, 4, 1, 128)
    assert by_name["topo2"].weight_shape == (4, 4, 128, 256)
    assert by_name["topo3"].weight_shape == (4, 4, 256, 512)
    for prefix in ("psd", "acf"):
        assert by_name[f"{prefix}1"].weight_shape == (3, 1, 128)
        assert by_name[f"{prefix}2"].weight_shape == (3, 128, 256)
        assert by_name[f"{prefix}3"].weight_shape == (3, 256, 1)
    assert by_name["out"].weight_shape == (4, 4, 514, 7)


def test_shape_trace_walks_the_documented_pyramid():
    trace = shape_trace(3)
    assert trace["topo1"] == (3, 16, 16, 128)
    assert trace["topo2"] == (3, 8, 8, 256)
    assert trace["topo3"] == (3, 4, 4, 512)
    for prefix in ("psd", "acf"):
        assert trace[f"{prefix}1"] == (3, 50, 128)
        assert trace[f"{prefix}2"] == (3, 25, 256)
        assert trace[f"{prefix}3"] == (3, 13, 1)
    assert trace["merged"] == (3, 4, 4, 514)
    assert trace["out"] == (3, 1, 1, 7)
    assert trace["probs"] == (3, 7)


def test_live_forward_matches_the_shape_trace():
    weights = initialize_weights(seed=0)
    stack = builders.random_stack(3, seed=5)
    cache = {}
    probs = forward(weights, stack.topo, stack.psd, stack.autocorr, cache=cache)
    assert probs.shape == (3, 7)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    trace = shape_trace(3)
    for name in ("topo1", "topo2", "topo3", "psd1", "psd2", "psd3", "acf1", "acf2", "acf3"):
        assert cache[name][1].shape == trace[name]  # cached (input, output)
    assert cache["out"][0].shape == trace["merged"]
    assert cache["probs"].shape == trace["probs"]


def test_zero_weights_give_uniform_predictions():
    weights = initialize_weights(seed=0)
    zeroed = NetworkWeights(
        kernels={k: np.zeros_like(v) for k, v in weights.kernels.items()},
        biases={k: np.zeros_like(v) for k, v in weights.biases.items()},
    )
    stack = builders.random_stack(4, seed=6)
    probs = forward(zeroed, stack.topo, stack.psd, stack.autocorr)
    assert np.allclose(probs, 1.0 / 7.0, atol=1e-7)


def test_initialization_is_seeded_truncated_and_f32():
    a = initialize_weights(seed=7)
    b = initialize_weights(seed=7)
    c = initialize_weights(seed=8)
    for name in LAYER_ORDER:
        assert np.array_equal(a.kernels[name], b.kernels[name])
        assert a.kernels[name].dtype == np.float32
        assert np.all(a.biases[name] == 0.0)
        spec = {s.name: s for s in ARCHITECTURE}[name]
        sigma = np.sqrt(2.0 / spec.fan_in)
        assert np.max(np.abs(a.kernels[name])) <= 2.0 * sigma + 1e-6
    assert any(
        not np.array_equal(a.kernels[name], c.kernels[name]) for name in LAYER_ORDER
    )


def test_truncated_normal_redraws_like_a_whole_tensor_rescan():
    # re-testing only the redrawn entries draws what re-scanning every entry drew
    def rescan(rng, shape, sigma):
        out = rng.normal(0.0, sigma, size=shape)
        bad = np.abs(out) > 2.0 * sigma
        while np.any(bad):
            out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * sigma
        return out

    for seed, shape in ((0, (4, 4, 128, 256)), (1, (3, 1, 128)), (2, (7,))):
        sigma = 0.1
        expected = rescan(np.random.default_rng(seed), shape, sigma)
        got = model._truncated_normal(np.random.default_rng(seed), shape, sigma)
        assert got.tobytes() == expected.tobytes()


def test_forward_names_the_layer_with_nan_activations():
    weights = initialize_weights(seed=9)
    weights.kernels["psd2"][0, 0, 0] = np.nan
    stack = builders.random_stack(2, seed=10)
    with pytest.raises(NumericError, match="psd2"):
        forward(weights, stack.topo, stack.psd, stack.autocorr)


def test_forward_rejects_wrong_input_shapes():
    weights = initialize_weights(seed=11)
    stack = builders.random_stack(2, seed=11)
    with pytest.raises(DataError):
        forward(weights, stack.topo[:, :16, :], stack.psd, stack.autocorr)
    with pytest.raises(DataError):
        forward(weights, stack.topo, stack.psd[:, :50], stack.autocorr)


# ---------------------------------------------------------------- gradient


def test_full_network_gradient_check():
    weights = initialize_weights(seed=12).astype(np.float64)
    # nonzero biases keep every pre-activation away from the exact kink
    # of the leaky rectifier, where one-sided slopes differ from the
    # subgradient the backward pass reports
    bias_rng = np.random.default_rng(99)
    for name in weights.biases:
        weights.biases[name] = bias_rng.normal(0.0, 0.1, weights.biases[name].shape)
    stack = builders.random_stack(2, seed=12)
    targets = np.array([[1.0, 0, 0, 0, 0, 0, 0], [0, 0, 0.5, 0, 0, 0.5, 0]])
    class_weights = np.array([2.0, 1, 1, 1, 1, 1, 1])

    topo = stack.topo.astype(np.float64)
    psd = stack.psd.astype(np.float64)
    acf = stack.autocorr.astype(np.float64)
    loss, kgrads, bgrads, _ = forward_backward(weights, topo, psd, acf, targets, class_weights)
    assert np.isfinite(loss)

    def loss_at(t, p, a):
        out, *_ = forward_backward(weights, t, p, a, targets, class_weights)
        return out

    # small h keeps the bumps from crossing activation kinks
    h = 1e-6
    rng = np.random.default_rng(13)
    # a couple of parameters from each layer kind
    for name in ("topo1", "psd3", "acf2", "out"):
        kernel = weights.kernels[name].ravel()
        for idx in rng.choice(kernel.size, size=3, replace=False):
            orig = kernel[idx]
            kernel[idx] = orig + h
            up = loss_at(topo, psd, acf)
            kernel[idx] = orig - h
            down = loss_at(topo, psd, acf)
            kernel[idx] = orig
            numeric = (up - down) / (2 * h)
            assert kgrads[name].ravel()[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-7)
        bias = weights.biases[name]
        orig = bias[0]
        bias[0] = orig + h
        up = loss_at(topo, psd, acf)
        bias[0] = orig - h
        down = loss_at(topo, psd, acf)
        bias[0] = orig
        assert bgrads[name][0] == pytest.approx((up - down) / (2 * h), rel=1e-3, abs=1e-7)


def test_forward_backward_loss_matches_forward():
    weights = initialize_weights(seed=14)
    stack = builders.random_stack(3, seed=14)
    targets = np.eye(7)[[0, 3, 6]]
    class_weights = np.ones(7)
    probs = forward(weights, stack.topo, stack.psd, stack.autocorr)
    loss, _, _, probs2 = forward_backward(
        weights, stack.topo, stack.psd, stack.autocorr, targets, class_weights
    )
    assert np.allclose(probs, probs2, atol=1e-6)
    assert loss == pytest.approx(
        weighted_cross_entropy(probs2.astype(np.float64), targets, class_weights), rel=1e-6
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3])
def test_forward_backward_matches_a_layer_by_layer_walk_bitwise(n, dtype):
    weights = initialize_weights(seed=17).astype(dtype)
    rng = np.random.default_rng(17)
    for name in weights.biases:
        weights.biases[name] = rng.normal(0.0, 0.1, weights.biases[name].shape).astype(dtype)
    stack = builders.random_stack(n, seed=17 + n)
    targets = np.eye(7)[np.arange(n) % 7]
    class_weights = np.array([2.0, 1, 1, 1, 1, 1, 3])
    got = forward_backward(weights, stack.topo, stack.psd, stack.autocorr, targets, class_weights)
    want = oracles.layer_by_layer_forward_backward(
        weights, stack.topo, stack.psd, stack.autocorr, targets, class_weights)
    assert got[0] == want[0]
    for grads, reference in zip(got[1:3], want[1:3]):
        assert sorted(grads) == sorted(LAYER_ORDER)
        for name in LAYER_ORDER:
            assert grads[name].dtype == dtype
            assert grads[name].tobytes() == reference[name].tobytes(), name
    assert got[3].tobytes() == want[3].tobytes()


def test_training_step_peak_memory_stays_near_the_forward_cache():
    # the step writes each column gradient into its spent im2col matrix and
    # frees the 1-D branches' caches before the topography's transients
    def owner(a):
        while getattr(a, "base", None) is not None:
            a = a.base
        return a

    n = 32
    weights = initialize_weights(seed=18)
    stack = builders.random_stack(n, seed=18)
    targets = np.eye(7)[np.arange(n) % 7]
    cache = {}
    forward(weights, stack.topo, stack.psd, stack.autocorr, cache)
    owners = {}
    for entry in cache.values():
        for a in (entry if isinstance(entry, tuple) else (entry,)):
            a = owner(getattr(a, "cols", a))  # shared views count once
            owners[id(a)] = a.nbytes
    cache_bytes = sum(owners.values())
    del cache, owners

    tracemalloc.start()
    try:
        forward_backward(weights, stack.topo, stack.psd, stack.autocorr, targets, np.ones(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * cache_bytes


# ---------------------------------------------------------------- classify


def test_classify_is_exactly_invariant_under_mirror_and_negation():
    weights = initialize_weights(seed=15)
    stack = builders.random_stack(6, seed=15)
    base = classify(weights, stack.topo, stack.psd, stack.autocorr)
    mirrored = classify(weights, stack.topo[:, :, ::-1], stack.psd, stack.autocorr)
    negated = classify(weights, -stack.topo, stack.psd, stack.autocorr)
    assert np.max(np.abs(base - mirrored)) < 1e-9
    assert np.max(np.abs(base - negated)) < 1e-9
    assert np.allclose(base.sum(axis=1), 1.0, atol=1e-9)


def test_classify_batching_does_not_change_results():
    # float32 matmul accumulation order varies with the batch shape, so
    # agreement is to rounding, not bitwise
    weights = initialize_weights(seed=16)
    stack = builders.random_stack(5, seed=16)
    whole = classify(weights, stack.topo, stack.psd, stack.autocorr, batch_size=128)
    pieces = classify(weights, stack.topo, stack.psd, stack.autocorr, batch_size=2)
    assert np.allclose(whole, pieces, atol=1e-6)


def test_classify_without_tta_runs_the_identity_orbit_element():
    weights = initialize_weights(seed=20)
    stack = builders.random_stack(5, seed=20)
    plain = classify(weights, stack.topo, stack.psd, stack.autocorr, batch_size=2, tta=False)
    direct = np.concatenate([
        forward(weights, stack.topo[i:i + 2], stack.psd[i:i + 2], stack.autocorr[i:i + 2])
        for i in range(0, 5, 2)
    ])
    assert plain.dtype == np.float64
    assert np.array_equal(plain, direct)


@pytest.mark.parametrize("batch_size", [2, 128])
def test_classify_with_tta_sums_forward_over_the_orbit(batch_size):
    weights = initialize_weights(seed=21)
    stack = builders.random_stack(5, seed=21)
    averaged = classify(weights, stack.topo, stack.psd, stack.autocorr, batch_size=batch_size)
    total = np.zeros((5, 7))
    for mirror, negate in TOPOGRAPHY_ORBIT:
        element = orbit_element(stack.topo, mirror, negate)
        total += np.concatenate([
            forward(weights, element[i:i + batch_size], stack.psd[i:i + batch_size],
                    stack.autocorr[i:i + batch_size])
            for i in range(0, 5, batch_size)
        ])
    assert np.array_equal(averaged, total / 4)


# ---------------------------------------------------------------- weights io


def test_weights_round_trip_is_bitwise(tmp_path):
    weights = initialize_weights(seed=17)
    path = tmp_path / "model.iclw"
    save_weights(path, weights)
    loaded = load_weights(path)
    for name in LAYER_ORDER:
        assert np.array_equal(loaded.kernels[name], weights.kernels[name])
        assert np.array_equal(loaded.biases[name], weights.biases[name])
        assert loaded.kernels[name].dtype == np.float32
    assert loaded.version == 1


def test_failed_weights_write_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "model.iclw"
    save_weights(path, initialize_weights(seed=17))
    old = path.read_bytes()
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert path.stat().st_mode == plain.stat().st_mode  # not mkstemp's 0600
    plain.unlink()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_weights(path, initialize_weights(seed=18))
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["model.iclw"]


def test_weights_file_rejects_corruption(tmp_path):
    weights = initialize_weights(seed=18)
    path = tmp_path / "model.iclw"
    save_weights(path, weights)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.iclw"
    bad_magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DataError):
        load_weights(bad_magic)

    truncated = tmp_path / "short.iclw"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataError):
        load_weights(truncated)

    trailing = tmp_path / "long.iclw"
    trailing.write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(DataError):
        load_weights(trailing)

    # the first layer name starts at byte 16: magic, version, layer count, name length
    assert blob[16:21] == b"topo1"
    bad_name = tmp_path / "name.iclw"
    bad_name.write_bytes(blob[:16] + b"\xff" + blob[17:])  # not UTF-8
    with pytest.raises(DataError, match="expected layer 'topo1'"):
        load_weights(bad_name)

    nan = bytearray(blob)
    nan[-4:] = struct.pack("<f", np.nan)  # the last bias value
    not_finite = tmp_path / "nan.iclw"
    not_finite.write_bytes(bytes(nan))
    with pytest.raises(DataError, match="non-finite weights"):
        load_weights(not_finite)


def test_weights_validation_catches_bad_shapes_and_nans(tmp_path):
    stack = builders.random_stack(2, seed=19)
    weights = initialize_weights(seed=19)
    weights.kernels["out"] = weights.kernels["out"][..., :5]
    with pytest.raises(DataError):
        weights.validate()
    with pytest.raises(DataError):  # classify validates before its first forward call
        classify(weights, stack.topo, stack.psd, stack.autocorr)

    weights = initialize_weights(seed=19)
    weights.kernels["topo1"][0, 0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        weights.validate()
    with pytest.raises(NumericError, match="non-finite weights"):
        classify(weights, stack.topo, stack.psd, stack.autocorr)
    with pytest.raises(NumericError):
        save_weights(tmp_path / "bad.iclw", weights)
