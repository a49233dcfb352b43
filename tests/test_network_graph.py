"""Network architecture, convolution primitives, gradients, weight files."""

import hashlib
import os
import struct
import tracemalloc
import warnings

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


def _layer_inputs(n: int) -> dict:
    """Each layer's input shape at batch n, from the shape trace."""
    trace = shape_trace(n)
    inputs = {model.HEAD.name: trace["merged"]}
    for branch, shape in zip(model.BRANCHES, ((n, 32, 32, 1), (n, 100, 1), (n, 100, 1))):
        for spec in branch:
            inputs[spec.name], shape = shape, trace[spec.name]
    return inputs


@pytest.mark.parametrize("n", [1, 3])
def test_phase_scatter_matches_the_tap_by_tap_loop_bitwise(n):
    # every layer of the network, at its own input shape, in both precisions
    inputs = _layer_inputs(n)
    rng = np.random.default_rng(n)
    for spec in ARCHITECTURE:
        shape = inputs[spec.name]
        lower = convops.lower_2d if spec.kind == "conv2d" else convops.lower_1d
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal(shape).astype(dtype)
            w = rng.standard_normal(spec.weight_shape).astype(dtype)
            lowered = lower(x, w.shape, spec.stride, spec.padding)
            dy = rng.standard_normal((*lowered.output_shape, spec.out_channels)).astype(dtype)
            dx, _, _ = convops.backward(lowered, w, dy)

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
    for got, want in zip(convops.backward(lowered, w, dy),
                         conv2d_backward(x, w, 2, "same", dy)):
        assert np.array_equal(got, want)
    assert convops.backward(lowered, w, dy, input_grad=False)[0] is None
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
    fresh = convops.backward(lowered._replace(cols=kept), w, dy)
    spent = convops.backward(lowered, w, dy)
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
        assert cache[name][1].shape == trace[name]  # cached (input shape, output mask)
    assert cache["out"][0] == trace["merged"]
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


#: kind -> the reference convolution the per-layer walks below run
_CONVOLUTIONS = {"conv2d": conv2d_forward, "conv1d": conv1d_forward}


def _checked_walk(weights, specs, x):
    """The layers ``specs`` applied to ``x``, each pre-activation checked for finiteness."""
    for spec in specs:
        pre = _CONVOLUTIONS[spec.kind](x, weights.kernels[spec.name], weights.biases[spec.name],
                                       spec.stride, spec.padding)
        if not np.all(np.isfinite(pre)):
            raise NumericError(f"non-finite activations in layer {spec.name!r}")
        x = leaky_relu(pre, model.LEAKY_SLOPE) if spec.activation == "lrelu" else pre
    return x


def _per_layer_message(walk):
    """The message of the per-layer check that ``walk`` trips first, or None."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            walk()
    except NumericError as exc:
        return str(exc)
    return None


def _forward_message(weights, topo, psd, autocorr):
    """Per-layer reference in ``forward``'s order: topography, PSD, autocorrelation, head."""
    def walk():
        outputs = [_checked_walk(weights, branch, features[..., None])
                   for branch, features in zip(model.BRANCHES, (topo, psd, autocorr))]
        _checked_walk(weights, (model.HEAD,), model._merge(outputs))
    return _per_layer_message(walk)


def _classify_message(weights, topo, psd, autocorr):
    """Per-layer reference in ``classify``'s order: PSD and autocorrelation once, then
    the topography and the head for each orbit element."""
    def walk():
        signals = [_checked_walk(weights, branch, features[..., None])
                   for branch, features in zip(model.BRANCHES[1:], (psd, autocorr))]
        for mirror, negate in TOPOGRAPHY_ORBIT:
            element = orbit_element(topo, mirror, negate)[..., None]
            square = _checked_walk(weights, model.BRANCHES[0], element)
            _checked_walk(weights, (model.HEAD,), model._merge([square, *signals]))
    return _per_layer_message(walk)


def _spoiled(layer, position, value):
    """Seeded weights with one kernel entry of ``layer`` set to a value, or scaled by
    1e38 when ``value`` is "overflow"."""
    weights = initialize_weights(seed=20)
    kernel = weights.kernels[layer].reshape(-1)
    if value == "overflow":
        kernel[position % kernel.size] *= np.float32(1e38)
    else:
        kernel[position % kernel.size] = value
    return weights


def _scaled_stack(gain):
    # inputs of about 1e3 let one overflowing entry overflow a later layer
    stack = builders.random_stack(2, seed=20)
    return [gain * a for a in (stack.topo, stack.psd, stack.autocorr)]


def _raises_or_runs(call, message):
    if message is None:
        # only the forward check is under test: an overflowing kernel may still
        # overflow the backward pass
        with np.errstate(over="ignore", invalid="ignore"):
            call()
        return
    with pytest.raises(NumericError) as failure:
        call()
    assert str(failure.value) == message


@settings(max_examples=40, deadline=None)
@given(layer=st.sampled_from(LAYER_ORDER),
       value=st.sampled_from([np.nan, np.inf, -np.inf, "overflow"]),
       position=st.integers(0, 2**31 - 1), gain=st.sampled_from([1.0, 1e3]))
def test_one_check_per_walk_names_the_layer_a_per_layer_check_names(layer, value, position,
                                                                     gain):
    weights = _spoiled(layer, position, value)
    topo, psd, acf = _scaled_stack(gain)
    message = _forward_message(weights, topo, psd, acf)
    if value != "overflow":
        assert message is not None
    _raises_or_runs(lambda: forward(weights, topo, psd, acf), message)
    _raises_or_runs(lambda: forward_backward(weights, topo, psd, acf, np.eye(7)[[0, 3]],
                                             np.ones(7)), message)


@settings(max_examples=20, deadline=None)
@given(layer=st.sampled_from(LAYER_ORDER), position=st.integers(0, 2**31 - 1),
       gain=st.sampled_from([1.0, 1e3]))
def test_classify_names_the_layer_an_overflow_makes_non_finite(layer, position, gain):
    # classify refuses NaN and infinite weights before any walk
    weights = _spoiled(layer, position, "overflow")
    topo, psd, acf = _scaled_stack(gain)
    message = _classify_message(weights, topo, psd, acf)
    _raises_or_runs(lambda: classify(weights, topo, psd, acf), message)


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


def test_an_overflow_in_the_dropped_padding_gradient_is_not_warned_about():
    # a head tap that reads the PSD map's zero padding: its column gradient
    # overflows float32, but _unmerge drops the padding, so the forward pass
    # and every gradient stay finite and numpy must not warn
    weights = initialize_weights(seed=0)
    weights.kernels["out"][3, 3, 512, 0] = np.float32(3e38)
    stack = builders.random_stack(1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, kernel_grads, bias_grads, _ = forward_backward(
            weights, stack.topo, stack.psd, stack.autocorr, np.eye(7)[[0]],
            np.array([2.0, 1, 1, 1, 1, 1, 1]))
    assert np.isfinite(loss)
    assert all(np.all(np.isfinite(grad)) for grad in [*kernel_grads.values(),
                                                       *bias_grads.values()])


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


def test_training_step_bits_are_pinned():
    # the digest was taken from the step that cached each layer's float32
    # output; any change in the step's arithmetic moves it.  GEMM bits can
    # depend on the BLAS build: it was taken with OpenBLAS 0.3.31 on x86-64
    n = 128
    weights = initialize_weights(seed=30)
    stack = builders.random_stack(n, seed=30)
    loss, kernel_grads, bias_grads, probs = forward_backward(
        weights, stack.topo, stack.psd, stack.autocorr, np.eye(7)[np.arange(n) % 7],
        np.array([2.0, 1, 1, 1, 1, 1, 3]))
    digest = hashlib.sha256(np.float64(loss).tobytes())
    digest.update(probs.tobytes())
    for name in LAYER_ORDER:
        digest.update(kernel_grads[name].tobytes())
        digest.update(bias_grads[name].tobytes())
    assert digest.hexdigest() == (
        "824df3cacbe1d45dfe7358e99c38a177282b41f4f05ce1e2a1906204a37e442f")


def test_training_cache_keeps_sign_masks_and_no_float_activation():
    weights = initialize_weights(seed=21)
    stack = builders.random_stack(3, seed=21)
    cache = {}
    forward(weights, stack.topo, stack.psd, stack.autocorr, cache)
    assert sorted(cache) == sorted([*LAYER_ORDER, "probs"])
    for branch, features in zip(model.BRANCHES, (stack.topo, stack.psd, stack.autocorr)):
        x = features[..., None]
        for spec in branch:
            input_shape, positive, _ = cache[spec.name]
            assert input_shape == x.shape
            x = _checked_walk(weights, (spec,), x)
            assert positive.dtype == np.bool_
            assert np.array_equal(positive, x > 0), spec.name
    for name in LAYER_ORDER:
        input_shape, positive, lowered = cache[name]
        assert isinstance(lowered, convops.Lowered) and lowered.input_shape == input_shape
        assert positive is None if name == "out" else positive.dtype == np.bool_
    # besides each layer's im2col matrix, the only float array is the returned probabilities
    floats = [a for entry in cache.values() for a in (entry if isinstance(entry, tuple)
                                                     else (entry,))
              if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    assert len(floats) == 1 and floats[0] is cache["probs"]


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
            a = getattr(a, "cols", a)
            if not isinstance(a, np.ndarray):  # an input shape, or the head's absent mask
                continue
            a = owner(a)  # shared views count once
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


def _step(n, seed, dtype=np.float32):
    weights = initialize_weights(seed=seed).astype(dtype)
    stack = builders.random_stack(n, seed=seed)
    return forward_backward(weights, stack.topo, stack.psd, stack.autocorr,
                            np.eye(7)[np.arange(n) % 7], np.array([2.0, 1, 1, 1, 1, 1, 3]))


#: Rows of the batch in the row-wise tests.  At 32 rows every kernel row's
#: GEMMs are large enough for OpenBLAS's blocked kernel, as the whole
#: matrix's are; at 3 rows topo1's 4-column row GEMMs fall under its
#: small-matrix kernel, which rounds differently.
_ROW_WISE_N = 32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_row_wise_backward_keeps_the_training_step_bits(monkeypatch, dtype):
    # with the limit at 0 every 2-D layer keeps its padded input, not its
    # matrix, and a topography layer's forward GEMM runs by blocks: one
    # block at 32 rows, a full block and an 8-image block at 40
    for n in (_ROW_WISE_N, _ROW_WISE_N + 8):
        monkeypatch.setattr(model, "LOWERING_CACHE_LIMIT", 2**62)  # every matrix cached
        want = _step(n, 22, dtype)
        monkeypatch.setattr(model, "LOWERING_CACHE_LIMIT", 0)
        got = _step(n, 22, dtype)
        assert got[0] == want[0], n
        for grads, reference in zip(got[1:3], want[1:3]):
            assert sorted(grads) == sorted(reference)
            for name in LAYER_ORDER:
                assert grads[name].tobytes() == reference[name].tobytes(), (n, name)
        assert got[3].tobytes() == want[3].tobytes(), n


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_padded_input_has_the_bits_of_its_lowering(dtype, input_grad):
    # every layer, the 1-D ones as height-1 images of one kernel row
    inputs = _layer_inputs(_ROW_WISE_N)
    rng = np.random.default_rng(23)
    for spec in ARCHITECTURE:
        pad, lower = ((convops.pad_2d, convops.lower_2d) if spec.kind == "conv2d"
                      else (convops.pad_1d, convops.lower_1d))
        x = rng.standard_normal(inputs[spec.name]).astype(dtype)
        w = rng.standard_normal(spec.weight_shape).astype(dtype)
        padded = pad(x, w.shape, spec.stride, spec.padding)
        dy = rng.standard_normal((*padded.output_shape, spec.out_channels)).astype(dtype)
        want = convops.backward(lower(x, w.shape, spec.stride, spec.padding),
                                w, dy, input_grad)
        got = convops.backward(padded, w, dy, input_grad)
        assert (got[0] is None) == (not input_grad)
        for a, b in zip(got, want):
            if b is not None:
                assert a.shape == b.shape and a.dtype == b.dtype, spec.name
                assert a.tobytes() == b.tobytes(), spec.name


def test_a_layer_over_the_limit_caches_its_padded_input_and_mask(monkeypatch):
    monkeypatch.setattr(model, "LOWERING_CACHE_LIMIT", 0)
    weights = initialize_weights(seed=24)
    stack = builders.random_stack(3, seed=24)
    cache = {}
    probs = forward(weights, stack.topo, stack.psd, stack.autocorr, cache)
    assert probs.tobytes() == forward(weights, stack.topo, stack.psd, stack.autocorr).tobytes()
    x = stack.topo[..., None].astype(np.float32)
    for spec in model.BRANCHES[0]:
        input_shape, positive, kept = cache[spec.name]
        assert isinstance(kept, convops.Padded) and input_shape == x.shape
        assert kept.xp.tobytes() == convops.pad_2d(x, spec.weight_shape, spec.stride,
                                                   spec.padding).xp.tobytes()
        x = _checked_walk(weights, (spec,), x)
        assert positive.dtype == np.bool_ and np.array_equal(positive, x > 0), spec.name
    _, positive, kept = cache[model.HEAD.name]
    assert isinstance(kept, convops.Padded) and positive is None
    for branch in model.BRANCHES[1:]:  # a 1-D layer keeps its matrix at any limit
        assert all(isinstance(cache[spec.name][2], convops.Lowered) for spec in branch)
    # the only arrays a 2-D entry holds are its padded input and its mask
    for spec in (*model.BRANCHES[0], model.HEAD):
        assert [type(a) for a in cache[spec.name][2] if isinstance(a, np.ndarray)] == [np.ndarray]


def test_a_b128_training_step_peaks_at_most_90_mib():
    # topo2 and topo3 keep their padded inputs and lower them 32 images at a
    # time in the forward pass and one kernel row at a time in the backward
    n = 128
    weights = initialize_weights(seed=1)
    stack = builders.random_stack(n, seed=1)
    targets = np.eye(7)[np.arange(n) % 7]
    tracemalloc.start()
    try:
        forward_backward(weights, stack.topo, stack.psd, stack.autocorr, targets, np.ones(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * 2**20


def test_the_head_backward_writes_its_column_gradient_into_its_lowering():
    # the head's matrix is a writeable view of a padded copy that only it holds,
    # one window per row, so the backward allocates its outputs and little else
    n = 128
    rng = np.random.default_rng(25)
    x = rng.standard_normal(shape_trace(n)["merged"]).astype(np.float32)
    w = rng.standard_normal(model.HEAD.weight_shape).astype(np.float32)
    dy = rng.standard_normal((n, 1, 1, model.HEAD.out_channels)).astype(np.float32)
    lowered = convops.lower_2d(x, w.shape, 1, "valid")
    assert lowered.cols.flags.writeable and not lowered.cols.flags.owndata
    kept = lowered.cols.copy()
    kept.flags.writeable = False  # a read-only matrix keeps a fresh column gradient
    want = convops.backward(lowered._replace(cols=kept), w, dy)
    tracemalloc.start()
    try:
        got = convops.backward(lowered, w, dy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in got) < 2**20
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


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


def test_classify_checks_the_shapes_of_an_empty_batch():
    weights = initialize_weights(seed=22)
    with pytest.raises(DataError, match="psd and autocorr batches"):
        classify(weights, np.zeros((0, 32, 32)), np.zeros((5, 100)), np.zeros((3, 7)))
    empty = classify(weights, np.zeros((0, 32, 32)), np.zeros((0, 100)), np.zeros((0, 100)))
    assert empty.shape == (0, 7) and empty.dtype == np.float64


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


#: A topography block bound above every batch below, which gives one walk per batch.
_WHOLE_WALK = 10**6


def _inference_outputs(weights, stack):
    return [classify(weights, stack.topo, stack.psd, stack.autocorr),
            classify(weights, stack.topo, stack.psd, stack.autocorr, tta=False),
            forward(weights, stack.topo, stack.psd, stack.autocorr)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [33, 70, 130])
def test_topography_blocks_keep_the_bits_of_the_whole_walk(monkeypatch, n, dtype):
    # 33 and 130 leave a remainder block of 1 and 2 images (130 in classify's
    # batches of 128 and 2), 70 one of 6
    weights = initialize_weights(seed=26).astype(dtype)
    stack = builders.random_stack(n, seed=26)
    blocked = _inference_outputs(weights, stack)
    monkeypatch.setattr(model, "TOPOGRAPHY_BLOCK", _WHOLE_WALK)
    for got, want in zip(blocked, _inference_outputs(weights, stack)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_blocked_validation_loss_equals_the_whole_walk(monkeypatch):
    from icsort.network.training import _validation_loss

    n = 130  # batches of 128 and 2 rows
    weights = initialize_weights(seed=27)
    stack = builders.random_stack(n, seed=27)
    labels = np.eye(7)[np.arange(n) % 7]
    class_weights = np.array([2.0, 1, 1, 1, 1, 1, 3])
    blocked = _validation_loss(weights, stack, labels, class_weights, 128)
    monkeypatch.setattr(model, "TOPOGRAPHY_BLOCK", _WHOLE_WALK)
    assert blocked == _validation_loss(weights, stack, labels, class_weights, 128)


@pytest.mark.parametrize("layer", ["topo1", "topo2", "topo3"])
def test_a_non_finite_second_block_names_the_layer_of_the_whole_walk(monkeypatch, layer):
    # a NaN in row 40 spoils topo1; a row scaled by 1e38 overflows the layer
    # whose kernel is scaled by 10, in that row alone
    weights = initialize_weights(seed=26)
    stack = builders.random_stack(70, seed=26)
    topo = stack.topo.copy()
    if layer == "topo1":
        topo[40, 3, 5] = np.nan
    else:
        topo[40] *= np.float32(1e38)
        weights.kernels[layer] *= np.float32(10)

    def messages():
        found = []
        for call in (forward, classify):
            with pytest.raises(NumericError) as failure:
                call(weights, topo, stack.psd, stack.autocorr)
            found.append(str(failure.value))
        return found

    blocked = messages()
    assert blocked == [f"non-finite activations in layer {layer!r}"] * 2
    monkeypatch.setattr(model, "TOPOGRAPHY_BLOCK", _WHOLE_WALK)
    assert messages() == blocked


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_on_128_rows_peaks_below_the_whole_walk():
    # the whole walk peaks at about 89 (classify) and 85 MiB (forward), at
    # topo2's 64 MiB im2col matrix; a 32-image block's is 16 MiB
    weights = initialize_weights(seed=1)
    stack = builders.random_stack(128, seed=1)
    assert _traced_peak(lambda: classify(weights, stack.topo, stack.psd,
                                         stack.autocorr)) <= 40 * 2**20
    assert _traced_peak(lambda: forward(weights, stack.topo, stack.psd,
                                        stack.autocorr)) <= 36 * 2**20


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
