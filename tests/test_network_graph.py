"""Network architecture, convolution primitives, gradients, weight files."""

import struct

import numpy as np
import pytest

import builders
import oracles
from icsort.errors import DataError, NumericError
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


# ----------------------------------------------------------- nonlinearity


def test_leaky_relu_and_its_gradient():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(leaky_relu(x), [-0.4, -0.1, 0.0, 0.5, 2.0], atol=1e-12)
    assert np.allclose(leaky_relu_grad(x), [0.2, 0.2, 0.2, 1.0, 1.0], atol=1e-12)


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
        assert cache[name][1].shape == trace[name]  # cached (input, pre-activation)
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
