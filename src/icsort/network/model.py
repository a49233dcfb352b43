"""Three-branch convolutional classifier over component feature sets.

The graph is data.  ``ARCHITECTURE`` lists every convolution layer as a
``LayerSpec``: three input branches (``BRANCHES``) followed by the
``HEAD``.  ``forward`` and ``forward_backward`` walk these specs; each
layer's convolution comes from its ``kind`` and its nonlinearity from its
``activation``.  Merging the three branch outputs into the head's input
map is the one hand-written step, and ``shape_trace`` derives every shape
from the same specs with the convolutions' own output-size rule.

The scalp topography passes through three strided 4x4 convolutions
(32x32x1 -> 16x16x128 -> 8x8x256 -> 4x4x512).  The power spectrum and the
autocorrelation each pass through three strided length-3 convolutions
(100x1 -> 50x128 -> 25x256 -> 13x1), are zero-padded to 16 values, and are
reshaped to 4x4x1 maps.  The three maps are concatenated to 4x4x514 and a
final unpadded 4x4 convolution with 7 filters produces the category
logits, which a softmax turns into probabilities.

All hidden layers use leaky-ReLU activations with slope 0.2; the head is
linear.  A training step's forward pass keeps, per layer, the input its
backward pass reads and, for a leaky-ReLU layer, the boolean mask of its
positive outputs: one byte per value instead of the float activation,
and all the backward pass needs to rebuild the slope.  The kept input is
the im2col matrix the layer's GEMM read, or, for a 2-D layer whose matrix
is above ``LOWERING_CACHE_LIMIT``, its padded input, which the forward
GEMM lowers ``TOPOGRAPHY_BLOCK`` images at a time; ``convops.backward``
takes either, and lowers a padded input again by kernel rows.  A forward
pass that fills no cache walks the topography branch ``TOPOGRAPHY_BLOCK``
images at a time.  Either way the largest im2col matrix does not grow with
the batch beyond the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..categories import N_CATEGORIES
from ..errors import ConfigError, DataError, NumericError
from ..features import N_AUTOCORR_LAGS, N_PSD_BINS, TOPO_SIZE, TOPOGRAPHY_ORBIT, orbit_element
from . import convops

LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one convolution layer."""

    name: str
    kind: str  # "conv2d" or "conv1d"
    kernel: int
    stride: int
    in_channels: int
    out_channels: int
    padding: str
    activation: str  # "lrelu" or "linear"

    @property
    def weight_shape(self) -> tuple:
        if self.kind == "conv2d":
            return (self.kernel, self.kernel, self.in_channels, self.out_channels)
        return (self.kernel, self.in_channels, self.out_channels)

    @property
    def fan_in(self) -> int:
        if self.kind == "conv2d":
            return self.kernel * self.kernel * self.in_channels
        return self.kernel * self.in_channels


def _branch_1d(prefix: str) -> tuple:
    return (
        LayerSpec(f"{prefix}1", "conv1d", 3, 2, 1, 128, "same", "lrelu"),
        LayerSpec(f"{prefix}2", "conv1d", 3, 2, 128, 256, "same", "lrelu"),
        LayerSpec(f"{prefix}3", "conv1d", 3, 2, 256, 1, "same", "lrelu"),
    )


#: Input branches in merge order, fed the topography, PSD and autocorrelation.
BRANCHES: tuple = (
    (
        LayerSpec("topo1", "conv2d", 4, 2, 1, 128, "same", "lrelu"),
        LayerSpec("topo2", "conv2d", 4, 2, 128, 256, "same", "lrelu"),
        LayerSpec("topo3", "conv2d", 4, 2, 256, 512, "same", "lrelu"),
    ),
    _branch_1d("psd"),
    _branch_1d("acf"),
)
HEAD = LayerSpec("out", "conv2d", 4, 1, 514, N_CATEGORIES, "valid", "linear")
_INPUT_SIZES = (TOPO_SIZE, N_PSD_BINS, N_AUTOCORR_LAGS)  # per branch, per spatial axis

ARCHITECTURE: tuple = (*(spec for branch in BRANCHES for spec in branch), HEAD)
LAYER_ORDER: tuple = tuple(spec.name for spec in ARCHITECTURE)

#: kind -> the zero padding of the layer's input for its convolution
_PADDINGS = {"conv2d": convops.pad_2d, "conv1d": convops.pad_1d}
#: Bytes above which a training forward does not cache a 2-D layer's im2col
#: matrix: it caches the padded input, lowers it ``TOPOGRAPHY_BLOCK`` images
#: at a time for its GEMM, and the backward pass lowers it again by kernel
#: rows.  That bounds the step's matrices by topo2's 16 MiB for one block.
#: At batch 128 topo2's (64 MiB) and topo3's (32 MiB) matrices are above it,
#: topo1's (2 MiB) and the head's (a view of its padded input) are not.
LOWERING_CACHE_LIMIT = 16 * 1024 * 1024
#: Images a forward pass with no cache walks through the topography branch at
#: a time.  On OpenBLAS, topo1-topo3 give each image's rows the same bits at
#: any block size, so blocks change no output; psd3 (one output channel) and
#: the head (seven) round by row count, so the 1-D branches and the head
#: walk the whole batch.  At 32 images topo2's matrix is 16 MiB.
TOPOGRAPHY_BLOCK = 32
#: activation -> function applied in place to the pre-activation
_ACTIVATIONS = {
    "lrelu": lambda pre: convops.leaky_relu(pre, LEAKY_SLOPE, out=pre),
    "linear": lambda pre: pre,
}
#: Layers fed the network's inputs; nothing uses the gradient of their input.
_INPUT_LAYERS = frozenset(branch[0] for branch in BRANCHES)


@dataclass
class NetworkWeights:
    """Kernel and bias arrays for every layer, keyed by layer name."""

    kernels: dict = field(default_factory=dict)
    biases: dict = field(default_factory=dict)

    def validate(self) -> None:
        for spec in ARCHITECTURE:
            if spec.name not in self.kernels or spec.name not in self.biases:
                raise DataError(f"weights are missing layer {spec.name!r}")
            k, b = self.kernels[spec.name], self.biases[spec.name]
            if k.shape != spec.weight_shape:
                raise DataError(
                    f"layer {spec.name!r} kernel must be {spec.weight_shape}, got {k.shape}"
                )
            if b.shape != (spec.out_channels,):
                raise DataError(
                    f"layer {spec.name!r} bias must be ({spec.out_channels},), got {b.shape}"
                )
            if not np.all(np.isfinite(k)) or not np.all(np.isfinite(b)):
                raise NumericError(f"layer {spec.name!r} contains non-finite weights")

    def astype(self, dtype) -> "NetworkWeights":
        return NetworkWeights(
            kernels={n: k.astype(dtype) for n, k in self.kernels.items()},
            biases={n: b.astype(dtype) for n, b in self.biases.items()},
        )

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(
            kernels={n: k.copy() for n, k in self.kernels.items()},
            biases={n: b.copy() for n, b in self.biases.items()},
        )

    @property
    def dtype(self):
        return self.kernels[LAYER_ORDER[0]].dtype


def _truncated_normal(rng: np.random.Generator, shape, sigma: float) -> np.ndarray:
    """Normal(0, sigma) with draws beyond two sigma redrawn."""
    out = rng.normal(0.0, sigma, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * sigma)
    while bad.size:  # only the entries just redrawn can still be out of range
        flat[bad] = rng.normal(0.0, sigma, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0 * sigma]
    return out


def initialize_weights(seed: int = 0) -> NetworkWeights:
    """Fresh float32 weights: truncated-normal kernels (sigma = sqrt(2 / fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    weights = NetworkWeights()
    for spec in ARCHITECTURE:
        sigma = np.sqrt(2.0 / spec.fan_in)
        kernel = _truncated_normal(rng, spec.weight_shape, sigma)
        weights.kernels[spec.name] = kernel.astype(np.float32)
        weights.biases[spec.name] = np.zeros(spec.out_channels, dtype=np.float32)
    return weights


def _as_network_inputs(topo: np.ndarray, psd: np.ndarray, autocorr: np.ndarray, dtype):
    topo = np.asarray(topo, dtype=dtype)
    psd = np.asarray(psd, dtype=dtype)
    autocorr = np.asarray(autocorr, dtype=dtype)
    if topo.ndim != 3 or topo.shape[1:] != (TOPO_SIZE, TOPO_SIZE):
        raise DataError(f"topo batch must be (n, {TOPO_SIZE}, {TOPO_SIZE}), got {topo.shape}")
    n = topo.shape[0]
    if psd.shape != (n, N_PSD_BINS) or autocorr.shape != (n, N_AUTOCORR_LAGS):
        raise DataError(
            f"psd and autocorr batches must be (n, {N_PSD_BINS}) matching the topo batch"
        )
    return topo[..., None], psd[..., None], autocorr[..., None]


def _walk_forward(weights: NetworkWeights, specs, x: np.ndarray, cache,
                  block: int | None = None) -> np.ndarray:
    """Run ``x`` through the layers ``specs`` in order; return the last activation.

    Without a cache and with ``block``, ``x`` is walked at most ``block``
    images at a time and each block's output is written into one array
    for the batch, so no matrix grows beyond a block's.  A training forward
    keeps whole-batch entries for its backward pass, so with a cache each
    layer walks the whole batch, and ``block`` bounds only the GEMMs of the
    layers that keep their padded input (see ``_walk_layers``).
    Finiteness is checked once, on the last activation: a NaN or infinity
    in any layer's pre-activation reaches it, because every input position
    lies under some output's kernel and every output reads all input
    channels.  When the check fails,
    ``_first_non_finite`` walks the whole ``x`` again to name the layer.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # the check below reports them
        if cache is None and block is not None and len(x) > block:
            out = None
            for start in range(0, len(x), block):
                part = _walk_layers(weights, specs, x[start : start + block], None)
                if out is None:
                    out = np.empty((len(x), *part.shape[1:]), part.dtype)
                out[start : start + block] = part
                del part
        else:
            out = _walk_layers(weights, specs, x, cache, block)
        if not np.all(np.isfinite(out)):
            name = _first_non_finite(weights, specs, x)
            raise NumericError(f"non-finite activations in layer {name!r}")
    return out


def _walk_layers(weights: NetworkWeights, specs, x: np.ndarray, cache,
                 block: int | None = None) -> np.ndarray:
    """``_walk_forward``'s walk of one block, unchecked.

    With a cache, each layer stores the triple ``forward`` describes, which
    holds no activation, so each activation is freed once the next layer
    has padded it.  A 2-D layer whose im2col matrix is above
    ``LOWERING_CACHE_LIMIT`` stores its padded input instead; its GEMM runs
    over ``block`` images of that input at a time (the whole batch without
    ``block``), and each block's matrix is freed right after its GEMM.
    """
    out = x
    for spec in specs:
        kernel, bias = weights.kernels[spec.name], weights.biases[spec.name]
        padded = _PADDINGS[spec.kind](out, spec.weight_shape, spec.stride, spec.padding)
        del out  # the padded copy holds what the lowering reads
        recompute = (cache is not None and spec.kind == "conv2d"
                     and padded.cols_nbytes > LOWERING_CACHE_LIMIT)
        kept = padded if recompute else convops.lower_padded(padded)
        del padded  # freed now unless kept, or the matrix is a view of it
        if recompute:
            out = convops.forward_padded(kept, kernel, bias, block or len(kept.xp))
        else:
            out = convops.forward_lowered(kept, kernel, bias)
        out = _ACTIVATIONS[spec.activation](out)  # the walk owns the pre-activation
        if cache is not None:
            # the leaky ReLU keeps the sign, so its slope is read from out > 0
            positive = out > 0 if spec.activation == "lrelu" else None
            cache[spec.name] = (kept.input_shape, positive, kept)
        del kept
    return out


def _first_non_finite(weights: NetworkWeights, specs: tuple, x: np.ndarray) -> str:
    """Name of the first layer of ``specs`` whose pre-activation is not finite for ``x``.

    Called once the walk's last output is not finite; ``_walk_layers`` walks
    ``x`` one spec at a time.  The activations keep a non-finite value
    non-finite and a finite one finite, so the first layer whose output is
    not finite is the first whose pre-activation is not, and when no earlier
    layer's is, the last layer's is and it is not computed again.
    """
    for spec in specs[:-1]:
        x = _walk_layers(weights, (spec,), x, None)
        if not np.all(np.isfinite(x)):
            return spec.name
    return specs[-1].name


def _walk_backward(weights: NetworkWeights, specs, cache: dict, dy, grads):
    """Backpropagate ``dy`` through the cached layers ``specs``, last layer first.

    Stores each layer's kernel and bias gradients in ``grads`` and returns
    the gradient with respect to the input of the last spec walked, or None
    when that layer is fed a network input.  A leaky-ReLU layer's slope is
    built from its cached mask of positive outputs: 1 there and
    ``LEAKY_SLOPE`` elsewhere, the values ``convops.leaky_relu_grad`` reads
    from the output's sign.  Each layer's cache entry is removed as it is
    used, and its im2col matrix, which the layer's backward pass overwrites
    with the column gradient, or its padded input, which the backward pass
    lowers again by kernel rows, is freed before the next layer's.  Overflow
    is not warned about here: ``Adam`` checks the gradients once and names
    the first layer whose gradient is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for spec in specs:
            _, positive, kept = cache.pop(spec.name)
            if positive is not None:
                # not np.where(positive, 1, slope): a random mask defeats its branch prediction
                slope = positive.astype(dy.dtype)
                np.maximum(slope, LEAKY_SLOPE, out=slope)
                dy = np.multiply(dy.reshape(positive.shape), slope, out=slope)
            dy, grads[0][spec.name], grads[1][spec.name] = convops.backward(
                kept, weights.kernels[spec.name], dy, input_grad=spec not in _INPUT_LAYERS,
            )
    return dy


def _merge(outputs: list) -> np.ndarray:
    """Concatenate branch outputs along channels into the head's input map.

    The first output is a square (n, s, s, c) map; each 1-D output
    (n, length, c) is zero-padded to s*s steps and folded into an s x s map.
    """
    square = outputs[0]
    n, side = square.shape[0], square.shape[1]
    folded = [
        np.pad(out, ((0, 0), (0, side * side - out.shape[1]), (0, 0)))
        .reshape(n, side, side, out.shape[2])
        for out in outputs[1:]
    ]
    return np.concatenate([square, *folded], axis=3)


def _unmerge(dmerged: np.ndarray, shapes: list) -> list:
    """Gradient of ``_merge``: the part of ``dmerged`` that reaches each branch output."""
    n = dmerged.shape[0]
    grads, start = [], 0
    for shape in shapes:
        part = dmerged[..., start:start + shape[-1]]
        if len(shape) == 3:  # unfold and drop the zero padding
            part = part.reshape(n, -1, shape[-1])[:, :shape[1], :]
        grads.append(part)
        start += shape[-1]
    return grads


def _head(weights: NetworkWeights, merged: np.ndarray, cache) -> np.ndarray:
    """Class probabilities from the merged branch outputs: head layer, softmax."""
    logits = _walk_forward(weights, (HEAD,), merged, cache)
    probs = convops.softmax(logits.reshape(len(logits), N_CATEGORIES))
    if cache is not None:
        cache["probs"] = probs
    return probs


def forward(
    weights: NetworkWeights,
    topo: np.ndarray,
    psd: np.ndarray,
    autocorr: np.ndarray,
    cache: dict | None = None,
) -> np.ndarray:
    """Class probabilities (n, 7) for a batch of feature sets.

    Inputs are cast to the weight dtype.  The weights are not checked here
    (see ``NetworkWeights.validate``; ``classify`` and ``train`` check them
    once per call).  When ``cache`` is a dict it is filled with per-layer
    (input shape, positive-output mask, kept input) triples for the
    backward pass: the boolean mask ``output > 0`` is all a leaky ReLU's
    slope needs (None for the linear head).  The kept input is the lowered
    input (``convops.Lowered``), which holds the im2col matrix the forward
    GEMM read, so the backward pass need not build it again.  A 2-D layer
    whose matrix is above ``LOWERING_CACHE_LIMIT`` bytes (at batch 128,
    topo2 and topo3) keeps its padded input (``convops.Padded``) instead,
    a third to two fifths of the matrix's size; its forward GEMM runs
    over ``TOPOGRAPHY_BLOCK`` images of it at a time, with the bits of one
    GEMM over the batch, and its backward pass lowers it again by kernel
    rows.  No activation is kept: a padded input is a copy
    of the previous layer's output, zero-padded, and that output is freed.
    Without a cache each im2col matrix is freed after its GEMM, and the
    topography branch is walked ``TOPOGRAPHY_BLOCK`` images at a time (see
    ``_walk_forward``), with the bits of one walk over the batch; the 1-D
    branches and the head walk the whole batch.
    """
    topo, *signals = _as_network_inputs(topo, psd, autocorr, weights.dtype)
    # the branch outputs are freed once merged
    merged = _merge([_walk_forward(weights, BRANCHES[0], topo, cache, TOPOGRAPHY_BLOCK),
                     *(_walk_forward(weights, branch, x, cache)
                       for branch, x in zip(BRANCHES[1:], signals))])
    return _head(weights, merged, cache)


def forward_backward(
    weights: NetworkWeights,
    topo: np.ndarray,
    psd: np.ndarray,
    autocorr: np.ndarray,
    targets: np.ndarray,
    class_weights: np.ndarray,
):
    """Loss, parameter gradients, and probabilities for one batch.

    Returns ``(loss, kernel_grads, bias_grads, probs)`` where the gradient
    dicts mirror the weight dicts and the loss is the batch mean of the
    class-weighted cross entropy.  The backward pass walks the head, then
    the branches in reverse merge order (autocorrelation, PSD,
    topography), so the small 1-D caches are freed before the topography's
    large transients are made; no layer's gradient depends on the order.
    """
    cache: dict = {}
    probs = forward(weights, topo, psd, autocorr, cache)
    targets = np.asarray(targets, dtype=probs.dtype)
    class_weights = np.asarray(class_weights, dtype=probs.dtype)
    if targets.shape != probs.shape:
        raise DataError(f"targets must be {probs.shape}, got {targets.shape}")

    loss = convops.weighted_cross_entropy(probs, targets, class_weights)
    dlogits = convops.softmax_cross_entropy_grad(probs, targets, class_weights)

    grads: tuple = ({}, {})
    dmerged = _walk_backward(weights, (HEAD,), cache, dlogits, grads)
    branch_shapes = [cache[branch[-1].name][1].shape for branch in BRANCHES]
    for branch, dy in reversed(list(zip(BRANCHES, _unmerge(dmerged, branch_shapes)))):
        _walk_backward(weights, reversed(branch), cache, dy, grads)
    return loss, grads[0], grads[1], probs


def classify(
    weights: NetworkWeights,
    topo: np.ndarray,
    psd: np.ndarray,
    autocorr: np.ndarray,
    batch_size: int = 128,
    tta: bool = True,
) -> np.ndarray:
    """Class probabilities (n, 7) for a batch of feature sets, orbit-averaged.

    With ``tta`` each feature set is evaluated once per element of the
    topography orbit (identity, mirror, negation, both) and the
    probabilities are averaged in double precision, making the output
    invariant to those transforms of the input up to rounding.  Without
    it only the identity element is evaluated.  The network sees at most
    ``batch_size`` rows at a time, and the orbit transforms only the
    topography, so the PSD and autocorrelation branches run once per batch.
    Every row sums its orbit's probabilities in orbit order, as ``forward``
    over each element would.  As in ``forward``, each orbit element's
    topography walk takes at most ``TOPOGRAPHY_BLOCK`` images at a time,
    so memory stops growing with the batch past that bound.  The weights
    are validated, and the inputs cast to the weight dtype and checked,
    once per call.
    """
    if batch_size < 1:
        raise ConfigError(f"batch size must be at least 1, got {batch_size}")
    weights.validate()
    topo, *signals = _as_network_inputs(topo, psd, autocorr, weights.dtype)
    orbit = TOPOGRAPHY_ORBIT if tta else TOPOGRAPHY_ORBIT[:1]
    total = np.zeros((topo.shape[0], N_CATEGORIES))
    for start in range(0, topo.shape[0], batch_size):
        rows = slice(start, start + batch_size)
        signal_outputs = [_walk_forward(weights, branch, x[rows], None)
                          for branch, x in zip(BRANCHES[1:], signals)]
        for mirror, negate in orbit:
            element = orbit_element(topo[rows, ..., 0], mirror, negate)[..., None]
            topo_output = _walk_forward(weights, BRANCHES[0], element, None, TOPOGRAPHY_BLOCK)
            total[rows] += _head(weights, _merge([topo_output, *signal_outputs]), None)
    return total / len(orbit)


def shape_trace(n: int = 1) -> dict:
    """Activation shapes of every layer for a batch of n, without any weights.

    Useful for auditing the graph: keys are layer names plus "merged" and
    "probs"; values are the output shapes produced by each stage.
    """

    def output_shape(spec: LayerSpec, size: int) -> tuple:
        size = convops.output_size(size, spec.kernel, spec.stride, spec.padding)
        spatial = (size, size) if spec.kind == "conv2d" else (size,)
        return (n, *spatial, spec.out_channels)

    shapes = {}
    for branch, size in zip(BRANCHES, _INPUT_SIZES):
        for spec in branch:
            shapes[spec.name] = shape = output_shape(spec, size)
            size = shape[1]
    side = shapes[BRANCHES[0][-1].name][1]
    shapes["merged"] = (n, side, side, sum(branch[-1].out_channels for branch in BRANCHES))
    shapes[HEAD.name] = output_shape(HEAD, side)
    shapes["probs"] = (n, N_CATEGORIES)
    return shapes
