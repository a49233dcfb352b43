"""Strided convolution primitives with explicit forward and backward passes.

Convolutions are lowered to matrix multiplication.  ``lower_2d`` and
``lower_1d`` pad an input and copy its patches into a column matrix (the
im2col matrix); ``forward_lowered`` applies the kernel to it as a single
GEMM.  ``backward_lowered`` takes the same ``Lowered`` input, so a training
step lowers each layer's input once: the forward pass keeps the matrix for
the backward pass instead of the backward padding and copying again.  The
backward pass scatters the column gradient back by stride phase: the
kernel taps whose rows and columns share a quotient by the stride land on
disjoint input positions, so each such group is one strided add, made in
the order a tap-by-tap loop would add them.

Layouts are channels-last: 2-D activations are (batch, height, width,
channels) and 1-D activations are (batch, length, channels).  A 1-D
convolution is lowered as a height-1 image.  "same" padding follows the
convention where the total padding splits evenly with the extra element
trailing; "valid" applies none.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ConfigError


def same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    """(leading, trailing) zero padding so the output has ceil(size/stride) steps."""
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    lead = total // 2
    return lead, total - lead


def _resolve_padding(size: int, kernel: int, stride: int, padding: str) -> tuple[int, int]:
    if padding == "same":
        return same_padding(size, kernel, stride)
    if padding == "valid":
        if size < kernel:
            raise ConfigError(f"valid convolution needs input >= kernel, got {size} < {kernel}")
        return 0, 0
    raise ConfigError(f"unknown padding mode {padding!r}")


def output_size(size: int, kernel: int, stride: int, padding: str) -> int:
    """Output steps along one axis of a convolution over ``size`` input steps."""
    lead, trail = _resolve_padding(size, kernel, stride, padding)
    return (size + lead + trail - kernel) // stride + 1


class Lowered(NamedTuple):
    """A convolution input lowered to its im2col matrix, with the geometry to undo it."""

    cols: np.ndarray  # (n * out_h * out_w, kh * kw * c_in), one row per output position
    input_shape: tuple  # the input as given: (n, h, w, c_in) or (n, length, c_in)
    output_shape: tuple  # the output without channels: (n, out_h, out_w) or (n, out_length)
    kernel: tuple  # (kh, kw); a 1-D kernel of k taps is (1, k)
    stride: int
    padding: tuple  # ((top, bottom), (left, right)) zero padding


def lower_2d(x: np.ndarray, kernel_shape: tuple, stride: int, padding: str) -> Lowered:
    """Lower x (n, h, w, c_in) for a kernel of shape (kh, kw, c_in, c_out)."""
    kh, kw, c_in, _ = kernel_shape
    if x.ndim != 4 or x.shape[3] != c_in:
        raise ConfigError(f"expected input (n, h, w, {c_in}), got {x.shape}")
    n, h, w, _ = x.shape
    pads = (_resolve_padding(h, kh, stride, padding), _resolve_padding(w, kw, stride, padding))
    xp = np.pad(x, ((0, 0), *pads, (0, 0)))
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    sn, sh, sw, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, ho, wo, kh, kw, c_in),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    cols = patches.reshape(n * ho * wo, kh * kw * c_in)
    return Lowered(cols, x.shape, (n, ho, wo), (kh, kw), stride, pads)


def lower_1d(x: np.ndarray, kernel_shape: tuple, stride: int, padding: str) -> Lowered:
    """Lower x (n, length, c_in) for a kernel of shape (k, c_in, c_out)."""
    k, c_in, c_out = kernel_shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ConfigError(f"expected input (n, length, {c_in}), got {x.shape}")
    lowered = lower_2d(x[:, None, :, :], (1, k, c_in, c_out), stride, padding)
    n, _, wo = lowered.output_shape
    return lowered._replace(input_shape=x.shape, output_shape=(n, wo))


def forward_lowered(lowered: Lowered, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution output for a lowered input: one GEMM with the kernel, plus the bias."""
    y = lowered.cols @ w.reshape(lowered.cols.shape[1], -1)
    y += b
    return y.reshape(*lowered.output_shape, w.shape[-1])


def backward_lowered(
    lowered: Lowered, w: np.ndarray, dy: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a convolution given its lowered input and upstream dy.

    With ``input_grad`` off, dx is not computed and is returned as None.
    """
    cols = lowered.cols
    c_out = w.shape[-1]
    dy_flat = dy.reshape(cols.shape[0], c_out)
    db = dy_flat.sum(axis=0)
    dw = (cols.T @ dy_flat).reshape(w.shape)
    if not input_grad:
        return None, dw, db
    ho, wo = _image_size(lowered.output_shape[1:])
    dcols = (dy_flat @ w.reshape(cols.shape[1], c_out).T).reshape(
        lowered.output_shape[0], ho, wo, *lowered.kernel, -1)
    return _scatter_by_phase(dcols, lowered), dw, db


def _image_size(spatial: tuple) -> tuple:
    """(height, width) of a 2-D spatial shape, or (1, length) of a 1-D one."""
    return (1, *spatial)[-2:]


def _scatter_by_phase(dcols: np.ndarray, lowered: Lowered) -> np.ndarray:
    """The input gradient: each tap's column gradient added at the positions it read.

    Tap (i, j) of output (a, b) read padded position (s*a + i, s*b + j).
    Writing i = s*qi + pi, that is row (a + qi, pi) of the padded rows
    viewed as (rows / s, s), and the same for columns.  So the taps of one
    (qi, qj) group are one strided add of a transposed ``dcols`` slice, and
    the groups are added in the order a loop over (i, j) would add them,
    which gives every position its terms in the same order and so the same
    bits.  An axis with one output step uses stride 1, so a 1-D input does
    not double its height; the padded axes are rounded up to a multiple of
    the stride and the extra rows and columns are dropped.
    """
    n, ho, wo, kh, kw, c = dcols.shape
    s = lowered.stride
    sh, sw = (s if ho > 1 else 1), (s if wo > 1 else 1)
    h, w = _image_size(lowered.input_shape[1:-1])
    (top, bottom), (left, right) = lowered.padding
    hq, wq = -(-(top + h + bottom) // sh), -(-(left + w + right) // sw)
    phased = np.zeros((n, hq, sh, wq, sw, c), dtype=dcols.dtype)
    for qi in range(-(-kh // sh)):
        rows = slice(qi * sh, min(qi * sh + sh, kh))
        for qj in range(-(-kw // sw)):
            columns = slice(qj * sw, min(qj * sw + sw, kw))
            group = dcols[:, :, :, rows, columns, :].transpose(0, 1, 3, 2, 4, 5)
            phased[:, qi : qi + ho, : group.shape[2], qj : qj + wo, : group.shape[4], :] += group
    padded = phased.reshape(n, hq * sh, wq * sw, c)
    return padded[:, top : top + h, left : left + w, :].reshape(lowered.input_shape)


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: str
) -> np.ndarray:
    """2-D convolution of x (n, h, w, c_in) with w (kh, kw, c_in, c_out)."""
    return forward_lowered(lower_2d(x, w.shape, stride, padding), w, b)


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, padding: str, dy: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a 2-D convolution given upstream dy; see ``backward_lowered``."""
    return backward_lowered(lower_2d(x, w.shape, stride, padding), w, dy, input_grad)


def conv1d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: str
) -> np.ndarray:
    """1-D convolution of x (n, length, c_in) with w (k, c_in, c_out)."""
    return forward_lowered(lower_1d(x, w.shape, stride, padding), w, b)


def conv1d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, padding: str, dy: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a 1-D convolution given upstream dy; see ``backward_lowered``."""
    return backward_lowered(lower_1d(x, w.shape, stride, padding), w, dy, input_grad)


def leaky_relu(x: np.ndarray, alpha: float = 0.2, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, alpha*x) for 0 < alpha < 1; ``out=x`` applies it in place.

    For finite x this has the bits of ``where(x > 0, x, alpha*x)``, signed
    zeros included, without the branch that mixed signs mispredict.
    """
    return np.maximum(x, alpha * x, out=out)


def leaky_relu_grad(x: np.ndarray, alpha: float = 0.2) -> np.ndarray:
    """Derivative at x, 1 where x > 0 and alpha elsewhere (alpha at exactly 0).

    For 0 < alpha the activation keeps the sign, so x may be the
    pre-activation or the activation's output.
    """
    grad = np.sign(x)
    return np.maximum(grad, np.asarray(alpha, dtype=x.dtype), out=grad)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (n, k) logits, stabilized by max subtraction."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def weighted_cross_entropy(
    probs: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> float:
    """Mean over examples of -sum_i weights[i] * targets[i] * log(probs[i]).

    Probabilities are floored at 1e-12 inside the log so confident wrong
    predictions produce a large finite loss.
    """
    logp = np.log(np.maximum(probs, 1e-12))
    return float(-np.mean(np.sum(weights * targets * logp, axis=1)))


def softmax_cross_entropy_grad(
    probs: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Gradient of the mean weighted cross entropy with respect to the logits.

    For one example, d loss / d z_j = probs_j * sum_i(weights_i * targets_i)
    - weights_j * targets_j; the batch mean divides by n.
    """
    n = probs.shape[0]
    wt = weights * targets
    grad = probs * wt.sum(axis=1, keepdims=True) - wt
    return (grad / n).astype(probs.dtype)
