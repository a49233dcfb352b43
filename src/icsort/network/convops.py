"""Strided convolution primitives with explicit forward and backward passes.

Convolutions are lowered to matrix multiplication.  ``pad_2d`` and
``pad_1d`` zero-pad an input, and ``lower_padded`` copies its patches
into a column matrix (the im2col matrix); ``lower_2d`` and ``lower_1d``
do both.  ``forward_lowered`` applies the kernel to the matrix as a single
GEMM; ``forward_padded`` lowers a padded input a block of images at a time
and runs one GEMM per block.  ``backward`` takes the input a training step
kept: the ``Lowered`` matrix the forward GEMM read, so the step lowers each
layer's input once, or, where that matrix is too large to keep, the
``Padded`` input, which it lowers again one kernel row at a time with the
same bits.  It reads either as strips of the matrix.  Each strip gives its
rows' block of the kernel gradient and then holds their column gradient,
written over the strip when it is writeable, so a layer's backward needs
no second matrix of that size.
The column gradient is added back by stride phase: the kernel taps whose
rows and columns share a quotient by the stride land on disjoint input
positions, so each such group is one strided add, made in the order a
tap-by-tap loop would add them.

Layouts are channels-last: 2-D activations are (batch, height, width,
channels) and 1-D activations are (batch, length, channels).  A 1-D
convolution is lowered as a height-1 image.  "same" padding follows the
convention where the total padding splits evenly with the extra element
trailing; "valid" applies none.
"""

from __future__ import annotations

import math
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


class Padded(NamedTuple):
    """A convolution input zero-padded for its kernel, with the geometry to lower it."""

    xp: np.ndarray  # (n, h + top + bottom, w + left + right, c_in); a 1-D input has height 1
    input_shape: tuple  # the input as given: (n, h, w, c_in) or (n, length, c_in)
    output_shape: tuple  # the output without channels: (n, out_h, out_w) or (n, out_length)
    kernel: tuple  # (kh, kw); a 1-D kernel of k taps is (1, k)
    stride: int
    padding: tuple  # ((top, bottom), (left, right)) zero padding

    @property
    def cols_nbytes(self) -> int:
        """Bytes of the im2col matrix ``lower_padded`` makes of this input."""
        rows = math.prod(self.output_shape)
        return rows * math.prod(self.kernel) * self.xp.shape[3] * self.xp.itemsize


class Lowered(NamedTuple):
    """A convolution input lowered to its im2col matrix, with the geometry to undo it."""

    cols: np.ndarray  # (n * out_h * out_w, kh * kw * c_in), one row per output position
    input_shape: tuple
    output_shape: tuple
    kernel: tuple
    stride: int
    padding: tuple  # these five as in ``Padded``


def pad_2d(x: np.ndarray, kernel_shape: tuple, stride: int, padding: str) -> Padded:
    """Pad x (n, h, w, c_in) for a kernel of shape (kh, kw, c_in, c_out); always a copy."""
    kh, kw, c_in, _ = kernel_shape
    if x.ndim != 4 or x.shape[3] != c_in:
        raise ConfigError(f"expected input (n, h, w, {c_in}), got {x.shape}")
    n, h, w, _ = x.shape
    pads = (_resolve_padding(h, kh, stride, padding), _resolve_padding(w, kw, stride, padding))
    xp = np.pad(x, ((0, 0), *pads, (0, 0)))
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    return Padded(xp, x.shape, (n, ho, wo), (kh, kw), stride, pads)


def pad_1d(x: np.ndarray, kernel_shape: tuple, stride: int, padding: str) -> Padded:
    """Pad x (n, length, c_in) for a kernel of shape (k, c_in, c_out), as a height-1 image."""
    k, c_in, c_out = kernel_shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ConfigError(f"expected input (n, length, {c_in}), got {x.shape}")
    padded = pad_2d(x[:, None, :, :], (1, k, c_in, c_out), stride, padding)
    n, _, wo = padded.output_shape
    return padded._replace(input_shape=x.shape, output_shape=(n, wo))


def _patches(padded: Padded) -> np.ndarray:
    """The (n, out_h, out_w, kh, kw, c_in) view of each output position's patch.

    It is writeable only when each image is one patch, so that no two
    patches share an element.
    """
    xp = padded.xp
    ho, wo = _image_size(padded.output_shape[1:])
    s = padded.stride
    sn, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(xp.shape[0], ho, wo, *padded.kernel, xp.shape[3]),
        strides=(sn, sh * s, sw * s, sh, sw, sc),
        writeable=(ho, wo) == (1, 1),
    )


def lower_padded(padded: Padded) -> Lowered:
    """The im2col matrix of a padded input: a copy of its patches, or a view when each
    image is one patch (the head's case), which the backward pass may then overwrite."""
    patches = _patches(padded)
    cols = patches.reshape(math.prod(patches.shape[:3]), math.prod(patches.shape[3:]))
    return Lowered(cols, *padded[1:])


def lower_2d(x: np.ndarray, kernel_shape: tuple, stride: int, padding: str) -> Lowered:
    """Lower x (n, h, w, c_in) for a kernel of shape (kh, kw, c_in, c_out)."""
    return lower_padded(pad_2d(x, kernel_shape, stride, padding))


def lower_1d(x: np.ndarray, kernel_shape: tuple, stride: int, padding: str) -> Lowered:
    """Lower x (n, length, c_in) for a kernel of shape (k, c_in, c_out)."""
    return lower_padded(pad_1d(x, kernel_shape, stride, padding))


def forward_lowered(lowered: Lowered, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution output for a lowered input: one GEMM with the kernel, plus the bias."""
    y = lowered.cols @ w.reshape(lowered.cols.shape[1], -1)
    y += b
    return y.reshape(*lowered.output_shape, w.shape[-1])


def forward_padded(padded: Padded, w: np.ndarray, b: np.ndarray, block: int) -> np.ndarray:
    """Convolution output for a padded input, lowered at most ``block`` images at a time.

    Each block's im2col matrix is freed after its GEMM, which writes the
    block's rows of the one output array, so no matrix holds more than
    ``block`` images.  Where each image's rows get the same bits at any
    block size, as topo1-topo3's do on OpenBLAS, the output has the bits of
    ``forward_lowered`` over the whole matrix.
    """
    n, c_out = padded.xp.shape[0], w.shape[-1]
    y = np.empty((*padded.output_shape, c_out), np.result_type(padded.xp, w))
    for start in range(0, n, block):
        xp = padded.xp[start : start + block]
        part = padded._replace(xp=xp, input_shape=(len(xp), *padded.input_shape[1:]),
                               output_shape=(len(xp), *padded.output_shape[1:]))
        cols = lower_padded(part).cols
        np.matmul(cols, w.reshape(cols.shape[1], c_out),
                  out=y[start : start + block].reshape(len(cols), c_out))
        del cols  # freed before the next block's is made
    y += b
    return y


def backward(
    kept: Lowered | Padded, w: np.ndarray, dy: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a convolution given its kept input and upstream dy.

    Each strip of the input's im2col matrix (see ``_strips``) gives its
    kernel rows' block of dw.  With ``input_grad`` off, dx is None.  With it
    on, the strip then holds its column gradient, written over it when it is
    writeable, C-contiguous and of the result dtype, so a ``Lowered`` input
    is consumed (see ``lower_padded``), and the gradient is added into dx by
    stride phase.  A padded input gives its lowering's bits where the row
    GEMMs run the whole matrix's BLAS kernel, as topo2's do at batch 128.
    """
    kh, kw, c_in, c_out = *kept.kernel, w.shape[-2], w.shape[-1]
    dy_flat = dy.reshape(-1, c_out)
    db = dy_flat.sum(axis=0)
    w_rows = w.reshape(kh, kw * c_in, c_out)
    dw = np.empty(w_rows.shape, np.result_type(kept[0], dy_flat))  # kept[0]: cols or xp
    phased = _phased_zeros(kept, c_in, np.result_type(dy_flat, w)) if input_grad else None
    n, ho, wo = kept.output_shape[0], *_image_size(kept.output_shape[1:])
    for first, cols in _strips(kept):
        rows = cols.shape[1] // (kw * c_in)
        np.matmul(cols.T, dy_flat, out=dw[first : first + rows].reshape(-1, c_out))
        if not input_grad:
            continue
        spent = (cols.flags.writeable and cols.flags.c_contiguous
                 and cols.dtype == phased.dtype)
        w_t = w_rows[first : first + rows].reshape(-1, c_out).T
        dcols = np.matmul(dy_flat, w_t, out=cols if spent else None)
        dcols = dcols.reshape(n, ho, wo, rows, kw, c_in)
        for i in range(0, rows, phased.shape[2]):
            _add_by_phase(phased, dcols[:, :, :, i : i + phased.shape[2]], first + i)
    dx = _cropped(phased, kept) if input_grad else None
    return dx, dw.reshape(w.shape), db


def _strips(kept: Lowered | Padded):
    """(first kernel row, im2col columns of the rows from it) strips of a kept input.

    A ``Lowered`` input is one strip, its whole matrix.  A ``Padded`` input
    is lowered again one kernel row at a time: the row's patches, for every
    output position, are copied into one strip that every row reuses, so at
    most one strip of its im2col matrix exists.
    """
    if isinstance(kept, Lowered):
        yield 0, kept.cols
        return
    patches = _patches(kept)
    n, ho, wo, kh, kw, c_in = patches.shape
    strip = np.empty((n * ho * wo, kw * c_in), kept.xp.dtype)
    for i in range(kh):
        np.copyto(strip.reshape(n, ho, wo, 1, kw, c_in), patches[:, :, :, i : i + 1])
        yield i, strip


def _image_size(spatial: tuple) -> tuple:
    """(height, width) of a 2-D spatial shape, or (1, length) of a 1-D one."""
    return (1, *spatial)[-2:]


def _phased_zeros(geometry: Padded | Lowered, c: int, dtype) -> np.ndarray:
    """Zeros the shape of the padded input viewed as (n, rows / sh, sh, columns / sw, sw, c),
    each padded axis rounded up to a multiple of its stride (``_cropped`` drops the rest)."""
    n, ho, wo = geometry.output_shape[0], *_image_size(geometry.output_shape[1:])
    s = geometry.stride
    sh, sw = (s if ho > 1 else 1), (s if wo > 1 else 1)
    h, w = _image_size(geometry.input_shape[1:-1])
    (top, bottom), (left, right) = geometry.padding
    hq, wq = -(-(top + h + bottom) // sh), -(-(left + w + right) // sw)
    return np.zeros((n, hq, sh, wq, sw, c), dtype=dtype)


def _add_by_phase(phased: np.ndarray, block: np.ndarray, first: int) -> None:
    """Add the column gradient ``block`` (n, out_h, out_w, rows, kw, c) of kernel rows
    ``first``, ``first + 1``, ... (one row quotient) into ``phased``, a column group at a time.

    Tap (i, j) of output (a, b) read padded position (s*a + i, s*b + j).
    Writing i = s*qi + pi, that is row (a + qi, pi) of the padded rows
    viewed as (rows / s, s), and the same for columns.  So the taps of one
    (qi, qj) group are one strided add of a transposed ``block`` slice, and
    adding the groups in the order a loop over (i, j) would add them gives
    every position its terms in the same order and so the same bits.  An
    axis with one output step uses stride 1 (see ``_phased_zeros``), so a
    1-D input does not double its height.
    """
    _, ho, wo, rows, kw, _ = block.shape
    sh, sw = phased.shape[2], phased.shape[4]
    qi, pi = divmod(first, sh)
    for qj in range(-(-kw // sw)):
        group = block[:, :, :, :, qj * sw : qj * sw + sw].transpose(0, 1, 3, 2, 4, 5)
        phased[:, qi : qi + ho, pi : pi + rows, qj : qj + wo, : group.shape[4], :] += group


def _cropped(phased: np.ndarray, geometry: Padded | Lowered) -> np.ndarray:
    """The input's part of the phase-viewed padded gradient, in the input's shape."""
    n, hq, sh, wq, sw, c = phased.shape
    h, w = _image_size(geometry.input_shape[1:-1])
    (top, _), (left, _) = geometry.padding
    padded = phased.reshape(n, hq * sh, wq * sw, c)
    return padded[:, top : top + h, left : left + w, :].reshape(geometry.input_shape)


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: str
) -> np.ndarray:
    """2-D convolution of x (n, h, w, c_in) with w (kh, kw, c_in, c_out).

    This and the other ``conv*d_*`` functions are the plain reference: each
    lowers its input afresh, then runs the pass.  The model reuses one
    lowering per layer instead; the test oracle
    ``layer_by_layer_forward_backward`` calls these.
    """
    return forward_lowered(lower_2d(x, w.shape, stride, padding), w, b)


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, padding: str, dy: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Reference gradients (dx, dw, db) of a 2-D convolution; see ``backward``."""
    return backward(lower_2d(x, w.shape, stride, padding), w, dy, input_grad)


def conv1d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: str
) -> np.ndarray:
    """Reference 1-D convolution of x (n, length, c_in) with w (k, c_in, c_out)."""
    return forward_lowered(lower_1d(x, w.shape, stride, padding), w, b)


def conv1d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, padding: str, dy: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Reference gradients (dx, dw, db) of a 1-D convolution; see ``backward``."""
    return backward(lower_1d(x, w.shape, stride, padding), w, dy, input_grad)


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
