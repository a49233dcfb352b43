"""Strided convolution primitives with explicit forward and backward passes.

Convolutions are lowered to matrix multiplication: patches are gathered
into a column matrix (a strided view, so gathering is cheap) and the
kernel is applied as a single GEMM.  The backward pass scatters the column
gradient back with one slice-add per kernel tap.

Layouts are channels-last: 2-D activations are (batch, height, width,
channels) and 1-D activations are (batch, length, channels).  "same"
padding follows the convention where the total padding splits evenly with
the extra element trailing; "valid" applies none.
"""

from __future__ import annotations

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


def _patch_view_2d(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Strided (n, ho, wo, kh, kw, c) window view of a padded NHWC array."""
    n, h, w, c = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    sn, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, ho, wo, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: str
) -> np.ndarray:
    """2-D convolution of x (n, h, w, c_in) with w (kh, kw, c_in, c_out)."""
    kh, kw, c_in, c_out = w.shape
    if x.ndim != 4 or x.shape[3] != c_in:
        raise ConfigError(f"expected input (n, h, w, {c_in}), got {x.shape}")
    ph = _resolve_padding(x.shape[1], kh, stride, padding)
    pw = _resolve_padding(x.shape[2], kw, stride, padding)
    xp = np.pad(x, ((0, 0), ph, pw, (0, 0)))
    patches = _patch_view_2d(xp, kh, kw, stride)
    n, ho, wo = patches.shape[:3]
    cols = patches.reshape(n * ho * wo, kh * kw * c_in)
    y = cols @ w.reshape(kh * kw * c_in, c_out)
    y += b
    return y.reshape(n, ho, wo, c_out)


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, padding: str, dy: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a 2-D convolution given upstream dy.

    With ``input_grad`` off, dx is not computed and is returned as None.
    """
    kh, kw, c_in, c_out = w.shape
    ph = _resolve_padding(x.shape[1], kh, stride, padding)
    pw = _resolve_padding(x.shape[2], kw, stride, padding)
    xp = np.pad(x, ((0, 0), ph, pw, (0, 0)))
    patches = _patch_view_2d(xp, kh, kw, stride)
    n, ho, wo = patches.shape[:3]
    cols = patches.reshape(n * ho * wo, kh * kw * c_in)
    dy_flat = dy.reshape(n * ho * wo, c_out)

    db = dy_flat.sum(axis=0)
    dw = (cols.T @ dy_flat).reshape(w.shape)
    if not input_grad:
        return None, dw, db
    dcols = (dy_flat @ w.reshape(kh * kw * c_in, c_out).T).reshape(n, ho, wo, kh, kw, c_in)

    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + ho * stride : stride, j : j + wo * stride : stride, :] += dcols[
                :, :, :, i, j, :
            ]
    h, wdt = x.shape[1], x.shape[2]
    dx = dxp[:, ph[0] : ph[0] + h, pw[0] : pw[0] + wdt, :]
    return dx, dw, db


def conv1d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: str
) -> np.ndarray:
    """1-D convolution of x (n, length, c_in) with w (k, c_in, c_out)."""
    k, c_in, c_out = w.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ConfigError(f"expected input (n, length, {c_in}), got {x.shape}")
    y = conv2d_forward(x[:, None, :, :], w[None, :, :, :], b, stride, padding)
    return y[:, 0, :, :]


def conv1d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, padding: str, dy: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a 1-D convolution given upstream dy; see ``conv2d_backward``."""
    dx4, dw4, db = conv2d_backward(
        x[:, None, :, :], w[None, :, :, :], stride, padding, dy[:, None, :, :], input_grad
    )
    return (None if dx4 is None else dx4[:, 0, :, :]), dw4[0], db


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
