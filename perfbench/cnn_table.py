"""Per-layer forward/backward table of the CNN at batch 128.

For each layer in ``ARCHITECTURE`` the table times the layer's forward
(convolution plus activation) and backward (activation gradient plus
convolution backward) on operands of the shapes the graph gives it at
batch 128, next to a bare float32 GEMM on the shapes the convolution
lowers to.  The GEMM is the floor a convolution lowered to one matrix
product cannot beat; GFLOP counts are computed from the shapes.
"""

from __future__ import annotations

import time

import numpy as np

from icsort.network import ARCHITECTURE, shape_trace
from icsort.network.convops import (
    conv1d_backward,
    conv1d_forward,
    conv2d_backward,
    conv2d_forward,
    leaky_relu,
    leaky_relu_grad,
)
from icsort.network.model import LEAKY_SLOPE

BATCH = 128
REPEATS = 3


def _median_ms(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times)) * 1e3


def _input_shapes(n: int) -> dict:
    """Shape of each layer's input, from the graph's shape audit."""
    shapes = shape_trace(n)
    inputs = {"topo1": (n, 32, 32, 1), "psd1": (n, 100, 1), "acf1": (n, 100, 1),
              "out": shapes["merged"]}
    for prefix in ("topo", "psd", "acf"):
        for i in (2, 3):
            inputs[f"{prefix}{i}"] = shapes[f"{prefix}{i - 1}"]
    return inputs


def layer_table(weights, rng: np.random.Generator) -> dict:
    """Per-layer metrics plus the activation totals, keyed by metric name."""
    inputs = _input_shapes(BATCH)
    out = {}
    lrelu_ms = lrelu_grad_ms = 0.0
    for spec in ARCHITECTURE:
        x = rng.standard_normal(inputs[spec.name]).astype(np.float32)
        w, b = weights.kernels[spec.name], weights.biases[spec.name]
        conv, conv_back = ((conv2d_forward, conv2d_backward) if spec.kind == "conv2d"
                           else (conv1d_forward, conv1d_backward))
        activated = spec.activation == "lrelu"
        pre = conv(x, w, b, spec.stride, spec.padding)
        dy = rng.standard_normal(pre.shape).astype(np.float32)

        def forward():
            y = conv(x, w, b, spec.stride, spec.padding)
            return leaky_relu(y, LEAKY_SLOPE) if activated else y

        def backward():
            grad = dy * leaky_relu_grad(pre, LEAKY_SLOPE) if activated else dy
            return conv_back(x, w, spec.stride, spec.padding, grad)

        m = pre.size // spec.out_channels
        k = int(np.prod(w.shape[:-1]))
        cols = rng.standard_normal((m, k)).astype(np.float32)
        kernel = np.ascontiguousarray(w.reshape(k, spec.out_channels))
        fwd_ms = _median_ms(forward)
        gflop = 2.0 * m * k * spec.out_channels / 1e9
        out[f"network.{spec.name}.fwd_ms"] = fwd_ms
        out[f"network.{spec.name}.bwd_ms"] = _median_ms(backward)
        out[f"network.{spec.name}.gemm_floor_ms"] = _median_ms(lambda: cols @ kernel)
        out[f"network.{spec.name}.gflop"] = gflop
        out[f"network.{spec.name}.gflop_per_s"] = gflop / (fwd_ms / 1e3)
        if activated:
            lrelu_ms += _median_ms(lambda: leaky_relu(pre, LEAKY_SLOPE))
            lrelu_grad_ms += _median_ms(lambda: leaky_relu_grad(pre, LEAKY_SLOPE))
    out["network.lrelu_ms"] = lrelu_ms
    out["network.lrelu_grad_ms"] = lrelu_grad_ms
    out["network.weights_validate_ms"] = _median_ms(weights.validate, repeats=5)
    return out


def gemm_floor_ms(table: dict) -> float:
    return sum(table[f"network.{spec.name}.gemm_floor_ms"] for spec in ARCHITECTURE)
