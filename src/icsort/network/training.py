"""Training loop for the component classifier.

Batches are drawn class-balanced: a category is chosen uniformly among the
categories present in the (augmented) training set, then an example of
that category uniformly.  Inputs are perturbed with Gaussian noise each
time they are drawn.  Validation loss is measured on a held-out set at a
fixed cadence and training stops once it has not improved for a
configurable number of batches; the weights from the best validation point
are returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..categories import N_CATEGORIES
from ..errors import ConfigError, NumericError
from ..features import TOPOGRAPHY_ORBIT, FeatureStack
from .convops import weighted_cross_entropy
from .model import LAYER_ORDER, NetworkWeights, forward, forward_backward, initialize_weights


@dataclass
class TrainConfig:
    """Hyperparameters for ``train``.

    ``max_batches`` bounds the run regardless of the early-stopping state;
    ``None`` lets early stopping alone decide.
    """

    batch_size: int = 128
    learning_rate: float = 3e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float = 20.0
    class_weights: tuple = (2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    noise_sigma: float = 0.05
    val_interval: int = 100
    early_stop_window: int = 5000
    max_batches: int | None = None
    augment: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if len(self.class_weights) != N_CATEGORIES:
            raise ConfigError(f"class_weights must have {N_CATEGORIES} entries")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.val_interval < 1 or self.early_stop_window < 1:
            raise ConfigError("val_interval and early_stop_window must be positive")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    weights: NetworkWeights  # best-validation weights (final weights if no validation)
    batches_run: int
    best_batch: int
    best_val_loss: float
    history: list = field(default_factory=list)  # (batch, train_loss or nan, val_loss)
    stopped_early: bool = False
    seconds: float = 0.0


class Adam:
    """Adam with an optional global-norm gradient clip applied first."""

    def __init__(self, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self._m: dict = {}
        self._v: dict = {}

    def _clip(self, kernel_grads: dict, bias_grads: dict) -> None:
        total = 0.0
        for name in LAYER_ORDER:
            total += float(np.sum(np.square(kernel_grads[name], dtype=np.float64)))
            total += float(np.sum(np.square(bias_grads[name], dtype=np.float64)))
        if not np.isfinite(total):
            raise NumericError("gradients are non-finite; update rejected")
        norm = np.sqrt(total)
        limit = self.config.clip_norm
        if limit is not None and norm > limit:
            scale = limit / norm
            for name in LAYER_ORDER:
                kernel_grads[name] = kernel_grads[name] * scale
                bias_grads[name] = bias_grads[name] * scale

    def step(self, weights: NetworkWeights, kernel_grads: dict, bias_grads: dict) -> None:
        """Clip, update moments, and apply one bias-corrected update in place."""
        cfg = self.config
        self._clip(kernel_grads, bias_grads)
        self.step_count += 1
        t = self.step_count
        # Plain float so float32 weights stay float32 through the update.
        step_size = float(
            cfg.learning_rate * np.sqrt(1.0 - cfg.beta2**t) / (1.0 - cfg.beta1**t)
        )
        for name in LAYER_ORDER:
            for store, grads in ((weights.kernels, kernel_grads), (weights.biases, bias_grads)):
                key = (name, store is weights.biases)
                g = np.asarray(grads[name], dtype=store[name].dtype)
                m = self._m.get(key)
                if m is None:
                    m = np.zeros_like(g)
                    self._m[key] = m
                    self._v[key] = np.zeros_like(g)
                v = self._v[key]
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * g
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * np.square(g)
                if not np.all(np.isfinite(v)):
                    # second moments overflowed (possible only without a
                    # clip ceiling); a silent m/sqrt(inf) = 0 update would
                    # freeze training instead of failing
                    raise NumericError(
                        f"optimizer state for {name!r} overflowed; "
                        "gradients are too large to continue"
                    )
                # in place, in the order of store - step_size * m / (sqrt(v) + eps)
                update = m * step_size
                update /= np.sqrt(v) + cfg.epsilon
                store[name] -= update


def _expand_orbit(stack: FeatureStack, labels: np.ndarray):
    """The topography symmetry orbit of a feature stack, with its labels repeated to match."""
    return stack.orbit(), np.concatenate([labels] * len(TOPOGRAPHY_ORBIT))


def _category_pools(labels: np.ndarray):
    """Example indices grouped by argmax category, for categories present."""
    hard = np.argmax(labels, axis=1)
    return [np.flatnonzero(hard == k) for k in range(N_CATEGORIES) if np.any(hard == k)]


def sample_batch(rng: np.random.Generator, pools: list, batch_size: int) -> np.ndarray:
    """Class-balanced indices: uniform category, then uniform member."""
    picks = rng.integers(0, len(pools), size=batch_size)
    return np.array([pools[c][rng.integers(0, pools[c].shape[0])] for c in picks])


def _validation_loss(weights, stack: FeatureStack, labels, class_weights, batch_size) -> float:
    total, n = 0.0, len(stack)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        probs = forward(
            weights, stack.topo[start:stop], stack.psd[start:stop], stack.autocorr[start:stop]
        )
        total += weighted_cross_entropy(
            probs, labels[start:stop], np.asarray(class_weights)
        ) * (stop - start)
    return total / n


def train(
    stack: FeatureStack,
    labels: np.ndarray,
    config: TrainConfig | None = None,
    val_stack: FeatureStack | None = None,
    val_labels: np.ndarray | None = None,
    seed: int = 0,
    initial_weights: NetworkWeights | None = None,
    log=None,
) -> TrainResult:
    """Train the classifier and return the best weights found.

    Parameters
    ----------
    stack, labels : training feature stack and (n, 7) soft labels.
    config : hyperparameters; defaults to ``TrainConfig()``.
    val_stack, val_labels : held-out set used for early stopping.  Without
        one, ``config.max_batches`` must be set and the final weights are
        returned.
    seed : seeds both weight initialization and batch sampling.
    initial_weights : resume from these instead of a fresh initialization.
    log : optional callable receiving progress lines.

    Raises
    ------
    DataError
        If ``initial_weights`` do not fit the architecture.
    NumericError
        If the initial weights or the training loss are non-finite.
    """
    config = config or TrainConfig()
    has_val = val_stack is not None and val_labels is not None
    if not has_val and config.max_batches is None:
        raise ConfigError("training without a validation set requires max_batches")

    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (len(stack), N_CATEGORIES):
        raise ConfigError(f"labels must be ({len(stack)}, {N_CATEGORIES}), got {labels.shape}")
    if config.augment:
        stack, labels = _expand_orbit(stack, labels)
    pools = _category_pools(labels)

    rng = np.random.default_rng(seed)
    weights = (initial_weights or initialize_weights(seed=seed)).copy()
    weights.validate()
    optimizer = Adam(config)
    class_weights = np.asarray(config.class_weights, dtype=np.float64)

    topo32 = stack.topo.astype(np.float32)
    mask = stack.mask
    psd32 = stack.psd.astype(np.float32)
    acf32 = stack.autocorr.astype(np.float32)

    best = weights.copy()
    best_loss = np.inf
    best_batch = 0
    history: list = []
    stopped_early = False
    started = time.monotonic()

    if has_val:
        best_loss = _validation_loss(weights, val_stack, val_labels, class_weights,
                                     config.batch_size)
        history.append((0, float("nan"), best_loss))

    batch = 0
    while config.max_batches is None or batch < config.max_batches:
        batch += 1
        idx = sample_batch(rng, pools, config.batch_size)
        topo = topo32[idx]
        psd = psd32[idx]
        acf = acf32[idx]
        if config.noise_sigma > 0:
            topo = topo + rng.normal(0.0, config.noise_sigma, topo.shape).astype(np.float32)
            topo *= mask[idx]
            psd = psd + rng.normal(0.0, config.noise_sigma, psd.shape).astype(np.float32)
            acf = acf + rng.normal(0.0, config.noise_sigma, acf.shape).astype(np.float32)

        loss, kernel_grads, bias_grads, _ = forward_backward(
            weights, topo, psd, acf, labels[idx], class_weights
        )
        if not np.isfinite(loss):
            raise NumericError(f"training loss became non-finite at batch {batch}")
        optimizer.step(weights, kernel_grads, bias_grads)

        if has_val and batch % config.val_interval == 0:
            val_loss = _validation_loss(weights, val_stack, val_labels, class_weights,
                                        config.batch_size)
            if not np.isfinite(val_loss):
                raise NumericError(
                    f"validation loss became non-finite at batch {batch} "
                    f"(best so far {best_loss:.6f} at batch {best_batch})"
                )
            history.append((batch, loss, val_loss))
            if log is not None:
                log(f"batch {batch}: train loss {loss:.4f}, validation loss {val_loss:.4f}")
            if val_loss < best_loss:
                best_loss = val_loss
                best_batch = batch
                best = weights.copy()
            elif batch - best_batch >= config.early_stop_window:
                stopped_early = True
                break

    if not has_val:
        best = weights
        best_batch = batch
        best_loss = float("nan")
    return TrainResult(
        weights=best,
        batches_run=batch,
        best_batch=best_batch,
        best_val_loss=best_loss,
        history=history,
        stopped_early=stopped_early,
        seconds=time.monotonic() - started,
    )
