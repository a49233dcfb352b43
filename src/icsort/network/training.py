"""Training loop for the component classifier.

Batches are drawn class-balanced: a category is chosen uniformly among the
categories present in the training set, then an orbit row of that category
uniformly.  The orbit rows are the ``TOPOGRAPHY_ORBIT`` of every example,
but they are never built: a drawn orbit index names an orbit element
and an example, and each batch's rows are mirrored and negated as they are
gathered.  Training therefore holds one float32 copy of the set beside the
caller's stack (none if the stack is float32) and one step's gradients at a
time.  Inputs are perturbed with Gaussian noise each time they are drawn.
Validation loss is measured on the caller's held-out set at batch 0 and at
a fixed cadence, each into ``TrainResult.history``; training stops once it
has not improved for a configurable number of batches (or at
``max_batches``) and returns the weights of the best validation point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..categories import N_CATEGORIES
from ..errors import ConfigError, NumericError
from ..features import GRID_MASK, TOPOGRAPHY_ORBIT, FeatureStack, orbit_element
from .convops import weighted_cross_entropy
from .model import LAYER_ORDER, NetworkWeights, forward, forward_backward, initialize_weights


@dataclass
class TrainConfig:
    """Hyperparameters for ``train``.

    ``max_batches`` (at least 1) bounds the run regardless of the
    early-stopping state; ``None`` lets early stopping alone decide.
    ``clip_norm = inf`` turns the gradient clip off.
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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if len(self.class_weights) != N_CATEGORIES:
            raise ConfigError(f"class_weights must have {N_CATEGORIES} entries")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("beta1", "beta2"):  # beta1 = 1 divides the bias correction by zero
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not self.clip_norm >= 0:
            raise ConfigError(f"clip_norm must be non-negative, got {self.clip_norm}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise_sigma must be finite and non-negative, "
                              f"got {self.noise_sigma}")
        if not all(0 <= weight < np.inf for weight in self.class_weights):
            raise ConfigError(f"class_weights must be finite and non-negative, "
                              f"got {self.class_weights}")
        if self.val_interval < 1 or self.early_stop_window < 1:
            raise ConfigError("val_interval and early_stop_window must be positive")
        if self.max_batches is not None and self.max_batches < 1:
            raise ConfigError(f"max_batches must be None or at least 1, got {self.max_batches}")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    weights: NetworkWeights  # best-validation weights
    batches_run: int
    best_batch: int
    best_val_loss: float
    history: list  # (batch, train_loss or nan, val_loss) per validation
    stopped_early: bool


class Adam:
    """Adam with a global-norm gradient clip applied first."""

    def __init__(self, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self._m: dict = {}
        self._v: dict = {}

    def _clip(self, kernel_grads: dict, bias_grads: dict) -> None:
        """Scale the gradients to the global norm ``clip_norm`` if above it; the
        running sum of squares is the step's one finiteness check, and names
        the layer whose kernel or bias gradient makes it non-finite."""
        total = 0.0
        for name in LAYER_ORDER:
            for grads in (kernel_grads, bias_grads):
                total += float(np.sum(np.square(grads[name], dtype=np.float64)))
            if not np.isfinite(total):
                raise NumericError(f"gradients of layer {name!r} are non-finite; "
                                   "update rejected")
        norm = np.sqrt(total)
        limit = self.config.clip_norm
        if norm > limit:
            scale = limit / norm
            for name in LAYER_ORDER:
                kernel_grads[name] = kernel_grads[name] * scale
                bias_grads[name] = bias_grads[name] * scale

    def step(self, weights: NetworkWeights, kernel_grads: dict, bias_grads: dict) -> None:
        """Clip, update moments, and apply one bias-corrected update in place;
        the clip's, the moments' and the updated weights' checks report
        overflow by layer, not numpy warnings."""
        cfg = self.config
        with np.errstate(over="ignore", invalid="ignore"):
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
                with np.errstate(over="ignore", invalid="ignore"):
                    m *= cfg.beta1
                    m += (1.0 - cfg.beta1) * g
                    v *= cfg.beta2
                    v += (1.0 - cfg.beta2) * np.square(g)
                    if not np.all(np.isfinite(v)):
                        # second moments overflowed (clip_norm = inf, or one whose
                        # square overflows); a silent m/sqrt(inf) = 0 update would
                        # freeze training instead of failing
                        raise NumericError(
                            f"optimizer state for {name!r} overflowed; "
                            "gradients are too large to continue"
                        )
                    # in place, in the order of store - step_size * m / (sqrt(v) + eps)
                    update = m * step_size
                    update /= np.sqrt(v) + cfg.epsilon
                    store[name] -= update
                if not np.all(np.isfinite(store[name])):
                    # a huge learning_rate; the last step of a run has no later
                    # forward pass to report it
                    raise NumericError(f"update of layer {name!r} made its weights "
                                       "non-finite; learning_rate is too large")


def _expand_orbit(idx: np.ndarray, rows: tuple, labels: np.ndarray) -> tuple:
    """The (topo, psd, autocorr, labels) rows of orbit indices ``idx``.

    Orbit index i is element ``i // n`` of ``TOPOGRAPHY_ORBIT`` applied to
    example ``i % n`` of the n-row float32 arrays ``rows``, the layout of the
    set repeated once per orbit element.  Mirroring and negation are exact,
    so the rows have the bits of gathering from that repeated set.
    """
    element, example = np.divmod(idx, len(labels))
    topo, psd, acf = (array[example] for array in rows)
    for j, (mirror, negate) in enumerate(TOPOGRAPHY_ORBIT):
        picked = element == j
        if (mirror or negate) and picked.any():
            topo[picked] = orbit_element(topo[picked], mirror, negate)
    return topo, psd, acf, labels[example]


def _category_pools(labels: np.ndarray):
    """Orbit indices grouped by argmax category, for categories present.

    Each pool lists its examples once per orbit element, shifted by n per
    element, in ascending order.
    """
    hard = np.argmax(labels, axis=1)
    n = len(labels)
    return [np.concatenate([members + j * n for j in range(len(TOPOGRAPHY_ORBIT))])
            for members in (np.flatnonzero(hard == k) for k in range(N_CATEGORIES))
            if members.size]


def sample_batch(rng: np.random.Generator, pools: list, batch_size: int) -> np.ndarray:
    """Class-balanced indices: uniform category, then uniform member."""
    picks = rng.integers(0, len(pools), size=batch_size)
    return np.array([pools[c][rng.integers(0, pools[c].shape[0])] for c in picks])


def _train_step(batch: int, rng, pools, rows, labels, weights, optimizer: Adam, class_weights):
    """Draw, perturb and learn from one batch; returns its loss.

    The batch and its gradients live only in this call, so the next step's
    ``forward_backward`` starts with none of them alive.
    """
    config = optimizer.config
    topo, psd, acf, targets = _expand_orbit(sample_batch(rng, pools, config.batch_size),
                                            rows, labels)
    if config.noise_sigma > 0:
        topo = topo + rng.normal(0.0, config.noise_sigma, topo.shape).astype(np.float32)
        topo *= GRID_MASK
        psd = psd + rng.normal(0.0, config.noise_sigma, psd.shape).astype(np.float32)
        acf = acf + rng.normal(0.0, config.noise_sigma, acf.shape).astype(np.float32)

    loss, kernel_grads, bias_grads, _ = forward_backward(
        weights, topo, psd, acf, targets, class_weights
    )
    if not np.isfinite(loss):
        raise NumericError(f"training loss became non-finite at batch {batch}")
    optimizer.step(weights, kernel_grads, bias_grads)
    return loss


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
    config: TrainConfig,
    val_stack: FeatureStack,
    val_labels: np.ndarray,
    seed: int = 0,
) -> TrainResult:
    """Train the classifier and return the best weights found.

    Besides the caller's stack, training holds one float32 copy of its rows
    (none if they already are float32), never the four-fold orbit, and one
    step's batch and gradients at a time, with the optimizer's moments.

    Parameters
    ----------
    stack, labels : training feature stack and (n, 7) soft labels.
    config : hyperparameters.
    val_stack, val_labels : held-out set used for early stopping.
    seed : seeds both weight initialization and batch sampling.

    Raises
    ------
    ConfigError
        If ``labels`` do not have one row of 7 per example.
    NumericError
        If the training or validation loss becomes non-finite.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (len(stack), N_CATEGORIES):
        raise ConfigError(f"labels must be ({len(stack)}, {N_CATEGORIES}), got {labels.shape}")
    pools = _category_pools(labels)

    rng = np.random.default_rng(seed)
    weights = initialize_weights(seed=seed)
    optimizer = Adam(config)
    class_weights = np.asarray(config.class_weights, dtype=np.float64)

    rows = tuple(array.astype(np.float32, copy=False)
                 for array in (stack.topo, stack.psd, stack.autocorr))

    best = weights.copy()
    best_loss = _validation_loss(weights, val_stack, val_labels, class_weights,
                                 config.batch_size)
    best_batch = 0
    history: list = [(0, float("nan"), best_loss)]
    stopped_early = False

    batch = 0
    while config.max_batches is None or batch < config.max_batches:
        batch += 1
        loss = _train_step(batch, rng, pools, rows, labels, weights, optimizer, class_weights)

        if batch % config.val_interval == 0:
            val_loss = _validation_loss(weights, val_stack, val_labels, class_weights,
                                        config.batch_size)
            if not np.isfinite(val_loss):
                raise NumericError(
                    f"validation loss became non-finite at batch {batch} "
                    f"(best so far {best_loss:.6f} at batch {best_batch})"
                )
            history.append((batch, loss, val_loss))
            if val_loss < best_loss:
                best_loss = val_loss
                best_batch = batch
                best = weights.copy()
            elif batch - best_batch >= config.early_stop_window:
                stopped_early = True
                break

    return TrainResult(
        weights=best,
        batches_run=batch,
        best_batch=best_batch,
        best_val_loss=best_loss,
        history=history,
        stopped_early=stopped_early,
    )
