"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (direct DFT sums, nested
Python loops, full enumeration of latent assignments) so that a bug in the
production code cannot hide inside a helper shared with it.  Tests compare
the fast implementations against these.
"""

import math
from itertools import product

import numpy as np
import scipy.signal


# ------------------------------------------------------------ convolution


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def pad_amounts(size: int, kernel: int, stride: int):
    """Lead/trail zero padding that yields ceil(size / stride) outputs."""
    out = _ceil_div(size, stride)
    total = max((out - 1) * stride + kernel - size, 0)
    lead = total // 2
    return lead, total - lead


def naive_conv2d(x, w, b, stride=1, padding="valid"):
    """Quadruple-loop 2-D convolution (cross-correlation), NHWC layout."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, h, wd, c = x.shape
    kh, kw, _, f = w.shape
    if padding == "same":
        lead_h, trail_h = pad_amounts(h, kh, stride)
        lead_w, trail_w = pad_amounts(wd, kw, stride)
        x = np.pad(x, ((0, 0), (lead_h, trail_h), (lead_w, trail_w), (0, 0)))
        h, wd = x.shape[1], x.shape[2]
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((n, oh, ow, f))
    for ni in range(n):
        for oi in range(oh):
            for oj in range(ow):
                for fi in range(f):
                    acc = 0.0
                    for ki in range(kh):
                        for kj in range(kw):
                            for ci in range(c):
                                acc += (
                                    x[ni, oi * stride + ki, oj * stride + kj, ci]
                                    * w[ki, kj, ci, fi]
                                )
                    out[ni, oi, oj, fi] = acc + b[fi]
    return out


def naive_conv1d(x, w, b, stride=1, padding="valid"):
    """1-D convolution as a height-1 image."""
    x4 = np.asarray(x, dtype=np.float64)[:, None, :, :]
    w4 = np.asarray(w, dtype=np.float64)[None, :, :, :]
    return naive_conv2d(x4, w4, b, stride=stride, padding=padding)[:, 0, :, :]


# ------------------------------------------------------- spectral features


def tap_by_tap_input_grad(dcols, padded_shape, pads, stride):
    """Convolution input gradient: each kernel tap's column gradient added in (i, j) order.

    ``dcols`` is (n, out_h, out_w, kh, kw, c); the taps are added into a
    zeroed padded input of ``padded_shape`` (n, h, w, c), whose
    ``pads`` ((top, bottom), (left, right)) border is then cut away.
    """
    _, ho, wo, kh, kw, _ = dcols.shape
    dxp = np.zeros(padded_shape, dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + ho * stride : stride, j : j + wo * stride : stride, :] += dcols[
                :, :, :, i, j, :
            ]
    (top, bottom), (left, right) = pads
    return dxp[:, top : dxp.shape[1] - bottom, left : dxp.shape[2] - right, :]


def dft_median_welch(x, sample_rate):
    """Median-Welch log PSD at 1..100 Hz via direct DFT sums (no FFT)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    nperseg = int(round(sample_rate))
    hop = nperseg - nperseg // 2
    n_segments = 1 + (x.shape[0] - nperseg) // hop
    window = np.hamming(nperseg)
    scale = 1.0 / (sample_rate * float(np.sum(window**2)))
    n_bins = nperseg // 2 + 1
    spectra = np.empty((n_segments, n_bins))
    for s in range(n_segments):
        seg = x[s * hop : s * hop + nperseg] * window
        for j in range(n_bins):
            re = sum(
                seg[t] * math.cos(2.0 * math.pi * j * t / nperseg)
                for t in range(nperseg)
            )
            im = sum(
                -seg[t] * math.sin(2.0 * math.pi * j * t / nperseg)
                for t in range(nperseg)
            )
            power = (re * re + im * im) * scale
            if j != 0 and not (nperseg % 2 == 0 and j == n_bins - 1):
                power *= 2.0
            spectra[s, j] = power
    median_power = np.median(spectra, axis=0)
    db = 10.0 * np.log10(median_power + 1e-12)
    freqs = np.arange(n_bins) * sample_rate / nperseg
    out = np.empty(100)
    last = db[0]
    for hz in range(1, 101):
        if hz <= sample_rate / 2.0 + 1e-9:
            last = db[int(np.argmin(np.abs(freqs - hz)))]
        out[hz - 1] = last
    return out


def mean_welch_db(x, sample_rate):
    """Classic mean-averaged Welch log PSD (scipy), same segmentation."""
    nperseg = int(round(sample_rate))
    freqs, power = scipy.signal.welch(
        np.asarray(x, dtype=np.float64).ravel(),
        fs=sample_rate,
        window=np.hamming(nperseg),
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
        scaling="density",
        average="mean",
    )
    db = 10.0 * np.log10(power + 1e-12)
    out = np.empty(100)
    last = db[0]
    for hz in range(1, 101):
        if hz <= sample_rate / 2.0 + 1e-9:
            last = db[int(np.argmin(np.abs(freqs - hz)))]
        out[hz - 1] = last
    return out


def time_domain_autocorr(x, sample_rate):
    """Biased autocovariance by direct summation, resampled to 100 lags."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.shape[0]
    x = x - x.mean()
    max_lag = int(math.ceil(sample_rate))
    acov = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        acov[lag] = float(np.dot(x[: n - lag], x[lag:])) / n
    lag_samples = np.linspace(0.0, 1.0, 101) * sample_rate
    resampled = np.interp(lag_samples, np.arange(max_lag + 1, dtype=np.float64), acov)
    resampled *= 0.99 / resampled[0]
    return resampled[1:]


# -------------------------------------------------------- crowd labeling


def enum_crowd_posterior(vote_tuples, priors, alpha):
    """Exact posterior-mean label for one component by full enumeration.

    ``vote_tuples`` is a list of (labeler_id, response_index) unit-weight
    votes; ``priors`` maps labeler_id to a LabelerPrior; ``alpha`` is the
    class prior vector.  Sums the Dirichlet-multinomial marginal over all
    7^V latent assignments; feasible for V <= 3.
    """
    votes = list(vote_tuples)
    n_votes = len(votes)
    alpha = np.asarray(alpha, dtype=np.float64)
    total = alpha.sum() + n_votes
    log_weights = []
    labels = []
    for assignment in product(range(7), repeat=n_votes):
        counts = np.zeros(7)
        per_labeler = {}
        for (labeler, response), k in zip(votes, assignment):
            counts[k] += 1
            per_labeler.setdefault(labeler, np.zeros((7, 8)))[k, response] += 1
        logp = sum(
            math.lgamma(alpha[k] + counts[k]) - math.lgamma(alpha[k]) for k in range(7)
        )
        for labeler, m in per_labeler.items():
            prior = priors[labeler].confusion_prior
            for k in range(7):
                row_total = m[k].sum()
                if row_total == 0:
                    continue
                logp += math.lgamma(prior[k].sum()) - math.lgamma(prior[k].sum() + row_total)
                for r in range(8):
                    if m[k, r]:
                        logp += math.lgamma(prior[k, r] + m[k, r]) - math.lgamma(prior[k, r])
        log_weights.append(logp)
        labels.append((alpha + counts) / total)
    log_weights = np.array(log_weights)
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    weights /= weights.sum()
    return (weights[:, None] * np.array(labels)).sum(axis=0)


# ---------------------------------------------------------------- metrics


def bf_balanced_accuracy(targets, predictions):
    """Balanced accuracy by explicit per-category counting."""
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    k = targets.shape[1]
    recalls = []
    for cat in range(k):
        hits = 0
        total = 0
        for t_row, p_row in zip(targets, predictions):
            if int(np.argmax(t_row)) != cat:
                continue
            total += 1
            if int(np.argmax(p_row)) == cat:
                hits += 1
        if total:
            recalls.append(hits / total)
    return sum(recalls) / len(recalls)


def bf_cross_entropy(targets, predictions):
    total = 0.0
    for t_row, p_row in zip(targets, predictions):
        total += -sum(
            t * math.log(max(p, 1e-12)) for t, p in zip(t_row, p_row)
        )
    return total / len(targets)


def bf_confusion(targets, predictions):
    k = np.asarray(targets).shape[1]
    matrix = [[0.0] * k for _ in range(k)]
    for t_row, p_row in zip(targets, predictions):
        matrix[int(np.argmax(t_row))][int(np.argmax(p_row))] += 1.0
    return np.array(matrix)


def bf_roc_points(targets, predictions, category):
    """ROC sweep with per-threshold recount; (threshold, fpr, tpr) tuples."""
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    scores = [float(row[category]) for row in predictions]
    positive = [int(np.argmax(row)) == category for row in targets]
    candidates = sorted(set(scores) | {0.0, 1.0 + 1e-9})
    n_pos = sum(positive)
    n_neg = len(positive) - n_pos
    points = []
    for theta in candidates:
        tp = sum(1 for s, pos in zip(scores, positive) if s >= theta and pos)
        fp = sum(1 for s, pos in zip(scores, positive) if s >= theta and not pos)
        points.append((theta, fp / n_neg, tp / n_pos))
    return points


def _soft_and_scalar(a, b, mode):
    if mode == "strong":
        return max(0.0, a + b - 1.0)
    if mode == "product":
        return a * b
    if mode == "weak":
        return min(a, b)
    raise ValueError(mode)


def bf_soft_confusion(targets, predictions, mode):
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    k = targets.shape[1]
    matrix = np.zeros((k, k))
    for t_row, p_row in zip(targets, predictions):
        for i in range(k):
            for j in range(k):
                matrix[i, j] += _soft_and_scalar(float(t_row[i]), float(p_row[j]), mode)
    return matrix


def bf_soc_points(targets, predictions, category):
    points = []
    for mode in ("strong", "product", "weak"):
        matrix = bf_soft_confusion(targets, predictions, mode)
        k = matrix.shape[0]
        others = [i for i in range(k) if i != category]
        tpr = matrix[category, category] / matrix[category].sum()
        fpr = sum(matrix[i, category] for i in others) / sum(
            matrix[i].sum() for i in others
        )
        points.append((fpr, tpr))
    return points


def bf_best_threshold(targets, predictions, category, criterion):
    """Best (value, threshold) over candidate thresholds, ties to larger."""
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    scores = [float(row[category]) for row in predictions]
    positive = [int(np.argmax(row)) == category for row in targets]
    best_value, best_theta = -1.0, 0.0
    for theta in sorted(set(scores) | {0.0, 1.0 + 1e-9}):
        tp = sum(1 for s, p in zip(scores, positive) if s >= theta and p)
        fp = sum(1 for s, p in zip(scores, positive) if s >= theta and not p)
        fn = sum(1 for s, p in zip(scores, positive) if s < theta and p)
        tn = sum(1 for s, p in zip(scores, positive) if s < theta and not p)
        if criterion == "accuracy":
            value = (tp + tn) / len(scores)
        else:
            recall = tp / (tp + fn) if tp + fn else 0.0
            precision = tp / (tp + fp) if tp + fp else 0.0
            value = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
        if value > best_value or (value == best_value and theta > best_theta):
            best_value, best_theta = value, theta
    return best_value, min(best_theta, 1.0)


# ------------------------------------------------------- network training step


def layer_by_layer_forward_backward(weights, topo, psd, autocorr, targets, class_weights):
    """(loss, kernel_grads, bias_grads, probs) of the classifier, walked the plain way.

    Every layer keeps its input and pre-activation.  The backward pass
    lowers each input afresh through ``conv2d_backward``/``conv1d_backward``,
    multiplies by ``leaky_relu_grad`` into a new array, computes every input
    gradient, and walks the branches in merge order.  It uses the package's
    convolution primitives but none of its buffer reuse, so a bitwise match
    shows that the reuse changed no bits.
    """
    from icsort.network import convops, model

    passes = {"conv2d": (convops.conv2d_forward, convops.conv2d_backward),
              "conv1d": (convops.conv1d_forward, convops.conv1d_backward)}
    dtype = weights.dtype
    seen = {}  # layer name -> (input, pre-activation)

    def layer_forward(spec, x):
        pre = passes[spec.kind][0](x, weights.kernels[spec.name], weights.biases[spec.name],
                                   spec.stride, spec.padding)
        seen[spec.name] = (x, pre)
        if spec.activation == "lrelu":
            return convops.leaky_relu(pre, model.LEAKY_SLOPE)
        return pre

    kernel_grads, bias_grads = {}, {}

    def layer_backward(spec, dy):
        x, pre = seen[spec.name]
        dy = dy.reshape(pre.shape)
        if spec.activation == "lrelu":
            dy = dy * convops.leaky_relu_grad(pre, model.LEAKY_SLOPE)
        dx, kernel_grads[spec.name], bias_grads[spec.name] = passes[spec.kind][1](
            x, weights.kernels[spec.name], spec.stride, spec.padding, dy)
        return dx

    outputs = []
    for branch, features in zip(model.BRANCHES, (topo, psd, autocorr)):
        x = np.asarray(features, dtype=dtype)[..., None]
        for spec in branch:
            x = layer_forward(spec, x)
        outputs.append(x)
    n, side = outputs[0].shape[:2]
    maps = [outputs[0]] + [
        np.pad(out, ((0, 0), (0, side * side - out.shape[1]), (0, 0))).reshape(n, side, side, -1)
        for out in outputs[1:]
    ]
    logits = layer_forward(model.HEAD, np.concatenate(maps, axis=3))
    probs = convops.softmax(logits.reshape(n, -1))
    targets = np.asarray(targets, dtype=dtype)
    class_weights = np.asarray(class_weights, dtype=dtype)
    loss = convops.weighted_cross_entropy(probs, targets, class_weights)

    dmerged = layer_backward(model.HEAD, convops.softmax_cross_entropy_grad(
        probs, targets, class_weights))
    start = 0
    for branch, out in zip(model.BRANCHES, outputs):
        channels = out.shape[-1]
        dy = dmerged[..., start:start + channels]
        start += channels
        if out.ndim == 3:  # a 1-D output was padded and folded into the map
            dy = dy.reshape(n, side * side, channels)[:, :out.shape[1], :]
        for spec in reversed(branch):
            dy = layer_backward(spec, dy)
    return loss, kernel_grads, bias_grads, probs
