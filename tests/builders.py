"""Synthetic data builders shared across the test suite."""

import struct

import numpy as np

from icsort.bundles import ARRAY_MAGIC, ARRAY_VERSION
from icsort.features import GRID_MASK, FeatureStack, Recording


def electrode_cap(n: int = 32) -> np.ndarray:
    """Unit-norm electrode positions spread over the upper hemisphere.

    A Fibonacci spiral on z in [0.05, 0.95] gives a well-conditioned,
    non-collinear montage for any n >= 4.
    """
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(n)
    z = 0.95 - 0.9 * i / max(n - 1, 1)
    radius = np.sqrt(1.0 - z * z)
    theta = golden * i
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def make_recording(
    n_channels: int = 16,
    n_components: int = 4,
    sample_rate: float = 128.0,
    seconds: float = 6.0,
    seed: int = 0,
) -> Recording:
    """A synthetic recording whose components carry distinct oscillations."""
    rng = np.random.default_rng(seed)
    n_samples = int(sample_rate * seconds)
    t = np.arange(n_samples) / sample_rate
    activity = np.empty((n_components, n_samples))
    for c in range(n_components):
        freq = 4.0 + 7.0 * c
        activity[c] = np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        activity[c] += 0.1 * rng.standard_normal(n_samples)
    mixing = rng.standard_normal((n_channels, n_components))
    return Recording(
        sample_rate=sample_rate,
        electrode_positions=electrode_cap(n_channels),
        mixing_matrix=mixing,
        component_activity=activity,
    )


def toy_dataset(n: int, seed: int):
    """A 3-category set separable from the PSD/autocorrelation shapes alone.

    The topography is uninformative masked noise, so labels survive the
    mirror/negation augmentation orbit.  Returns (FeatureStack, one-hot
    (n, 7) labels) with only the first three categories populated.
    """
    rng = np.random.default_rng(seed)
    cats = rng.integers(0, 3, size=n)
    topo = rng.normal(0.0, 0.05, size=(n, 32, 32)).astype(np.float32)
    topo *= GRID_MASK
    bins = np.arange(100, dtype=np.float64)
    lags = np.arange(1, 101, dtype=np.float64)
    psd = np.empty((n, 100), dtype=np.float32)
    acf = np.empty((n, 100), dtype=np.float32)
    for i, c in enumerate(cats):
        if c == 0:
            p = np.exp(-0.5 * ((bins - 9.0) / 3.0) ** 2)
            a = np.exp(-lags / 40.0)
        elif c == 1:
            p = np.exp(-0.5 * ((bins - 59.0) / 2.0) ** 2)
            a = np.cos(2 * np.pi * lags / 8.0) * np.exp(-lags / 60.0)
        else:
            p = np.full(100, 0.3)
            a = np.zeros(100)
        psd[i] = (p + rng.normal(0, 0.02, 100)) * 0.9
        acf[i] = (a + rng.normal(0, 0.02, 100)) * 0.9
    labels = np.zeros((n, 7), dtype=np.float64)
    labels[np.arange(n), cats] = 1.0
    stack = FeatureStack(topo=topo, psd=psd, autocorr=acf)
    return stack, labels


def random_stack(n: int, seed: int) -> FeatureStack:
    """Valid but information-free features for plumbing tests."""
    rng = np.random.default_rng(seed)
    topo = rng.uniform(-0.99, 0.99, size=(n, 32, 32)).astype(np.float32)
    topo *= GRID_MASK
    psd = rng.uniform(-0.99, 0.99, size=(n, 100)).astype(np.float32)
    acf = rng.uniform(-0.99, 0.99, size=(n, 100)).astype(np.float32)
    return FeatureStack(topo=topo, psd=psd, autocorr=acf)


def random_label_pairs(seed: int, n: int = 500, k: int = 7):
    """Random (targets, predictions) stacks of Dirichlet probability rows."""
    rng = np.random.default_rng(seed)
    targets = rng.dirichlet(np.ones(k) * 0.7, size=n)
    predictions = rng.dirichlet(np.ones(k) * 0.7, size=n)
    return targets, predictions


def write_damaged_array(path, values) -> None:
    """Write a 2-D float record from raw bytes, NaN and infinities included.

    ``write_array`` refuses non-finite values, so a damaged record that a
    reader must reject is built here: the header, then ``values`` as f32.
    """
    values = np.asarray(values, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(ARRAY_MAGIC + struct.pack("<III", ARRAY_VERSION, *values.shape))
        fh.write(values.tobytes())
