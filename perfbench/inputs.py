"""Seeded input generators.  The same seed always gives the same files.

Everything the program reads in a benchmark run is made here: recording
bundles for ``label``, a feature set with learnable spectral structure for
``train``, and a planted-truth vote log plus prediction scores for
``curate``.  Files are written with the program's own bundle and CSV
writers, so they are always in the format the program reads.
"""

from __future__ import annotations

import os

import numpy as np

from icsort import bundles
from icsort.categories import CATEGORIES, N_CATEGORIES, RESPONSES
from icsort.crowdlabel import VOTES_CSV_HEADER
from icsort.features import GRID_MASK, FeatureStack, Recording


# ------------------------------------------------------------------ label


def electrode_cap(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Fibonacci-spiral montage over the upper head, randomly rotated and jittered."""
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(n)
    z = 0.95 - 0.9 * i / max(n - 1, 1)
    radius = np.sqrt(1.0 - z * z)
    theta = golden * i + rng.uniform(0, 2 * np.pi)
    cap = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
    return cap * rng.uniform(0.95, 1.05, size=(n, 1))


def recording(rng: np.random.Generator, n_channels: int, n_components: int,
              sample_rate: float, seconds: float) -> Recording:
    """Components mixing a random oscillation with coloured noise of random level."""
    n_samples = int(round(sample_rate * seconds))
    t = np.arange(n_samples) / sample_rate
    freqs = rng.uniform(1.0, min(90.0, 0.45 * sample_rate), size=(n_components, 1))
    phases = rng.uniform(0.0, 2 * np.pi, size=(n_components, 1))
    noise = rng.standard_normal((n_components, n_samples))
    noise[:, 1:] += rng.uniform(0.0, 0.95, size=(n_components, 1)) * noise[:, :-1]
    activity = np.sin(2 * np.pi * freqs * t + phases)
    activity += rng.uniform(0.1, 2.0, size=(n_components, 1)) * noise
    mixing = rng.standard_normal((n_channels, n_components))
    return Recording(
        channel_data=mixing @ activity,
        sample_rate=float(sample_rate),
        electrode_positions=electrode_cap(rng, n_channels),
        mixing_matrix=mixing,
        component_activity=activity,
    )


# ------------------------------------------------------------------ train

_TRAIN_CATEGORIES = 4


def feature_set(rng: np.random.Generator, n: int):
    """Features whose category shows only in the PSD and autocorrelation shapes.

    The topography is masked noise, so labels survive the mirror/negation
    orbit.  Returns (FeatureStack, (n, 7) soft labels).
    """
    cats = rng.integers(0, _TRAIN_CATEGORIES, size=n)
    bins = np.arange(100, dtype=np.float64)
    lags = np.arange(1, 101, dtype=np.float64)
    shapes = [
        (np.exp(-0.5 * ((bins - 9.0) / 3.0) ** 2), np.exp(-lags / 40.0)),
        (np.exp(-0.5 * ((bins - 59.0) / 2.0) ** 2),
         np.cos(2 * np.pi * lags / 8.0) * np.exp(-lags / 60.0)),
        (np.full(100, 0.3), np.zeros(100)),
        (np.linspace(0.9, -0.5, 100), np.exp(-lags / 5.0)),
    ]
    psd = np.stack([shapes[c][0] for c in cats]) + rng.normal(0, 0.02, (n, 100))
    acf = np.stack([shapes[c][1] for c in cats]) + rng.normal(0, 0.02, (n, 100))
    topo = rng.normal(0.0, 0.05, size=(n, 32, 32)) * GRID_MASK
    stack = FeatureStack(
        topo=topo,
        mask=np.broadcast_to(GRID_MASK, (n, 32, 32)).copy(),
        psd=0.9 * psd,
        autocorr=0.9 * acf,
    )
    labels = np.full((n, N_CATEGORIES), 0.02)
    labels[np.arange(n), cats] = 1.0 - 0.02 * (N_CATEGORIES - 1)
    return stack, labels


def write_feature_set(directory, stack: FeatureStack, labels: np.ndarray, prefix: str):
    """Write a feature bundle and its label CSV; returns their paths."""
    ids = [f"{prefix}{i:05d}" for i in range(len(stack))]
    bundle = os.path.join(directory, f"{prefix}.features")
    csv_path = os.path.join(directory, f"{prefix}.csv")
    bundles.write_feature_bundle(bundle, stack, ids, source_recording=prefix)
    bundles.write_labels_csv(csv_path, ids, labels)
    return bundle, csv_path


# ------------------------------------------------------------------ curate


def vote_log(rng: np.random.Generator, n_components: int, path) -> np.ndarray:
    """Write a planted-truth vote log CSV; returns the planted categories.

    Experts are right 90% of the time and unknown labelers 70-90%; 8% of
    submissions tick a second category, 4% answer "?", and a few casual
    labelers see fewer than 10 components, so the filter drops them.
    """
    planted = rng.choice(N_CATEGORIES, size=n_components,
                         p=[0.3, 0.15, 0.15, 0.05, 0.1, 0.1, 0.15])
    n_experts, n_unknown, n_casual = 8, 60, 25
    accuracy = np.concatenate([
        np.full(n_experts, 0.9), rng.uniform(0.7, 0.9, n_unknown), np.full(n_casual, 0.5),
    ])
    names = ([f"expert{i:02d}" for i in range(n_experts)]
             + [f"user{i:03d}" for i in range(n_unknown)]
             + [f"casual{i:02d}" for i in range(n_casual)])
    rows = [",".join(VOTES_CSV_HEADER)]

    def submit(labeler: int, comp: int):
        truth = planted[comp]
        if rng.random() < 0.04:
            picks = {N_CATEGORIES}  # "?"
        elif rng.random() < accuracy[labeler]:
            picks = {truth}
        else:
            picks = {int(rng.choice([k for k in range(N_CATEGORIES) if k != truth]))}
        if rng.random() < 0.08:
            picks.add(int(rng.integers(0, N_CATEGORIES)))
        flags = ["1" if r in picks else "0" for r in range(len(RESPONSES))]
        expert = "1" if labeler < n_experts else "0"
        rows.append(f"{names[labeler]},c{comp:05d}," + ",".join(flags) + f",{expert}")

    for comp in range(n_components):
        if rng.random() < 0.35:
            submit(int(rng.integers(0, n_experts)), comp)
        for labeler in rng.choice(n_unknown, size=4, replace=False):
            submit(n_experts + int(labeler), comp)
    for casual in range(n_casual):
        for comp in rng.choice(n_components, size=int(rng.integers(2, 9)), replace=False):
            submit(n_experts + n_unknown + casual, int(comp))
    bundles.atomic_write_text(path, "\n".join(rows) + "\n")
    return planted


def predictions(rng: np.random.Generator, planted: np.ndarray, path) -> None:
    """Continuous, all-distinct classifier scores that favour the planted category."""
    n = planted.shape[0]
    guess = np.where(rng.random(n) < 0.75, planted, rng.integers(0, N_CATEGORIES, n))
    scores = 0.45 * rng.dirichlet(np.ones(N_CATEGORIES), size=n)
    scores[np.arange(n), guess] += 0.55
    scores /= scores.sum(axis=1, keepdims=True)
    bundles.write_labels_csv(path, [f"c{i:05d}" for i in range(n)], scores, CATEGORIES)
