"""``train``: repeated short ``icsort train`` runs at batch 128.

Each operation is one fresh training run (its own seed) on a shared toy
set whose categories show in the PSD and autocorrelation shapes, with a
validation bundle checked every few batches.  It exercises
``forward_backward`` and ``Adam.step`` at a fixed large batch and never
touches feature extraction or the label-side modules.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

from icsort import bundles
from icsort.network import initialize_weights, load_weights

from . import inputs
from .cnn_table import gemm_floor_ms, layer_table
from .common import Op, size_of

N_TRAIN = 512
N_VAL = 128
BATCH = 128
MAX_BATCHES = 4
CONFIG = f"""batch_size = {BATCH}
learning_rate = 0.001
val_interval = 2
max_batches = {MAX_BATCHES}
"""

#: Span name -> the program functions it wraps (see ``trace.instrument``).
SPANS = {
    "cli.parse_config": ["icsort.cli:parse_config_file"],
    "cli.align": ["icsort.cli:_align_labels"],
    "bundles.read_features": ["icsort.bundles:read_feature_bundle"],
    "bundles.read_labels_csv": ["icsort.bundles:read_labels_csv"],
    "bundles.write_text": ["icsort.bundles:atomic_write_text"],
    "network.train": ["icsort.network.training:train"],
    "network.augment": ["icsort.network.training:_expand_orbit",
                        "icsort.network.training:_category_pools"],
    "network.init": ["icsort.network.model:initialize_weights"],
    "network.sample_batch": ["icsort.network.training:sample_batch"],
    "network.forward": ["icsort.network.model:forward"],
    "network.forward_backward": ["icsort.network.model:forward_backward"],
    "network.adam_step": ["icsort.network.training:Adam.step"],
    "network.validation": ["icsort.network.training:_validation_loss"],
    "network.copy": ["icsort.network.model:NetworkWeights.copy"],
    "network.save_weights": ["icsort.network.weights_io:save_weights"],
}


class Train:
    name = "train"
    #: Operations per second of --seconds: 3 in 20 s.
    ops_per_second = 0.15
    #: Files the traced run must reproduce byte for byte.
    outputs = ("weights.iclw", "train.log")
    spans = SPANS
    #: ``forward_backward`` runs ``forward`` itself; that is not a separate forward call.
    outer_only = ("icsort.network.model",)

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.config = os.path.join(root, "train.cfg")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.train_set = inputs.write_feature_set(self.root, *inputs.feature_set(rng, N_TRAIN),
                                                  prefix="tr")
        self.val_set = inputs.write_feature_set(self.root, *inputs.feature_set(rng, N_VAL),
                                                prefix="va")
        bundles.atomic_write_text(self.config, CONFIG)

    def make_op(self, index: int, warmup: bool = False) -> Op:
        """A fresh training run; the warm-up run stops after one batch."""
        directory = os.path.join(self.root, f"op{index:05d}")
        os.makedirs(directory)
        batches = 1 if warmup else MAX_BATCHES
        return Op(index, directory, batches * BATCH,
                  {"seed": self.seed * 100003 + index, "batches": batches})

    def finish_op(self, op: Op) -> None:
        shutil.rmtree(op.directory)

    def steps(self, op: Op, out: str) -> list:
        return [[
            "train", "--features", self.train_set[0], "--labels", self.train_set[1],
            "--val-features", self.val_set[0], "--val-labels", self.val_set[1],
            "--config", self.config, "--out", os.path.join(out, "weights.iclw"),
            "--log", os.path.join(out, "train.log"), "--seed", str(op.info["seed"]),
            "--max-batches", str(op.info["batches"]),
        ]]

    def check(self, op: Op, out: str) -> str | None:
        """The last validation loss is finite and below the batch-0 loss; weights load."""
        with open(os.path.join(out, "train.log"), encoding="utf-8") as fh:
            rows = [line.split() for line in fh if line.strip()]
        if len(rows) < 2 or rows[0][0] != "0":
            return "training log lacks the batch-0 and a later validation loss"
        first, last = float(rows[0][2]), float(rows[-1][2])
        if not math.isfinite(last) or not last < first:
            return f"validation loss went from {first} to {last}"
        load_weights(os.path.join(out, "weights.iclw"))
        return None

    def bytes_moved(self, op: Op, out: str) -> tuple:
        read = size_of(self.config, *self.train_set, *self.val_set)
        written = size_of(os.path.join(out, "weights.iclw"), os.path.join(out, "train.log"))
        return read, written

    def layer_metrics(self, tracer, ops: list) -> dict:
        def median_ms(name):
            return float(np.median(tracer.durations(name))) * 1e3

        forward_ms = median_ms("network.forward")
        fb_ms = median_ms("network.forward_backward")
        table = layer_table(initialize_weights(seed=self.seed), np.random.default_rng(self.seed))
        return {
            "network.forward_ms_b128": forward_ms,
            "network.forward_backward_ms_b128": fb_ms,
            "network.backward_ms_b128": fb_ms - forward_ms,
            "network.adam_step_ms": median_ms("network.adam_step"),
            "network.validation_ms": median_ms("network.validation"),
            "network.forward_over_gemm_floor": forward_ms / gemm_floor_ms(table),
            **table,
        }
