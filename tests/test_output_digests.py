"""The bytes each command writes, pinned as SHA-256 digests of its output files.

A command runs in process on tiny seeded inputs from ``builders``, and each
output file's digest is compared with the table below.  A change that is
meant to keep every output's bytes must pass unedited; a change that moves
bits on purpose updates the table and says which digests moved and why.
GEMM bits can depend on the BLAS build: the digests were taken with
OpenBLAS 0.3.31 on x86-64, as ``test_training_step_bits_are_pinned``'s was.
"""

import hashlib

import builders
from icsort import cli
from icsort.bundles import write_feature_bundle, write_labels_csv

#: command -> output file -> SHA-256 of its bytes
DIGESTS = {
    "train": {
        "weights.iclw": "f2e80eea10fb892df2a3407d0485213e1f0cf83bffef3fcb02d929dbc297c38e",
        "train.log": "36ad0099eac075a9eb6af3dae6181101641dbf07f0bb63df34b3960636f112ee",
    },
}


def _digests(directory, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def _write_set(directory, name, n, seed):
    stack, labels = builders.toy_dataset(n, seed=seed)
    ids = [f"{name}{i:03d}" for i in range(n)]
    write_feature_bundle(directory / name, stack, ids, source_recording=name, sample_rate=128.0)
    write_labels_csv(directory / f"{name}.csv", ids, labels)
    return str(directory / name), str(directory / f"{name}.csv")


def test_train_writes_the_pinned_weights_and_log(tmp_path):
    # input noise on (the default sigma), so the mask of the noisy topography
    # and every noise draw reach the bytes; 12 validation rows in batches of
    # 8 leave a short last batch, whose loss must weigh by its 4 rows
    features, labels = _write_set(tmp_path, "tr", 24, seed=40)
    val_features, val_labels = _write_set(tmp_path, "va", 12, seed=41)
    config = tmp_path / "train.cfg"
    config.write_text("batch_size = 8\nlearning_rate = 0.001\nval_interval = 2\n")
    assert cli.main(["train", "--features", features, "--labels", labels,
                     "--val-features", val_features, "--val-labels", val_labels,
                     "--config", str(config), "--max-batches", "6", "--seed", "3",
                     "--out", str(tmp_path / "weights.iclw"),
                     "--log", str(tmp_path / "train.log")]) == 0
    assert _digests(tmp_path, DIGESTS["train"]) == DIGESTS["train"]
