"""End-to-end command-line behavior: commands, outputs, exit codes."""

import dataclasses
import functools
import json
import os
import pathlib
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

import builders
from icsort import cli, crowdlabel
from icsort.bundles import (
    read_feature_bundle,
    read_labels_csv,
    write_feature_bundle,
    write_labels_csv,
    write_recording_bundle,
)
from icsort.categories import CATEGORIES
from icsort.crowdlabel import VOTES_CSV_HEADER
from icsort.errors import DataError
from icsort.features import Recording
from icsort.network import TrainConfig, initialize_weights, save_weights


def _weights_file(tmp_path, seed=0):
    path = tmp_path / "weights.iclw"
    save_weights(path, initialize_weights(seed=seed))
    return path


def _feature_bundle(tmp_path, name="features", n=12, seed=0):
    stack = builders.random_stack(n, seed=seed)
    ids = [f"ic{i:03d}" for i in range(n)]
    target = tmp_path / name
    write_feature_bundle(target, stack, ids, source_recording="rec", sample_rate=128.0)
    return target, ids


def _labels_file(tmp_path, ids, name="labels.csv", seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.dirichlet(np.ones(7), size=len(ids))
    path = tmp_path / name
    write_labels_csv(path, ids, labels)
    return path, labels


def _bundle_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------- extract


def test_extract_writes_a_deterministic_feature_bundle(tmp_path, capsys):
    recording = builders.make_recording(seed=1)
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, recording, recording_id="rec")

    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out1)]) == 0
    assert "extracted 4 of 4 components" in capsys.readouterr().out
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out2)]) == 0

    stack, ids = read_feature_bundle(out1)
    assert ids == ["ic000", "ic001", "ic002", "ic003"]
    assert len(stack) == 4
    # reruns do not change a single byte
    assert _bundle_bytes(out1) == _bundle_bytes(out2)

    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out1)]) == 2
    assert "already exists" in capsys.readouterr().err
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out1),
                     "--force"]) == 0


@pytest.mark.parametrize("existing", ["directory", "file"])
def test_extract_refuses_an_existing_output_before_extracting(tmp_path, monkeypatch, capsys,
                                                               existing):
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, builders.make_recording(seed=1), recording_id="rec")
    out = tmp_path / "features"
    out.mkdir() if existing == "directory" else out.write_text("kept\n")

    def extract_recording(recording):
        raise AssertionError("extract_recording ran for an output that is refused")

    monkeypatch.setattr(cli, "extract_recording", extract_recording)
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "already exists" in err[0] and str(out) in err[0]
    assert sorted(os.listdir(tmp_path)) == ["features", "rec"]  # nothing staged


def test_extract_refuses_an_output_in_a_missing_directory(tmp_path, capsys):
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, builders.make_recording(seed=1), recording_id="rec")
    out = tmp_path / "missing" / "features"
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(out) in err[0]
    assert not (tmp_path / "missing").exists()


def test_extract_force_replaces_a_file_at_the_output(tmp_path, capsys):
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, builders.make_recording(seed=1), recording_id="rec")
    out = tmp_path / "features"
    out.write_text("not a bundle\n")
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out),
                     "--force"]) == 0
    _, ids = read_feature_bundle(out)
    assert ids == ["ic000", "ic001", "ic002", "ic003"]
    assert list(tmp_path.glob(".staging-*")) == []


def test_extract_reports_failed_components_but_keeps_the_rest(tmp_path, capsys):
    base = builders.make_recording(seed=2)
    activity = base.component_activity.copy()
    activity[1] = 0.0  # a constant signal has no autocorrelation
    recording = Recording(
        sample_rate=base.sample_rate,
        electrode_positions=base.electrode_positions,
        mixing_matrix=base.mixing_matrix,
        component_activity=activity,
    )
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, recording, recording_id="rec")

    out = tmp_path / "features"
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "component ic001: autocorrelation is undefined for a constant signal" in err
    assert "1 component(s) failed extraction: ic001" in err

    _, ids = read_feature_bundle(out)  # survivors are still written
    assert ids == ["ic000", "ic002", "ic003"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extract_names_the_array_holding_non_finite_component_data(tmp_path, capsys):
    base = builders.make_recording(seed=3)
    activity = base.component_activity.copy()
    activity[1, 100] = np.nan
    mixing = base.mixing_matrix.copy()
    mixing[5, 2] = np.inf
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, base, recording_id="rec")
    builders.write_damaged_array(rec_dir / "component_activity.bin", activity)
    builders.write_damaged_array(rec_dir / "mixing_matrix.bin", mixing)
    out = tmp_path / "features"
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "component ic001: component_activity" in err
    assert "component ic002: mixing_matrix" in err

    # the finite components are still written, byte for byte as from a clean recording
    stack, ids = read_feature_bundle(out)
    assert ids == ["ic000", "ic003"]
    clean_dir = tmp_path / "clean-rec"
    write_recording_bundle(clean_dir, base, recording_id="rec")
    clean = tmp_path / "clean"
    assert cli.main(["extract", "--recording", str(clean_dir), "--out", str(clean)]) == 0
    clean_stack, _ = read_feature_bundle(clean)
    for name in ("topo", "psd", "autocorr"):
        assert np.array_equal(getattr(stack, name), getattr(clean_stack, name)[[0, 3]])


def test_extract_fails_every_component_of_a_mixing_matrix_stored_as_zeros(tmp_path, capsys):
    # recording bundles hold float32, so a mixing matrix scaled to 1e-320
    # arrives as zeros: no component has a scalp pattern, and no bundle is written
    base = builders.make_recording(seed=4)
    recording = Recording(
        sample_rate=base.sample_rate,
        electrode_positions=base.electrode_positions,
        mixing_matrix=base.mixing_matrix * 1e-320,
        component_activity=base.component_activity,
    )
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, recording, recording_id="rec")
    out = tmp_path / "features"
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for index in range(4):
        assert (f"error: component ic{index:03d}: mixing_matrix column {index} is constant "
                "across channels") in err
    assert err.endswith("error: 4 component(s) failed extraction: ic000, ic001, ic002, ic003\n")
    assert not out.exists()


# ---------------------------------------------------------------- classify


def test_classify_writes_report_and_csv(tmp_path, capsys):
    weights = _weights_file(tmp_path)
    features, ids = _feature_bundle(tmp_path, n=5, seed=3)
    out = tmp_path / "labels.json"
    csv_out = tmp_path / "labels.csv"

    assert cli.main(["classify", "--weights", str(weights), "--features", str(features),
                     "--out", str(out), "--csv", str(csv_out)]) == 0
    assert "classified 5 components (7-class)" in capsys.readouterr().out

    report = json.loads(out.read_text())
    assert report["format"] == "icsort-labels"
    assert report["classes"] == 7
    assert report["category_names"] == list(CATEGORIES)
    assert report["tta"] is True
    assert [c["component_id"] for c in report["components"]] == ids
    for entry in report["components"]:
        label = np.array(entry["label"])
        assert label.shape == (7,)
        assert label.sum() == pytest.approx(1.0, abs=1e-6)
        assert entry["argmax"] == CATEGORIES[int(np.argmax(label))]
        assert entry["confidence"] == pytest.approx(label.max())

    csv_ids, csv_labels = read_labels_csv(csv_out)
    assert csv_ids == ids
    np.testing.assert_allclose(
        csv_labels, [c["label"] for c in report["components"]], atol=1e-15
    )


def test_classify_is_deterministic_and_tta_sensitive(tmp_path):
    weights = _weights_file(tmp_path)
    features, _ = _feature_bundle(tmp_path, n=4, seed=4)
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))

    base = ["classify", "--weights", str(weights), "--features", str(features)]
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert cli.main(base + ["--out", str(out3), "--no-tta"]) == 0
    report = json.loads(out3.read_text())
    assert report["tta"] is False
    assert out3.read_text() != out1.read_text()


def test_classify_merges_categories_and_applies_thresholds(tmp_path):
    weights = _weights_file(tmp_path)
    features, ids = _feature_bundle(tmp_path, n=4, seed=5)
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text(json.dumps({"thresholds": [0.2, 0.2, 0.2, 0.2, 0.2]}))
    out = tmp_path / "merged.json"
    csv_out = tmp_path / "merged.csv"

    assert cli.main(["classify", "--weights", str(weights), "--features", str(features),
                     "--out", str(out), "--csv", str(csv_out), "--merge", "5",
                     "--thresholds", str(thresholds)]) == 0
    report = json.loads(out.read_text())
    assert report["classes"] == 5
    assert report["category_names"] == ["Brain", "Muscle", "Eye", "Heart", "Other"]
    for entry in report["components"]:
        label = np.array(entry["label"])
        assert label.shape == (5,)
        expected = {report["category_names"][i] for i in np.flatnonzero(label >= 0.2)}
        assert set(entry["detections"]) == expected

    csv_ids, merged = read_labels_csv(csv_out, n_categories=5)
    assert csv_ids == ids
    assert merged.shape == (4, 5)

    # threshold count must match the merged class count
    assert cli.main(["classify", "--weights", str(weights), "--features", str(features),
                     "--out", str(tmp_path / "x.json"), "--thresholds", str(thresholds)]) == 2

    # non-numeric, out-of-range or undecodable thresholds are data errors
    for payload in (b'{"thresholds": ["a", 0.2, 0.2, 0.2, 0.2]}', b'[0.2, 0.2, [0.2], 0.2, 0.2]',
                    b'[0.2, 0.2, NaN, 0.2, 0.2]', b'{"thresholds": {"a": 1}}', b'[0.2, "\xff"]',
                    b"[" * 100000, b"[0.2, 1.5, 0.2, 0.2, 0.2]", b"[0.2, Infinity, 0.2, 0.2, 0.2]",
                    b"[0.2, -Infinity, 0.2, 0.2, 0.2]", b"[[0.2, 0.2, 0.2, 0.2, 0.2]]"):
        thresholds.write_bytes(payload)
        assert cli.main(["classify", "--weights", str(weights), "--features", str(features),
                         "--out", str(tmp_path / "y.json"), "--merge", "5",
                         "--thresholds", str(thresholds)]) == 2
    assert not (tmp_path / "y.json").exists()


# ------------------------------------------------------------------- train


def test_train_runs_from_a_config_file_and_logs(tmp_path, capsys):
    features, ids = _feature_bundle(tmp_path, n=12, seed=6)
    labels, _ = _labels_file(tmp_path, ids, seed=6)
    config = tmp_path / "train.cfg"
    config.write_text(
        "batch_size = 8        # tiny for the test\n"
        "val_interval = 2\n"
        "max_batches = 99\n"
        "noise_sigma = 0.0\n"
    )
    out = tmp_path / "weights.iclw"
    log = tmp_path / "train.log"

    code = cli.main(["train", "--features", str(features), "--labels", str(labels),
                     "--config", str(config), "--max-batches", "3",
                     "--out", str(out), "--log", str(log), "--seed", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "trained 3 batches (batch limit)" in stdout

    lines = log.read_text().splitlines()
    assert lines[0].split()[0] == "0"
    assert lines[0].split()[1] == "nan"  # no train loss before the first batch
    assert [line.split()[0] for line in lines] == ["0", "2"]
    for line in lines:
        assert float(line.split()[2]) > 0

    rerun = tmp_path / "again.iclw"
    assert cli.main(["train", "--features", str(features), "--labels", str(labels),
                     "--config", str(config), "--max-batches", "3",
                     "--out", str(rerun), "--log", str(tmp_path / "again.log"),
                     "--seed", "1"]) == 0
    assert out.read_bytes() == rerun.read_bytes()


@pytest.mark.parametrize("line", [
    "beta1 = 1.0",  # Adam's bias correction would divide by zero
    "beta1 = -0.1",
    "beta2 = 1.0",
    "beta2 = nan",
    "epsilon = 0",
    "epsilon = -1e-8",
    "clip_norm = -1",
    "noise_sigma = -0.05",
    "noise_sigma = inf",
    "class_weights = 1,1,1,1,1,1,-50",
    "class_weights = 1,1,nan,1,1,1,1",
    "class_weights = 1,1,1,inf,1,1,1",
])
def test_train_rejects_unsafe_optimizer_settings(tmp_path, capsys, line):
    features, ids = _feature_bundle(tmp_path, n=12, seed=6)
    labels, _ = _labels_file(tmp_path, ids, seed=6)
    config = tmp_path / "train.cfg"
    config.write_text(f"batch_size = 8\n{line}\n")
    out = tmp_path / "weights.iclw"
    assert cli.main(["train", "--features", str(features), "--labels", str(labels),
                     "--config", str(config), "--max-batches", "2", "--out", str(out)]) == 1
    key = line.split()[0]
    assert capsys.readouterr().err.startswith(f"error: {key} must be")
    assert not out.exists()


def test_train_with_explicit_validation_files(tmp_path):
    features, ids = _feature_bundle(tmp_path, "train-f", n=10, seed=7)
    labels, _ = _labels_file(tmp_path, ids, "train-l.csv", seed=7)
    val_features, val_ids = _feature_bundle(tmp_path, "val-f", n=4, seed=8)
    val_labels, _ = _labels_file(tmp_path, val_ids, "val-l.csv", seed=8)
    config = tmp_path / "train.cfg"
    config.write_text("batch_size = 8\nval_interval = 2\nnoise_sigma = 0.0\n")

    assert cli.main(["train", "--features", str(features), "--labels", str(labels),
                     "--val-features", str(val_features), "--val-labels", str(val_labels),
                     "--config", str(config), "--max-batches", "2",
                     "--out", str(tmp_path / "w.iclw")]) == 0

    # giving only one of the two validation flags is a usage error, found
    # before any bundle is read, so an unreadable training bundle does not hide it
    for train_features in (features, tmp_path / "missing"):
        assert cli.main(["train", "--features", str(train_features), "--labels", str(labels),
                         "--val-features", str(val_features), "--config", str(config),
                         "--max-batches", "2", "--out", str(tmp_path / "w2.iclw")]) == 1
        assert cli.main(["train", "--features", str(train_features), "--labels", str(labels),
                         "--val-labels", str(val_labels), "--config", str(config),
                         "--max-batches", "2", "--out", str(tmp_path / "w2.iclw")]) == 1
    assert not (tmp_path / "w2.iclw").exists()


def test_train_verbose_prints_each_validation_then_the_summary(tmp_path, capsys):
    features, ids = _feature_bundle(tmp_path, "train-f", n=10, seed=7)
    labels, _ = _labels_file(tmp_path, ids, "train-l.csv", seed=7)
    val_features, val_ids = _feature_bundle(tmp_path, "val-f", n=4, seed=8)
    val_labels, _ = _labels_file(tmp_path, val_ids, "val-l.csv", seed=8)
    config = tmp_path / "train.cfg"
    config.write_text("batch_size = 8\nval_interval = 2\n")
    out, log = tmp_path / "w.iclw", tmp_path / "train.log"

    assert cli.main(["train", "--features", str(features), "--labels", str(labels),
                     "--val-features", str(val_features), "--val-labels", str(val_labels),
                     "--config", str(config), "--max-batches", "4", "--seed", "2",
                     "--out", str(out), "--log", str(log), "--verbose"]) == 0
    rows = [(int(b), float(t), float(v))
            for b, t, v in (line.split() for line in log.read_text().splitlines())]
    assert [row[0] for row in rows] == [0, 2, 4]
    best_loss, best_batch = min((v, b) for b, _, v in rows)
    assert capsys.readouterr().out.splitlines() == [
        f"batch {b}: train loss {t:.4f}, validation loss {v:.4f}" for b, t, v in rows[1:]
    ] + [f"trained 4 batches (batch limit); best validation loss {best_loss:.6f} "
         f"at batch {best_batch}; weights in {out}"]


def test_train_rejects_mismatched_label_files(tmp_path, capsys):
    features, ids = _feature_bundle(tmp_path, n=8, seed=9)
    labels, _ = _labels_file(tmp_path, ids[1:] + ["other"], seed=9)
    assert cli.main(["train", "--features", str(features), "--labels", str(labels),
                     "--max-batches", "2", "--out", str(tmp_path / "w.iclw")]) == 2
    assert capsys.readouterr().err == (
        f"error: component id mismatch: only in {features}: ['ic000'], "
        f"only in {labels}: ['other']\n")
    assert not (tmp_path / "w.iclw").exists()


def test_train_names_the_options_when_the_default_holdout_is_empty(tmp_path, capsys):
    # n/5 rounds to 0 below 5 examples: the message says so instead of
    # blaming a holdout of 0 that was never given
    features, ids = _feature_bundle(tmp_path, n=4, seed=9)
    labels, _ = _labels_file(tmp_path, ids, seed=9)
    train = ["train", "--features", str(features), "--labels", str(labels),
             "--max-batches", "1", "--out", str(tmp_path / "w.iclw")]
    assert cli.main(train) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: 4 examples are too few for the default")
    assert "--holdout" in err[0] and "--val-features" in err[0] and "--val-labels" in err[0]
    assert "got 0" not in err[0]

    # a holdout given explicitly keeps its own message
    assert cli.main(train + ["--holdout", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: holdout must be between 1 and 3 for 4 examples, got 0\n")
    assert not (tmp_path / "w.iclw").exists()


def test_align_labels_is_linear_in_the_number_of_ids():
    # 20 000 ids, about three times the paper's labelled set; a set rebuilt
    # per id makes this take tens of seconds
    ids = [f"c{i:05d}" for i in range(20000)]
    labels = np.arange(20000.0)[::-1, None] * np.ones((1, 7))
    started = time.perf_counter()
    aligned = cli._align_labels(ids, ids[::-1], labels, "a", "b")
    assert time.perf_counter() - started < 1.0
    assert np.array_equal(aligned[:, 0], np.arange(20000.0))

    with pytest.raises(DataError, match=r"^component id mismatch: only in f.bin: \['c00000'\], "
                                        r"only in l.csv: \['x'\]$"):
        cli._align_labels(ids, ids[1:] + ["x"], labels, "f.bin", "l.csv")
    with pytest.raises(DataError, match=r"only in f.bin: none, only in l.csv: \['x'\]$"):
        cli._align_labels(ids, ids + ["x"], np.vstack([labels, labels[:1]]), "f.bin", "l.csv")


def test_align_labels_names_a_few_ids_per_side_and_counts_the_rest():
    # two disjoint 4000-id files: the message stays one readable line
    ids = [f"a{i:04d}" for i in range(4000)]
    others = [f"b{i:04d}" for i in range(4000)]
    with pytest.raises(DataError) as raised:
        cli._align_labels(ids, others, np.zeros((4000, 7)), "features.bin", "labels.csv")
    message = str(raised.value)
    assert len(message) < 300
    assert message == (
        "component id mismatch: only in features.bin: "
        "['a0000', 'a0001', 'a0002', 'a0003', 'a0004'] and 3995 more, "
        "only in labels.csv: ['b0000', 'b0001', 'b0002', 'b0003', 'b0004'] and 3995 more")
    # five ids are listed whole
    with pytest.raises(DataError, match=r"only in l.csv: \['b0000', 'b0001', 'b0002', 'b0003', "
                                        r"'b0004'\]$"):
        cli._align_labels(ids[:5], others[:5], np.zeros((5, 7)), "f.bin", "l.csv")


def test_parse_config_file_accepts_the_documented_grammar(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "batch_size = 16\n"
        "learning_rate = 0.001\n"
        "beta1 = 0.9   # trailing comment\n"
        "beta2 = 0.99\n"
        "epsilon = 1e-7\n"
        "clip_norm = 10.5\n"
        "class_weights = 2,1,1,1,1,1,1\n"
        "noise_sigma = 0\n"
        "val_interval = 7\n"
        "early_stop_window = 30\n"
        "max_batches = 12\n"
    )
    options = cli.parse_config_file(path)
    assert options == {
        "batch_size": 16,
        "learning_rate": 0.001,
        "beta1": 0.9,
        "beta2": 0.99,
        "epsilon": 1e-7,
        "clip_norm": 10.5,
        "class_weights": (2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        "noise_sigma": 0.0,
        "val_interval": 7,
        "early_stop_window": 30,
        "max_batches": 12,
    }
    assert set(options) == {field.name for field in dataclasses.fields(TrainConfig)}
    assert all(type(options[name]) is type(getattr(TrainConfig(), name))
               for name in options if name != "max_batches")
    assert type(options["max_batches"]) is int
    TrainConfig(**options)

    for bad in ("mystery = 1\n", "batch_size 8\n", "augment = true\n", "batch_size = 1.5\n",
                "max_batches = none\n", "class_weights = 1,x\n"):
        path.write_text(bad)
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(path)


# ---------------------------------------------------------------- aggregate


def _votes_csv(tmp_path, n_components=12, name="votes.csv"):
    rows = [",".join(VOTES_CSV_HEADER)]
    flags = {"Brain": 2, "Muscle": 3, "?": 9}
    offsets = {"ann": 0, "bob": 1, "cyd": 2}
    for i in range(n_components):
        for labeler, is_expert in (("ann", 1), ("bob", 0), ("cyd", 0)):
            response = "Brain" if (i + offsets[labeler]) % 3 else "Muscle"
            cells = ["0"] * 8
            cells[flags[response] - 2] = "1"
            rows.append(f"{labeler},c{i:02d}," + ",".join(cells) + f",{is_expert}")
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def test_aggregate_writes_per_chain_results(tmp_path, capsys):
    votes = _votes_csv(tmp_path)
    out = tmp_path / "crowd.json"
    args = ["aggregate", "--votes", str(votes), "--out", str(out),
            "--burn-in", "40", "--epochs", "80", "--chains", "2", "--seed", "3"]
    assert cli.main(args) == 0
    assert "aggregated 12 components over 2 chain(s)" in capsys.readouterr().out

    report = json.loads(out.read_text())
    assert report["format"] == "icsort-crowd"
    assert report["prior_mode"] == "training"
    assert report["burn_in"] == 40 and report["sampling_epochs"] == 80
    assert [chain["seed"] for chain in report["chains"]] == [3, 4]
    for chain in report["chains"]:
        assert sorted(chain["labels"]) == [f"c{i:02d}" for i in range(12)]
        for vector in chain["labels"].values():
            assert len(vector) == 7
            assert sum(vector) == pytest.approx(1.0, abs=1e-9)
        for matrix in chain["labeler_confusions"].values():
            assert np.asarray(matrix).shape == (7, 8)
    # independent chains genuinely differ
    assert report["chains"][0]["labels"] != report["chains"][1]["labels"]

    rerun = tmp_path / "again.json"
    assert cli.main(args[:4] + [str(rerun)] + args[5:]) == 0
    assert json.loads(rerun.read_text())["chains"] == report["chains"]


def test_a_chain_entry_holds_one_array_per_table(tmp_path):
    # a worker's entry is pickled back to the command, and one stacked array
    # pickles far faster than one small array per component
    submissions, _ = crowdlabel.read_votes_csv(_votes_csv(tmp_path))
    votes = crowdlabel.expand_submissions(submissions)
    prior = crowdlabel.default_priors("training-unknown")
    fit = functools.partial(crowdlabel.cllda_fit, votes, {v.labeler_id: prior for v in votes},
                            crowdlabel.ClassPrior(crowdlabel.TRAINING_CLASS_PRIOR),
                            burn_in=2, sampling_epochs=3)
    entry, _ = cli._chain_entry(fit, seed=0)
    ids, labels = entry["labels"]
    labelers, confusions = entry["labeler_confusions"]
    assert ids == [f"c{i:02d}" for i in range(12)] and labels.shape == (12, 7)
    assert labelers == ["ann", "bob", "cyd"] and confusions.shape == (3, 7, 8)
    result = fit(seed=0)
    assert all(np.array_equal(result.labels[c], row) for c, row in zip(ids, labels))
    assert all(np.array_equal(result.labeler_confusions[l], matrix)
               for l, matrix in zip(labelers, confusions))


@pytest.mark.parametrize("cores", [1, 4])
def test_aggregate_chains_do_not_depend_on_the_process_count(tmp_path, monkeypatch, capsys,
                                                             cores):
    # with 1 core every chain runs in this process; with 4, chains 1 and 2
    # run in forked workers; each chain must equal a one-chain run at its seed
    votes = _votes_csv(tmp_path)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    common = ["aggregate", "--votes", str(votes), "--burn-in", "10", "--epochs", "20"]
    assert cli.main(common + ["--out", str(tmp_path / "three.json"),
                              "--chains", "3", "--seed", "5"]) == 0
    assert "chain wall seconds: " in capsys.readouterr().out
    report = json.loads((tmp_path / "three.json").read_text())
    assert [chain["seed"] for chain in report["chains"]] == [5, 6, 7]
    for i, chain in enumerate(report["chains"]):
        single = tmp_path / f"single{i}.json"
        assert cli.main(common + ["--out", str(single), "--seed", str(5 + i)]) == 0
        assert json.loads(single.read_text())["chains"] == [chain]
        assert len(chain["log_joint"]) == 20
    traces = [chain["log_joint"] for chain in report["chains"]]
    assert report["r_hat"] == crowdlabel.gelman_rubin(traces)
    assert "r_hat" not in json.loads(single.read_text())


@pytest.mark.parametrize("bad", [["--burn-in", "-1"], ["--epochs", "0"]])
def test_aggregate_rejects_a_bad_schedule_before_starting_workers(tmp_path, monkeypatch,
                                                                  capsys, bad):
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_workers)
    out = tmp_path / "crowd.json"
    args = ["aggregate", "--votes", str(_votes_csv(tmp_path)), "--out", str(out),
            "--chains", "2", *bad]
    assert cli.main(args) == 1
    assert "burn_in must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_fails_when_every_labeler_is_filtered_out(tmp_path, capsys):
    votes = _votes_csv(tmp_path, n_components=3)
    assert cli.main(["aggregate", "--votes", str(votes),
                     "--out", str(tmp_path / "crowd.json")]) == 2
    assert "below 10 distinct components" in capsys.readouterr().err


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_predictions(tmp_path, capsys):
    ids = [f"ic{i:03d}" for i in range(14)]
    labels = np.eye(7)[np.arange(14) % 7]
    targets_csv = tmp_path / "targets.csv"
    write_labels_csv(targets_csv, ids, labels)
    predictions_csv = tmp_path / "predictions.csv"
    write_labels_csv(predictions_csv, list(reversed(ids)), labels[::-1])  # any order

    out = tmp_path / "eval.json"
    svg = tmp_path / "eval.svg"
    assert cli.main(["evaluate", "--targets", str(targets_csv),
                     "--predictions", str(predictions_csv),
                     "--out", str(out), "--plot", str(svg)]) == 0
    assert "balanced accuracy 1.0000" in capsys.readouterr().out

    report = json.loads(out.read_text())
    assert report["format"] == "icsort-eval"
    assert report["balanced_accuracy"] == 1.0
    assert report["cross_entropy"] == 0.0
    assert np.trace(np.array(report["confusion"])) == 14
    assert set(report["roc"]) == set(CATEGORIES)
    assert all(auc == 1.0 for auc in report["auc"].values())
    assert set(report["soft_confusions"]) == {"strong", "product", "weak"}
    assert "skipped_categories" not in report
    assert set(report["optimal_thresholds"]) == {"f1", "accuracy"}

    tree = ElementTree.fromstring(svg.read_text())  # valid XML
    assert tree.tag.endswith("svg")


def test_evaluate_merged_classes_and_skipped_categories(tmp_path):
    ids = [f"ic{i:03d}" for i in range(8)]
    targets = np.eye(7)[np.array([0, 0, 0, 0, 1, 1, 2, 3])]
    rng = np.random.default_rng(10)
    predictions = rng.dirichlet(np.ones(7), size=8)
    targets_csv = tmp_path / "targets.csv"
    predictions_csv = tmp_path / "predictions.csv"
    write_labels_csv(targets_csv, ids, targets)
    write_labels_csv(predictions_csv, ids, predictions)

    out = tmp_path / "eval2.json"
    assert cli.main(["evaluate", "--targets", str(targets_csv),
                     "--predictions", str(predictions_csv),
                     "--out", str(out), "--classes", "2"]) == 0
    report = json.loads(out.read_text())
    assert report["classes"] == 2
    assert report["category_names"] == ["Brain", "Other"]

    out7 = tmp_path / "eval7.json"
    with pytest.warns(UserWarning):
        assert cli.main(["evaluate", "--targets", str(targets_csv),
                         "--predictions", str(predictions_csv),
                         "--out", str(out7)]) == 0
    report = json.loads(out7.read_text())
    # categories without positives cannot have a ROC and are reported as skipped
    assert set(report["skipped_categories"]) == {"Line Noise", "Channel Noise", "Other"}
    assert "optimal_thresholds" not in report


def test_evaluate_skips_a_category_whose_soc_point_is_undefined(tmp_path):
    # soft labels can leave one category's soft confusion row empty under the
    # 'strong' AND while its ROC is defined; that category is skipped, not fatal
    ids = [f"ic{i:03d}" for i in range(40)]
    rng = np.random.default_rng(0)
    targets_csv, predictions_csv = tmp_path / "t.csv", tmp_path / "p.csv"
    write_labels_csv(targets_csv, ids, rng.dirichlet(np.ones(7), size=40))
    write_labels_csv(predictions_csv, ids, rng.dirichlet(np.ones(7), size=40))
    out = tmp_path / "eval.json"
    with pytest.warns(UserWarning):
        assert cli.main(["evaluate", "--targets", str(targets_csv),
                         "--predictions", str(predictions_csv), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["skipped_categories"]["Brain"] == (
        "SOC point for category 0 undefined under 'strong': zero confusion mass")
    for name in report["skipped_categories"]:
        assert name not in report["roc"] and name not in report["soc"]
    assert set(report["roc"]) == set(report["soc"]) == set(report["auc"]) != set()


@pytest.mark.parametrize("classes", ["7", "5", "2"])
def test_evaluate_takes_a_row_whose_merged_mass_rounds_above_one(tmp_path, classes):
    # the six non-Brain entries sum to 1 + 2.2e-16, so the merged "Other"
    # membership lies just above 1; the label is valid at every class count
    rows = np.array([
        [0.0, 0.1742571420150498, 0.2613086338075328, 0.005076173651329373,
         0.0005815970385578541, 0.14104526579005514, 0.4177311876974752],
        np.eye(7)[0],
        np.eye(7)[6],
    ])
    assert rows[0, 1:].sum() > 1.0
    labels = tmp_path / "labels.csv"
    write_labels_csv(labels, ["a", "b", "c"], rows)
    out = tmp_path / "eval.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # categories without examples
        assert cli.main(["evaluate", "--targets", str(labels), "--predictions", str(labels),
                         "--out", str(out), "--classes", classes]) == 0
    if classes == "2":  # both merged categories have examples, so both are scored
        assert set(json.loads(out.read_text())["soc"]) == {"Brain", "Other"}


def test_evaluate_rejects_mismatched_component_ids(tmp_path, capsys):
    # the same message as train's: both files named, the ids found in only one
    targets, predictions = tmp_path / "t.csv", tmp_path / "p.csv"
    write_labels_csv(targets, ["a", "b"], np.eye(7)[[0, 1]])
    write_labels_csv(predictions, ["a", "c"], np.eye(7)[[0, 1]])
    assert cli.main(["evaluate", "--targets", str(targets), "--predictions", str(predictions),
                     "--out", str(tmp_path / "e.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: component id mismatch: only in {targets}: ['b'], only in {predictions}: ['c']\n")
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("command", ["classify", "train", "evaluate"])
def test_a_directory_at_the_second_output_stops_the_command_before_the_first(
        tmp_path, capsys, command):
    # every output path is checked before any work, so the first output is
    # not written when the second cannot be
    features, ids = _feature_bundle(tmp_path, n=12, seed=11)
    labels, _ = _labels_file(tmp_path, ids, seed=11)
    first, second = tmp_path / "first.out", tmp_path / "second"
    second.mkdir()
    if command == "classify":
        argv = ["classify", "--weights", str(_weights_file(tmp_path)),
                "--features", str(features), "--out", str(first), "--csv", str(second)]
    elif command == "train":
        config = tmp_path / "train.cfg"
        config.write_text("batch_size = 8\nval_interval = 1\n")
        argv = ["train", "--features", str(features), "--labels", str(labels),
                "--config", str(config), "--max-batches", "1", "--holdout", "4",
                "--out", str(first), "--log", str(second)]
    else:
        predictions, _ = _labels_file(tmp_path, ids, "predictions.csv", seed=12)
        argv = ["evaluate", "--targets", str(labels), "--predictions", str(predictions),
                "--out", str(first), "--plot", str(second)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"error: cannot write {second}: Is a directory"
    assert not first.exists()
    assert list(tmp_path.glob("**/.tmp-*")) == []


# ------------------------------------------------------------------- bench


def test_bench_reports_per_component_timing(tmp_path, capsys):
    weights = _weights_file(tmp_path)
    recording = builders.make_recording(seed=11)
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, recording, recording_id="rec")
    out = tmp_path / "bench.json"

    assert cli.main(["bench", str(rec_dir), "--weights", str(weights),
                     "--out", str(out)]) == 0
    assert "benchmarked 1 recording(s)" in capsys.readouterr().out

    report = json.loads(out.read_text())
    assert report["format"] == "icsort-bench"
    entry = report["recordings"][0]
    assert entry["recording_id"] == "rec"
    assert entry["n_components"] == 4
    assert entry["total_seconds"] > 0
    assert entry["per_component_seconds"] == pytest.approx(entry["total_seconds"] / 4)
    summary = report["summary"]
    assert summary["min_seconds"] <= summary["median_seconds"] <= summary["max_seconds"]
    assert report["reference_median_seconds"] == 0.170
    assert report["ratio_to_reference"] == pytest.approx(
        summary["median_seconds"] / 0.170
    )
    assert report["within_ceiling"] == (summary["max_seconds"] <= 2.0)


# -------------------------------------------------------------- exit codes


def test_usage_and_missing_file_exit_codes(tmp_path, capsys):
    assert cli.main([]) == 1  # no subcommand
    assert cli.main(["classify", "--weights", "w"]) == 1  # missing required flags
    assert cli.main(["extract", "--recording", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "f")]) == 2
    assert cli.main(["classify", "--weights", str(tmp_path / "nope.iclw"),
                     "--features", str(tmp_path / "f"),
                     "--out", str(tmp_path / "o.json")]) == 2

    # a batch size below 1 is a usage error, with or without TTA
    weights = _weights_file(tmp_path)
    features, _ = _feature_bundle(tmp_path, n=3, seed=9)
    for batch_size in ("-1", "0"):
        for tta in ("--tta", "--no-tta"):
            out = tmp_path / f"b{batch_size}{tta}.json"
            assert cli.main(["classify", "--weights", str(weights),
                             "--features", str(features), "--out", str(out),
                             "--batch-size", batch_size, tta]) == 1
            assert not out.exists()

    # so is a chain count below 1, and nothing is written
    votes = _votes_csv(tmp_path)
    for chains in ("0", "-2"):
        out = tmp_path / f"crowd{chains}.json"
        assert cli.main(["aggregate", "--votes", str(votes), "--out", str(out),
                         "--chains", chains]) == 1
        assert "--chains must be at least 1" in capsys.readouterr().err
        assert not out.exists()
    capsys.readouterr()  # drain usage noise


@pytest.mark.parametrize("case", ["weights-is-a-directory", "out-is-a-directory",
                                  "out-in-a-missing-directory"])
def test_classify_names_a_path_it_cannot_use_in_one_error_line(tmp_path, capsys, case):
    weights = _weights_file(tmp_path)
    features, _ = _feature_bundle(tmp_path, n=3)
    out = tmp_path / "report.json"
    if case == "weights-is-a-directory":
        weights = tmp_path / "weights-dir"
        weights.mkdir()
        named = weights
    elif case == "out-is-a-directory":
        out.mkdir()
        named = out
    else:
        out = named = tmp_path / "missing" / "report.json"
    assert cli.main(["classify", "--weights", str(weights), "--features", str(features),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(named) in err[0]
    assert list(tmp_path.glob("**/.tmp-*")) == []


def test_main_parses_every_call_with_one_parser(tmp_path, monkeypatch, capsys):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    labels = tmp_path / "labels.csv"
    write_labels_csv(labels, [f"ic{i:03d}" for i in range(14)], np.eye(7)[np.arange(14) % 7])
    for name in ("a.json", "b.json"):
        assert cli.main(["evaluate", "--targets", str(labels), "--predictions", str(labels),
                         "--out", str(tmp_path / name)]) == 0
    # a usage error after a good call still exits 1, and the next call parses afresh
    assert cli.main(["evaluate", "--targets", str(labels)]) == 1
    assert "--predictions" in capsys.readouterr().err
    assert cli.main(["evaluate", "--targets", str(labels), "--predictions", str(labels),
                     "--out", str(tmp_path / "c.json"), "--classes", "2"]) == 0
    assert json.loads((tmp_path / "c.json").read_text()) != json.loads(
        (tmp_path / "a.json").read_text())
    assert len(parsers) == 4 and all(parser is parsers[0] for parser in parsers)


# ---------------------------------------------------------------- imports


def _scipy_after(statement):
    """The ``scipy`` modules a fresh interpreter holds after running ``statement``."""
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (f"{statement}\nimport sys\n"
              "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def _scipy_loaded_by(argv):
    return _scipy_after(f"import icsort.cli\nif icsort.cli.main({argv!r}):\n"
                        "    raise SystemExit('command failed')")


def _command_argv(tmp_path, command):
    """One run of ``command`` on small inputs in ``tmp_path``."""
    out = str(tmp_path / "out")
    if command == "classify":
        features, _ = _feature_bundle(tmp_path, n=5)
        return ["classify", "--weights", str(_weights_file(tmp_path)),
                "--features", str(features), "--out", out + ".json"]
    if command == "train":
        features, ids = _feature_bundle(tmp_path, n=10)
        labels, _ = _labels_file(tmp_path, ids)
        config = tmp_path / "train.cfg"
        config.write_text("batch_size = 8\nval_interval = 2\n")
        return ["train", "--features", str(features), "--labels", str(labels),
                "--config", str(config), "--max-batches", "2", "--out", out + ".iclw"]
    if command == "evaluate":
        labels = tmp_path / "labels.csv"
        write_labels_csv(labels, [f"ic{i:03d}" for i in range(14)],
                         np.eye(7)[np.arange(14) % 7])
        return ["evaluate", "--targets", str(labels), "--predictions", str(labels),
                "--out", out + ".json", "--plot", out + ".svg"]
    if command in ("bench", "extract"):
        rec_dir = tmp_path / "rec"
        write_recording_bundle(rec_dir, builders.make_recording(seed=11), recording_id="rec")
        if command == "extract":
            return ["extract", "--recording", str(rec_dir), "--out", out]
        return ["bench", str(rec_dir), "--weights", str(_weights_file(tmp_path)),
                "--out", out + ".json"]
    assert command == "aggregate"
    return ["aggregate", "--votes", str(_votes_csv(tmp_path)), "--out", out + ".json",
            "--burn-in", "5", "--epochs", "10", "--chains", "2"]


@pytest.mark.parametrize("command", ["classify", "aggregate", "evaluate", "extract"])
def test_each_json_output_is_json_dumps_of_its_own_parse(tmp_path, command):
    # the reports hold arrays that json_text re-indents from json's compact text
    assert cli.main(_command_argv(tmp_path, command)) == 0
    (path,) = [p for p in (tmp_path / "out.json", tmp_path / "out" / "manifest.json")
               if p.exists()]
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("statement", ["import icsort", "import icsort.cli"])
def test_importing_icsort_loads_no_scipy(statement):
    assert _scipy_after(statement) == set()


@pytest.mark.parametrize("command", ["classify", "train", "evaluate", "aggregate", "bench"])
def test_commands_that_need_no_scipy_load_none(tmp_path, command):
    assert _scipy_loaded_by(_command_argv(tmp_path, command)) == set()


def test_extract_in_a_fresh_process_loads_no_scipy_and_matches_one_run_here(tmp_path):
    recording = builders.make_recording(seed=1)
    rec_dir = tmp_path / "rec"
    write_recording_bundle(rec_dir, recording, recording_id="rec")
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    loaded = _scipy_loaded_by(["extract", "--recording", str(rec_dir), "--out", str(fresh)])
    assert loaded == set()
    assert cli.main(["extract", "--recording", str(rec_dir), "--out", str(here)]) == 0
    assert _bundle_bytes(fresh) == _bundle_bytes(here)


# ------------------------------------------------------------ BLAS threads

_THREAD_RUN = """
import sys
import numpy as np
import icsort.cli
from icsort.features import autocorrelation, median_welch_psd
inputs, out = sys.argv[1:]
for n in (1, 16):
    assert icsort.cli.main(["classify", "--weights", f"{inputs}/weights.iclw",
                            "--features", f"{inputs}/features{n}", "--out", f"{out}/c{n}.json",
                            "--csv", f"{out}/c{n}.csv"]) == 0
assert icsort.cli.main(["train", "--features", f"{inputs}/train", "--labels",
                        f"{inputs}/labels.csv", "--config", f"{inputs}/train.cfg",
                        "--max-batches", "2", "--seed", "3", "--out", f"{out}/w.iclw",
                        "--log", f"{out}/train.log"]) == 0
rng = np.random.default_rng(0)
for rate, seconds in ((128.0, 30), (512.0, 300)):
    x = rng.standard_normal((3, int(rate * seconds))).cumsum(axis=1)
    rows = [f(row, rate) for row in x for f in (median_welch_psd, autocorrelation)]
    np.save(f"{out}/rows{int(rate)}.npy", np.array(rows))
from perfbench.machine import blas_threads
print(sorted(set(blas_threads().values())))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # extract is left out: its 128-channel spline solve differs in the last bits
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a second BLAS thread needs a second CPU")
    _weights_file(tmp_path)
    for n in (1, 16):
        _feature_bundle(tmp_path, name=f"features{n}", n=n, seed=n)
    _, ids = _feature_bundle(tmp_path, name="train", n=160, seed=2)
    _labels_file(tmp_path, ids)
    (tmp_path / "train.cfg").write_text("batch_size = 128\nval_interval = 2\n")
    src = pathlib.Path(cli.__file__).parents[1]
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), str(src.parent), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", _THREAD_RUN, str(tmp_path), str(out)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == f"[{threads}]"  # every loaded BLAS took the count
        outputs[threads] = _bundle_bytes(out)
    assert sorted(outputs["1"]) == ["c1.csv", "c1.json", "c16.csv", "c16.json", "rows128.npy",
                                    "rows512.npy", "train.log", "w.iclw"]
    assert outputs["1"] == outputs["2"]
