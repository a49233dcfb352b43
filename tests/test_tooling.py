"""Tooling outside the package that depends on the program's names."""

import importlib
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_span_targets_resolve(monkeypatch):
    # a traced benchmark run only warns about a target it cannot find and
    # loses that span's coverage, so a renamed function must fail here
    monkeypatch.syspath_prepend(ROOT)
    trace = importlib.import_module("perfbench.trace")
    importlib.import_module("perfbench.cnn_table")
    missing = []
    for workload in ("label", "train", "curate"):
        spans = importlib.import_module(f"perfbench.{workload}").SPANS
        for targets in spans.values():
            for target in targets:
                try:
                    trace._resolve(target)
                except (ImportError, AttributeError):
                    missing.append(target)
    assert missing == []


def test_perfbench_recordings_write_read_and_extract(monkeypatch, tmp_path):
    # the label workload builds its recordings through the program's Recording
    # and bundle writer, so a signature change there must fail here
    monkeypatch.syspath_prepend(ROOT)
    inputs = importlib.import_module("perfbench.inputs")
    from icsort import cli
    from icsort.bundles import read_feature_bundle, read_recording_bundle, write_recording_bundle

    recording = inputs.recording(np.random.default_rng(0), 16, 4, 128.0, 4.0)
    write_recording_bundle(tmp_path / "rec", recording, recording_id="rec")
    loaded, recording_id = read_recording_bundle(tmp_path / "rec")
    assert recording_id == "rec"
    assert loaded.mixing_matrix.shape == (16, 4)
    assert loaded.component_activity.shape == (4, 512)
    assert cli.main(["extract", "--recording", str(tmp_path / "rec"),
                     "--out", str(tmp_path / "features")]) == 0
    stack, ids = read_feature_bundle(tmp_path / "features")
    assert ids == ["ic000", "ic001", "ic002", "ic003"] and len(stack) == 4
