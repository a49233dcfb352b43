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


def test_perfbench_cnn_table_builds_at_a_small_batch(monkeypatch):
    # the traced train run times each layer through the convops signatures,
    # so a change to one of them must fail here, not only in a benchmark run
    monkeypatch.syspath_prepend(ROOT)
    cnn_table = importlib.import_module("perfbench.cnn_table")
    from icsort.network import ARCHITECTURE, initialize_weights

    monkeypatch.setattr(cnn_table, "BATCH", 2)
    monkeypatch.setattr(cnn_table, "REPEATS", 1)
    table = cnn_table.layer_table(initialize_weights(seed=0), np.random.default_rng(0))
    assert {f"network.{spec.name}.bwd_ms" for spec in ARCHITECTURE} <= set(table)
    assert all(np.isfinite(value) for value in table.values())
    assert table["network.lrelu_ms"] > 0


def test_perfbench_traced_aggregate_keeps_a_fit_span(monkeypatch, tmp_path):
    # this process runs chain 0 itself, so a traced curate run keeps its
    # crowdlabel.fit spans when the other chains go to worker processes
    monkeypatch.syspath_prepend(ROOT)
    trace = importlib.import_module("perfbench.trace")
    curate = importlib.import_module("perfbench.curate")
    inputs = importlib.import_module("perfbench.inputs")
    from icsort import cli

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    votes = tmp_path / "votes.csv"
    inputs.vote_log(np.random.default_rng(0), 200, str(votes))
    tracer = trace.Tracer()
    with trace.instrument(tracer, curate.SPANS, curate.Curate.outer_only):
        assert cli.main(["aggregate", "--votes", str(votes), "--out", str(tmp_path / "crowd.json"),
                         "--chains", "2", "--burn-in", "2", "--epochs", "3"]) == 0
    assert len(tracer.durations("crowdlabel.fit")) >= 1


def test_perfbench_traced_extract_interpolates_once_per_recording(monkeypatch, tmp_path):
    # the label workload's features.topography span wraps scalp_topography,
    # so it must hold the whole montage's interpolation in one call
    monkeypatch.syspath_prepend(ROOT)
    trace = importlib.import_module("perfbench.trace")
    label = importlib.import_module("perfbench.label")
    inputs = importlib.import_module("perfbench.inputs")
    from icsort import cli
    from icsort.bundles import write_recording_bundle

    tracer = trace.Tracer()
    with trace.instrument(tracer, label.SPANS, label.Label.outer_only):
        for index, (n_channels, n_components) in enumerate([(16, 16), (24, 5)]):
            recording = inputs.recording(np.random.default_rng(index), n_channels, n_components,
                                         128.0, 4.0)
            write_recording_bundle(tmp_path / f"rec{index}", recording, recording_id="rec")
            assert cli.main(["extract", "--recording", str(tmp_path / f"rec{index}"),
                             "--out", str(tmp_path / f"features{index}")]) == 0
            assert len(tracer.durations("features.topography")) == index + 1
    assert len(tracer.durations("features.psd")) == 21
