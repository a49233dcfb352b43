"""Tooling outside the package that depends on the program's names."""

import ast
import importlib
import os
import re

import numpy as np
import pytest

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


def test_perfbench_merge_matches_the_cli_merge(monkeypatch):
    # the curate workload checks each merged evaluation against its own
    # merge over the imported MERGE_SCHEMES, so the two must agree bit for bit
    monkeypatch.syspath_prepend(ROOT)
    curate = importlib.import_module("perfbench.curate")
    from icsort import cli

    rng = np.random.default_rng(0)
    targets, predictions = rng.dirichlet(np.ones(7), size=(2, 50))
    for classes in ("5", "2"):
        merged_t, merged_p, names = cli._merged_pairs(targets, predictions, classes)
        assert np.array_equal(curate._merge(targets, classes), merged_t)
        assert np.array_equal(curate._merge(predictions, classes), merged_p)
        assert len(names) == merged_t.shape[1] == int(classes)


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


def test_perfbench_feature_set_writes_and_reads_a_feature_bundle(monkeypatch, tmp_path):
    # the train workload builds its stacks with a mask= keyword, which
    # FeatureStack must keep accepting until that call is changed
    monkeypatch.syspath_prepend(ROOT)
    inputs = importlib.import_module("perfbench.inputs")
    from icsort.bundles import read_feature_bundle

    stack, labels = inputs.feature_set(np.random.default_rng(0), 8)
    bundle, csv_path = inputs.write_feature_set(tmp_path, stack, labels, "train")
    loaded, ids = read_feature_bundle(bundle)
    assert ids == [f"train{i:05d}" for i in range(8)] and os.path.isfile(csv_path)
    for name in ("topo", "psd", "autocorr"):
        expected = getattr(stack, name).reshape(8, -1).astype("<f4").astype(np.float64)
        assert np.array_equal(getattr(loaded, name).reshape(8, -1), expected)


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


def test_perfbench_traced_train_keeps_the_augmentation_span(monkeypatch, tmp_path):
    # the orbit rows are drawn per batch, so a traced train run opens
    # network.augment once for the category pools and once per batch
    monkeypatch.syspath_prepend(ROOT)
    trace = importlib.import_module("perfbench.trace")
    train = importlib.import_module("perfbench.train")
    inputs = importlib.import_module("perfbench.inputs")
    from icsort import cli

    features, labels = inputs.write_feature_set(
        str(tmp_path), *inputs.feature_set(np.random.default_rng(0), 24), prefix="tr")
    config = tmp_path / "train.cfg"
    config.write_text("batch_size = 8\n")
    tracer = trace.Tracer()
    with trace.instrument(tracer, train.SPANS, train.Train.outer_only):
        assert cli.main(["train", "--features", features, "--labels", labels,
                         "--config", str(config), "--max-batches", "2", "--holdout", "4",
                         "--out", str(tmp_path / "weights.iclw")]) == 0
    assert len(tracer.durations("network.sample_batch")) == 2
    assert len(tracer.durations("network.augment")) == 3
    assert len(tracer.durations("network.forward_backward")) == 2


def test_the_program_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = {re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
             for requirement in project["dependencies"]}
    assert names == {"numpy"}


def test_only_bundles_imports_json():
    # one JSON encoder (bundles.json_text) and one reader (bundles.read_json)
    package = os.path.join(ROOT, "src", "icsort")
    importers = set()
    for directory, _, files in os.walk(package):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                if any(module.split(".")[0] == "json" for module in modules):
                    importers.add(os.path.relpath(path, package))
    assert importers == {"bundles.py"}


def test_commands_hand_the_json_encoder_arrays_for_their_large_tables(monkeypatch, tmp_path):
    # json_text sends only NumPy arrays through json's C encoder, and the
    # cli.json_text span times it, so a table built as a list again would
    # silently take the slow walk
    monkeypatch.syspath_prepend(ROOT)
    inputs = importlib.import_module("perfbench.inputs")
    import builders
    from icsort import bundles, cli
    from icsort.network import initialize_weights, save_weights

    payloads = []
    monkeypatch.setattr(cli, "_json_text",
                        lambda payload: payloads.append(payload) or bundles.json_text(payload))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rng = np.random.default_rng(0)
    ids = [f"ic{i:03d}" for i in range(28)]
    bundles.write_feature_bundle(tmp_path / "features", builders.random_stack(28, seed=0), ids,
                                 source_recording="rec", sample_rate=128.0)
    save_weights(tmp_path / "weights.iclw", initialize_weights(seed=0))
    hard = np.eye(7)[np.arange(28) % 7]  # every category has targets
    for name in ("targets.csv", "predictions.csv"):
        labels = 0.5 * hard + 0.5 * rng.dirichlet(np.ones(7), size=28)
        bundles.write_labels_csv(tmp_path / name, ids, labels)
    inputs.vote_log(rng, 200, str(tmp_path / "votes.csv"))

    assert cli.main(["classify", "--weights", str(tmp_path / "weights.iclw"),
                     "--features", str(tmp_path / "features"),
                     "--out", str(tmp_path / "labels.json")]) == 0
    assert cli.main(["aggregate", "--votes", str(tmp_path / "votes.csv"), "--chains", "2",
                     "--burn-in", "2", "--epochs", "3", "--out", str(tmp_path / "crowd.json")]) == 0
    assert cli.main(["evaluate", "--targets", str(tmp_path / "targets.csv"),
                     "--predictions", str(tmp_path / "predictions.csv"),
                     "--out", str(tmp_path / "eval.json")]) == 0
    labels, crowd, evaluation = payloads
    tables = [entry["label"] for entry in labels["components"]]
    for chain in crowd["chains"]:
        tables += [*chain["labels"].values(), *chain["labeler_confusions"].values()]
    tables += [*evaluation["roc"].values(), *evaluation["soc"].values(),
               *evaluation["soft_confusions"].values(),
               *(entry["thresholds"] for entry in evaluation["optimal_thresholds"].values()),
               evaluation["confusion"], evaluation["confusion_normalized"]]
    assert len(tables) > 28 + 2 * 100 and len(evaluation["roc"]) == len(evaluation["soc"]) == 7
    assert len(evaluation["optimal_thresholds"]) == 2
    assert all(isinstance(table, np.ndarray) for table in tables)
