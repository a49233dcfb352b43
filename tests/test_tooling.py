"""Tooling outside the package that depends on the program's names."""

import ast
import importlib
import os
import re
import warnings

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


def test_perfbench_balanced_accuracy_matches_the_program(monkeypatch):
    # the curate workload fails an operation whose reported balanced accuracy
    # is more than 1e-9 from its own count, so the two must agree to that
    monkeypatch.syspath_prepend(ROOT)
    curate = importlib.import_module("perfbench.curate")
    from icsort import cli, metrics

    rng = np.random.default_rng(1)
    targets, predictions = rng.dirichlet(np.ones(7), size=(2, 200))
    for classes in ("7", "5", "2"):
        cases = [(targets, False)]
        for group in cli.MERGE_SCHEMES[classes]:  # each merged category left without targets
            others = [c for c in range(7) if c not in group]
            cases.append((np.eye(7)[rng.choice(others, size=200)], True))
        for case_targets, empty in cases:
            merged_t, merged_p, _ = cli._merged_pairs(case_targets, predictions, classes)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                program = metrics.balanced_accuracy(merged_t, merged_p)
            assert len(caught) == int(empty)
            own = curate.balanced_accuracy(curate._merge(case_targets, classes),
                                           curate._merge(predictions, classes))
            assert abs(program - own) <= 1e-9


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


def test_perfbench_traced_curate_records_every_span(monkeypatch, tmp_path):
    # a span that wraps a function the commands no longer call reads 0 ms in
    # every traced run, which looks like free work instead of a dead target
    monkeypatch.syspath_prepend(ROOT)
    trace = importlib.import_module("perfbench.trace")
    curate = importlib.import_module("perfbench.curate")
    inputs = importlib.import_module("perfbench.inputs")
    from icsort import bundles, cli

    rng = np.random.default_rng(0)
    planted = inputs.vote_log(rng, 300, str(tmp_path / "votes.csv"))
    inputs.predictions(rng, planted, str(tmp_path / "predicted.csv"))
    tracer = trace.Tracer()
    with trace.instrument(tracer, curate.SPANS, curate.Curate.outer_only):
        assert cli.main(["aggregate", "--votes", str(tmp_path / "votes.csv"), "--chains", "1",
                         "--burn-in", "2", "--epochs", "3",
                         "--out", str(tmp_path / "crowd.json")]) == 0
        labels = bundles.read_json(tmp_path / "crowd.json")["chains"][0]["labels"]
        bundles.write_labels_csv(tmp_path / "targets.csv", sorted(labels),
                                 np.array([labels[c] for c in sorted(labels)]))
        for classes in curate.CLASSES:
            assert cli.main(["evaluate", "--targets", str(tmp_path / "targets.csv"),
                             "--predictions", str(tmp_path / "predicted.csv"),
                             "--classes", classes, "--out", str(tmp_path / "eval.json"),
                             "--plot", str(tmp_path / "eval.svg")]) == 0
    assert [name for name in curate.SPANS if not tracer.durations(name)] == []


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


def test_the_pinned_training_step_reaches_both_backward_paths():
    # test_training_step_bits_are_pinned (128 rows) pins the blocked forward
    # and row-wise backward through topo2 and topo3 and the cached matrix of
    # every other layer; the tests at 32 rows or fewer pin the cached path
    # alone.  A limit that stops the pinned step from reaching either path
    # must fail here.
    from icsort.network import convops, model, shape_trace

    def matrix_bytes(trace, spec):  # float32 rows (n * out_h * out_w) by columns (fan_in)
        return 4 * int(np.prod(trace[spec.name][:3])) * spec.fan_in

    layers = [spec for spec in model.ARCHITECTURE if spec.kind == "conv2d"]
    trace = shape_trace(1)
    inputs = [(1, 32, 32, 1), trace["topo1"], trace["topo2"], trace["merged"]]
    for spec, shape in zip(layers, inputs):  # the model's own count of each matrix
        padded = convops.pad_2d(np.zeros(shape, np.float32), spec.weight_shape, spec.stride,
                                spec.padding)
        assert padded.cols_nbytes == matrix_bytes(trace, spec), spec.name

    def crossing(n):
        trace = shape_trace(n)
        return [spec.name for spec in layers
                if matrix_bytes(trace, spec) > model.LOWERING_CACHE_LIMIT]

    assert crossing(128) == ["topo2", "topo3"]
    assert crossing(64) == ["topo2"]
    assert crossing(32) == []


def test_inference_lowers_the_topography_in_blocks_of_32_images(monkeypatch):
    # classify and the validation forward build no im2col matrix above
    # 16 MiB (the whole walk builds topo2's 64 MiB at 128 rows), and a batch
    # of 32 rows, the size of every perfbench recording of 32 components or
    # fewer, lowers each topography layer once per walk, for all 32 images.
    # A b128 training step builds none above 16 MiB either, in its forward
    # GEMMs or its backward strips (one walk builds topo2's 64 MiB)
    import builders
    from icsort.features import TOPOGRAPHY_ORBIT
    from icsort.network import classify, convops, forward_backward, initialize_weights, model
    from icsort.network.training import _validation_loss

    lower_padded, strips_of = convops.lower_padded, convops._strips
    lowerings = []  # (matrix bytes, kernel, input channels, images) per lowering
    strips = []  # bytes of each strip a backward pass reads

    def recording(padded):
        lowered = lower_padded(padded)
        lowerings.append((lowered.cols.nbytes, padded.kernel, padded.xp.shape[3],
                          padded.xp.shape[0]))
        return lowered

    def recording_strips(kept):
        for first, cols in strips_of(kept):
            strips.append(cols.nbytes)
            yield first, cols

    monkeypatch.setattr(convops, "lower_padded", recording)
    monkeypatch.setattr(convops, "_strips", recording_strips)
    weights = initialize_weights(seed=0)
    calls = {  # name -> (call, topography walks per batch)
        "classify": (lambda stack: classify(weights, stack.topo, stack.psd, stack.autocorr),
                     len(TOPOGRAPHY_ORBIT)),
        "validation": (lambda stack: _validation_loss(
            weights, stack, np.eye(7)[np.arange(len(stack)) % 7], np.ones(7), 128), 1),
    }
    for name, (call, walks) in calls.items():
        lowerings.clear()
        call(builders.random_stack(130, seed=0))
        assert max(entry[0] for entry in lowerings) <= 16 * 2**20, name
        lowerings.clear()
        call(builders.random_stack(32, seed=0))
        images = {spec.name: [entry[3] for entry in lowerings
                              if entry[1:3] == ((spec.kernel, spec.kernel), spec.in_channels)]
                  for spec in model.BRANCHES[0]}
        assert images == {spec.name: [32] * walks for spec in model.BRANCHES[0]}, name
    lowerings.clear()
    stack = builders.random_stack(128, seed=0)
    forward_backward(weights, stack.topo, stack.psd, stack.autocorr,
                     np.eye(7)[np.arange(128) % 7], np.ones(7))
    assert len(strips) > len(model.ARCHITECTURE)  # topo2 and topo3 read one strip per row
    assert max(entry[0] for entry in lowerings) <= 16 * 2**20
    assert max(strips) <= 16 * 2**20


#: Module-level names in ``src/icsort`` that no other part of ``src/`` names,
#: each kept for the reason given.
_KEPT_UNNAMED = {
    **dict.fromkeys(
        ("conv1d_forward", "conv1d_backward", "conv2d_forward", "conv2d_backward",
         "leaky_relu_grad"),
        "the independent reference of tests/oracles.py, and perfbench/cnn_table.py"),
    "write_recording_bundle": "the writer of the input format, used by the tests and "
                              "perfbench/inputs.py",
}


def _top_level_names(statement) -> set:
    """Names a module-level statement defines: a function, a class, or an alias."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign) and isinstance(statement.value,
                                                        (ast.Name, ast.Attribute)):
        return {target.id for target in statement.targets if isinstance(target, ast.Name)}
    return set()


def _names_read(statement) -> set:
    """Every name, attribute and imported name a statement reads."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_src_defines_nothing_that_src_does_not_name():
    # a function, class or alias that only tests or perfbench reach is dead
    # code in the program; the few kept on purpose are listed with a reason
    package = os.path.join(ROOT, "src", "icsort")
    statements = []
    for directory, _, files in os.walk(package):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as fh:
                    statements += ast.parse(fh.read(), name).body
    reads = [_names_read(statement) for statement in statements]
    unnamed = {name for i, statement in enumerate(statements)
               for name in _top_level_names(statement)
               if not any(name in names for j, names in enumerate(reads) if j != i)}
    assert unnamed == set(_KEPT_UNNAMED)
