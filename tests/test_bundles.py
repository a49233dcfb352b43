"""Array records, bundle directories, and label CSV files."""

import errno
import functools
import json
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import builders
from icsort import bundles
from icsort.bundles import (
    ARRAY_MAGIC,
    KeyedTable,
    atomic_write_text,
    json_text,
    read_array,
    read_csv_rows,
    read_feature_bundle,
    read_labels_csv,
    read_recording_bundle,
    write_array,
    write_feature_bundle,
    write_labels_csv,
    write_recording_bundle,
)
from icsort.categories import first_invalid_label
from icsort.crowdlabel import VOTES_CSV_HEADER, read_votes_csv
from icsort.errors import DataError
from icsort.features import GRID_MASK, FeatureStack, Recording
from icsort.network import initialize_weights, load_weights, save_weights


def _f32(a):
    return np.asarray(a).astype("<f4").astype(np.float64)


# ----------------------------------------------------------- array records


def test_float_array_record_round_trip(tmp_path):
    path = tmp_path / "block.bin"
    array = np.random.default_rng(0).standard_normal((5, 7))
    write_array(path, array)

    raw = path.read_bytes()
    assert raw[:4] == ARRAY_MAGIC
    assert struct.unpack("<III", raw[4:16]) == (1, 5, 7)
    assert len(raw) == 16 + 4 * 35

    loaded = read_array(path)
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, _f32(array))


def test_byte_array_record_round_trip(tmp_path):
    path = tmp_path / "mask.bin"
    mask = np.random.default_rng(1).random((4, 6)) > 0.5
    write_array(path, mask)
    assert path.stat().st_size == 16 + 24

    loaded = read_array(path)
    assert loaded.dtype == np.uint8
    np.testing.assert_array_equal(loaded, mask.astype(np.uint8))


def test_write_array_requires_two_dimensions(tmp_path):
    with pytest.raises(DataError):
        write_array(tmp_path / "x.bin", np.zeros(4))
    with pytest.raises(DataError):
        write_array(tmp_path / "x.bin", np.zeros((2, 2, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_array_refuses_non_finite_values_by_row_and_column(tmp_path, value):
    array = np.zeros((3, 4))
    array[2, 1] = value
    array[2, 3] = 1e39  # later in row order: the first bad value is the one named
    with pytest.raises(DataError,
                       match=rf"x\.bin: value {value!r} at row 2, column 1 is not finite$"):
        write_array(tmp_path / "x.bin", array)
    assert not (tmp_path / "x.bin").exists()


def test_read_array_rejects_corrupt_records(tmp_path):
    path = tmp_path / "block.bin"
    write_array(path, np.ones((3, 3)))
    good = path.read_bytes()

    path.write_bytes(good[:10])  # truncated header
    with pytest.raises(DataError, match="truncated"):
        read_array(path)

    path.write_bytes(b"NOPE" + good[4:])
    with pytest.raises(DataError, match="magic"):
        read_array(path)

    path.write_bytes(good[:4] + struct.pack("<III", 9, 3, 3) + good[16:])
    with pytest.raises(DataError, match="version"):
        read_array(path)

    path.write_bytes(good + b"\x00")  # trailing byte
    with pytest.raises(DataError, match="body"):
        read_array(path)

    path.write_bytes(good[:-4])  # missing value
    with pytest.raises(DataError, match="body"):
        read_array(path)


def test_atomic_write_leaves_no_temporaries(tmp_path):
    path = tmp_path / "note.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(path, "rewritten\n")
    assert path.read_text() == "rewritten\n"
    assert os.listdir(tmp_path) == ["note.txt"]


# -------------------------------------------------------- recording bundles


def test_recording_bundle_round_trip(tmp_path):
    recording = builders.make_recording(seed=2)
    target = tmp_path / "rec01"
    write_recording_bundle(target, recording, recording_id="session-7")

    arrays = ["component_activity", "electrode_positions", "mixing_matrix"]
    assert sorted(os.listdir(target)) == sorted([f"{a}.bin" for a in arrays] + ["manifest.json"])
    manifest = json.loads((target / "manifest.json").read_text())
    assert sorted(manifest["arrays"]) == arrays

    loaded, recording_id = read_recording_bundle(target)
    assert recording_id == "session-7"
    assert loaded.sample_rate == recording.sample_rate
    np.testing.assert_array_equal(
        loaded.electrode_positions, _f32(recording.electrode_positions)
    )
    np.testing.assert_array_equal(loaded.mixing_matrix, _f32(recording.mixing_matrix))
    np.testing.assert_array_equal(
        loaded.component_activity, _f32(recording.component_activity)
    )

    # an older bundle that lists its channel data still loads; the array is not opened
    manifest["arrays"]["channel_data"] = "channel_data.bin"
    (target / "manifest.json").write_text(json.dumps(manifest))
    older, _ = read_recording_bundle(target)
    np.testing.assert_array_equal(older.mixing_matrix, loaded.mixing_matrix)
    np.testing.assert_array_equal(older.component_activity, loaded.component_activity)


def test_recording_bundle_refuses_activity_beyond_the_f32_range(tmp_path):
    recording = builders.make_recording(seed=2)
    recording.component_activity = recording.component_activity * 1e152
    with pytest.raises(DataError, match=r"component_activity\.bin: value .* beyond the float32") as err:
        write_recording_bundle(tmp_path / "rec01", recording)
    # the message names the bundle the caller gave, not the deleted staging directory
    assert str(err.value).startswith(os.path.join(str(tmp_path / "rec01"), "component_activity.bin"))
    assert ".staging-" not in str(err.value)
    assert os.listdir(tmp_path) == []  # refused at write time: no bundle, no staging


def test_recording_bundle_id_defaults_to_directory_name(tmp_path):
    recording = builders.make_recording(seed=3)
    write_recording_bundle(tmp_path / "night2", recording)
    _, recording_id = read_recording_bundle(tmp_path / "night2")
    assert recording_id == "night2"


def test_bundle_writes_refuse_to_clobber_without_force(tmp_path):
    recording = builders.make_recording(seed=4)
    target = tmp_path / "rec"
    write_recording_bundle(target, recording, recording_id="first")

    with pytest.raises(DataError, match="already exists"):
        write_recording_bundle(target, recording, recording_id="second")
    _, recording_id = read_recording_bundle(target)
    assert recording_id == "first"  # original untouched

    write_recording_bundle(target, recording, recording_id="second", force=True)
    _, recording_id = read_recording_bundle(target)
    assert recording_id == "second"
    # staging directories are cleaned up in every case
    assert [n for n in os.listdir(tmp_path) if n.startswith(".staging")] == []


@pytest.mark.parametrize("error, raised", [
    (OSError(errno.EIO, "I/O error"), OSError),
    (PermissionError(errno.EACCES, "Permission denied"), DataError),
])
def test_a_forced_bundle_write_that_fails_to_commit_keeps_the_old_bundle(tmp_path, monkeypatch,
                                                                         error, raised):
    recording = builders.make_recording(seed=4)
    target = tmp_path / "rec"
    write_recording_bundle(target, recording, recording_id="first")
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(src).startswith(".staging-"):  # the new bundle onto the target
            raise error
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(raised):
        write_recording_bundle(target, recording, recording_id="second", force=True)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in target.iterdir()} == before
    assert read_recording_bundle(target)[1] == "first"
    assert os.listdir(tmp_path) == ["rec"]  # no .staging-* or .old-* left


def test_bundle_directories_get_the_mode_of_a_plain_mkdir(tmp_path):
    umask = os.umask(0o022)  # a umask that leaves group and other bits to compare
    try:
        (tmp_path / "plain").mkdir()
        write_recording_bundle(tmp_path / "rec", builders.make_recording(seed=4))
        write_feature_bundle(tmp_path / "feats", builders.random_stack(2, seed=4), ["a", "b"])
    finally:
        os.umask(umask)
    plain = (tmp_path / "plain").stat().st_mode
    assert (tmp_path / "rec").stat().st_mode == plain  # not mkdtemp's 0700
    assert (tmp_path / "feats").stat().st_mode == plain


def test_read_recording_bundle_rejects_broken_manifests(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        read_recording_bundle(tmp_path / "missing")

    recording = builders.make_recording(seed=5)
    target = tmp_path / "rec"
    write_recording_bundle(target, recording)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())

    manifest_path.write_text("{not json")
    with pytest.raises(DataError, match="JSON"):
        read_recording_bundle(target)

    broken = dict(manifest, format="icsort-features")
    manifest_path.write_text(json.dumps(broken))
    with pytest.raises(DataError, match="format"):
        read_recording_bundle(target)

    broken = dict(manifest, arrays={})
    manifest_path.write_text(json.dumps(broken))
    with pytest.raises(DataError, match="missing arrays"):
        read_recording_bundle(target)

    broken = dict(manifest)
    del broken["sample_rate"]
    manifest_path.write_text(json.dumps(broken))
    with pytest.raises(DataError, match="sample_rate"):
        read_recording_bundle(target)

    # every malformed manifest is a DataError that names the bundle
    (target / "subdir").mkdir()
    outside = tmp_path / "outside.bin"  # a real array file next to the bundle
    outside.write_bytes((target / manifest["arrays"]["mixing_matrix"]).read_bytes())
    for text, message in (
        (json.dumps([manifest]), "JSON object"),
        (json.dumps(dict(manifest, arrays=list(manifest["arrays"]))), "arrays"),
        (json.dumps(dict(manifest, sample_rate="abc")), "sample_rate"),
        (json.dumps(dict(manifest, sample_rate=[1])), "sample_rate"),
        (json.dumps(dict(manifest, arrays=dict(manifest["arrays"], mixing_matrix="subdir"))),
         "mixing_matrix"),
        (json.dumps(dict(manifest, arrays=dict(manifest["arrays"], mixing_matrix=7))),
         "mixing_matrix"),
        (json.dumps(dict(manifest, arrays=dict(manifest["arrays"],
                                               mixing_matrix="../outside.bin"))),
         "mixing_matrix entry '../outside.bin' is outside the bundle"),
        (json.dumps(dict(manifest, arrays=dict(manifest["arrays"], mixing_matrix=str(outside)))),
         "mixing_matrix entry .* is outside the bundle"),
    ):
        manifest_path.write_text(text)
        with pytest.raises(DataError, match=message) as info:
            read_recording_bundle(target)
        assert str(target) in str(info.value)
    for raw in (b'{"format": "\xff\xfe"}', b"[" * 100000):  # not UTF-8; nested too deep
        manifest_path.write_bytes(raw)
        with pytest.raises(DataError, match="JSON"):
            read_recording_bundle(target)


# ---------------------------------------------------------- feature bundles


def test_feature_bundle_round_trip(tmp_path):
    stack = builders.random_stack(3, seed=6)
    ids = ["ic000", "ic001", "ic002"]
    target = tmp_path / "features"
    write_feature_bundle(target, stack, ids, source_recording="rec", sample_rate=128.0)

    loaded, loaded_ids = read_feature_bundle(target)
    assert loaded_ids == ids
    assert len(loaded) == 3
    np.testing.assert_array_equal(loaded.topo, _f32(stack.topo))
    np.testing.assert_array_equal(loaded.psd, _f32(stack.psd))
    np.testing.assert_array_equal(loaded.autocorr, _f32(stack.autocorr))

    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["source_recording"] == "rec"
    assert manifest["sample_rate"] == 128.0
    # the mask is the constant GRID_MASK, so a bundle does not store one
    assert sorted(manifest["arrays"]) == ["autocorr", "psd", "topo"]
    assert sorted(p.name for p in target.iterdir()) == [
        "autocorr.bin", "manifest.json", "psd.bin", "topo.bin"]


def _older_feature_bundle(target, ids=("a", "b"), seed=6):
    """A feature bundle as written before masks were dropped: it lists a GRID_MASK mask.bin."""
    write_feature_bundle(target, builders.random_stack(len(ids), seed=seed), list(ids))
    mask = np.broadcast_to(GRID_MASK.ravel(), (len(ids), 1024)).astype(np.uint8)
    write_array(target / "mask.bin", mask)
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["arrays"]["mask"] = "mask.bin"
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def test_an_older_feature_bundle_with_a_grid_mask_loads(tmp_path):
    _older_feature_bundle(tmp_path / "older")
    write_feature_bundle(tmp_path / "new", builders.random_stack(2, seed=6), ["a", "b"])
    older, older_ids = read_feature_bundle(tmp_path / "older")
    new, new_ids = read_feature_bundle(tmp_path / "new")
    assert older_ids == new_ids == ["a", "b"]
    for name in ("topo", "psd", "autocorr"):
        assert np.array_equal(getattr(older, name), getattr(new, name))


def test_an_older_feature_bundle_with_another_mask_is_rejected(tmp_path):
    target = tmp_path / "flipped"
    _older_feature_bundle(target)
    mask = read_array(target / "mask.bin")
    mask[1, 0] ^= 1  # one pixel of component b
    write_array(target / "mask.bin", mask)
    with pytest.raises(DataError, match="component b: mask differs from GRID_MASK") as info:
        read_feature_bundle(target)
    assert str(target) in str(info.value)

    for shape in ((2, 1023), (1, 1024), (3, 1024)):
        target = tmp_path / f"shape-{shape[0]}x{shape[1]}"
        _older_feature_bundle(target)
        write_array(target / "mask.bin", np.ones(shape, dtype=np.uint8))
        with pytest.raises(DataError, match=r"mask array must be \(2, 1024\)"):
            read_feature_bundle(target)


def test_write_feature_bundle_validates_component_ids(tmp_path):
    stack = builders.random_stack(3, seed=7)
    with pytest.raises(DataError, match="component ids"):
        write_feature_bundle(tmp_path / "f", stack, ["a", "b"])
    with pytest.raises(DataError, match="unique"):
        write_feature_bundle(tmp_path / "f", stack, ["a", "b", "a"])
    assert not (tmp_path / "f").exists()


def test_read_feature_bundle_checks_array_shapes(tmp_path):
    stack = builders.random_stack(2, seed=8)
    target = tmp_path / "features"
    write_feature_bundle(target, stack, ["a", "b"])
    write_array(target / "psd.bin", np.zeros((2, 99)))
    with pytest.raises(DataError, match="psd"):
        read_feature_bundle(target)

    # non-finite feature values are named by component and array
    for name in ("topo", "psd", "autocorr"):
        target = tmp_path / f"nonfinite-{name}"
        write_feature_bundle(target, stack, ["a", "b"])
        values = read_array(target / f"{name}.bin")
        values[1, 7] = np.nan if name == "psd" else np.inf
        builders.write_damaged_array(target / f"{name}.bin", values)
        with pytest.raises(DataError, match=f"component b: {name} has non-finite"):
            read_feature_bundle(target)

    # so is a duplicate component id
    target = tmp_path / "duplicates"
    write_feature_bundle(target, stack, ["a", "b"])
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["component_ids"] = ["b", "b"]
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="component b: duplicate"):
        read_feature_bundle(target)


# ------------------------------------------------------------- label CSVs


def test_labels_csv_round_trips_at_full_precision(tmp_path):
    path = tmp_path / "labels.csv"
    rng = np.random.default_rng(9)
    labels = rng.dirichlet(np.ones(7), size=4)
    ids = [f"ic{i:03d}" for i in range(4)]
    write_labels_csv(path, ids, labels)

    header = path.read_text().splitlines()[0]
    assert header == (
        "component_id,brain,muscle,eye,heart,line_noise,channel_noise,other"
    )
    loaded_ids, loaded = read_labels_csv(path)
    assert loaded_ids == ids
    np.testing.assert_array_equal(loaded, labels)  # repr() round-trips exactly


def test_labels_csv_supports_merged_category_sets(tmp_path):
    path = tmp_path / "merged.csv"
    names = ("Brain", "Muscle", "Eye", "Heart", "Other")
    labels = np.array([[0.2, 0.2, 0.2, 0.2, 0.2]])
    write_labels_csv(path, ["ic000"], labels, category_names=names)
    assert path.read_text().splitlines()[0] == "component_id,brain,muscle,eye,heart,other"

    ids, loaded = read_labels_csv(path, n_categories=5)
    assert ids == ["ic000"]
    np.testing.assert_array_equal(loaded, labels)
    with pytest.raises(DataError, match="category columns"):
        read_labels_csv(path)  # expects 7 by default


def test_write_labels_csv_validates_inputs(tmp_path):
    path = tmp_path / "labels.csv"
    labels = np.full((2, 7), 1.0 / 7.0)
    with pytest.raises(DataError, match="labels must be"):
        write_labels_csv(path, ["a"], labels)
    with pytest.raises(DataError, match="metacharacters"):
        write_labels_csv(path, ["a,b", "c"], labels)


def test_read_labels_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "labels.csv"

    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_labels_csv(path)

    path.write_text("id,brain,muscle\nx,0.5,0.5\n")
    with pytest.raises(DataError, match="component_id"):
        read_labels_csv(path)

    header = "component_id,brain,muscle,eye,heart,line_noise,channel_noise,other\n"
    path.write_text(header + "a,0.5,0.5\n")
    with pytest.raises(DataError, match="fields"):
        read_labels_csv(path)

    path.write_text(header + "a,0.5,0.5,0,0,0,0,oops\n")
    with pytest.raises(DataError, match="non-numeric"):
        read_labels_csv(path)

    row = "a," + ",".join(["0.2"] * 7) + "\n"  # sums to 1.4
    path.write_text(header + row)
    with pytest.raises(DataError, match="sums to"):
        read_labels_csv(path)

    good = "a,1.0,0,0,0,0,0,0\n"
    path.write_text(header + good + good)
    with pytest.raises(DataError, match="duplicate"):
        read_labels_csv(path)

    path.write_text(header)
    with pytest.raises(DataError, match="no label rows"):
        read_labels_csv(path)

    # the whole stack is checked at once; the error names the first bad
    # row's line (blank lines count) and the first check that row fails
    good = ["a,1.0,0,0,0,0,0,0", "", "b,0.5,0.5,0,0,0,0,0"]
    negative = "c,-0.5,1.5,0,0,0,0,0"
    non_finite_and_negative = "d,nan,-1,1,1,0,0,0"
    off_sum = "e,0.2,0.2,0.2,0.2,0.2,0.2,0.2"
    for rows, reason in (
        ([negative, non_finite_and_negative, off_sum], "contains negative entries"),
        ([non_finite_and_negative, negative], "contains non-finite entries"),
        ([off_sum, negative], "sums to 1.4"),
    ):
        path.write_text(header + "\n".join(good + rows) + "\n")
        with pytest.raises(DataError, match=rf"labels\.csv:5: label vector {reason}"):
            read_labels_csv(path)

    path.write_bytes(header.encode() + b"\xffa,1.0,0,0,0,0,0,0\n")  # not UTF-8
    with pytest.raises(DataError, match="CSV"):
        read_labels_csv(path)


def test_read_labels_csv_names_the_first_repeated_id_and_both_its_lines(tmp_path):
    path = tmp_path / "labels.csv"
    header = "component_id,brain,muscle,eye,heart,line_noise,channel_noise,other\n"
    rows = ["a,1,0,0,0,0,0,0", "b,0,1,0,0,0,0,0", "", " b ,0,0,1,0,0,0,0", "a,0,0,0,1,0,0,0"]
    path.write_text(header + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r"labels\.csv: duplicate component id 'b' on lines 3 and 5$"):
        read_labels_csv(path)


def test_read_labels_csv_reports_a_bad_row_before_undecodable_bytes_after_it(tmp_path):
    # a row is judged before anything read after it, as when rows were checked one by one
    path = tmp_path / "labels.csv"
    header = "component_id,brain,muscle\n"
    body = "a,0.5,oops\n" + "".join(f"r{i},0.5,0.5\n" for i in range(2000))
    path.write_bytes((header + body).encode() + b"\xff\n")
    with pytest.raises(DataError, match=r"labels\.csv:2: non-numeric probability"):
        read_labels_csv(path, n_categories=2)
    path.write_bytes((header + "a,0.5\n" + body).encode() + b"\xff\n")
    with pytest.raises(DataError, match=r"labels\.csv:2: expected 3 fields, got 2"):
        read_labels_csv(path, n_categories=2)
    path.write_bytes((header + body.replace("oops", "0.5")).encode() + b"\xff\n")
    with pytest.raises(DataError, match="not a readable CSV file"):
        read_labels_csv(path, n_categories=2)


def test_read_labels_csv_reads_row_by_row_when_the_one_cast_refuses(tmp_path, monkeypatch):
    # should NumPy's cast refuse a text that ``float`` reads, the reader still reads the file
    path = tmp_path / "labels.csv"
    path.write_text("component_id,brain,muscle\na, 1.0 ,0\nb,.5,0_5e-1\n")
    expected = read_labels_csv(path, n_categories=2)

    class RefusingText:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def array(values, *args, **kwargs):
            if values and isinstance(values[0], str):
                raise ValueError("refused")
            return np.array(values, *args, **kwargs)

    monkeypatch.setattr(bundles, "np", RefusingText())
    ids, labels = read_labels_csv(path, n_categories=2)
    assert ids == expected[0]
    assert labels.dtype == np.float64 and labels.tobytes() == expected[1].tobytes()
    path.write_text("component_id,brain,muscle\na,1,0\nb,.5,oops\n")
    with pytest.raises(DataError, match=r"labels\.csv:3: non-numeric probability: "
                                        r"could not convert string to float: 'oops'$"):
        read_labels_csv(path, n_categories=2)


def _labels_row_by_row(path, n_categories):
    """The label CSV reader as it was, checking each row as it is read: the
    reference for ``read_labels_csv``, with today's duplicate-id message."""
    rows = read_csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty label file")
    if not header or header[0].strip() != "component_id":
        raise DataError(f"{path}: first column must be component_id")
    k = len(header) - 1
    if k < 2:
        raise DataError(f"{path}: need at least 2 category columns, found {k}")
    component_ids, line_numbers, rows_values = [], [], []
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != k + 1:
            raise DataError(f"{path}:{line_no}: expected {k + 1} fields, got {len(row)}")
        component_ids.append(row[0].strip())
        line_numbers.append(line_no)
        try:
            rows_values.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: non-numeric probability: {exc}") from exc
    if not component_ids:
        raise DataError(f"{path}: no label rows found")
    labels = np.array(rows_values, dtype=np.float64)
    problem = first_invalid_label(labels)
    if problem:
        row, reason = problem
        raise DataError(f"{path}:{line_numbers[row]}: {reason}")
    seen = {}
    for line_no, cid in zip(line_numbers, component_ids):
        if cid in seen:
            raise DataError(f"{path}: duplicate component id {cid!r} on lines "
                            f"{seen[cid]} and {line_no}")
        seen[cid] = line_no
    if k != n_categories:
        raise DataError(f"{path}: expected {n_categories} category columns, found {k}")
    return component_ids, labels


#: Cells as ``float`` reads them or not: underscores, padding, NaN, overflow, names, junk.
_LABEL_CELLS = st.sampled_from(["0", "1", "0.5", " .5 ", "1_0", "nan", "-0.0", "1e400",
                                "Infinity", "-inf", "1e-400", "oops", "", " ", "1__0"])
_ZEROS, _ONES, _HALVES = ["0", "-0.0", " 0 ", "1e-400", "0_0"], ["1", " 1.0 ", "10e-1"], ["0.5", " .5 "]
_LABEL_IDS = st.sampled_from(["a", "b", " c ", '"q,1"', '"r ""s"""', ""])


@st.composite
def _label_rows(draw, k):
    """The cells of a row holding a valid label vector, spelt in the ways ``float`` reads."""
    cells = [draw(st.sampled_from(_ZEROS)) for _ in range(k)]
    hot = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2, unique=True))
    for j in hot:
        cells[j] = draw(st.sampled_from(_ONES if len(hot) == 1 else _HALVES))
    return cells


@st.composite
def _label_files(draw):
    """A label CSV's text and the category count asked for: valid rows with
    repeated ids, and blank rows, wrong field counts and bad cells."""
    k = draw(st.integers(2, 3))
    lines = [",".join(["component_id"] + [f"cat{i}" for i in range(k)])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["good"] * 6 + ["cells", "blank", "spaces", "count"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" , " * draw(st.integers(0, k)))
        else:
            fields = k + (draw(st.sampled_from([-1, 1, 2])) if kind == "count" else 0)
            cells = draw(_label_rows(k) if kind == "good" else st.lists(
                _LABEL_CELLS, min_size=fields, max_size=fields))
            lines.append(",".join([draw(_LABEL_IDS)] + cells))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return (ending.join(lines) + draw(st.sampled_from([ending, ""])),
            draw(st.sampled_from([k, k, 7])))


@settings(max_examples=300, deadline=None)
@given(case=_label_files())
def test_read_labels_csv_reads_as_row_by_row_reading_did(tmp_path_factory, case):
    text, n_categories = case
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    path.write_bytes(text.encode())

    def outcome(reader):
        try:
            ids, labels = reader(path, n_categories)
        except DataError as exc:
            return str(exc)
        return ids, labels.shape, labels.view(np.uint64).tolist()

    assert outcome(read_labels_csv) == outcome(_labels_row_by_row)


# ------------------------------------------------------- damaged files


def _write_votes(path):
    rows = [",".join(VOTES_CSV_HEADER)]
    for i, flags in enumerate(("1,0,0,0,0,0,0,0", "0,1,0,0,0,0,1,0", "0,0,0,0,0,0,0,1")):
        rows.append(f"ann,c{i:02d},{flags},{i % 2}")
    path.write_text("\n".join(rows) + "\n")


def _read_with_mask(path):
    """Read an older feature bundle whose mask.bin holds the bytes at ``path``."""
    target = path.parent / "older-features"
    if not target.exists():
        _older_feature_bundle(target)
    shutil.copyfile(path, target / "mask.bin")
    read_feature_bundle(target)


_VALID_FILES = {
    "array": (lambda path: write_array(path, np.arange(12.0).reshape(3, 4)), read_array),
    "weights": (lambda path: save_weights(path, initialize_weights(seed=0)), load_weights),
    "labels": (lambda path: write_labels_csv(path, ["a", "b"], np.eye(7)[[0, 3]]),
               read_labels_csv),
    "votes": (_write_votes, read_votes_csv),
    "mask": (lambda path: write_array(path, np.tile(GRID_MASK.ravel(), (2, 1))),
             _read_with_mask),
}


@functools.lru_cache(maxsize=None)
def _valid_bytes(kind, directory):
    path = directory / f"valid-{kind}"
    _VALID_FILES[kind][0](path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", sorted(_VALID_FILES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_readers_raise_only_data_error_on_damaged_bytes(tmp_path_factory, kind, data):
    good = _valid_bytes(kind, tmp_path_factory.getbasetemp())
    length = data.draw(st.one_of(st.just(len(good)), st.integers(0, len(good))), label="length")
    # a file's headers sit in its first bytes, so many flips are aimed there
    position = st.one_of(st.integers(0, min(63, len(good) - 1)), st.integers(0, len(good) - 1))
    flips = data.draw(st.lists(st.tuples(position, st.integers(0, 7)), max_size=4), label="flips")
    damaged = bytearray(good)
    for index, bit in flips:
        damaged[index] ^= 1 << bit
    path = tmp_path_factory.getbasetemp() / f"damaged-{kind}"
    path.write_bytes(bytes(damaged[:length]))
    try:
        _VALID_FILES[kind][1](path)
    except DataError:
        pass


# ------------------------------------------------------ writer round trips

#: Values a writer must store, refuse, or have its reader refuse: NaN and
#: infinities (refused by the array writer, passed by the label CSV writer to
#: its reader), finite values beyond the f32 range, the f32 maximum, a value
#: that underflows to zero, and -0.
_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 1e39, -1e300, 3.4028235e38, 1e-46, -0.0])


def _floats(data, shape, label):
    """A seeded float64 array of ``shape`` with a few drawn special values planted in it."""
    seed = data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed")
    array = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
    if array.size:
        planted = data.draw(st.lists(st.tuples(st.integers(0, array.size - 1), _SPECIAL),
                                     max_size=2), label=f"{label} specials")
        for flat, value in planted:
            array.flat[flat] = value
    return array


def _same(got, expected):
    """Equal up to f32 rounding, NaN matching NaN, and of the same shape."""
    with np.errstate(over="ignore"):
        rounded = np.asarray(expected).astype("<f4").astype(np.float64)
    return got.shape == rounded.shape and np.array_equal(got, rounded, equal_nan=True)


def _write_array_case(data, path):
    shape = tuple(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3), label="shape"))
    kind = data.draw(st.sampled_from(["float64", "float32", "bool", "uint8"]), label="dtype")
    values = _floats(data, shape, "array")
    with np.errstate(over="ignore", invalid="ignore"):
        array = values > 0 if kind == "bool" else values.astype(kind)
    if kind in ("bool", "uint8"):
        expected = array.astype(np.uint8)
        check = lambda got: got.shape == shape and np.array_equal(got, expected)
    else:
        check = lambda got: _same(got, array)
    return lambda: write_array(path, array), lambda: check(read_array(path))


def _recording_bundle_case(data, path):
    n_channels = data.draw(st.integers(2, 4), label="channels")
    n_components = data.draw(st.integers(1, 3), label="components")
    n_samples = data.draw(st.integers(1, 6), label="samples")
    sample_rate = data.draw(st.floats(2.0, 1e300), label="sample_rate")
    recording = Recording(sample_rate, builders.electrode_cap(n_channels),
                          _floats(data, (n_channels, n_components), "mixing"),
                          _floats(data, (n_components, n_samples), "activity"))

    def check():
        loaded, recording_id = read_recording_bundle(path)
        return (recording_id == "rec" and loaded.sample_rate == sample_rate
                and all(_same(getattr(loaded, name), getattr(recording, name))
                        for name in ("electrode_positions", "mixing_matrix",
                                     "component_activity")))

    return lambda: write_recording_bundle(path, recording, recording_id="rec"), check


def _feature_bundle_case(data, path):
    n = data.draw(st.integers(0, 3), label="rows")
    width = st.sampled_from([100, 100, 99])
    topo_shape = (n, *data.draw(st.sampled_from([(32, 32), (32, 32), (32, 31), (16, 16)]),
                                label="image"))
    shapes = [topo_shape, (n + data.draw(st.sampled_from([0, 0, 1]), label="extra psd rows"),
                           data.draw(width, label="psd width")),
              (n, data.draw(width, label="autocorr width"))]
    stack = FeatureStack(*(_floats(data, shape, name) for shape, name in
                           zip(shapes, ("topo", "psd", "autocorr"))))
    ids = [f"c{i}" for i in range(n)]

    def check():
        loaded, loaded_ids = read_feature_bundle(path)
        return loaded_ids == ids and all(_same(getattr(loaded, name), getattr(stack, name))
                                         for name in ("topo", "psd", "autocorr"))

    return lambda: write_feature_bundle(path, stack, ids), check


def _labels_csv_case(data, path):
    n = data.draw(st.integers(0, 3), label="rows")
    ids = data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n), label="ids")
    labels = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")) \
        .dirichlet(np.ones(7), size=n)
    if n and data.draw(st.booleans(), label="damaged"):
        labels = _floats(data, (n, 7), "labels")

    def check():
        loaded_ids, loaded = read_labels_csv(path)
        return loaded_ids == ids and loaded.shape == labels.shape and np.array_equal(loaded,
                                                                                     labels)

    return lambda: write_labels_csv(path, ids, labels), check


_WRITER_CASES = {"array": _write_array_case, "recording": _recording_bundle_case,
                 "features": _feature_bundle_case, "labels": _labels_csv_case}


@pytest.mark.parametrize("writer", sorted(_WRITER_CASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_write_reads_back_equal_or_raises_data_error(tmp_path_factory, writer, data):
    # writers reject what readers reject: a write either reads back equal up
    # to f32 rounding (exactly for the CSV) or fails with a DataError, from
    # the writer (a non-finite or out-of-range float in an array record) or,
    # for the NaN and infinities the CSV writer passes through, the reader
    directory = tmp_path_factory.mktemp(writer)
    write, read_back_equal = _WRITER_CASES[writer](data, directory / "out")
    try:
        write()
        same = read_back_equal()
    except DataError:
        return
    assert same


# ------------------------------------------------------------- JSON reports

_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, 1e-7, 1e16]),
)
_JSON_NUMBERS = st.one_of(_JSON_FLOATS, _JSON_FLOATS.map(np.float64), st.integers())
#: Text that looks like the structure a re-indent keys on, quotes, NUL and non-ASCII.
_JSON_STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["[", "]", ", ", ",", ":", '"', '\\"', "\x00", "[1, 2]", "{}", "Gehirn ✓"]),
)
_FLAT = st.lists(_JSON_NUMBERS, max_size=5)
_ROWS = st.lists(_FLAT, max_size=4)
_JSON_LEAVES = st.one_of(
    _JSON_NUMBERS, _JSON_STRINGS, st.booleans(), st.none(),
    _FLAT, _FLAT.map(tuple), _ROWS, st.dictionaries(_JSON_STRINGS, _FLAT, max_size=4),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_JSON_STRINGS, children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(payload=st.one_of(_JSON_VALUES, st.dictionaries(_JSON_STRINGS, _JSON_VALUES, max_size=5)))
def test_json_text_is_json_dumps_indented_with_sorted_keys(payload):
    # flat number lists, lists of them and dicts of them take the C encoder and
    # are re-indented; mixed, ragged and string-holding containers are walked
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    {"a": [[]]}, {"a": [[], [1.0]]}, {"a": [[1.0], []]}, {"a": [[1.0], 2.0]},
    {"a": [1.0, [2.0]]}, {"a": [[1.0], 2.0, [3.0]]}, {"a": [[[1.0]]]}, {"a": [True, 0.5, None]},
    {"m": {"x": [1.0], "y": [2, 3]}}, {"m": {"x": [1.0], "y": 2.0}}, {"m": {"x": [1.0], "y": []}},
    {"m": {"x": [1.0], "y": [[2.0]]}}, {"m": {"x": [1.0], "y": ["s"]}}, {"m": {"x:[": [1.0]}},
    {"m": {"x": [1.0], "y": [{"z": 1}]}}, {"m": {"x": [1.0], "y": 2.0, "z": [[3.0]]}},
    {"m": {"x": [1.0], "y": [{}]}}, {"a": [[1.0], [{}, 2]]}, {"a": [[1.0], {}]},
    {2: [1.0], 10: "x"}, {"e": {}, "l": [], "s": ""},
])
def test_json_text_matches_json_dumps_on_shapes_near_the_fast_paths(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    {"a": object()}, {"a": {1, 2}}, {"a": [1.0, {1, 2}]}, {"a": [[1.0], [object()]]},
    {"a": {"b": [1, object()]}}, {"a": {"b": [1.0], "c": [object()]}}, {"a": [np.float32(1)]},
])
def test_json_text_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        json_text(payload)


#: Array elements per dtype: NaN, infinities, -0.0 and the least subnormal of each float width.
_ARRAY_ELEMENTS = {
    "float64": st.one_of(st.floats(), st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324])),
    "float32": st.one_of(st.floats(width=32), st.sampled_from(
        [np.nan, np.inf, -np.inf, -0.0, float(np.float32(1e-45))])),
    "int64": st.integers(-2**63, 2**63 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "uint8": st.integers(0, 255),
    "bool": st.booleans(),
}
#: 0-d to 3-d arrays of every dtype above, empty ones included.
_ARRAYS = st.sampled_from(sorted(_ARRAY_ELEMENTS)).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=_ARRAY_ELEMENTS[dtype]))
_ARRAY_VALUES = st.recursive(
    st.one_of(_ARRAYS, _JSON_LEAVES),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_JSON_STRINGS, children, max_size=4)),
    max_leaves=12,
)


def _as_lists(value):
    """``value`` with each NumPy array replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


#: Float64 values a table repeats: both zeros, NaNs of other signs and payloads, infinities.
_TABLE_FLOATS = np.concatenate([
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
              0x7FF80000DEADBEEF], dtype=np.uint64).view(np.float64),
    [0.0, -0.0, np.inf, -np.inf, 0.1, 1 / 3, 5e-324, 1e16, 1e-7, 2.0, -1.5],
])
_TABLE_DTYPES = ("float64", "float32", "int64", "uint8", "bool")


@st.composite
def _tables(draw, dtype=None, shape=None):
    """A 1-D or 2-D table of up to 200 values, many of them repeated, and a
    few fresh ones; rows shorter and longer than those sent to the encoder
    in one call."""
    dtype = dtype or draw(st.sampled_from(_TABLE_DTYPES))
    shape = shape or draw(st.one_of(st.tuples(st.integers(1, 200)),
                                    st.tuples(st.integers(1, 40), st.integers(1, 5))))
    fresh = draw(st.lists(st.floats(allow_nan=False), max_size=4))
    pool = np.concatenate([_TABLE_FLOATS, fresh])
    if dtype == "int64":
        pool = np.array([0, -1, 1, 7, -2**63, 2**63 - 1] + [int(v) for v in fresh
                                                             if abs(v) < 2**62], np.int64)
    elif dtype == "uint8":
        pool = np.array([0, 1, 127, 255], np.uint8)
    elif dtype == "bool":
        pool = np.array([False, True])
    index = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, len(pool) - 1)))
    with np.errstate(over="ignore", invalid="ignore"):  # float32: overflow and NaN casts
        return pool[index].astype(dtype)


@st.composite
def _table_dicts(draw):
    """Dicts of tables of one shape and dtype, one entry or more, some mixed
    with a table of another shape or dtype, or with a value that is not one."""
    dtype = draw(st.sampled_from(_TABLE_DTYPES))
    shape = draw(st.one_of(st.tuples(st.integers(1, 70)),
                           st.tuples(st.integers(1, 12), st.integers(1, 4))))
    keys = draw(st.lists(_JSON_STRINGS, min_size=1, max_size=6, unique=True))
    table = _tables(dtype, shape)
    mapping = {key: draw(table) for key in keys}
    odd = draw(st.one_of(st.none(), _tables(shape=shape), _tables(dtype=dtype), _JSON_LEAVES,
                         _ARRAYS))
    if odd is not None:
        mapping[draw(_JSON_STRINGS)] = odd
    return mapping


@settings(max_examples=400, deadline=None)
@given(payload=st.dictionaries(_JSON_STRINGS, st.one_of(_ARRAY_VALUES, _tables(), _table_dicts(),
                                                        st.lists(_table_dicts(), max_size=2)),
                               max_size=5))
def test_json_text_writes_each_array_as_its_tolist(payload):
    # non-empty 1-D and 2-D boolean, integer and float arrays (and dicts of
    # them, one shape and dtype) are written a table at a time; other arrays
    # are walked as their lists
    expected = json.dumps(_as_lists(payload), indent=2, sort_keys=True) + "\n"
    assert json_text(payload) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(_TABLE_DTYPES),
       row_shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
       keys=st.lists(_JSON_STRINGS, max_size=8, unique=True))
def test_json_text_writes_a_keyed_table_as_the_dict_of_its_rows(data, dtype, row_shape, keys):
    # keys in any order, scalar, empty and 2-D rows, and no rows at all
    rows = data.draw(_tables(dtype, (len(keys), *row_shape)))
    table = KeyedTable(tuple(keys), rows)
    expected = {key: row.tolist() for key, row in zip(keys, rows)}
    assert json_text(table) == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    nested = {"n": len(keys), "table": table}
    assert json_text(nested) == json.dumps({**nested, "table": expected}, indent=2,
                                           sort_keys=True) + "\n"


def test_a_keyed_table_is_a_mapping_of_its_ids_to_its_rows():
    table = KeyedTable(("b", "a"), np.arange(4.0).reshape(2, 2))
    assert list(table) == ["b", "a"] and len(table) == 2 and "a" in table
    assert np.array_equal(table["a"], [2.0, 3.0])
    with pytest.raises(KeyError):
        table["c"]
