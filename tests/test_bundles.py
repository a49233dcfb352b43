"""Array records, bundle directories, and label CSV files."""

import functools
import json
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
from icsort.bundles import (
    ARRAY_MAGIC,
    atomic_write_text,
    read_array,
    read_feature_bundle,
    read_labels_csv,
    read_recording_bundle,
    write_array,
    write_feature_bundle,
    write_labels_csv,
    write_recording_bundle,
)
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
        write_array(target / f"{name}.bin", values)
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
#: infinities (passed through to the readers), finite values beyond the f32
#: range, the f32 maximum, a value that underflows to zero, and -0.
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
    sample_rate = data.draw(st.floats(1e-300, 1e300), label="sample_rate")
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
    # the writer or, for the NaN and infinities it passes through, the reader
    directory = tmp_path_factory.mktemp(writer)
    write, read_back_equal = _WRITER_CASES[writer](data, directory / "out")
    try:
        write()
        same = read_back_equal()
    except DataError:
        return
    assert same
