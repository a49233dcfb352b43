"""On-disk formats: binary array records, bundle directories, label CSVs.

A bundle is a directory holding a ``manifest.json`` plus one ``.bin`` file
per array.  Each ``.bin`` is a single array record: a 16-byte header
(magic ``ICLB``, format version, row count, column count, all little-
endian unsigned 32-bit after the magic) followed by the row-major data.
Values are little-endian 32-bit floats or single bytes; the element width
is implied by the file length.

Two bundle kinds exist: recording bundles (electrode positions, mixing
matrix, component activity, plus the sample rate in the manifest; other
arrays an older bundle lists, such as its channel data, are not read) and
feature bundles (stacked per-component topography, power spectrum, and
autocorrelation arrays).  Every topography's mask is the constant
``GRID_MASK``, so masks are no longer written; the byte-valued ``mask`` an
older feature bundle lists is read and must equal ``GRID_MASK`` in every
row.  Writers stage everything in a temporary location and rename into
place, so a failed write never leaves a partial bundle at the destination.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import struct
import tempfile

import numpy as np

from .categories import CATEGORIES, N_CATEGORIES, first_invalid_label
from .errors import DataError
from .features import GRID_MASK, N_AUTOCORR_LAGS, N_PSD_BINS, TOPO_SIZE, FeatureStack, Recording

ARRAY_MAGIC = b"ICLB"
ARRAY_VERSION = 1

RECORDING_FORMAT = "icsort-recording"
FEATURES_FORMAT = "icsort-features"
MANIFEST_NAME = "manifest.json"

_RECORDING_ARRAYS = ("electrode_positions", "mixing_matrix", "component_activity")
_FEATURE_WIDTHS = {"topo": TOPO_SIZE * TOPO_SIZE, "psd": N_PSD_BINS,
                   "autocorr": N_AUTOCORR_LAGS, "mask": TOPO_SIZE * TOPO_SIZE}
_FEATURE_ARRAYS = ("topo", "psd", "autocorr")


def write_array(path, array: np.ndarray, shown_as=None) -> None:
    """Write a 2-D array record; float arrays as f32, boolean/uint8 as bytes.

    A finite value beyond the f32 range is a ``DataError`` naming
    ``shown_as`` (default ``path``), not a stored infinity.  NaN and
    infinities are written as they are.
    """
    array = np.asarray(array)
    if array.ndim != 2:
        raise DataError(f"array records are 2-D, got shape {array.shape}")
    if array.dtype == np.bool_ or array.dtype == np.uint8:
        payload = np.ascontiguousarray(array, dtype=np.uint8)
    else:
        with np.errstate(over="ignore"):  # an overflow is reported below
            payload = np.ascontiguousarray(array, dtype="<f4")
        if not (np.isfinite(payload.min(initial=0.0)) and np.isfinite(payload.max(initial=0.0))):
            overflow = np.argwhere(np.isinf(payload) & np.isfinite(array))
            if len(overflow):
                row, col = overflow[0]
                raise DataError(f"{shown_as or path}: value {float(array[row, col])!r} at "
                                f"row {row}, column {col} is beyond the float32 range")
    header = ARRAY_MAGIC + struct.pack("<III", ARRAY_VERSION, *array.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_array(path) -> np.ndarray:
    """Read an array record; returns float64 for f32 data, uint8 for byte data."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise DataError(f"{path}: truncated array record header")
    if data[:4] != ARRAY_MAGIC:
        raise DataError(f"{path}: not an array record (bad magic)")
    version, rows, cols = struct.unpack("<III", data[4:16])
    if version != ARRAY_VERSION:
        raise DataError(f"{path}: unsupported array record version {version}")
    body = len(data) - 16
    count = rows * cols
    if body == 4 * count:
        values = np.frombuffer(data, dtype="<f4", count=count, offset=16)
        return values.reshape(rows, cols).astype(np.float64)
    if body == count:
        values = np.frombuffer(data, dtype=np.uint8, count=count, offset=16)
        return values.reshape(rows, cols).copy()
    raise DataError(
        f"{path}: body has {body} bytes, expected {4 * count} (floats) or {count} (bytes)"
    )


def atomic_write_bytes(path, data: bytes) -> None:
    """Write bytes to path via a unique temporary file in the same directory
    and an atomic rename; on any failure the temporary file is removed and
    an existing file at path is left as it was.  The file gets the mode a
    plain ``open`` would give it, not ``mkstemp``'s 0600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path as UTF-8 through ``atomic_write_bytes``."""
    atomic_write_bytes(path, text.encode("utf-8"))


class _StagedDirectory:
    """Build a directory next to its destination, then rename into place."""

    def __init__(self, target, force: bool = False):
        self.target = os.fspath(target)
        self.force = force
        parent = os.path.dirname(os.path.abspath(self.target)) or "."
        os.makedirs(parent, exist_ok=True)
        self.staging = tempfile.mkdtemp(dir=parent, prefix=".staging-")

    def __enter__(self):
        return self.staging

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            shutil.rmtree(self.staging, ignore_errors=True)
            return False
        if os.path.exists(self.target):
            if not self.force:
                shutil.rmtree(self.staging, ignore_errors=True)
                raise DataError(f"output {self.target!r} already exists (use force to replace)")
            shutil.rmtree(self.target)
        os.rename(self.staging, self.target)
        return False


def _dump_manifest(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_manifest(directory, expected_format: str) -> dict:
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    if not os.path.isdir(directory) or not os.path.isfile(path):
        raise DataError(f"{directory}: not a bundle directory (missing {MANIFEST_NAME})")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, non-UTF-8 bytes, deep nesting
        raise DataError(f"{path}: invalid JSON manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    if manifest.get("format") != expected_format:
        raise DataError(
            f"{path}: manifest format {manifest.get('format')!r}, expected {expected_format!r}"
        )
    return manifest


def _read_arrays(directory, manifest: dict, names) -> dict:
    """The array records ``names`` that a bundle's manifest lists, by name."""
    entries = manifest.get("arrays", {})
    if not isinstance(entries, dict):
        raise DataError(f"{directory}: manifest arrays must map names to files")
    missing = [name for name in names if name not in entries]
    if missing:
        raise DataError(f"{directory}: manifest is missing arrays {missing}")
    loaded = {}
    for name in names:
        entry = entries[name]
        if isinstance(entry, str) and (
            os.path.isabs(entry) or os.path.normpath(entry).split(os.sep)[0] == os.pardir
        ):
            raise DataError(f"{directory}: array {name} entry {entry!r} is outside the bundle")
        path = os.path.join(os.fspath(directory), entry) if isinstance(entry, str) else ""
        if not os.path.isfile(path):
            raise DataError(f"{directory}: array {name} entry {entry!r} is not a file")
        loaded[name] = read_array(path)
    return loaded


def write_recording_bundle(directory, recording: Recording, recording_id: str = "",
                           force: bool = False) -> None:
    """Write a recording as a bundle directory."""
    with _StagedDirectory(directory, force=force) as staging:
        for name in _RECORDING_ARRAYS:
            write_array(os.path.join(staging, f"{name}.bin"), getattr(recording, name),
                        shown_as=os.path.join(directory, f"{name}.bin"))
        manifest = {
            "format": RECORDING_FORMAT,
            "version": 1,
            "recording_id": recording_id or os.path.basename(os.fspath(directory)),
            "sample_rate": float(recording.sample_rate),
            "arrays": {name: f"{name}.bin" for name in _RECORDING_ARRAYS},
        }
        with open(os.path.join(staging, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            fh.write(_dump_manifest(manifest))


def read_recording_bundle(directory) -> tuple:
    """Read a recording bundle; returns (Recording, recording_id)."""
    manifest = _load_manifest(directory, RECORDING_FORMAT)
    loaded = _read_arrays(directory, manifest, _RECORDING_ARRAYS)
    if "sample_rate" not in manifest:
        raise DataError(f"{directory}: manifest is missing sample_rate")
    try:
        sample_rate = float(manifest["sample_rate"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{directory}: manifest sample_rate is not a number: {exc}") from exc
    recording = Recording(sample_rate=sample_rate, **loaded)
    return recording, str(manifest.get("recording_id", ""))


def write_feature_bundle(directory, stack: FeatureStack, component_ids,
                         source_recording: str = "", sample_rate: float = 0.0,
                         force: bool = False) -> None:
    """Write a feature stack plus component ids as a bundle directory."""
    component_ids = [str(c) for c in component_ids]
    if len(component_ids) != len(stack):
        raise DataError(
            f"{len(component_ids)} component ids for {len(stack)} feature rows"
        )
    if len(set(component_ids)) != len(component_ids):
        raise DataError("component ids must be unique")
    arrays = {"topo": stack.topo.reshape(len(stack), -1), "psd": stack.psd,
              "autocorr": stack.autocorr}
    with _StagedDirectory(directory, force=force) as staging:
        for name in _FEATURE_ARRAYS:
            write_array(os.path.join(staging, f"{name}.bin"), arrays[name],
                        shown_as=os.path.join(directory, f"{name}.bin"))
        manifest = {
            "format": FEATURES_FORMAT,
            "version": 1,
            "source_recording": source_recording,
            "sample_rate": float(sample_rate),
            "component_ids": component_ids,
            "arrays": {name: f"{name}.bin" for name in _FEATURE_ARRAYS},
        }
        with open(os.path.join(staging, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            fh.write(_dump_manifest(manifest))


def read_feature_bundle(directory) -> tuple:
    """Read a feature bundle; returns (FeatureStack, component_ids list).

    Duplicate component ids and non-finite feature values are rejected
    with a ``DataError`` naming the component and the array, as is a mask
    an older bundle lists that differs from ``GRID_MASK``.
    """
    manifest = _load_manifest(directory, FEATURES_FORMAT)
    listed = manifest.get("arrays")
    names = _FEATURE_ARRAYS + (("mask",) if isinstance(listed, dict) and "mask" in listed else ())
    loaded = _read_arrays(directory, manifest, names)
    component_ids = manifest.get("component_ids", [])
    if not isinstance(component_ids, list):
        raise DataError(f"{directory}: manifest component_ids must be a list")
    component_ids = [str(c) for c in component_ids]
    seen = set()
    for cid in component_ids:
        if cid in seen:
            raise DataError(f"{directory}: component {cid}: duplicate id in component_ids")
        seen.add(cid)
    n = len(component_ids)
    for name, array in loaded.items():
        if array.shape != (n, _FEATURE_WIDTHS[name]):
            raise DataError(f"{directory}: {name} array must be ({n}, {_FEATURE_WIDTHS[name]})")
    for name, array in loaded.items():
        if name == "mask":
            bad, problem = np.any(array != GRID_MASK.ravel(), axis=1), "differs from GRID_MASK"
        else:
            bad, problem = ~np.all(np.isfinite(array), axis=1), "has non-finite values"
        if np.any(bad):
            cid = component_ids[np.argmax(bad)]
            raise DataError(f"{directory}: component {cid}: {name} {problem}")
    stack = FeatureStack(loaded["topo"].reshape(n, TOPO_SIZE, TOPO_SIZE), loaded["psd"],
                         loaded["autocorr"])
    return stack, component_ids


def read_csv_rows(path):
    """Yield the rows of a UTF-8 CSV file as they are read.

    Undecodable bytes or broken quoting raise a ``DataError``.  Rows are
    streamed rather than collected: holding every row of a large vote log
    in one list made reading it slower.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc


def _label_header(category_names) -> list:
    return ["component_id"] + [
        name.lower().replace(" ", "_") for name in category_names
    ]


def write_labels_csv(path, component_ids, labels: np.ndarray,
                     category_names=CATEGORIES) -> None:
    """Write per-component label vectors as CSV (id column + one per category)."""
    labels = np.asarray(labels, dtype=np.float64)
    component_ids = [str(c) for c in component_ids]
    if labels.shape != (len(component_ids), len(category_names)):
        raise DataError(
            f"labels must be ({len(component_ids)}, {len(category_names)}), got {labels.shape}"
        )
    rows = [",".join(_label_header(category_names))]
    for cid, row in zip(component_ids, labels):
        if "," in cid or "\n" in cid or '"' in cid:
            raise DataError(f"component id {cid!r} contains CSV metacharacters")
        rows.append(cid + "," + ",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_labels_csv(path, n_categories: int = N_CATEGORIES) -> tuple:
    """Read a label CSV; returns (component_ids, (n, k) label array).

    Every row must hold a valid probability vector; the header's category
    count fixes k.
    """
    rows = read_csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty label file")
    if not header or header[0].strip() != "component_id":
        raise DataError(f"{path}: first column must be component_id")
    k = len(header) - 1
    if k < 2:
        raise DataError(f"{path}: need at least 2 category columns, found {k}")
    component_ids = []
    line_numbers = []
    rows_values = []
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
    if len(set(component_ids)) != len(component_ids):
        raise DataError(f"{path}: duplicate component ids")
    if n_categories is not None and k != n_categories:
        raise DataError(f"{path}: expected {n_categories} category columns, found {k}")
    return component_ids, labels
