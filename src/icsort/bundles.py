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
row.  Every output, a single file or a bundle directory, is written through
one staging helper, ``_staged``, whose docstring states the write policy,
and a command checks its file outputs' paths before any work
(``check_file_outputs``).  Reports and manifests share one JSON encoding
(``json_text``, byte-identical to ``json.dumps(indent=2, sort_keys=True)``
of the payload with each NumPy array as its ``tolist()``, numeric arrays
through json's C encoder) and one reader; this is the only module that
imports ``json``.
"""

from __future__ import annotations

import contextlib
import csv
import errno
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

    A float record holds finite values only: the first NaN, infinity or
    finite value beyond the f32 range is a ``DataError`` naming ``shown_as``
    (default ``path``), its row and its column.
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
            row, col = np.argwhere(~np.isfinite(payload))[0]
            value = float(array[row, col])
            problem = "beyond the float32 range" if np.isfinite(value) else "not finite"
            raise DataError(f"{shown_as or path}: value {value!r} at "
                            f"row {row}, column {col} is {problem}")
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


#: The errors of a path that cannot be written as given, not of a write that failed.
_PATH_ERRORS = (FileNotFoundError, NotADirectoryError, IsADirectoryError, PermissionError)


def check_output(target, force: bool) -> None:
    """Refuse an existing ``target`` (``DataError``) unless ``force`` is set."""
    if not force and os.path.lexists(target):
        raise DataError(f"output {os.fspath(target)!r} already exists (use force to replace)")


def check_file_outputs(*paths) -> None:
    """Refuse, before a command does any work, a file output (``None`` skipped)
    whose parent directory is missing or that is a directory: the same
    ``DataError`` the write would raise, so no earlier output is left behind."""
    for path in paths:
        if path is None:
            continue
        target = os.fspath(path)
        if not os.path.isdir(os.path.dirname(os.path.abspath(target))):
            raise DataError(f"cannot write {target}: {os.strerror(errno.ENOENT)}")
        if os.path.isdir(target) and not os.path.islink(target):  # a link is replaced
            raise DataError(f"cannot write {target}: {os.strerror(errno.EISDIR)}")


@contextlib.contextmanager
def _staged(target, directory: bool = False, force: bool = False):
    """Yield an empty temporary file (``.tmp-*``) or, with ``directory``, an
    empty directory (``.staging-*``) beside ``target`` to be filled; then give
    it the mode a plain ``open`` or ``mkdir`` would and move it onto ``target``.

    A file replaces a file; a directory replaces whatever is at ``target``
    only with ``force``, and is otherwise a ``DataError``; the old target is
    renamed aside (``.old-*``) and removed only once the new one is in place.
    On any failure the temporary is removed and the old target kept.  A path
    that cannot be written as given (a missing or unwritable parent, a
    directory in a file's way) is a ``DataError`` naming ``target``; other
    ``OSError``s, such as a full disk, propagate.
    """
    target = os.fspath(target)
    parent = os.path.dirname(os.path.abspath(target))
    try:
        if directory:
            tmp = tempfile.mkdtemp(dir=parent, prefix=".staging-")
        else:
            fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
            os.close(fd)
    except _PATH_ERRORS as exc:
        raise DataError(f"cannot write {target}: {exc.strerror}") from exc
    aside = None
    try:
        yield tmp
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, (0o777 if directory else 0o666) & ~umask)
        if directory and os.path.lexists(target):
            check_output(target, force)
            aside = tempfile.mkdtemp(dir=parent, prefix=".old-")
            os.replace(target, os.path.join(aside, "old"))
        try:
            os.replace(tmp, target)
        except _PATH_ERRORS as exc:
            raise DataError(f"cannot write {target}: {exc.strerror}") from exc
    except BaseException:
        if os.path.lexists(tmp):
            (shutil.rmtree if directory else os.unlink)(tmp)
        if aside is not None:
            if os.path.lexists(os.path.join(aside, "old")):
                os.replace(os.path.join(aside, "old"), target)
            os.rmdir(aside)
        raise
    if aside is not None:
        shutil.rmtree(aside)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write bytes to ``path`` through one staged temporary file (``_staged``)."""
    with _staged(path) as tmp, open(tmp, "wb") as fh:
        fh.write(data)


def atomic_write_text(path, text: str) -> None:
    """Write text to path as UTF-8 through ``atomic_write_bytes``."""
    atomic_write_bytes(path, text.encode("utf-8"))


#: json's C encoder, which only runs without ``indent``; ``_indented`` re-indents its text.
_COMPACT = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_INDENT = "  "


def json_text(payload: dict) -> str:
    """The one JSON encoding of every report and manifest: indented, keys sorted.

    The text is ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` of
    the payload with each NumPy array replaced by its ``tolist()``, byte for
    byte, and an unsupported value is the same ``TypeError``.  A cyclic
    payload fails too, though it may be a ``RecursionError`` where json's is
    a ``ValueError``; a dict with a non-string key goes to ``json.dumps``
    whole, which refuses an array in it.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set,
    so a non-empty 1-D or 2-D array of booleans, integers or floats goes
    through json's C encoder instead and is re-indented: its type fixes its
    shape, and a number's text holds no ``[``, ``]`` or ``,``.  Lists are
    walked item by item, so a large table belongs in an array.
    """
    return _indented(payload, "\n") + "\n"


def _indented(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    at the depth whose lines start with ``newline`` (a line break and indent)."""
    inner = newline + _INDENT
    if isinstance(value, np.ndarray):
        if not (value.size and value.ndim in (1, 2) and value.dtype.kind in "biuf"):
            return _indented(value.tolist(), newline)
        body, deeper = _COMPACT.encode(value.tolist())[1:-1], inner + _INDENT
        if value.ndim == 1:
            return "[" + inner + body.replace(",", "," + inner) + newline + "]"
        body = body.replace(",", "," + deeper).replace("]," + deeper, "]," + inner)
        body = body.replace("[", "[" + deeper).replace("]", inner + "]")
        return "[" + inner + body + newline + "]"
    if isinstance(value, (list, tuple)) and value:
        return "[" + inner + ("," + inner).join(
            [_indented(item, inner) for item in value]) + newline + "]"
    if isinstance(value, dict) and value:
        items = sorted(value.items())
        if not all(isinstance(key, str) for key, _ in items):
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)
        return "{" + inner + ("," + inner).join(
            [json.encoder.encode_basestring_ascii(key) + ": " + _indented(item, inner)
             for key, item in items]) + newline + "}"
    return _COMPACT.encode(value)  # a scalar or an empty container has no indent


def read_json(path):
    """The JSON value of a UTF-8 file; one that does not parse is a ``DataError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def _write_bundle(directory, kind: str, fields: dict, arrays: dict, force: bool) -> None:
    """Stage ``arrays`` as records with a ``kind`` manifest of ``fields`` at ``directory``."""
    with _staged(directory, directory=True, force=force) as staging:
        for name, array in arrays.items():
            write_array(os.path.join(staging, f"{name}.bin"), array,
                        shown_as=os.path.join(directory, f"{name}.bin"))
        manifest = {"format": kind, "version": 1, **fields,
                    "arrays": {name: f"{name}.bin" for name in arrays}}
        with open(os.path.join(staging, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            fh.write(json_text(manifest))


def _load_manifest(directory, expected_format: str) -> dict:
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    if not os.path.isdir(directory) or not os.path.isfile(path):
        raise DataError(f"{directory}: not a bundle directory (missing {MANIFEST_NAME})")
    manifest = read_json(path)
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
    fields = {
        "recording_id": recording_id or os.path.basename(os.fspath(directory)),
        "sample_rate": float(recording.sample_rate),
    }
    _write_bundle(directory, RECORDING_FORMAT, fields,
                  {name: getattr(recording, name) for name in _RECORDING_ARRAYS}, force)


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
    """Write a feature stack plus component ids as a bundle directory.

    An empty stack is written as a 0-row bundle.  Arrays of another shape
    than ``read_feature_bundle`` accepts are a ``DataError`` naming the array.
    """
    component_ids = [str(c) for c in component_ids]
    n = len(stack)
    if len(component_ids) != n:
        raise DataError(f"{len(component_ids)} component ids for {n} feature rows")
    if len(set(component_ids)) != len(component_ids):
        raise DataError("component ids must be unique")
    if np.shape(stack.topo)[1:] != (TOPO_SIZE, TOPO_SIZE):
        raise DataError(f"topo array must be ({n}, {TOPO_SIZE}, {TOPO_SIZE}), "
                        f"got {np.shape(stack.topo)}")
    arrays = {"topo": stack.topo.reshape(n, TOPO_SIZE * TOPO_SIZE), "psd": stack.psd,
              "autocorr": stack.autocorr}
    for name, array in arrays.items():
        if np.shape(array) != (n, _FEATURE_WIDTHS[name]):
            raise DataError(f"{name} array must be ({n}, {_FEATURE_WIDTHS[name]}), "
                            f"got {np.shape(array)}")
    fields = {
        "source_recording": source_recording,
        "sample_rate": float(sample_rate),
        "component_ids": component_ids,
    }
    _write_bundle(directory, FEATURES_FORMAT, fields, arrays, force)


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
        if any(ch in cid for ch in ',"\n\r'):
            raise DataError(f"component id {cid!r} contains CSV metacharacters")
        if cid != cid.strip():
            raise DataError(f"component id {cid!r} has leading or trailing whitespace, "
                            "which the reader strips")
        rows.append(cid + "," + ",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_labels_csv(path, n_categories: int = N_CATEGORIES) -> tuple:
    """Read a label CSV; returns (component_ids, (n, k) label array).

    Every row must hold a valid probability vector, and the header must
    name ``n_categories`` categories.
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
    if k != n_categories:
        raise DataError(f"{path}: expected {n_categories} category columns, found {k}")
    return component_ids, labels
