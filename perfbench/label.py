"""``label``: a stream of distinct recordings, each extracted then classified.

Three operations in four are short, low-rate recordings (128 Hz, 30-60 s)
decomposed into as many components as they have channels, as full-rank
ICA gives.  Their channel counts come from a fixed mix of common montages,
16 to 128 channels, shuffled per seed, so network batch shapes vary while
every run does the same amount of work and meets the largest batch once.
On them classify is about three quarters of the operation.  Every fourth
recording is long and high-rate (64 channels, 512 Hz, 300 s) with 16-20
components, as from ICA after a PCA rank reduction; there the bundle
read and extraction dominate.  A long recording decomposed to all 64
components would take about 2.5 s, too long for a run to hold a hundred
recordings.  Per component the long class is about 2.5 times the short one,
so the median falls inside the short class and the 90th percentile
inside the long one.  Each recording is generated just before its
operation and deleted after it, so nothing repeats and the on-disk
working set stays small.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from icsort import bundles
from icsort.network import initialize_weights, save_weights

from . import inputs
from .common import Op, size_of

SHORT_RATE = 128.0
SHORT_SECONDS = (30.0, 60.0)
#: Channel (= component) counts of the short recordings, per 76 of them.
SHORT_MONTAGES = {16: 46, 19: 14, 24: 10, 32: 4, 64: 1, 128: 1}
LONG = {"n_channels": 64, "sample_rate": 512.0, "seconds": 300.0}
LONG_COMPONENTS = (16, 20)

#: Span name -> the program functions it wraps (see ``trace.instrument``).
SPANS = {
    "bundles.read_recording": ["icsort.bundles:read_recording_bundle"],
    "bundles.write_features": ["icsort.bundles:write_feature_bundle"],
    "bundles.read_features": ["icsort.bundles:read_feature_bundle"],
    "bundles.write_text": ["icsort.bundles:atomic_write_text"],
    "bundles.write_labels_csv": ["icsort.bundles:write_labels_csv"],
    "features.extract": ["icsort.features:extract_component_features"],
    "features.car": ["icsort.features:common_average_reference"],
    "features.topography": ["icsort.features:scalp_topography"],
    "features.psd": ["icsort.features:median_welch_psd"],
    "features.autocorr": ["icsort.features:autocorrelation"],
    "features.normalize": ["icsort.features:normalize_features"],
    "features.stack": ["icsort.features:FeatureStack.from_features"],
    "network.load_weights": ["icsort.network.weights_io:load_weights"],
    "network.classify": ["icsort.network.model:classify"],
    "cli.json_text": ["icsort.cli:_json_text"],
}


def _short_schedule(rng: np.random.Generator) -> list:
    counts = [n for n, times in SHORT_MONTAGES.items() for _ in range(times)]
    return [int(n) for n in rng.permutation(counts)]


def is_long(index: int) -> bool:
    return index % 4 == 3


class Label:
    name = "label"
    #: Operations per second of --seconds: 101 in 20 s, 76 short and 25 long, so ten lie
    #: beyond p90.
    ops_per_second = 5.05
    #: Files the traced run must reproduce byte for byte.
    outputs = ("features", "report.json", "labels.csv")
    spans = SPANS
    outer_only = ()

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.weights = os.path.join(root, "weights.iclw")
        self.short = _short_schedule(np.random.default_rng([seed, 1 << 20]))

    def setup(self) -> None:
        save_weights(self.weights, initialize_weights(seed=self.seed))

    def make_op(self, index: int, warmup: bool = False) -> Op:
        rng = np.random.default_rng([self.seed, index])
        if warmup:
            n_comp = min(SHORT_MONTAGES)
            rec = inputs.recording(rng, n_comp, n_comp, SHORT_RATE, SHORT_SECONDS[0])
        elif is_long(index):
            n_comp = int(rng.integers(LONG_COMPONENTS[0], LONG_COMPONENTS[1] + 1))
            rec = inputs.recording(rng, LONG["n_channels"], n_comp,
                                   LONG["sample_rate"], LONG["seconds"])
        else:
            n_comp = self.short[(index - (index + 1) // 4) % len(self.short)]
            rec = inputs.recording(rng, n_comp, n_comp, SHORT_RATE,
                                   float(rng.uniform(*SHORT_SECONDS)))
        directory = os.path.join(self.root, f"op{index:05d}")
        os.makedirs(directory)
        bundles.write_recording_bundle(os.path.join(directory, "recording"), rec,
                                       recording_id=f"rec{self.seed}-{index}")
        return Op(index, directory, n_comp)

    def finish_op(self, op: Op) -> None:
        shutil.rmtree(op.directory)

    def steps(self, op: Op, out: str) -> list:
        feats = os.path.join(out, "features")
        return [
            ["extract", "--recording", os.path.join(op.directory, "recording"), "--out", feats],
            ["classify", "--weights", self.weights, "--features", feats,
             "--out", os.path.join(out, "report.json"), "--csv", os.path.join(out, "labels.csv")],
        ]

    def check(self, op: Op, out: str) -> str | None:
        """Every component has one finite label row summing to 1, and CSV == JSON."""
        with open(os.path.join(out, "labels.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != op.units:
            return f"{len(rows)} label rows for {op.units} components"
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        if not np.all(np.isfinite(values)):
            return "non-finite label values"
        if np.max(np.abs(values.sum(axis=1) - 1.0)) > 1e-6:
            return "a label row does not sum to 1"
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        ids = [c["component_id"] for c in report["components"]]
        if ids != [row[0] for row in rows]:
            return "CSV and JSON list different components"
        if not np.array_equal(np.array([c["label"] for c in report["components"]]), values):
            return "CSV labels differ from the JSON report"
        return None

    def bytes_moved(self, op: Op, out: str) -> tuple:
        """(bytes read, bytes written) by the two commands, from file sizes."""
        feats = os.path.join(out, "features")
        read = size_of(os.path.join(op.directory, "recording"), feats, self.weights)
        written = size_of(feats, os.path.join(out, "report.json"), os.path.join(out, "labels.csv"))
        return read, written

    @staticmethod
    def classes(done: list) -> dict:
        """Per-class figures of timed operations, given as (index, [walls], components).

        ms per component is the median over the class; the shares are of the
        class's summed operation wall: classify on the short class, extract
        (bundle read, extraction, feature write) on the long one.
        """
        out = {}
        for cls, step in (("short", 1), ("long", 0)):
            ops = [(walls, units) for index, walls, units in done
                   if is_long(index) == (cls == "long")]
            if not ops:
                continue
            per_unit = [sum(walls) / units for walls, units in ops]
            out[cls] = {
                "ops": len(ops),
                "ms_per_component": float(np.median(per_unit)) * 1e3,
                "share": sum(w[step] for w, _ in ops) / sum(sum(w) for w, _ in ops),
                "range": (min(per_unit), max(per_unit)),
            }
        return out

    def summary(self, done: list, p50: float, p90: float) -> str:
        """Where the percentiles fall: p50 must lie in the short class, p90 in the long one."""
        classes = self.classes(done)
        parts = [f"{cls} {c['ops']} ops, {c['ms_per_component']:.2f} ms/component, "
                 f"{'classify' if cls == 'short' else 'extract'} {c['share']:.0%}"
                 for cls, c in classes.items()]
        if len(classes) == 2:
            # inside a class: every operation of the other class lies beyond the percentile
            parts.append("p50 in short class" if p50 < classes["long"]["range"][0]
                         else "p50 NOT inside the short class")
            parts.append("p90 in long class" if p90 > classes["short"]["range"][1]
                         else "p90 NOT inside the long class")
        return "label classes: " + "; ".join(parts)

    def layer_metrics(self, tracer, ops: list) -> dict:
        totals = tracer.totals({op.index for op in ops})
        n_ops = len(ops)
        n_comp = sum(op.units for op in ops)
        ms = 1e3
        extract = ["features.extract", "features.car", "features.topography", "features.psd",
                   "features.autocorr", "features.normalize", "features.stack"]
        values = {
            "bundles.read_recording_ms": totals.get("bundles.read_recording", 0.0) * ms / n_ops,
            "bundles.feature_io_ms": (totals.get("bundles.write_features", 0.0)
                                      + totals.get("bundles.read_features", 0.0)) * ms / n_ops,
            "features.extract_ms_per_component":
                sum(totals.get(k, 0.0) for k in extract) * ms / n_comp,
            "features.car_ms": totals.get("features.car", 0.0) * ms / n_comp,
            "features.topography_ms": totals.get("features.topography", 0.0) * ms / n_comp,
            "features.psd_ms": totals.get("features.psd", 0.0) * ms / n_comp,
            "features.autocorr_ms": totals.get("features.autocorr", 0.0) * ms / n_comp,
            "network.load_weights_ms": totals.get("network.load_weights", 0.0) * ms / n_ops,
            "network.classify_ms_per_component":
                totals.get("network.classify", 0.0) * ms / n_comp,
        }
        classes = self.classes([(op.index, op.info["walls"], op.units) for op in ops])
        for cls, share in (("short", "classify_share"), ("long", "extract_share")):
            if cls in classes:
                values[f"label.{cls}_ms_per_component"] = classes[cls]["ms_per_component"]
                values[f"label.{cls}_{share}"] = classes[cls]["share"]
        return values
