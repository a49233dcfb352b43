"""``curate``: aggregate a planted-truth vote log, then evaluate predictions.

Each operation builds reference labels with ``icsort aggregate --chains 2``
and scores continuous, all-distinct predictions against them with
``icsort evaluate --plot`` at 7, 5 and 2 classes.  At n = 4000 the ROC and
threshold search are quadratic, and the Gibbs sampler is pure Python.  The
workload never touches the network or feature extraction, so it is the
no-change control for changes there.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from icsort import bundles
from icsort.cli import MERGE_SCHEMES, MERGED_NAMES

from . import inputs
from .common import Op, size_of

N_COMPONENTS = 4000
N_WARMUP = 400
CHAINS = 2
BURN_IN = 5
EPOCHS = 10
CLASSES = ("7", "5", "2")
MIN_RECOVERY = 0.90

#: Span name -> the program functions it wraps (see ``trace.instrument``).
SPANS = {
    "crowdlabel.read_votes": ["icsort.crowdlabel:read_votes_csv"],
    "crowdlabel.prepare": ["icsort.crowdlabel:expand_submissions",
                           "icsort.crowdlabel:filter_labelers"],
    "crowdlabel.priors": ["icsort.crowdlabel:default_priors"],
    "crowdlabel.fit": ["icsort.crowdlabel:cllda_fit"],
    "cli.json_text": ["icsort.cli:_json_text"],
    "cli.evaluation_report": ["icsort.cli:evaluation_report"],
    "bundles.write_text": ["icsort.bundles:atomic_write_text"],
    "bundles.read_labels_csv": ["icsort.bundles:read_labels_csv"],
    "metrics.merge": ["icsort.cli:_merged_pairs"],
    "metrics.scalar": ["icsort.metrics:balanced_accuracy", "icsort.metrics:cross_entropy",
                       "icsort.metrics:confusion_matrix"],
    "metrics.soft_confusion": ["icsort.metrics:soft_confusion"],
    "metrics.roc": ["icsort.metrics:roc_curve", "icsort.metrics:RocCurve.auc"],
    "metrics.soc": ["icsort.metrics:soc_points"],
    "metrics.optimal_thresholds": ["icsort.metrics:optimal_thresholds"],
    "plots.evaluation_svg": ["icsort.plots:evaluation_svg"],
}


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:] if line]
    return [r[0] for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])


def balanced_accuracy(targets: np.ndarray, predictions: np.ndarray) -> float:
    """Mean per-category recall of the argmax, over categories with targets."""
    truth, guess = targets.argmax(axis=1), predictions.argmax(axis=1)
    recalls = [np.mean(guess[truth == k] == k) for k in np.unique(truth)]
    return float(np.mean(recalls))


def _merge(labels: np.ndarray, classes: str) -> np.ndarray:
    if classes == "7":
        return labels
    return np.stack([labels[:, list(group)].sum(axis=1) for group in MERGE_SCHEMES[classes]],
                    axis=1)


class Curate:
    name = "curate"
    #: Operations per second of --seconds: 2 in 20 s.
    ops_per_second = 0.1
    spans = SPANS
    #: ``soc_points`` and ``optimal_thresholds`` build on other metrics; that is their own time.
    outer_only = ("icsort.metrics",)
    #: Files the traced run must reproduce byte for byte.
    outputs = ("crowd.json",) + tuple(f"eval{k}.{ext}" for k in CLASSES
                                      for ext in ("json", "svg"))

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        pass

    def make_op(self, index: int, warmup: bool = False) -> Op:
        rng = np.random.default_rng([self.seed, index])
        n = N_WARMUP if warmup else N_COMPONENTS
        directory = os.path.join(self.root, f"op{index:05d}")
        os.makedirs(directory)
        planted = inputs.vote_log(rng, n, os.path.join(directory, "votes.csv"))
        inputs.predictions(rng, planted, os.path.join(directory, "predicted.csv"))
        return Op(index, directory, n, {"planted": planted, "seed": index})

    def finish_op(self, op: Op) -> None:
        shutil.rmtree(op.directory)

    def _targets_csv(self, op: Op, out: str) -> None:
        """Reference labels from chain 0 of the aggregate, as a label CSV."""
        with open(os.path.join(out, "crowd.json"), encoding="utf-8") as fh:
            labels = json.load(fh)["chains"][0]["labels"]
        ids = sorted(labels)
        bundles.write_labels_csv(os.path.join(out, "targets.csv"), ids,
                                 np.array([labels[c] for c in ids]))

    def steps(self, op: Op, out: str) -> list:
        """CLI steps; a callable between them is untimed glue."""
        steps = [
            ["aggregate", "--votes", os.path.join(op.directory, "votes.csv"),
             "--out", os.path.join(out, "crowd.json"), "--chains", str(CHAINS),
             "--burn-in", str(BURN_IN), "--epochs", str(EPOCHS), "--seed", str(op.info["seed"])],
            lambda: self._targets_csv(op, out),
        ]
        for k in CLASSES:
            steps.append([
                "evaluate", "--targets", os.path.join(out, "targets.csv"),
                "--predictions", os.path.join(op.directory, "predicted.csv"),
                "--out", os.path.join(out, f"eval{k}.json"), "--classes", k,
                "--plot", os.path.join(out, f"eval{k}.svg"),
            ])
        return steps

    def check(self, op: Op, out: str) -> str | None:
        """Labels sum to 1 and recover the planted truth; reports match a recomputation.

        Also records the kept vote count, which the per-layer rates need.
        """
        with open(os.path.join(out, "crowd.json"), encoding="utf-8") as fh:
            crowd = json.load(fh)
        op.info["kept_votes"] = crowd["chains"][0]["diagnostics"]["n_votes"]
        for chain in crowd["chains"]:
            sums = np.array([sum(v) for v in chain["labels"].values()])
            if np.max(np.abs(sums - 1.0)) > 1e-6:
                return "an aggregate label does not sum to 1"
        labels = crowd["chains"][0]["labels"]
        planted = op.info["planted"]
        recovered = np.mean([np.argmax(labels[f"c{i:05d}"]) == planted[i]
                             for i in range(planted.shape[0])])
        if recovered < MIN_RECOVERY:
            return f"aggregate recovers the planted category on only {recovered:.3f}"

        target_ids, targets = _read_csv(os.path.join(out, "targets.csv"))
        pred_ids, predictions = _read_csv(os.path.join(op.directory, "predicted.csv"))
        order = {c: i for i, c in enumerate(pred_ids)}
        predictions = predictions[[order[c] for c in target_ids]]
        for k in CLASSES:
            with open(os.path.join(out, f"eval{k}.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            names = list(MERGED_NAMES[k])
            if sorted(report["roc"]) != sorted(names) or sorted(report["auc"]) != sorted(names):
                return f"{k}-class report lacks an ROC curve or AUC for some category"
            expected = balanced_accuracy(_merge(targets, k), _merge(predictions, k))
            if abs(report["balanced_accuracy"] - expected) > 1e-9:
                return f"{k}-class balanced accuracy {report['balanced_accuracy']} != {expected}"
        return None

    def bytes_moved(self, op: Op, out: str) -> tuple:
        targets = os.path.join(out, "targets.csv")
        predicted = os.path.join(op.directory, "predicted.csv")
        read = size_of(os.path.join(op.directory, "votes.csv")) + len(CLASSES) * size_of(
            targets, predicted)
        written = size_of(*(os.path.join(out, name) for name in self.outputs))
        return read, written

    def layer_metrics(self, tracer, ops: list) -> dict:
        totals = tracer.totals({op.index for op in ops})
        n_ops = len(ops)
        fits = tracer.durations("crowdlabel.fit")
        updates = [op.info["kept_votes"] * (BURN_IN + EPOCHS) * CHAINS for op in ops]
        ms = 1e3
        out = {
            "bundles.csv_io_ms": totals.get("bundles.read_labels_csv", 0.0) * ms / n_ops,
            "crowdlabel.read_votes_ms": totals.get("crowdlabel.read_votes", 0.0) * ms / n_ops,
            "crowdlabel.prepare_ms": totals.get("crowdlabel.prepare", 0.0) * ms / n_ops,
            "crowdlabel.fit_s_per_chain": float(np.median(fits)),
            "crowdlabel.vote_updates": float(np.mean(updates)),
            "plots.evaluation_svg_ms": totals.get("plots.evaluation_svg", 0.0) * ms / n_ops,
        }
        for name in ("scalar", "soft_confusion", "roc", "soc", "optimal_thresholds", "merge"):
            out[f"metrics.{name}_ms"] = totals.get(f"metrics.{name}", 0.0) * ms / n_ops
        # the commands' own rates, from the untraced CLI steps of the same operations
        out["cli.aggregate_vote_updates_per_s"] = sum(updates) / sum(
            op.info["walls"][0] for op in ops)
        out["cli.evaluate_pairs_per_s"] = sum(op.units * len(CLASSES) for op in ops) / sum(
            sum(op.info["walls"][1:]) for op in ops)
        return out
