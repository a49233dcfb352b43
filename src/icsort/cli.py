"""Command-line interface: extract, classify, train, aggregate, evaluate, bench.

One binary with subcommands; all randomness sits behind explicit ``--seed``
flags (default 0), so every command is deterministic for fixed inputs.
Each output is staged beside its target and renamed into place, so none is
ever half-written.  Every file output's path is checked before a command does
any work (``bundles.check_file_outputs``), so a command with two outputs
(``classify --csv``, ``train --log``, ``evaluate --plot``) does not write the
first when the second's path is unusable.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import multiprocessing
import os
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bundles, crowdlabel, metrics, plots
from .categories import CATEGORIES
from .errors import ConfigError, DataError, NumericError
from .features import extract_recording
from .network import TrainConfig, classify, load_weights, save_weights, train

#: Category names at each ``--merge`` / ``--classes`` count, and the groups of
#: the seven categories summed into each merged category, in output order:
#: 7 keeps every category (a one-index group sums exactly), 5 keeps Brain,
#: Muscle, Eye and Heart and pools the rest into Other, 2 keeps Brain against
#: everything else.
MERGED_NAMES = {
    "7": CATEGORIES,
    "5": ("Brain", "Muscle", "Eye", "Heart", "Other"),
    "2": ("Brain", "Other"),
}
MERGE_SCHEMES = {
    "7": tuple((i,) for i in range(7)),
    "5": ((0,), (1,), (2,), (3,), (4, 5, 6)),
    "2": ((0,), (1, 2, 3, 4, 5, 6)),
}

#: Published median per-component classification time used as an
#: informational reference point in bench reports (seconds).
REFERENCE_MEDIAN_SECONDS = 0.170
BENCH_CEILING_SECONDS = 2.0

DEFAULT_HOLDOUT = 400


#: The bundles encoder under the name perfbench's ``cli.json_text`` span wraps.
_json_text = bundles.json_text


def _write_json(path, payload: dict) -> None:
    bundles.atomic_write_text(path, _json_text(payload))


#: glibc's ``mallopt`` parameters (malloc.h) and the size both are set to: well
#: above the largest block a training step frees (about 20 MiB at batch 128,
#: topo2's padded input and its input gradient's phase buffer).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_BLOCKS_BELOW = 1 << 30


def _keep_freed_blocks() -> None:
    """Keep freed blocks below 1 GiB in glibc's heap for the rest of the process.

    The network commands free and reallocate the same large arrays on every
    batch, which glibc by default unmaps on free and maps (and zeroes) again;
    above both thresholds a freed block is reused and the heap is not
    trimmed.  Where the C library has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt in it
        return
    mallopt(_M_MMAP_THRESHOLD, _KEEP_BLOCKS_BELOW)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_BLOCKS_BELOW)


# ---------------------------------------------------------------- extract


def cmd_extract(args) -> int:
    bundles.check_output(args.out, args.force)  # refuse before reading or computing anything
    recording, recording_id = bundles.read_recording_bundle(args.recording)
    component_ids = [f"ic{i:03d}" for i in range(recording.n_components)]
    stack, failures = extract_recording(recording)
    for index, exc in failures.items():
        print(f"error: component {component_ids[index]}: {exc}", file=sys.stderr)

    if stack is not None:
        bundles.write_feature_bundle(
            args.out,
            stack,
            [cid for i, cid in enumerate(component_ids) if i not in failures],
            source_recording=recording_id,
            sample_rate=recording.sample_rate,
            force=args.force,
        )
        print(f"extracted {len(stack)} of {recording.n_components} components to {args.out}")
    if failures:
        raise DataError(
            f"{len(failures)} component(s) failed extraction: "
            + ", ".join(component_ids[i] for i in failures)
        )
    return 0


# ---------------------------------------------------------------- classify


def _load_thresholds(path, n_expected: int) -> np.ndarray:
    """The ``(n_expected,)`` threshold vector of a JSON file (a list, or an
    object with a ``thresholds`` list); each value must be finite and in
    [0, 1].  Any other content is a ``DataError``."""
    payload = bundles.read_json(path)
    values = payload.get("thresholds") if isinstance(payload, dict) else payload
    try:
        thresholds = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: thresholds must be numbers: {exc}") from exc
    if thresholds.shape != (n_expected,):
        raise DataError(
            f"{path}: need {n_expected} thresholds for this class count, got {thresholds.shape}"
        )
    if not np.all((thresholds >= 0) & (thresholds <= 1)):  # False for NaN
        raise DataError(f"{path}: thresholds must be finite and lie in [0, 1]")
    return thresholds


def cmd_classify(args) -> int:
    _keep_freed_blocks()
    bundles.check_file_outputs(args.out, args.csv)
    if args.batch_size < 1:  # before any input is read; classify checks it too
        raise ConfigError(f"batch size must be at least 1, got {args.batch_size}")
    weights = load_weights(args.weights)
    stack, component_ids = bundles.read_feature_bundle(args.features)
    probs = classify(weights, stack.topo, stack.psd, stack.autocorr,
                     batch_size=args.batch_size, tta=args.tta)

    names = MERGED_NAMES[args.merge]
    probs = metrics.merge_classes(probs, MERGE_SCHEMES[args.merge])

    thresholds = _load_thresholds(args.thresholds, len(names)) if args.thresholds else None

    components = []
    for cid, row in zip(component_ids, probs):
        top = int(np.argmax(row))
        entry = {
            "component_id": cid,
            "label": row,
            "argmax": names[top],
            "confidence": float(row[top]),
        }
        if thresholds is not None:
            detected = metrics.detect_multilabel(row, thresholds, names)
            entry["detections"] = [name for name in names if name in detected]
        components.append(entry)

    report = {
        "format": "icsort-labels",
        "version": 1,
        "classes": len(names),
        "category_names": list(names),
        "tta": bool(args.tta),
        "weights_file": os.path.basename(os.fspath(args.weights)),
        "components": components,
    }
    _write_json(args.out, report)
    if args.csv:
        bundles.write_labels_csv(args.csv, component_ids, probs, category_names=names)
    print(f"classified {len(component_ids)} components ({len(names)}-class) to {args.out}")
    return 0


# ---------------------------------------------------------------- train


def _option_types() -> dict:
    """Each ``TrainConfig`` field's value type, ``int | None`` read as ``int``."""
    return {name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
            for name, hint in typing.get_type_hints(TrainConfig).items()}


def parse_config_file(path) -> dict:
    """Parse a ``key = value`` training-config file into TrainConfig kwargs.

    Keys are the ``TrainConfig`` field names.  Tuples are comma-separated
    numbers; ``#`` starts a comment.
    """
    option_types = _option_types()
    options: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in option_types:
                raise ConfigError(f"{path}:{line_no}: unknown option {key!r}")
            kind = option_types[key]
            try:
                if kind is tuple:
                    options[key] = tuple(float(v) for v in value.split(","))
                else:
                    options[key] = kind(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from exc
    return options


def _some_ids(ids: list) -> str:
    """The first five ids as a list, then how many more there are; 'none' if empty."""
    if not ids:
        return "none"
    return f"{ids[:5]}" + (f" and {len(ids) - 5} more" if len(ids) > 5 else "")


def _align_labels(component_ids, label_ids, labels, ids_file, labels_file):
    """The rows of ``labels`` (in ``label_ids`` order) put in ``component_ids`` order;
    ids found in only one list are a ``DataError`` naming both files (``_some_ids``)."""
    known_labels, known_components = set(label_ids), set(component_ids)
    only_ids = [c for c in component_ids if c not in known_labels]
    only_labels = [c for c in label_ids if c not in known_components]
    if only_ids or only_labels:
        raise DataError(f"component id mismatch: only in {ids_file}: {_some_ids(only_ids)}, "
                        f"only in {labels_file}: {_some_ids(only_labels)}")
    order = {c: i for i, c in enumerate(label_ids)}
    return labels[[order[c] for c in component_ids]]


def cmd_train(args) -> int:
    _keep_freed_blocks()
    bundles.check_file_outputs(args.out, args.log)
    options = parse_config_file(args.config) if args.config else {}
    if args.max_batches is not None:
        options["max_batches"] = args.max_batches
    config = TrainConfig(**options)  # validate before touching any data
    if (args.val_features is None) != (args.val_labels is None):
        raise ConfigError("--val-features and --val-labels must be given together")

    stack, component_ids = bundles.read_feature_bundle(args.features)
    label_ids, labels = bundles.read_labels_csv(args.labels)
    labels = _align_labels(component_ids, label_ids, labels, args.features, args.labels)

    if args.val_features is not None:
        val_stack, val_ids = bundles.read_feature_bundle(args.val_features)
        vl_ids, val_labels = bundles.read_labels_csv(args.val_labels)
        val_labels = _align_labels(val_ids, vl_ids, val_labels,
                                   args.val_features, args.val_labels)
    else:
        n = len(stack)
        holdout = args.holdout if args.holdout is not None else min(DEFAULT_HOLDOUT, n // 5)
        if args.holdout is None and holdout == 0:
            raise ConfigError(
                f"{n} examples are too few for the default holdout of n/5 (0 rows); "
                "give --holdout or --val-features and --val-labels"
            )
        if not 0 < holdout < n:
            raise ConfigError(
                f"holdout must be between 1 and {n - 1} for {n} examples, got {holdout}"
            )
        order = np.random.default_rng(args.seed).permutation(n)
        val_idx, train_idx = order[:holdout], order[holdout:]
        val_stack, val_labels = stack.subset(val_idx), labels[val_idx]
        stack, labels = stack.subset(train_idx), labels[train_idx]

    result = train(stack, labels, config, val_stack, val_labels, seed=args.seed)
    if args.verbose:
        for batch, train_loss, val_loss in result.history[1:]:
            print(f"batch {batch}: train loss {train_loss:.4f}, validation loss {val_loss:.4f}")

    save_weights(args.out, result.weights)
    if args.log:
        bundles.atomic_write_text(args.log, "".join(
            f"{batch} {train_loss} {val_loss}\n" for batch, train_loss, val_loss in result.history))
    stop = "early stop" if result.stopped_early else "batch limit"
    print(
        f"trained {result.batches_run} batches ({stop}); best validation loss "
        f"{result.best_val_loss:.6f} at batch {result.best_batch}; weights in {args.out}"
    )
    return 0


# ---------------------------------------------------------------- aggregate


def _chain_entry(fit, seed: int) -> tuple:
    """Run one chain; returns its JSON entry and its wall seconds.

    The entry holds the chain's labels and labeler confusions as the
    sampler returns them, each a ``bundles.KeyedTable``: a worker's result
    is pickled, and one array pickles far faster than one per component.
    """
    started = time.perf_counter()
    result = fit(seed=seed)
    entry = {
        "seed": result.seed,
        "labels": result.labels,
        "labeler_confusions": result.labeler_confusions,
        "diagnostics": result.diagnostics,
        "log_joint": result.log_joint,
    }
    return entry, time.perf_counter() - started


#: The chain function of a worker process, set there by the pool's initializer.
_worker_fit = None


def _start_chain_worker(fit) -> None:
    global _worker_fit
    _worker_fit = fit


def _worker_chain(seed: int) -> tuple:
    return _chain_entry(_worker_fit, seed)


def _run_chains(fit, seeds: list) -> list:
    """``_chain_entry`` for every seed, returned in seed order.

    This process runs the first chain itself, so a profiler or tracer here
    sees it; the others go to at most one forked worker per further core,
    which inherits ``fit`` (the votes and priors) instead of unpickling it.
    With one chain, one core or no ``fork``, every chain runs here.  Each
    chain's result depends only on its seed, never on the process count.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(len(seeds), cores) - 1
    if workers < 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_chain_entry(fit, seed) for seed in seeds]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_chain_worker, initargs=(fit,)) as pool:
        futures = [pool.submit(_worker_chain, seed) for seed in seeds[1:]]
        first = _chain_entry(fit, seeds[0])
        return [first] + [future.result() for future in futures]


def cmd_aggregate(args) -> int:
    bundles.check_file_outputs(args.out)
    if args.chains < 1:
        raise ConfigError(f"--chains must be at least 1, got {args.chains}")
    crowdlabel.validate_schedule(args.burn_in, args.epochs)
    submissions, experts = crowdlabel.read_votes_csv(args.votes)
    votes = crowdlabel.expand_submissions(submissions)
    votes = crowdlabel.filter_labelers(votes, min_votes=args.min_components)
    if not votes:
        raise DataError(
            "no votes left after filtering: every labeler is below "
            f"{args.min_components} distinct components"
        )

    if args.prior_mode == "training":
        expert_prior = crowdlabel.default_priors("training-experts")
        alpha = crowdlabel.ClassPrior(crowdlabel.TRAINING_CLASS_PRIOR)
    else:
        expert_prior = crowdlabel.default_priors("test-experts")
        alpha = crowdlabel.ClassPrior(crowdlabel.TEST_CLASS_PRIOR)
    unknown_prior = crowdlabel.default_priors("training-unknown")
    priors = {
        labeler: expert_prior if experts.get(labeler, False) else unknown_prior
        for labeler in {v.labeler_id for v in votes}
    }

    fit = functools.partial(crowdlabel.cllda_fit, votes, priors, alpha,
                            burn_in=args.burn_in, sampling_epochs=args.epochs)
    runs = _run_chains(fit, [args.seed + chain for chain in range(args.chains)])
    chains = [entry for entry, _ in runs]
    payload = {
        "format": "icsort-crowd",
        "version": 1,
        "prior_mode": args.prior_mode,
        "burn_in": args.burn_in,
        "sampling_epochs": args.epochs,
        "base_seed": args.seed,
        "category_names": list(CATEGORIES),
        "response_names": list(crowdlabel.RESPONSES),
        "chains": chains,
    }
    if args.chains > 1:
        payload["r_hat"] = crowdlabel.gelman_rubin([entry["log_joint"] for entry in chains])
    _write_json(args.out, payload)
    n_comp = chains[0]["diagnostics"]["n_components"]
    walls = ", ".join(f"{wall:.2f}" for _, wall in runs)
    print(f"aggregated {n_comp} components over {args.chains} chain(s) to {args.out} "
          f"(chain wall seconds: {walls})")
    return 0


# ---------------------------------------------------------------- evaluate


def _merged_pairs(targets, predictions, classes: str):
    scheme = MERGE_SCHEMES[classes]
    return (metrics.merge_classes(targets, scheme), metrics.merge_classes(predictions, scheme),
            MERGED_NAMES[classes])


def evaluation_report(targets, predictions, names) -> dict:
    """All scalar metrics, confusion matrices, ROC/SOC tables for one pair set,
    checked once (``metrics.CheckedPairs``), so the metrics share its tables."""
    pairs = metrics.validate_pairs(targets, predictions)
    n, k = pairs.targets.shape
    report = {
        "n_examples": int(n),
        "classes": k,
        "category_names": list(names),
        "cross_entropy_convention": "mean per example, positive loss, predictions "
                                    "floored at 1e-12",
        "balanced_accuracy": metrics.balanced_accuracy(pairs, None),
        "cross_entropy": metrics.cross_entropy(pairs, None),
        "confusion": metrics.confusion_matrix(pairs, None),
        "confusion_normalized": metrics.confusion_matrix(pairs, None, normalized=True),
        "soft_confusions": bundles.KeyedTable(metrics.SOFT_AND_MODES, np.stack(
            [metrics.soft_confusion(pairs, None, mode) for mode in metrics.SOFT_AND_MODES])),
    }
    roc, soc, auc, skipped = {}, {}, {}, {}
    for cat in range(k):
        try:
            curve = metrics.roc_curve(pairs, None, cat)
            soc[names[cat]] = metrics.soc_points(pairs, None, cat)
        except DataError as exc:
            skipped[names[cat]] = str(exc)
            continue
        roc[names[cat]], auc[names[cat]] = curve.points, curve.auc()
    report.update(roc=roc, auc=auc, soc=bundles.KeyedTable(
        tuple(soc), np.array(list(soc.values())).reshape(-1, 3, 2)))
    if skipped:
        report["skipped_categories"] = skipped
    else:
        report["optimal_thresholds"] = {
            criterion: {
                "thresholds": metrics.optimal_thresholds(pairs, None, criterion),
                "provenance": f"optimized:{criterion}",
            }
            for criterion in ("f1", "accuracy")
        }
    return report


def cmd_evaluate(args) -> int:
    bundles.check_file_outputs(args.out, args.plot)
    target_ids, targets = bundles.read_labels_csv(args.targets)
    pred_ids, predictions = bundles.read_labels_csv(args.predictions)
    predictions = _align_labels(target_ids, pred_ids, predictions,
                                args.targets, args.predictions)

    targets, predictions, names = _merged_pairs(targets, predictions, args.classes)
    report = evaluation_report(targets, predictions, names)
    report.update(format="icsort-eval", version=1,
                  targets_file=os.path.basename(os.fspath(args.targets)),
                  predictions_file=os.path.basename(os.fspath(args.predictions)))
    _write_json(args.out, report)
    if args.plot:
        svg = plots.evaluation_svg(report["roc"], report["soc"],
                                   title=f"{report['classes']}-class evaluation")
        bundles.atomic_write_text(args.plot, svg)
    print(
        f"evaluated {report['n_examples']} components: balanced accuracy "
        f"{report['balanced_accuracy']:.4f}, cross entropy {report['cross_entropy']:.4f}"
    )
    return 0


# ---------------------------------------------------------------- bench


def bench_recordings(weights, recordings, repetitions: int = 1) -> dict:
    """Time in-memory extract+classify per recording; returns the report dict.

    File I/O is excluded: recordings are already loaded.  Each recording is
    timed ``repetitions`` times and the median total is kept.
    """
    if not recordings:
        raise DataError("bench needs at least one recording")
    if repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    entries = []
    for recording_id, recording in recordings:
        times = []
        for _ in range(repetitions):
            started = time.perf_counter()
            stack, failures = extract_recording(recording)
            if failures:
                index, exc = next(iter(failures.items()))
                raise DataError(f"{recording_id}: component {index}: {exc}")
            classify(weights, stack.topo, stack.psd, stack.autocorr)
            times.append(time.perf_counter() - started)
        total = float(np.median(times))
        entries.append({
            "recording_id": recording_id,
            "n_components": recording.n_components,
            "total_seconds": total,
            "per_component_seconds": total / recording.n_components,
            "repetitions": repetitions,
        })
    per_component = np.array([e["per_component_seconds"] for e in entries])
    median = float(np.median(per_component))
    return {
        "format": "icsort-bench",
        "version": 1,
        "recordings": entries,
        "summary": {
            "median_seconds": median,
            "p25_seconds": float(np.percentile(per_component, 25)),
            "p75_seconds": float(np.percentile(per_component, 75)),
            "min_seconds": float(per_component.min()),
            "max_seconds": float(per_component.max()),
        },
        "reference_median_seconds": REFERENCE_MEDIAN_SECONDS,
        "ratio_to_reference": median / REFERENCE_MEDIAN_SECONDS,
        "ceiling_seconds": BENCH_CEILING_SECONDS,
        "within_ceiling": bool(np.all(per_component <= BENCH_CEILING_SECONDS)),
    }


def cmd_bench(args) -> int:
    _keep_freed_blocks()
    bundles.check_file_outputs(args.out)
    if args.repetitions < 1:  # before any input is read; bench_recordings checks it too
        raise ConfigError("repetitions must be at least 1")
    weights = load_weights(args.weights)
    recordings = []
    for path in args.recordings:
        recording, recording_id = bundles.read_recording_bundle(path)
        recordings.append((recording_id or os.fspath(path), recording))
    report = bench_recordings(weights, recordings, repetitions=args.repetitions)
    _write_json(args.out, report)
    summary = report["summary"]
    print(
        f"benchmarked {len(recordings)} recording(s): median "
        f"{summary['median_seconds'] * 1000:.1f} ms/component "
        f"(reference {REFERENCE_MEDIAN_SECONDS * 1000:.0f} ms, "
        f"ratio {report['ratio_to_reference']:.2f}); "
        f"ceiling {'ok' if report['within_ceiling'] else 'EXCEEDED'}"
    )
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not change it."""
    parser = _Parser(prog="icsort", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute per-component features from a recording")
    p.add_argument("--recording", required=True, help="recording bundle directory")
    p.add_argument("--out", required=True, help="feature bundle directory to create")
    p.add_argument("--force", action="store_true", help="replace an existing output")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("classify", help="label a feature bundle with trained weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--features", required=True, help="feature bundle directory")
    p.add_argument("--out", required=True, help="JSON label report path")
    p.add_argument("--csv", help="also write labels as CSV")
    p.add_argument("--tta", dest="tta", action="store_true", default=True,
                   help="average over topography symmetries (default)")
    p.add_argument("--no-tta", dest="tta", action="store_false")
    p.add_argument("--merge", choices=tuple(MERGE_SCHEMES), default="7",
                   help="merge categories before reporting")
    p.add_argument("--thresholds", help="JSON file with per-category detection thresholds")
    p.add_argument("--batch-size", type=int, default=128)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("train", help="train classifier weights on labeled features")
    p.add_argument("--features", required=True, help="feature bundle directory")
    p.add_argument("--labels", required=True, help="label CSV matching the features")
    p.add_argument("--val-features", help="validation feature bundle")
    p.add_argument("--val-labels", help="validation label CSV")
    p.add_argument("--holdout", type=int,
                   help=f"validation examples held out when no validation files are "
                        f"given (default min({DEFAULT_HOLDOUT}, n/5))")
    p.add_argument("--config", help="key = value training options file")
    p.add_argument("--max-batches", type=int, help="hard batch limit (overrides config)")
    p.add_argument("--out", required=True, help="weights file to write")
    p.add_argument("--log", help="training log path (batch, train loss, validation loss)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("aggregate", help="merge crowd votes into reference labels")
    p.add_argument("--votes", required=True, help="vote log CSV")
    p.add_argument("--out", required=True, help="JSON result path")
    p.add_argument("--prior-mode", choices=("training", "test"), default="training")
    p.add_argument("--burn-in", type=int, default=crowdlabel.DEFAULT_BURN_IN)
    p.add_argument("--epochs", type=int, default=crowdlabel.DEFAULT_SAMPLING_EPOCHS)
    p.add_argument("--min-components", type=int,
                   default=crowdlabel.MIN_COMPONENTS_PER_LABELER,
                   help="drop labelers below this many distinct components")
    p.add_argument("--chains", type=int, default=1, help="independent chains to run")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("evaluate", help="score predictions against reference labels")
    p.add_argument("--targets", required=True, help="reference label CSV")
    p.add_argument("--predictions", required=True, help="predicted label CSV")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--classes", choices=tuple(MERGE_SCHEMES), default="7")
    p.add_argument("--plot", help="also write an SVG of ROC curves and SOC points")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="time extract+classify per component")
    p.add_argument("recordings", nargs="+", help="recording bundle directories")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--repetitions", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 1 if exc.code == 2 else (exc.code or 0)
    except (ConfigError, DataError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
