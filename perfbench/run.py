"""icsort benchmark: closed-loop workloads timed through the CLI, one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload label --seed 1 --seconds 30 --trace 0

``--trace 0`` times in-process ``icsort.cli.main`` calls and prints the
end-to-end metrics; ``--trace 1`` runs each operation again with the
module functions the commands call wrapped in spans (``perfbench/trace.py``)
and prints the per-layer metrics.  ``--seconds`` fixes the number of
operations, at each workload's nominal rate, so a slower host runs longer
rather than fewer.  Every operation's outputs are checked.  The
last line of standard output is the JSON result; the full result, with
the machine record, and the spans of a traced run go to ``.perfbench_out/``.
Workloads, metrics and what each per-layer metric should move are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("label", "train", "curate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [SRC, ROOT]
    try:
        import icsort  # the program under test
    except ImportError as exc:
        print(f"error: cannot import icsort from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(icsort.__file__).startswith(SRC + os.sep):
        print(f"error: icsort was imported from {icsort.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    from perfbench import harness, machine

    record = machine.record()
    blas = record["blas_threads"]
    if "unknown" in blas.values():
        print(f"error: cannot read how many threads a loaded BLAS uses {blas}, "
              "so cannot check it against nproc", file=sys.stderr)
        return 3
    over = {lib: n for lib, n in blas.items() if n > record["nproc"]}
    if over:
        print(f"error: BLAS runs {over} threads on {record['nproc']} cores; "
              "set OPENBLAS_NUM_THREADS (or the vendor's variable) to at most nproc",
              file=sys.stderr)
        return 3

    out_dir = os.path.join(ROOT, ".perfbench_out")
    stem = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}")
    workdir = f"{stem}-{os.getpid()}"
    os.makedirs(workdir)
    try:
        workload, setup_times = harness.setup(args.workload, workdir, args.seed)
        if args.trace:
            n_ops = harness.op_count(workload, args.seconds, harness.TRACE_SHARE)
            values, errors, tracer = harness.traced(workload, n_ops)
            wanted = spec["per_layer"]
        else:
            n_ops = harness.op_count(workload, args.seconds)
            values, errors, done = harness.end_to_end(workload, n_ops, setup_times)
            wanted = spec["end_to_end"]
    except harness.SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    failed = len(errors)
    for line in errors:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": n_ops,
        "failed": failed,
        # a layer the workload never calls did no work in it: 0
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"machine": record, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "errors": errors, **result}, fh, indent=2)
    if args.trace:
        tracer.write(stem + ".spans.jsonl")
    else:
        p90 = values["component_s_p90"]
        beyond = sum(1 for _, walls, units in done if sum(walls) / units > p90)
        print(f"samples: {len(done)} operations, {beyond} beyond p90")
        if hasattr(workload, "summary") and done:
            print(workload.summary(done, values["component_s_p50"], p90))
    print(f"ops_failed_ratio: {failed / n_ops:.4f} ({failed} of {n_ops} operations)")
    print("machine: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
