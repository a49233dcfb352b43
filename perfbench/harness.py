"""The closed loops, the set-up, and the metrics derived from them."""

from __future__ import annotations

import math
import os
import resource
import shutil
import time

import numpy as np

from .common import StepFailed, parity_mismatches, run_steps
from .curate import Curate
from .label import Label
from .trace import Tracer, instrument
from .train import Train

WORKLOADS = {"label": Label, "train": Train, "curate": Curate}
SETUP_REPEATS = 4
#: Share of a run's operations a traced run repeats under tracing.
TRACE_SHARE = 0.5
WARMUP_INDEX = 1_000_000


class SetupFailed(Exception):
    pass


def op_count(workload, seconds: float, share: float = 1.0) -> int:
    """Operations in a run: fixed by --seconds, so the sample count never follows host speed."""
    return max(2, math.ceil(seconds * workload.ops_per_second * share))


def run_op(workload, op, out, tracer=None, check: bool = True):
    """Run one operation through the CLI; returns (step walls, error or None)."""
    os.makedirs(out, exist_ok=True)
    try:
        walls = run_steps(workload.steps(op, out), tracer)
        return walls, workload.check(op, out) if check else None
    except StepFailed as exc:
        return [], str(exc)
    except Exception as exc:  # an output check tripped over malformed output
        return [], f"output check failed: {exc!r}"


def setup(name: str, workdir: str, seed: int):
    """Set up ``SETUP_REPEATS`` times, each ending with one warm-up operation.

    Returns (workload from the last set-up, set-up seconds).  The warm-ups
    belong to the set-up, not to the measured operations; if one fails,
    the run stops with ``SetupFailed``.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        root = os.path.join(workdir, f"setup{rep}")
        if rep:
            shutil.rmtree(os.path.join(workdir, f"setup{rep - 1}"))
        os.makedirs(root)
        started = time.perf_counter()
        workload = WORKLOADS[name](root, seed)
        workload.setup()
        op = workload.make_op(WARMUP_INDEX + rep, warmup=True)
        _, error = run_op(workload, op, os.path.join(op.directory, "out"), check=False)
        workload.finish_op(op)
        times.append(time.perf_counter() - started)
        if error:
            raise SetupFailed(f"warm-up operation: {error}")
    return workload, times


def end_to_end(workload, n_ops: int, setup_times: list):
    """The closed loop with tracing off; returns (metrics, errors, timed operations).

    A timed operation is (index, step walls, components).
    """
    done, errors = [], []
    for index in range(n_ops):
        op = workload.make_op(index)
        walls, error = run_op(workload, op, os.path.join(op.directory, "out"))
        workload.finish_op(op)
        if error:
            errors.append(f"op {index}: {error}")
        else:
            done.append((index, walls, op.units))

    per_unit = np.array([sum(walls) / units for _, walls, units in done] or [0.0])
    values = {
        "component_s_p50": float(np.percentile(per_unit, 50)),
        "component_s_p90": float(np.percentile(per_unit, 90)),
        "components_per_s": (sum(u for _, _, u in done) / sum(sum(w) for _, w, _ in done)
                             if done else 0.0),
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, errors, done


def traced(workload, n_ops: int):
    """Each operation through the CLI untraced, then again with its layer calls in spans.

    Returns (metrics, errors, tracer).
    """
    tracer = Tracer()
    ops, errors, moved = [], [], []
    for index in range(n_ops):
        op = workload.make_op(index)
        cli_out = os.path.join(op.directory, "cli")
        traced_out = os.path.join(op.directory, "traced")
        walls, error = run_op(workload, op, cli_out)
        if not error:
            tracer.op_id = index
            with instrument(tracer, workload.spans, workload.outer_only):
                _, error = run_op(workload, op, traced_out, tracer, check=False)
            if error:
                error = f"traced run: {error}"
        if not error and index == 0:
            bad = parity_mismatches(cli_out, traced_out, workload.outputs)
            if bad:
                error = "traced outputs differ from the untraced ones: " + ", ".join(bad)
        if error:
            errors.append(f"op {index}: {error}")
        else:
            moved.append(workload.bytes_moved(op, cli_out))
            op.info["walls"] = walls
            ops.append(op)
        workload.finish_op(op)
    if not ops:
        return {}, errors, tracer

    # Each command is one root span; every other span is a layer call.
    kept = {op.index for op in ops}
    spans = [(s, own) for s, own in zip(tracer.spans, tracer.self_times()) if s["op"] in kept]
    traced_wall = sum(s["end"] - s["start"] for s, _ in spans if s["parent"] is None)
    covered = sum(own for s, own in spans if s["parent"] is not None)
    untraced_wall = sum(sum(op.info["walls"]) for op in ops)
    values = workload.layer_metrics(tracer, ops)
    values.update({
        "bundles.bytes_read": float(np.mean([r for r, _ in moved])),
        "bundles.bytes_written": float(np.mean([w for _, w in moved])),
        # of the traced time, so host noise between the two passes cannot push it past 1
        "trace.coverage_ratio": covered / traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    return values, errors, tracer
