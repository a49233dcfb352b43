"""Pieces shared by the workloads: running a CLI step, parity, file sizes."""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

from icsort import cli


@dataclass
class Op:
    """One closed-loop operation: its input directory and its work in components."""

    index: int
    directory: str
    units: int
    info: dict = field(default_factory=dict)


class StepFailed(Exception):
    pass


def run_steps(steps, tracer=None) -> list:
    """Run CLI argument lists in order, in process; returns each one's wall time.

    Each step is timed around ``icsort.cli.main`` alone; with a tracer, that
    call is also the root span ``cli.<command>``.  A callable among the
    steps is benchmark glue between commands and is run untimed.  Console
    output is captured so the benchmark's own output stays clean.
    """
    walls = []
    for argv in steps:
        if callable(argv):
            argv()
            continue
        out, err = io.StringIO(), io.StringIO()
        root = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
            started = time.perf_counter()
            code = cli.main(argv)
            walls.append(time.perf_counter() - started)
        if code != 0:
            raise StepFailed(f"icsort {argv[0]} exited {code}: {err.getvalue().strip()}")
    return walls


def tree_files(path) -> list:
    """Relative paths of the regular files under ``path`` (or ``path`` itself)."""
    if os.path.isfile(path):
        return [""]
    found = []
    for base, _, names in os.walk(path):
        found.extend(os.path.relpath(os.path.join(base, n), path) for n in names)
    return sorted(found)


def size_of(*paths) -> int:
    total = 0
    for path in paths:
        for rel in tree_files(path):
            total += os.path.getsize(os.path.join(path, rel) if rel else path)
    return total


def parity_mismatches(cli_dir, traced_dir, names) -> list:
    """Outputs under ``names`` whose bytes differ between the two directories."""
    bad = []
    for name in names:
        a, b = os.path.join(cli_dir, name), os.path.join(traced_dir, name)
        files_a, files_b = tree_files(a), tree_files(b)
        if files_a != files_b:
            bad.append(f"{name}: file sets differ")
            continue
        for rel in files_a:
            pa = os.path.join(a, rel) if rel else a
            pb = os.path.join(b, rel) if rel else b
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                if fa.read() != fb.read():
                    bad.append(os.path.join(name, rel) if rel else name)
    return bad
