"""In-memory spans around the program's own module functions.

A traced run calls the same ``icsort.cli.main(argv)`` as an untraced one,
with the module functions the commands call wrapped in spans
(``instrument``).  The commands therefore make their layer calls in their
own order, and the traced outputs are the program's outputs.  A span
records its name, start, end, parent span and operation id.  Spans stay
in memory while the workload runs and are written out once at the end.
A span's self time is its duration minus the time its child spans cover.

Each command run is one root span.  Spans opened on a worker thread that
has no open span of its own (``icsort extract`` runs its components on a
thread pool) take the open root as parent; the command's thread waits for
them, so children of one span never overlap in time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None

    def _stack(self) -> list:
        if not hasattr(self._local, "open"):
            self._local.open = []
        return self._local.open

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else self._root,
            "op": self.op_id,
        }
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        root = self._root is None
        if root:
            self._root = index
        stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if root:
                self._root = None

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def totals(self, ops=None) -> dict:
        """Self time summed per span name, over the operations ``ops`` (default all)."""
        out: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            if ops is None or s["op"] in ops:
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **s}) + "\n")


def _resolve(target: str):
    """``"package.module:name"`` or ``"package.module:Class.method"`` -> (owner, attr)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(target)
    return owner, attr


def _wrap(tracer: Tracer, name: str, fn, outer_only):
    """``fn`` inside a span; if its module is in ``outer_only``, not when it calls itself."""
    own_module = fn.__module__ if fn.__module__ in outer_only else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if own_module and sys._getframe(1).f_globals.get("__name__") == own_module:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def instrument(tracer: Tracer, spans: dict, outer_only=(), package: str = "icsort"):
    """Wrap the functions named in ``spans`` ({span name: [target, ...]}) in spans.

    A module-level function is replaced wherever the package holds it: in
    its own module and in every module that imported it by name.  A method
    is replaced on its class.  Functions of a module in ``outer_only`` open
    no span when that module calls them itself, so a public call's helpers
    count as part of it.  A target the program no longer has is reported on
    stderr and skipped; its time then falls to the caller and shows as a
    drop in coverage.  Everything is restored on exit.
    """
    patched = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    try:
        for name, targets in spans.items():
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                except (ImportError, AttributeError):
                    print(f"trace: {target} not found, span {name} skipped", file=sys.stderr)
                    continue
                if isinstance(owner, type):
                    raw = vars(owner)[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(_wrap(tracer, name, raw.__func__, outer_only))
                    else:
                        new = _wrap(tracer, name, raw, outer_only)
                    patched.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                original = getattr(owner, attr)
                new = _wrap(tracer, name, original, outer_only)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, new)
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
