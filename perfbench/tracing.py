"""In-memory call spans around the public functions of the sgconv modules.

``Tracer.install()`` rebinds every public function defined in one of the
traced modules to a timing wrapper. The rebinding happens in the defining
module and under every other module attribute that names the same
function object, such as the ``from .grouping import kmeans_cluster``
binding inside ``pipeline`` or ``from .pipeline import run_algorithm1``
inside ``cli``. Calls the package makes internally are therefore seen as
well as calls made by the harness. ``uninstall()`` restores the
originals, so an untraced call runs the package's own function objects.

Spans are kept in memory as plain lists and written out once, at exit.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "pipeline", "importance", "grouping", "pruning", "deploy",
          "model", "ops", "io", "data")

# span layout: [id, parent, root, name, start, end, attrs]
ID, PARENT, ROOT, NAME, START, END, ATTRS = range(7)


def _block_macs(groups):
    return sum(int(np.size(w)) for _f, _c, w in groups)


def _save_bytes(args):
    return sum(Path(p).stat().st_size for p in args[1:3])


# Extra attributes recorded for some calls: work counts that per-layer
# metrics divide by. Each reads only arguments and the result.
ANNOTATORS = {
    "ops.conv2d_forward": lambda a, r: {"flops": 2 * r.size * a[1][0].size},
    "ops.fc_forward": lambda a, r: {"flops": 2 * r.size * a[1].shape[1]},
    "ops.group_conv_forward": lambda a, r: {
        "flops": 2 * r.shape[0] * r.shape[2] * r.shape[3] * _block_macs(a[1])},
    "ops.group_fc_forward": lambda a, r: {"flops": 2 * r.shape[0] * _block_macs(a[1])},
    "model.layer_forward": lambda a, r: {"layer": a[0].name},
    "grouping.kmeans_cluster": lambda a, r: {"points": int(np.size(a[0]))},
    "io.save_model": lambda a, r: {"bytes": _save_bytes(a)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    @property
    def active(self) -> bool:
        return bool(self._restore)

    def _open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        root = self.spans[parent][ROOT] if parent is not None else sid
        span = [sid, parent, root, name, time.perf_counter(), None, attrs]
        self.spans.append(span)
        self._stack.append(sid)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        """A harness-level span (an operation or a request)."""
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, qualname, fn):
        annotate = ANNOTATORS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span[ATTRS] = annotate(args, result)
            return result

        return traced

    def install(self):
        if self.active:
            return
        modules = [importlib.import_module(f"sgconv.{name}") for name in LAYERS]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in [importlib.import_module("sgconv"), *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore = []

    @contextlib.contextmanager
    def installed(self, on=True):
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path):
        """Write the spans as gzipped JSON lines: a header naming the fields,
        then one array per span, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "root", "name", "start",
                                            "end", "attrs"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([*s[:START], round(s[START] - t0, 7),
                                     round(s[END] - t0, 7), s[ATTRS]],
                                    separators=(",", ":")) + "\n")


def timed_spans(spans, roots):
    """(span, duration, self seconds, parent name) for spans under ``roots``.

    Self time is a span's duration minus the durations of its direct
    children. The root spans themselves are left out.
    """
    child = {}
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
    out = []
    for s in spans:
        if s[ROOT] in roots and s[ID] not in roots:
            dur = s[END] - s[START]
            out.append((s, dur, dur - child.get(s[ID], 0.0), spans[s[PARENT]][NAME]))
    return out


def seconds(timed, names, inclusive):
    """Seconds spent in the functions ``names``.

    Inclusive: the durations of the outermost spans of the set, so nested
    calls within the set are not counted twice. Otherwise: their self time.
    """
    if inclusive:
        return sum(d for s, d, _, parent in timed if s[NAME] in names and parent not in names)
    return sum(own for s, _, own, _ in timed if s[NAME] in names)


def function_table(timed):
    """Calls, inclusive and self seconds of every traced function."""
    table = {}
    for s, dur, own, parent in timed:
        row = table.setdefault(s[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        if parent != s[NAME]:
            row["incl_s"] += dur
    return dict(sorted(table.items()))
