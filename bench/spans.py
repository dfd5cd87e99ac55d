"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces, at run time, each target function in every
monorect module that holds it (its own module and every module that
imported the name), and wraps `Pool.build` on the class.  No file of the
program changes.  A span holds a name, a start, an end and its parent;
spans stay in memory until `write` saves them.  A span's self time is
its duration minus the durations of its child spans, so the self times
of all spans of an operation, the operation's own span ("op") included,
add up to the operation's traced time.  Collector pauses are spans too
(via gc.callbacks), so they come out of the self time of whatever they
interrupted.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); a span name of None counts calls
# without a span.
TARGETS = (
    ("monorect.formats", "parse_problem", "formats.parse"),
    ("monorect.formats", "parse_tree_file", "formats.parse"),
    ("monorect.formats", "print_circuit", "formats.print"),
    ("monorect.formats", "print_dtree", "formats.print"),
    ("monorect.circuit", "Pool.build", "circuit.build"),
    ("monorect.circuit", "condition", "circuit.condition"),
    ("monorect.circuit", "iter_gates", None),
    ("monorect.classifier", "check_xy_property", "classifier.certify"),
    ("monorect.classifier", "fact_formula", "classifier.fact_formula"),
    ("monorect.rectify", "rectify", "rectify.rectify"),
    ("monorect.rectify", "decisive_circuits", "rectify.decisive"),
    ("monorect.semantics", "evaluate", "semantics.evaluate"),
    ("monorect.semantics", "truth_mask", "semantics.truth_mask"),
    ("monorect.dtree", "dt_check_classification", "dtree.certify"),
    ("monorect.dtree", "dt_simplify", "dtree.simplify"),
    ("monorect.dtree", "circuit_to_dt", "dtree.circuit_to_dt"),
    ("monorect.dtree", "dt_rectify", "dtree.rectify"),
    ("monorect.verify", "check_postulates", "verify.postulates"),
)

OP = "op"
GC = "gc.pause"


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.active = False
        self.names: list[str] = [OP, GC]
        self._ids = {OP: 0, GC: 1}
        # one entry per span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_time = Counter()
        self.total_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.open = Counter()  # open spans per name
        self.results: list = []  # (kind, object) kept for sizing after the op
        self._stack: list[list] = []  # [span index, child time]
        self._undo: list = []

    # ------------------------------------------------------------------
    # spans

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int):
        entry = [len(self.span_name), 0.0]
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(entry)
        self.span_start.append(self.clock())

    def end(self):
        now = self.clock()
        idx, child = self._stack.pop()
        self.span_end[idx] = now
        duration = now - self.span_start[idx]
        nid = self.span_name[idx]
        self.self_time[nid] += duration - child
        self.total_time[nid] += duration
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def op_begin(self):
        self.active = True
        self.begin(0)

    def op_end(self) -> float:
        """Close the operation's span and return its traced duration."""
        idx = self._stack[0][0]
        self.end()
        self.active = False
        return self.span_end[idx] - self.span_start[idx]

    def _gc(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self.begin(1)
        else:
            self.end()
            if info["generation"] == 2:
                self.counts["gc.gen2_collections"] += 1

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, fn, span, after):
        tracer = self
        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.active:
                    after(tracer, args, result)
                return result
            return counted
        nid = self._id(span)

        def wrapped(*args, **kwargs):
            # a function that calls itself (print_dtree) gets one span
            if not tracer.active or tracer.open[nid]:
                return fn(*args, **kwargs)
            tracer.open[nid] += 1
            tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
                tracer.open[nid] -= 1
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapped

    def install(self):
        """Wrap every target in every loaded monorect module."""
        modules = [m for n, m in sys.modules.items() if n == "monorect" or n.startswith("monorect.")]
        for home_name, attr, span in TARGETS:
            home = sys.modules[home_name]
            after = _AFTER.get(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self._wrap(original, span, after))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span, after)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, original, wrapper)
        gc.callbacks.append(self._gc)

    def _set(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    # ------------------------------------------------------------------
    # results

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_time[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def total_seconds(self, name: str) -> float:
        """Summed duration of the spans of this name (targets that never nest)."""
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_time[nid]

    def take_results(self) -> list:
        out, self.results = self.results, []
        return out

    def write(self, path, extra: dict):
        """Save every span (columns) plus a summary, gzip-compressed JSON."""
        doc = dict(extra)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def _parsed(tracer, args, result):
    tracer.counts["formats.parse_chars"] += len(args[0])


def _printed(tracer, args, result):
    tracer.counts["formats.print_chars"] += len(result)


def _traversal(tracer, args, result):
    tracer.counts["circuit.traversals"] += 1
    tracer.counts["circuit.gates_visited"] += len(result)


def _rectified(tracer, args, result):
    tracer.results.append(("circuit", result.positive))


def _dt_rectified(tracer, args, result):
    tracer.results.append(("tree", result))


_AFTER = {
    "parse_problem": _parsed,
    "parse_tree_file": _parsed,
    "print_circuit": _printed,
    "print_dtree": _printed,
    "iter_gates": _traversal,
    "rectify": _rectified,
    "dt_rectify": _dt_rectified,
}
