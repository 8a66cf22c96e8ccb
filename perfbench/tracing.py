"""Run-time tracing of topocode from outside its source.

``Tracer.install`` replaces every public module-level function of each
topocode module, and a few hot methods, with a wrapper that records a span
(id, name, start, end, parent id) and exact counts.  Every module attribute
that refers to the original function is replaced, so calls through
``from .x import f`` re-exports are traced too.  ``uninstall`` puts the
originals back.  Spans stay in memory and are written out by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

MODULES = ("strings", "tables", "graphs", "trees", "labelings", "topcode", "groups", "protocols", "cli")

# (module, class, attribute) of the methods traced besides public functions
METHODS = (
    ("graphs", "Graph", "neighbors"),
    ("graphs", "ColoredGraph", "__init__"),
    ("topcode", "PermIndex", "__init__"),
    ("groups", "GraphicGroup", "element"),
    ("protocols", "ProtocolContext", "create"),
)

# span names that differ from module.function
RENAMES = {"tables.reproduce_table1": "tables.reproduce", "tables.reproduce_table2": "tables.reproduce"}

# spans kept in full; calls beyond the cap still count in the aggregates
SPAN_CAP = 200_000


def _search_counts(counts: Counter, args, result) -> None:
    counts["labelings.search.nodes"] += result.nodes
    counts["labelings.search.budget_exhausted"] += result.status.value == "budget-exhausted"


def _verify_counts(counts: Counter, args, result) -> None:
    counts["labelings.verify.passed"] += bool(result.verdict)


def _cipher_counts(counts: Counter, args, result) -> None:
    counts["protocols.keystream_cipher.bytes"] += len(args[0])


def _cells_counts(counts: Counter, args, result) -> None:
    counts["topcode.string_from_topcode.cells"] += 3 * args[0].q


def _subset_counts(counts: Counter, args, result) -> None:
    g = args[0]
    counts["graphs.enumerate_spanning_trees.subsets"] += math.comb(len(g.edges), g.n - 1)


def _candidate_counts(counts: Counter, args, result) -> None:
    counts["topcode.pronbs_solve.candidates"] += len(result)


COUNTERS = {
    "labelings.search": _search_counts,
    "labelings.verify": _verify_counts,
    "protocols.keystream_cipher": _cipher_counts,
    "topcode.string_from_topcode": _cells_counts,
    "graphs.enumerate_spanning_trees": _subset_counts,
    "topcode.pronbs_solve": _candidate_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id, name, start, end, parent))
                else:
                    tracer.dropped += 1
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"topocode.{m}") for m in MODULES}
        namespaces = list(modules.values()) + [importlib.import_module("topocode")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = RENAMES.get(f"{short}.{attr}", f"{short}.{attr}")
                wrapped = self._wrap(name, fn)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        self._patch(ns, attr, wrapped)
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr.strip('_')}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """The per-layer figures: calls, self time and exact counts per span
        name, plus rates over the traced time."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        out["labelings.search.nodes_per_s"] = rate(self.counts["labelings.search.nodes"], self.total_s["labelings.search"])
        out["labelings.verify.pass_ratio"] = rate(self.counts["labelings.verify.passed"], self.calls["labelings.verify"])
        out["topcode.string_from_topcode.cells_per_s"] = rate(
            self.counts["topcode.string_from_topcode.cells"], self.total_s["topcode.string_from_topcode"]
        )
        out["protocols.keystream_cipher.mib_per_s"] = rate(
            self.counts["protocols.keystream_cipher.bytes"] / 2**20, self.self_s["protocols.keystream_cipher"]
        )
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent]) + "\n")
