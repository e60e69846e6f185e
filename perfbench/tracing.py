"""In-memory spans and counters recorded around fakescope's public calls.

Hooks replace a function at the attribute its caller looks up (for example
``fakescope.learn.tree.best_threshold_split``, which ``tree.py`` imports by
name) and put the original back when removed. A hook whose target no
longer exists is skipped, and the metrics it feeds are reported as absent.

Layer boundaries crossed a handful of times per pass record spans (name,
start, end, parent); the hot inner calls (split search, tree growth,
per-feature extractors) only add to counters, which keeps the tracing
overhead small.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on worker threads may overlap each other; their union counts
    once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: s.duration - covered(children[s.id]) for s in spans}


class Tracer:
    """Spans and counters of one traced pass; safe to use from worker threads.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost span open on the thread that created the
    tracer, which is the call that started the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            span = Span(self._next_id, name, time.perf_counter(), 0.0, parent)
            self._next_id += 1
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, counts: dict[str, float]) -> None:
        with self._lock:
            for name, value in counts.items():
                self.counters[name] += value


class Hooks:
    """Installs wrappers on module attributes and removes them again."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def wrap(self, module_name: str, attr: str, make: Callable, feeds: tuple[str, ...]) -> None:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            replacement = make(original)
        except (ImportError, AttributeError, TypeError, ValueError):
            self.absent.update(feeds)
            return
        setattr(module, attr, replacement)
        self._undo.append((module, attr, original))

    def remove(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


ALGORITHMS = ("dt", "rf", "ab", "knn", "nb", "lr")  # one learn.fit_s.<name> each


def _spanned(tracer: Tracer, name: str, after: Optional[Callable] = None,
             label: Optional[Callable] = None) -> Callable:
    """A wrapper factory: one span per call, optionally annotated from the
    call's arguments (``label``) or its result (``after``)."""

    def make(original):
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if label is not None:
                span.attrs.update(label(*args, **kwargs))
            cpu0 = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                span.attrs["cpu"] = time.process_time() - cpu0
                tracer.close(span)
            if after is not None:
                span.attrs.update(after(result))
            return result

        return wrapper

    return make


def _counted(tracer: Tracer, name: str, sizes: Optional[Callable] = None) -> Callable:
    """A wrapper factory for hot calls: adds calls, seconds and the counts
    ``sizes(args, result)`` returns to counters instead of recording spans."""

    def make(original):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            extra = sizes(args, result) if sizes is not None else {}
            tracer.add({f"{name}.calls": 1, f"{name}.s": elapsed,
                        **{f"{name}.{key}": value for key, value in extra.items()}})
            return result

        return wrapper

    return make


def _rows_parsed(dataset) -> dict:
    tweets = sum(len(t) for t in (dataset.tweets or {}).values())
    graph = dataset.graph
    edges = len(graph.edges) if graph is not None else 0
    neighbors = len(graph.neighbor_summaries) if graph is not None else 0
    return {"rows": len(dataset.accounts) + tweets + edges + neighbors}


def _tree_nodes(args, root) -> dict:
    """Nodes of a grown tree, counted outside its timed call; a tree that
    ``tree_stats`` cannot walk is counted as unsized."""
    try:
        from fakescope.learn.tree import tree_stats

        return {"nodes": tree_stats(root).nodes}
    except (ImportError, AttributeError, TypeError):
        return {"unsized": 1}


def _timed_extractors(tracer: Tracer) -> Callable:
    """Wraps every entry of the feature-extractor table with a per-cost-class
    timer, so one ``extract`` call over all classes splits into A/B/C."""

    def make(table):
        from fakescope.features.catalog import by_name

        timed = {}
        for name, (requirement, fn) in table.items():
            key = "features.extract_" + by_name(name).cost_class.lower()

            def extractor(ctx, fn=fn, key=key):
                t0 = time.perf_counter()
                value = fn(ctx)
                tracer.add({key: time.perf_counter() - t0})
                return value

            timed[name] = (requirement, extractor)
        return timed

    return make


def install(tracer: Tracer) -> Hooks:
    """Hooks every layer boundary the three workloads cross."""
    hooks = Hooks()
    w = hooks.wrap
    cli = "fakescope.cli"
    w(cli, "main", _spanned(tracer, "cli", label=lambda argv, *a, **k: {"command": argv[0]}),
      ("cli.self_s",))
    w(cli, "load_dataset", _spanned(tracer, "corpus.load", after=_rows_parsed),
      ("corpus.load_s", "corpus.load_calls", "corpus.rows_parsed"))
    w(cli, "save_dataset", _spanned(tracer, "corpus.save"), ("corpus.save_s",))
    w(cli, "validate", _spanned(tracer, "corpus.validate"), ("corpus.validate_s",))
    w(cli, "rebalance", _spanned(tracer, "corpus.rebalance"), ("corpus.rebalance_s",))
    w(cli, "run_ruleset", _spanned(tracer, "rules.run"), ("rules.run_s",))
    w(cli, "rule_report", _spanned(tracer, "rules.report"), ("rules.report_s",))
    cells = lambda m: {"cells": m.n_rows * len(m.specs)}  # noqa: E731
    for module in (cli, "fakescope.sensitivity"):
        w(module, "extract", _spanned(tracer, "features.extract", after=cells),
          ("features.cells",))
    w("fakescope.features.extract", "_EXTRACTORS", _timed_extractors(tracer),
      ("features.extract_a_s", "features.extract_b_s", "features.extract_c_s"))
    w("fakescope.sensitivity", "analyze", _spanned(tracer, "sensitivity.analyze"), ())
    w("fakescope.sensitivity", "analyze_matrices",
      _spanned(tracer, "sensitivity.grid", after=lambda r: {"cells": len(r.cells)}),
      ("sensitivity.cells", "sensitivity.cell_s", "sensitivity.cpu_per_wall"))
    w("fakescope.learn.cv", "cross_validate_matrix",
      _spanned(tracer, "learn.cv", after=lambda r: {"folds": r.k}), ("learn.cv_fold_s",))
    fit_metrics = tuple(f"learn.fit_s.{a}" for a in ALGORITHMS)
    algo = lambda algorithm, *a, **k: {"algorithm": algorithm}  # noqa: E731
    for module in ("fakescope.learn.cv", "fakescope.sensitivity"):
        w(module, "train", _spanned(tracer, "learn.fit", label=algo), fit_metrics)
        w(module, "predict_many", _spanned(tracer, "learn.predict"), ("learn.predict_s",))
    grow = ("learn.grow_tree_calls", "learn.grow_tree_s", "learn.nodes_grown")
    for module in ("fakescope.learn.model", "fakescope.learn.ensembles"):
        w(module, "grow_tree", _counted(tracer, "learn.grow_tree", sizes=_tree_nodes), grow)
    w("fakescope.learn.tree", "best_threshold_split",
      _counted(tracer, "kernels.split", sizes=lambda args, _: {"rows": len(args[0])}),
      ("kernels.split_calls", "kernels.split_rows", "kernels.rows_per_call", "kernels.split_s"))
    return hooks


# name -> unit; the per-layer metrics a traced pass reports
LAYER_METRICS = {
    "corpus.load_s": "s",
    "corpus.load_calls": "count",
    "corpus.rows_parsed": "count",
    "corpus.save_s": "s",
    "corpus.validate_s": "s",
    "corpus.rebalance_s": "s",
    "rules.run_s": "s",
    "rules.report_s": "s",
    "features.extract_a_s": "s",
    "features.extract_b_s": "s",
    "features.extract_c_s": "s",
    "features.cells": "count",
    "kernels.split_calls": "count",
    "kernels.split_rows": "count",
    "kernels.rows_per_call": "count",
    "kernels.split_s": "s",
    "learn.grow_tree_calls": "count",
    "learn.grow_tree_s": "s",
    "learn.nodes_grown": "count",
    **{f"learn.fit_s.{a}": "s" for a in ALGORITHMS},
    "learn.predict_s": "s",
    "learn.cv_fold_s": "s",
    "sensitivity.cells": "count",
    "sensitivity.cell_s": "s",
    "sensitivity.cpu_per_wall": "ratio",
    "cli.self_s": "s",
}


def _under(spans: list[Span], ancestor: str) -> list[Span]:
    by_id = {s.id: s for s in spans}

    def inside(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == ancestor:
                return True
            parent = by_id.get(parent.parent)
        return False

    return [s for s in spans if inside(s)]


def layer_metrics(tracer: Tracer, absent: set[str]) -> dict[str, float]:
    """Per-layer values of one traced pass; metrics in ``absent`` are left out."""
    spans = tracer.spans
    c = tracer.counters

    def total(name: str, key: str = "duration") -> float:
        return sum(s.duration if key == "duration" else s.attrs[key]
                   for s in spans if s.name == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    calls = c["kernels.split.calls"]
    grid = [s for s in spans if s.name == "sensitivity.grid"]
    grid_work = [s for s in _under(spans, "sensitivity.grid")
                 if s.name in ("learn.fit", "learn.predict")]
    grid_fits = sum(1 for s in grid_work if s.name == "learn.fit")
    grid_wall = sum(s.duration for s in grid)
    folds = total("learn.cv", "folds")
    selfs = self_times(spans)
    values = {
        "corpus.load_s": total("corpus.load"),
        "corpus.load_calls": count("corpus.load"),
        "corpus.rows_parsed": total("corpus.load", "rows"),
        "corpus.save_s": total("corpus.save"),
        "corpus.validate_s": total("corpus.validate"),
        "corpus.rebalance_s": total("corpus.rebalance"),
        "rules.run_s": total("rules.run"),
        "rules.report_s": total("rules.report"),
        "features.extract_a_s": c["features.extract_a"],
        "features.extract_b_s": c["features.extract_b"],
        "features.extract_c_s": c["features.extract_c"],
        "features.cells": total("features.extract", "cells"),
        "kernels.split_calls": calls,
        "kernels.split_rows": c["kernels.split.rows"],
        "kernels.rows_per_call": c["kernels.split.rows"] / calls if calls else 0.0,
        "kernels.split_s": c["kernels.split.s"],
        "learn.grow_tree_calls": c["learn.grow_tree.calls"],
        "learn.grow_tree_s": c["learn.grow_tree.s"],
        "learn.nodes_grown": None if c["learn.grow_tree.unsized"] else c["learn.grow_tree.nodes"],
        **{f"learn.fit_s.{a}": sum(s.duration for s in spans
                                   if s.name == "learn.fit" and s.attrs["algorithm"] == a)
           for a in ALGORITHMS},
        "learn.predict_s": total("learn.predict"),
        "learn.cv_fold_s": total("learn.cv") / folds if folds else 0.0,
        "sensitivity.cells": total("sensitivity.grid", "cells"),
        "sensitivity.cell_s": sum(s.duration for s in grid_work) / grid_fits if grid_fits else 0.0,
        "sensitivity.cpu_per_wall": total("sensitivity.grid", "cpu") / grid_wall if grid_wall else 0.0,
        "cli.self_s": sum(selfs[s.id] for s in spans if s.name == "cli"),
    }
    return {k: float(v) for k, v in values.items() if k not in absent and v is not None}
