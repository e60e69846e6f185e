"""Tests of the benchmark's own code: spans, statistics, the gate, inputs, names.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import fakescope.learn.tree as tree_mod
import run
from gate import GateError, Outcome, check_manifest, compare
from run import Tally, summarize
from tracing import LAYER_METRICS, Hooks, Span, Tracer, install, layer_metrics, self_times
from workloads import DetectPipeline, SensitivityGrid

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),  # overlaps a, as a pool worker would
        Span(3, "a.child", 2.0, 3.0, 1),
        Span(4, "late", 9.0, 12.0, 0),  # only the part inside root counts
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_worker_thread_spans_attach_to_the_span_that_started_the_pool():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()
    outer = tracer.open("grid")

    def work(_):
        tracer.close(tracer.open("cell"))

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, range(4)))
    tracer.close(outer)
    cells = [s for s in tracer.spans if s.name == "cell"]
    assert len(cells) == 4
    assert all(s.parent == outer.id for s in cells)


def test_summary_on_fixed_samples():
    s = summarize([float(v) for v in range(10, 0, -1)])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.75, 5.5, 8.25, 10)
    single = summarize([3.5])
    assert (single["q1"], single["median"], single["q3"], single["n"]) == (3.5, 3.5, 3.5, 1)


def _artifact_dir(tmp_path: Path, recorded_digest: str) -> Path:
    out = tmp_path / "out"
    out.mkdir()
    (out / "table.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    (out / "manifest.json").write_text(
        json.dumps({"artifacts": {"table.csv": recorded_digest}}), encoding="utf-8")
    return out


def test_manifest_digests_are_checked_and_read_back(tmp_path):
    good = hashlib.sha256(b"a,b\n1,2\n").hexdigest()
    assert check_manifest(_artifact_dir(tmp_path, good)) == {"table.csv": good}


def test_forced_digest_mismatch_counts_as_a_failure(tmp_path):
    out = _artifact_dir(tmp_path, "0" * 64)
    with pytest.raises(GateError):
        check_manifest(out)
    workload = DetectPipeline(7, tmp_path / "w")
    outcomes = workload.verify([("features", out, None), ("rules", out, "rules: exit code 2")])
    tally = Tally()
    tally.add(outcomes)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_output_that_differs_from_the_warm_up_pass_fails(tmp_path):
    good = hashlib.sha256(b"a,b\n1,2\n").hexdigest()
    out = _artifact_dir(tmp_path, good)
    workload = DetectPipeline(7, tmp_path / "w")
    workload.expected = {"features": {"table.csv": "f" * 64}}
    [outcome] = workload.check([("features", out, None)])
    assert outcome.failed


def test_a_missing_reference_fails_the_reference_seed_only(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REFERENCES", tmp_path / "missing.json")
    assert run.load_reference("cv_models", run.REFERENCE_SEED + 1) is None
    reference = run.load_reference("cv_models", run.REFERENCE_SEED)
    assert reference == {}
    outcomes = [Outcome("lr", {"tp": 1})]
    compare(outcomes, reference, "the stored reference")
    assert outcomes[0].failed


def _corpus_digests(seed: int, workdir: Path) -> dict[str, str]:
    workload = SensitivityGrid(seed, workdir)
    workload.humans = workload.fakes = 6
    workload.setup()
    return {str(p.relative_to(workload.raw)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workload.raw.rglob("*")) if p.is_file()}


def test_a_different_seed_yields_a_different_corpus(tmp_path):
    first = _corpus_digests(1, tmp_path / "a")
    assert first == _corpus_digests(1, tmp_path / "b")
    second = _corpus_digests(2, tmp_path / "c")
    assert first.keys() == second.keys()
    assert all(first[name] != second[name] for name in first)


def test_hooks_restore_originals_and_report_missing_targets_as_absent():
    original = tree_mod.best_threshold_split
    tracer = Tracer()
    hooks = install(tracer)
    assert tree_mod.best_threshold_split is not original
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = tree_mod.grow_tree(X, y)
    hooks.remove()
    assert tree_mod.best_threshold_split is original
    assert root.threshold == 1.5
    values = layer_metrics(tracer, hooks.absent)
    assert values["kernels.split_calls"] >= 1
    assert values["kernels.split_rows"] >= 4

    missing = Hooks()
    missing.wrap("fakescope.learn.tree", "no_such_function", lambda f: f, ("kernels.split_s",))
    missing.wrap("fakescope.no_such_module", "anything", lambda f: f, ("corpus.load_s",))
    assert missing.absent == {"kernels.split_s", "corpus.load_s"}
    values = layer_metrics(Tracer(), missing.absent)
    assert "kernels.split_s" not in values and "corpus.load_s" not in values


def test_every_metric_name_is_well_formed_and_declared():
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    produced = set(LAYER_METRICS) | {"trace.overhead_s"}
    assert set(per_layer) == produced
    for name in [*end_to_end, *per_layer, *(w["name"] for w in declared["workloads"])]:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
