"""Every module attribute the benchmark tracer wraps still exists.

``perfbench/tracing.py`` counts work by replacing functions at the
attribute their callers look up. A target that moves or is renamed is
skipped and its metrics are reported as absent, so a refactor can switch
the counters off without failing a run; these tests fail instead.
"""

import importlib
from pathlib import Path

import pytest

TARGETS = [
    *(("fakescope.cli", name) for name in (
        "main", "load_dataset", "save_dataset", "validate", "rebalance", "run_ruleset",
        "rule_report", "extract")),
    *(("fakescope.sensitivity", name) for name in (
        "extract", "analyze", "analyze_matrices", "train", "predict_many")),
    ("fakescope.features.extract", "_EXTRACTORS"),
    *(("fakescope.learn.cv", name) for name in (
        "cross_validate_matrix", "train", "predict_many")),
    ("fakescope.learn.model", "grow_tree"),
    ("fakescope.learn.ensembles", "grow_tree"),
    ("fakescope.learn.tree", "best_threshold_split"),
]


@pytest.mark.parametrize(("module", "attr"), TARGETS)
def test_target_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_install_reports_no_target_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    hooks = tracing.install(tracing.Tracer())
    try:
        assert hooks.absent == set()
    finally:
        hooks.remove()
