"""Every module attribute the benchmark tracer wraps still exists.

``perfbench/tracing.py`` counts work by replacing functions at the
attribute their callers look up. A target that moves or is renamed is
skipped and its metrics are reported as absent, so a refactor can switch
the counters off without failing a run; these tests fail instead. So does
a fit that stops calling a wrapped attribute while the attribute remains.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from fakescope.features import FeatureSpec
from fakescope.features.catalog import RATIO
from fakescope.features.extract import FeatureMatrix
from fakescope.learn import train

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


def test_tree_fits_call_the_wrapped_grow_tree(monkeypatch):
    """A fit that bound ``grow_tree`` anywhere but these attributes would
    leave the tracer's ``learn.grow_tree_*`` counters at zero."""
    calls = {}
    for name in ("fakescope.learn.model", "fakescope.learn.ensembles"):
        module = importlib.import_module(name)

        def counting(*args, _original=module.grow_tree, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "grow_tree", counting)
    X = np.array([[0.0, 3.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.0], [4.0, 5.0], [5.0, 4.0]])
    specs = tuple(FeatureSpec(name=f"f{j}", cost_class="A", source_set="CC", kind=RATIO)
                  for j in range(2))
    matrix = FeatureMatrix(specs=specs, account_ids=tuple(f"u{i}" for i in range(6)), values=X,
                           labels=("human", "fake", "human", "fake", "fake", "human"),
                           provenance={})
    train("dt", matrix)
    assert calls == {"fakescope.learn.model": 1}
    model = train("ab", matrix, params={"rounds": 3})
    assert len(model.state.trees) == 3
    assert calls == {"fakescope.learn.model": 1, "fakescope.learn.ensembles": 3}
