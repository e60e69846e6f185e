"""Cross-validation and the sensitivity grid fit in the calling thread,
whatever worker bound they are given."""

import threading

import pytest

from fakescope.corpus import SynthConfig, synthesize
from fakescope.features import extract
from fakescope.features.catalog import CLASS_A_SPECS
from fakescope.learn.cv import cross_validate_matrix
from fakescope.sensitivity import analyze_matrices


@pytest.fixture(scope="module")
def corpus():
    dataset = synthesize(SynthConfig.paper_like(seed=5, n_humans=40, n_fakes=40))
    return dataset, extract(dataset, CLASS_A_SPECS)


@pytest.fixture
def no_threads(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def test_cross_validation_starts_no_thread(corpus, no_threads):
    dataset, matrix = corpus
    report = cross_validate_matrix("dt", matrix, dataset, k=3, seed=1, jobs=4)
    assert len(report.fold_matrices) == 3


def test_sensitivity_grid_starts_no_thread(corpus, no_threads):
    _, matrix = corpus
    rows = range(matrix.n_rows)
    train, test = matrix.take_rows(rows[0::2]), matrix.take_rows(rows[1::2])
    report = analyze_matrices(train, test, algorithms=("dt", "nb"), seed=1, jobs=4)
    assert len(report.cells) == 2 * len(CLASS_A_SPECS)
