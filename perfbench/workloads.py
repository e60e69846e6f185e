"""The three benchmark workloads.

Each workload synthesizes a paper-like corpus from the benchmark seed
during set-up and hands fakescope only that corpus. ``setup`` builds the
inputs; ``warm_up`` runs one pass whose outputs become the reference every
measured pass must reproduce byte for byte; ``run_pass`` is the timed work;
``verify`` applies the correctness gate to a finished pass outside the
timed region. Why each workload exists is in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path
from typing import Optional

import fakescope.cli as cli_mod
import fakescope.learn.cv as cv_mod
from fakescope.corpus import SynthConfig, save_dataset, synthesize
from fakescope.features.catalog import CLASS_A_SPECS, feature_set
from fakescope.features.extract import extract

from gate import GateError, Outcome, check_manifest, compare, sha256_bytes
from tracing import ALGORITHMS


class Workload:
    name = ""
    humans = 0
    fakes = 0
    corpora = 1  # independent corpora of humans + fakes accounts each
    jobs = 1
    fits_per_pass = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.raw = workdir / "raw"
        self.out = workdir / "pass"
        self.sizes: dict[str, int] = {}
        self.expected: dict = {}

    @property
    def accounts(self) -> int:
        return self.corpora * (self.humans + self.fakes)

    def synthesize(self, seed: Optional[int] = None):
        """The corpus for ``seed`` (default: this workload's); adds its sizes
        to ``self.sizes``."""
        dataset = synthesize(SynthConfig.paper_like(
            seed=self.seed if seed is None else seed,
            n_humans=self.humans, n_fakes=self.fakes))
        for key, size in (("accounts", len(dataset)),
                          ("tweets", sum(len(t) for t in dataset.tweets.values())),
                          ("edges", len(dataset.graph.edges))):
            self.sizes[key] = self.sizes.get(key, 0) + size
        return dataset

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self, reference: Optional[dict]) -> list[Outcome]:
        """One untimed pass; its fingerprints become what later passes must
        equal. ``reference`` (stored fingerprints for this seed) is checked
        first when given."""
        self.clean()
        outcomes = self.verify(self.run_pass())
        if reference is not None:
            compare(outcomes, reference, "the stored reference")
        self.expected = {o.op: o.fingerprint for o in outcomes if not o.failed}
        return outcomes

    def clean(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self) -> list:
        raise NotImplementedError

    def verify(self, results: list) -> list[Outcome]:
        raise NotImplementedError

    def check(self, results: list) -> list[Outcome]:
        outcomes = self.verify(results)
        compare(outcomes, self.expected, "the warm-up pass")
        return outcomes


class _CliWorkload(Workload):
    """Runs ``fakescope.cli.main`` in-process; each command is one operation."""

    def setup(self) -> None:
        """Writes the corpus as csv, the CLI's input; the CLI reads it from
        there, so no copy stays in memory."""
        save_dataset(self.synthesize(), self.raw)

    def commands(self) -> list[tuple[str, list[str], Path]]:
        raise NotImplementedError

    def run_pass(self) -> list:
        results = []
        for op, argv, out_dir in self.commands():
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli_mod.main(argv)
                error = None if code == 0 else f"{op}: exit code {code}"
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{op}: raised {exc!r}"
            results.append((op, out_dir, error))
        return results

    def verify(self, results: list) -> list[Outcome]:
        outcomes = []
        for op, out_dir, error in results:
            fingerprint = None
            if error is None:
                try:
                    fingerprint = check_manifest(out_dir)
                except GateError as exc:
                    error = f"{op}: {exc}"
            outcomes.append(Outcome(op, fingerprint, error))
        return outcomes


class DetectPipeline(_CliWorkload):
    """ingest, rules and features: corpus, rules and features do the work."""

    name = "detect_pipeline"
    humans = fakes = 300

    def commands(self):
        seed = ["--seed", str(self.seed)]
        norm = self.out / "normalized"
        rules = self.out / "rules"
        feats = self.out / "features"
        return [
            ("ingest", ["ingest", str(self.raw), "--out", str(norm), *seed], norm),
            ("rules", ["rules", str(norm), "--ruleset", "all", "--report",
                       "--out", str(rules), *seed], rules),
            ("features", ["features", str(norm), "--class", "all",
                          "--out", str(feats), *seed], feats),
        ]


class SensitivityGrid(_CliWorkload):
    """The leave-one-out grid in pool threads, once per corpus. The Yang
    set, not Class A, keeps the grid's cost from hinging on the few
    class-swapped accounts the generator makes, and two small corpora,
    not one large one, average out how much work a corpus happens to need
    (see README.md)."""

    name = "sensitivity_grid"
    humans = fakes = 100
    corpora = 2
    jobs = 2
    features = "yang"
    fits_per_pass = corpora * len(ALGORITHMS) * (1 + len(feature_set(features)))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._jobs = self.jobs
        # distinct for every seed: seed s uses s*corpora, ..., s*corpora + corpora-1
        self.corpus_seeds = [seed * self.corpora + i for i in range(self.corpora)]

    def setup(self) -> None:
        for i, seed in enumerate(self.corpus_seeds):
            save_dataset(self.synthesize(seed), self.raw / f"c{i}")

    def commands(self):
        ops = []
        for i, seed in enumerate(self.corpus_seeds):
            out = self.out / f"c{i}"
            ops.append((f"sensitivity-c{i}",
                        ["sensitivity", str(self.raw / f"c{i}"), "--features", self.features,
                         "--jobs", str(self._jobs), "--out", str(out), "--seed", str(seed)],
                        out))
        return ops

    def warm_up(self, reference):
        """The reference pass runs with --jobs 1, so every measured pass
        (--jobs 2) must also match the single-worker output."""
        self._jobs = 1
        try:
            return super().warm_up(reference)
        finally:
            self._jobs = self.jobs


class CvModels(Workload):
    """10-fold cross-validation of all six classifiers on matrices extracted
    in set-up, one thread: learn and kernels with no corpus work."""

    name = "cv_models"
    humans = fakes = 600
    fits_per_pass = len(ALGORITHMS) * 10

    def setup(self) -> None:
        self.dataset = self.synthesize()
        self.matrices = {
            "class_a": extract(self.dataset, CLASS_A_SPECS),
            "yang": extract(self.dataset, feature_set("yang")),
        }

    def run_pass(self) -> list:
        results = []
        for algo in ALGORITHMS:
            matrix = self.matrices["yang" if algo == "rf" else "class_a"]
            try:
                report = cv_mod.cross_validate_matrix(
                    algo, matrix, self.dataset, k=10, seed=self.seed, jobs=1)
                results.append((algo, report, None))
            except Exception as exc:  # an operation that raises counts as failed
                results.append((algo, None, f"{algo}: raised {exc!r}"))
        return results

    def verify(self, results: list) -> list[Outcome]:
        outcomes = []
        for algo, report, error in results:
            fingerprint = None
            if error is None:
                cm = report.pooled_matrix
                body = json.dumps(report.as_dict(), sort_keys=True).encode()
                fingerprint = {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn,
                               "report_sha256": sha256_bytes(body)}
            outcomes.append(Outcome(algo, fingerprint, error))
        return outcomes


WORKLOADS = {w.name: w for w in (DetectPipeline, CvModels, SensitivityGrid)}
