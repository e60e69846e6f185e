"""CLI surface: exit codes, artifacts, manifests, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fakescope
from fakescope.cli import MAX_FRACTIONS, _parse_fractions, cli, main
from fakescope.corpus import PRESETS, SynthConfig, save_dataset
from fakescope.manifest import load_manifest, verify_artifacts
from fakescope.rules import context

from conftest import make_account, make_dataset


def run(argv):
    return main([str(a) for a in argv])


def tree_bytes(directory):
    """All files below a directory except the (timestamped) manifest."""
    out = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(directory))] = path.read_bytes()
    return out


def manifest_modulo_timestamp(directory):
    data = load_manifest(Path(directory) / "manifest.json")
    data.pop("created_at")
    return data


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(["synth", "--preset", "paper-like", "--humans", "80", "--fakes", "80",
                "--seed", "7", "--out", out])
    assert code == 0
    return out


class TestExitCodes:
    def test_usage_error_unknown_flag(self, tmp_path):
        assert run(["synth", "--nope", "--out", tmp_path]) == 1

    def test_usage_error_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_data_error_missing_corpus(self, tmp_path):
        assert run(["cv", tmp_path / "absent", "--out", tmp_path / "out"]) == 2

    def test_success(self, tmp_path):
        assert run(["cost", "--followers", "0"]) == 0

    def test_sweep_has_no_jobs_flag(self, corpus_dir, tmp_path, capsys):
        assert run(["sweep", corpus_dir, "--target-size", "100", "--jobs", "2",
                    "--out", tmp_path]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        # the corpus is absent too, which would exit 2 if --jobs passed
        assert run(["sensitivity", tmp_path / "absent", "--jobs", jobs,
                    "--out", tmp_path / "out"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestSynth:
    def test_same_seed_identical_trees(self, tmp_path):
        for sub in ("one", "two"):
            assert run(["synth", "--humans", "40", "--fakes", "40", "--seed", "3",
                        "--out", tmp_path / sub]) == 0
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")
        assert manifest_modulo_timestamp(tmp_path / "one") == manifest_modulo_timestamp(
            tmp_path / "two"
        )

    def test_seed_changes_output(self, tmp_path):
        run(["synth", "--humans", "40", "--fakes", "40", "--seed", "3", "--out", tmp_path / "a"])
        run(["synth", "--humans", "40", "--fakes", "40", "--seed", "4", "--out", tmp_path / "b"])
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAKESCOPE_SEED", "3")
        run(["synth", "--humans", "40", "--fakes", "40", "--out", tmp_path / "env"])
        monkeypatch.delenv("FAKESCOPE_SEED")
        run(["synth", "--humans", "40", "--fakes", "40", "--seed", "3", "--out", tmp_path / "flag"])
        assert tree_bytes(tmp_path / "env") == tree_bytes(tmp_path / "flag")

    def test_bad_env_seed_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAKESCOPE_SEED", "seven")
        assert run(["synth", "--humans", "4", "--fakes", "4", "--out", tmp_path]) == 2
        assert "FAKESCOPE_SEED must be an integer, got 'seven'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()
        # a --seed on the command line wins over the variable; cost takes no seed
        assert run(["synth", "--humans", "4", "--fakes", "4", "--seed", "1", "--out", tmp_path]) == 0
        assert run(["cost", "--followers", "1"]) == 0

    def test_size_override_keeps_the_other_preset_fields(self, tmp_path, monkeypatch):
        def small_pool(seed):
            return SynthConfig(n_humans=5, n_fakes=5, seed=seed, n_external_neighbors=50)

        monkeypatch.setitem(PRESETS, "paper-like", small_pool)
        assert run(["synth", "--humans", "10", "--out", tmp_path]) == 0
        rows = (tmp_path / "neighbors.csv").read_text().splitlines()
        assert len(rows) == 1 + 50


class TestPipelineCommands:
    def test_ingest_and_validate(self, corpus_dir, tmp_path):
        assert run(["ingest", corpus_dir, "--out", tmp_path / "norm"]) == 0
        summary = json.loads((tmp_path / "norm" / "summary.json").read_text())
        assert summary["accounts"] == 160
        assert summary["violations"] == 0
        assert run(["validate", corpus_dir]) == 0

    def test_rules_with_report(self, corpus_dir, tmp_path):
        out = tmp_path / "rules"
        assert run(["rules", corpus_dir, "--ruleset", "all", "--report", "--out", out]) == 0
        for name in ("verdicts_cc.csv", "verdicts_sos.csv", "verdicts_sb.csv", "rule_report.csv"):
            assert (out / name).exists()
        header = (out / "rule_report.csv").read_text().splitlines()[0]
        assert header.startswith("rule_id,description,accuracy,precision,recall")

    def test_json_corpus_gives_the_csv_results(self, corpus_dir, tmp_path):
        json_dir = tmp_path / "json-corpus"
        assert run(["synth", "--preset", "paper-like", "--humans", "80", "--fakes", "80",
                    "--seed", "7", "--format", "json", "--out", json_dir]) == 0
        assert (json_dir / "users.json").exists()
        for name, src in (("csv", corpus_dir), ("json", json_dir)):
            assert run(["rules", src, "--report", "--out", tmp_path / name / "rules"]) == 0
            assert run(["features", src, "--out", tmp_path / name / "features"]) == 0
        assert tree_bytes(tmp_path / "json") == tree_bytes(tmp_path / "csv")
        assert len(tree_bytes(tmp_path / "csv")) == 5  # three verdicts, report, matrix

    def test_features_csv(self, corpus_dir, tmp_path):
        out = tmp_path / "feats"
        assert run(["features", corpus_dir, "--class", "a", "--out", out]) == 0
        header = (out / "features.csv").read_text().splitlines()[0]
        assert header.count(",") == 20  # account id + 19 features + label
        assert header.split(",")[1] == "friends_followers_sq_ratio"

    def test_train_writes_model(self, corpus_dir, tmp_path):
        out = tmp_path / "model"
        assert run(["train", corpus_dir, "--algo", "nb", "--features", "class-a",
                    "--seed", "5", "--out", out]) == 0
        payload = json.loads((out / "model.json").read_text())
        assert payload["algorithm"] == "nb"
        assert len(payload["feature_names"]) == 19

    def test_cv_artifacts_and_manifest(self, corpus_dir, tmp_path):
        out = tmp_path / "cv"
        assert run(["cv", corpus_dir, "--algo", "dt", "--features", "class-a",
                    "--k", "3", "--seed", "7", "--out", out]) == 0
        report = json.loads((out / "cv_report.json").read_text())
        assert report["k"] == 3
        assert len(report["folds"]) == 3
        assert (out / "roc_points.csv").exists()
        manifest = load_manifest(out / "manifest.json")
        assert manifest["command"] == "cv"
        assert manifest["seed"] == 7
        checks = verify_artifacts(manifest, out)
        assert checks and all(checks.values())

    def test_manifest_detects_tampering(self, corpus_dir, tmp_path):
        out = tmp_path / "tamper"
        assert run(["features", corpus_dir, "--class", "a", "--out", out]) == 0
        manifest = load_manifest(out / "manifest.json")
        assert all(verify_artifacts(manifest, out).values())
        target = out / "features.csv"
        target.write_text(target.read_text() + "tampered\n")
        checks = verify_artifacts(manifest, out)
        assert checks["features.csv"] is False

    def test_cv_rerun_byte_identical(self, corpus_dir, tmp_path):
        for sub in ("r1", "r2"):
            assert run(["cv", corpus_dir, "--algo", "dt", "--features", "class-a",
                        "--k", "3", "--seed", "7", "--out", tmp_path / sub]) == 0
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_sweep(self, corpus_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep", corpus_dir, "--fractions", "0.3:0.7:0.2", "--algo", "dt",
                    "--features", "class-a", "--target-size", "100", "--k", "3",
                    "--seed", "5", "--out", out]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4  # header + 3 fractions
        best = json.loads((out / "best_fractions.json").read_text())
        assert "mcc" in best

    def test_cost_stdout_and_file(self, tmp_path, capsys):
        out = tmp_path / "cost"
        assert run(["cost", "--followers", "100", "--tweets-per-follower", "450",
                    "--relations-per-follower", "4000", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "200.0" in captured
        assert "unpredictable" in captured
        row = (out / "cost.csv").read_text().splitlines()
        assert row[0].startswith("calls_profile,calls_timeline,calls_relationship")

    def test_sensitivity_smoke(self, corpus_dir, tmp_path):
        out = tmp_path / "sens"
        assert run(["sensitivity", corpus_dir, "--algos", "dt,nb", "--features",
                    "class-a", "--seed", "3", "--jobs", "2", "--out", out]) == 0
        rows = (out / "sensitivity.csv").read_text().splitlines()
        assert len(rows) == 20  # header + 19 features
        assert (out / "sensitivity_cells.json").exists()


class TestSensitivityAlgos:
    @pytest.mark.parametrize(
        ("algos", "message"),
        [
            ("dt,xx", "unknown classifier 'xx'"),
            ("DT", "unknown classifier 'DT'"),
            ("", "no classifiers given"),
            (" , ", "no classifiers given"),
            ("dt,nb,dt", "classifier 'dt' is listed twice"),
        ],
    )
    def test_bad_roster_exits_2_and_names_it(self, corpus_dir, tmp_path, capsys, algos, message):
        assert run(["sensitivity", corpus_dir, "--algos", algos, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "dt, rf, ab, knn, nb, lr" in err
        assert not (tmp_path / "manifest.json").exists()


class TestPrune:
    @pytest.mark.parametrize(
        ("prune", "message"),
        [
            ("reduced_error:x", "'x' is not a number"),
            ("subtree_raising:high", "'high' is not a number"),
            ("reduced_error:2.5", "the fold count must be an integer"),
            ("reduced_error:1", "the fold count must be an integer of at least 2"),
            ("subtree_raising:0.7", "the confidence must lie strictly between 0 and 0.5"),
            ("pessimistic:0.25", "unknown strategy 'pessimistic'"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_malformed_value_exits_2_and_names_the_option(
        self, corpus_dir, tmp_path, capsys, command, prune, message
    ):
        assert run([command, corpus_dir, "--algo", "dt", "--prune", prune,
                    "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"--prune '{prune}'" in err
        assert message in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        ("prune", "recorded"),
        [
            ("reduced_error:3", ["reduced_error", 3.0]),
            ("reduced_error:3.0", ["reduced_error", 3.0]),
            ("reduced_error", ["reduced_error", None]),
            ("subtree_raising:0.25", ["subtree_raising", 0.25]),
        ],
    )
    def test_valid_value_is_recorded_as_parsed(self, corpus_dir, tmp_path, prune, recorded):
        assert run(["train", corpus_dir, "--algo", "dt", "--prune", prune,
                    "--out", tmp_path]) == 0
        assert load_manifest(tmp_path / "manifest.json")["parameters"]["params"]["prune"] == recorded


class TestCheckedFlags:
    @pytest.mark.parametrize(
        ("argv", "named", "message"),
        [
            (["sweep", "--fractions", "a:b:c"], "--fractions 'a:b:c'",
             "could not convert string to float: 'a'"),
            (["sweep", "--fractions", "0.1:0.5"], "--fractions '0.1:0.5'",
             "expected START:STOP:STEP or a single value"),
            (["sweep", "--fractions", "0.1:0.9:0"], "--fractions '0.1:0.9:0'",
             "the step must be positive"),
            (["sweep", "--fractions", "0.9:0.1:0.1"], "--fractions '0.9:0.1:0.1'",
             "give at least one fraction, each strictly between 0 and 1"),
            (["sweep", "--fractions", "0.5:inf:0.25"], "--fractions '0.5:inf:0.25'",
             "give at least one fraction, each strictly between 0 and 1"),
            (["sweep", "--fractions", "1.5"], "--fractions '1.5'",
             "give at least one fraction, each strictly between 0 and 1"),
            # 0.1 + 1e-300 == 0.1: a step that never moves the start
            (["sweep", "--fractions", "0.1:0.9:1e-300"], "--fractions '0.1:0.9:1e-300'",
             "the range names more than 1000 fractions"),
            (["sweep", "--fractions", "0.1:0.9:1e-12"], "--fractions '0.1:0.9:1e-12'",
             "the range names more than 1000 fractions"),
            (["sweep", "--k", "1"], "--k '1'", "must be at least 2"),
            (["ingest", "--reference-time", "bogus"], "--reference-time 'bogus'",
             "Invalid isoformat string: 'bogus'"),
            (["cv", "--reference-time", "2015-13-01"], "--reference-time '2015-13-01'",
             "month must be in 1..12"),
            (["cv", "--algo", "knn", "--knn-k", "0"], "--knn-k '0'", "must be at least 1"),
            (["cv", "--k", "1"], "--k '1'", "must be at least 2"),
        ],
    )
    def test_bad_value_exits_2_naming_the_flag_before_reading_the_corpus(
        self, tmp_path, capsys, argv, named, message
    ):
        command, *flags = argv
        if command == "sweep":
            flags += ["--target-size", "10"]
        # the corpus does not exist: reading it would be a different error
        assert run([command, tmp_path / "absent", *flags, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {named}: {message}")
        assert not (tmp_path / "out").exists()

    def test_the_default_fractions_and_the_largest_range(self):
        (default,) = [p.default for p in cli.commands["sweep"].params if p.name == "fractions"]
        assert _parse_fractions(default) == [round(0.05 * i, 2) for i in range(1, 20)]
        assert len(_parse_fractions("0.0005:0.9995:0.001")) == MAX_FRACTIONS == 1000

    def test_a_year_below_1000_is_a_valid_reference_time(self, corpus_dir, tmp_path):
        assert run(["features", corpus_dir, "--class", "a", "--reference-time",
                    "999-12-31T23:59:59Z", "--out", tmp_path]) == 0


class TestTestFraction:
    @pytest.mark.parametrize("fraction", ["0", "1", "1.5"])
    def test_outside_the_open_unit_interval_is_a_usage_error(
        self, corpus_dir, tmp_path, capsys, fraction
    ):
        assert run(["sensitivity", corpus_dir, "--test-fraction", fraction,
                    "--out", tmp_path]) == 1
        assert "--test-fraction" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_holding_out_no_account_is_a_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run(["synth", "--humans", "30", "--fakes", "30", "--seed", "7",
                    "--out", corpus]) == 0
        capsys.readouterr()
        out = tmp_path / "sens"
        assert run(["sensitivity", corpus, "--test-fraction", "0.01", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--test-fraction 0.01 of 60 accounts holds out 0 test accounts" in err
        assert not (out / "manifest.json").exists()


def test_a_carriage_return_in_an_account_id_reads_back_as_one_row(tmp_path):
    """A lone "\r" in a cell is quoted, so it does not read back as a line break."""
    corpus = tmp_path / "corpus"
    save_dataset(make_dataset([make_account("a\rb", "fake"), make_account("c", "human")]),
                 corpus, fmt="json")
    out = tmp_path / "out"
    assert run(["features", corpus, "--class", "a", "--out", out]) == 0
    assert run(["rules", corpus, "--ruleset", "sb", "--out", out]) == 0
    for name in ("features.csv", "verdicts_sb.csv"):
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["a\rb", "c"], name


def test_unknown_feature_set_is_a_data_error_naming_the_choices(corpus_dir, tmp_path, capsys):
    assert run(["train", corpus_dir, "--features", "nosuchset", "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: unknown feature set 'nosuchset'; expected one of ")
    assert "class-a, class-b, class-c, all, yang, stringhini" in err


@pytest.mark.parametrize("command", [["rules", "--report"], ["features", "--class", "all"]])
def test_each_account_aggregate_is_computed_once(corpus_dir, tmp_path, monkeypatch, command):
    """Rules and features share one context per account, so its timeline
    and neighbor aggregates are computed once, however many read them."""
    owners = {"timeline_counts": [], "text_counts": [], "neighbor_stats": []}

    def counted(name, owner):
        original = getattr(context, name)

        def wrapper(first, *args):
            owners[name].append(owner(first))
            return original(first, *args)

        monkeypatch.setattr(context, name, wrapper)

    timeline_owner = lambda tweets: tweets[0].user_id if tweets else None  # noqa: E731
    counted("timeline_counts", timeline_owner)
    counted("text_counts", timeline_owner)
    counted("neighbor_stats", lambda account: account.user_id)
    assert run([command[0], corpus_dir, *command[1:], "--out", tmp_path]) == 0
    n_accounts = len((Path(corpus_dir) / "users.csv").read_text().splitlines()) - 1
    assert len(owners["timeline_counts"]) == len(owners["text_counts"]) == n_accounts
    assert len(owners["neighbor_stats"]) == (n_accounts if command[0] == "features" else 0)
    for name, seen in owners.items():
        named = [uid for uid in seen if uid is not None]
        assert len(named) == len(set(named)), name


def test_sensitivity_as_a_subprocess_prints_only_its_table(tmp_path):
    """stdout ends with the last table row and stderr stays empty, so a
    caller reading the last line of the output reads the command's own."""
    env = {**os.environ, "PYTHONPATH": str(Path(fakescope.__file__).parents[1])}
    env.pop("FAKESCOPE_SEED", None)

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fakescope.cli", *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=300,
        )

    corpus = cli("synth", "--humans", "30", "--fakes", "30", "--seed", "7", "--out",
                 tmp_path / "corpus")
    assert corpus.returncode == 0, corpus.stderr
    done = cli("sensitivity", tmp_path / "corpus", "--algos", "dt,nb", "--features", "yang",
               "--seed", "7", "--jobs", "2", "--out", tmp_path / "sens")
    assert done.returncode == 0
    assert done.stderr == ""
    last_row = (tmp_path / "sens" / "sensitivity.csv").read_text().splitlines()[-1]
    rank, feature = last_row.split(",")[:2]
    assert done.stdout.endswith("\n")
    assert done.stdout.splitlines()[-1].split()[:2] == [rank, feature]
