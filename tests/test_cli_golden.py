"""Golden CLI outputs: every command's artifacts, manifest, stdout and options.

``cli_golden.json`` holds, for each run below, the sha256 of every artifact,
of the manifest without timestamps and of what the command printed, and
for each command the (name, opts, default, type, required) of its options.
The runs use paths relative to their working directory, so the manifests
name the same inputs on every machine. A change to how the CLI is put
together must reproduce every entry; a change to what a command writes must
say so and re-record the file with ``observe``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import click
import pytest

from fakescope.cli import cli, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

CSV = "corpus-csv"
JSON = "corpus-json"

# (run name, argv, FAKESCOPE_SEED); each run writes under --out <run name>
RUNS = (
    ("synth-csv", ["synth", "--humans", "40", "--fakes", "40", "--seed", "7"], None),
    ("synth-json", ["synth", "--humans", "40", "--fakes", "40", "--seed", "7",
                    "--format", "json"], None),
    ("synth-env-seed", ["synth", "--preset", "paper-like", "--humans", "20", "--fakes", "30"], "3"),
    ("ingest-csv", ["ingest", CSV, "--seed", "7"], None),
    ("ingest-json", ["ingest", JSON, "--format", "json",
                     "--reference-time", "2015-06-01T00:00:00Z"], "5"),
    ("validate-csv", ["validate", CSV], None),
    ("validate-json", ["validate", JSON, "--format", "json"], None),
    ("rules-csv", ["rules", CSV, "--report", "--seed", "7"], None),
    ("rules-json", ["rules", JSON, "--ruleset", "sb", "--format", "json"], None),
    ("features-csv", ["features", CSV, "--class", "a"], None),
    ("features-json", ["features", JSON, "--format", "json"], None),
    ("train-rf", ["train", CSV, "--trees", "8", "--features", "yang", "--seed", "7"], None),
    ("train-dt-pruned", ["train", JSON, "--format", "json", "--algo", "dt",
                         "--prune", "reduced_error:3", "--seed", "7"], None),
    ("train-ab", ["train", CSV, "--algo", "ab", "--rounds", "5", "--depth", "2"], "9"),
    ("train-knn", ["train", CSV, "--algo", "knn", "--knn-k", "3", "--features", "class-b"], None),
    ("cv-csv", ["cv", CSV, "--algo", "dt", "--k", "3", "--seed", "7"], None),
    ("cv-json", ["cv", JSON, "--format", "json", "--algo", "lr", "--k", "4",
                 "--jobs", "2", "--seed", "7"], None),
    ("sweep-csv", ["sweep", CSV, "--fractions", "0.3:0.7:0.2", "--algo", "nb",
                   "--target-size", "40", "--k", "3", "--seed", "7"], None),
    ("sweep-json", ["sweep", JSON, "--fractions", "0.5", "--algo", "dt", "--format", "json",
                    "--target-size", "30", "--k", "3", "--seed", "7"], None),
    ("cost-csv", ["cost", "--followers", "100", "--tweets-per-follower", "450",
                  "--relations-per-follower", "4000"], None),
    ("cost-json", ["cost", "--followers", "7", "--friends-per-follower", "10",
                   "--format", "json"], None),
    ("sensitivity-csv", ["sensitivity", CSV, "--seed", "7"], None),
    ("sensitivity-json", ["sensitivity", JSON, "--format", "json", "--algos", "nb,dt",
                          "--features", "yang", "--test-fraction", "0.4", "--jobs", "2"], "11"),
)

# runs whose --out directory the later runs read as their corpus
CORPUS_OF = {"synth-csv": CSV, "synth-json": JSON}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_digest(path: Path) -> str:
    """The digest of a manifest without its timestamp; an input corpus's own
    manifest is named but not digested, since its bytes hold a timestamp."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("created_at")
    for name in payload["inputs"]:
        if Path(name).name == "manifest.json":
            payload["inputs"][name] = "timestamped"
    return _sha(json.dumps(payload, sort_keys=True).encode())


def _param(param: click.Parameter) -> list:
    info = param.to_info_dict()
    return [param.name, sorted(param.opts), info["default"], info["type"], param.required]


def command_params() -> dict[str, list]:
    """Each command's options and arguments in name order, as JSON reads them back."""
    params = {
        name: sorted((_param(p) for p in command.params), key=lambda entry: entry[0])
        for name, command in sorted(cli.commands.items())
    }
    return json.loads(json.dumps(params))


def observe(root: Path) -> dict:
    """Runs every entry of RUNS under ``root`` and digests what each wrote."""
    runs = {}
    previous = os.getcwd()
    saved_seed = os.environ.pop("FAKESCOPE_SEED", None)
    os.chdir(root)
    try:
        for name, argv, env_seed in RUNS:
            out = CORPUS_OF.get(name, name)
            if env_seed is not None:
                os.environ["FAKESCOPE_SEED"] = env_seed
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink):
                    code = main([*argv, "--out", out])
            finally:
                os.environ.pop("FAKESCOPE_SEED", None)
            files = sorted(p for p in Path(out).iterdir() if p.name != "manifest.json")
            runs[name] = {
                "exit": code,
                "artifacts": {p.name: _sha(p.read_bytes()) for p in files},
                "manifest": _manifest_digest(Path(out) / "manifest.json"),
                "stdout": _sha(sink.getvalue().encode()),
            }
    finally:
        os.chdir(previous)
        if saved_seed is not None:
            os.environ["FAKESCOPE_SEED"] = saved_seed
    return {"runs": runs, "params": command_params()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def observed(tmp_path_factory) -> dict:
    return observe(tmp_path_factory.mktemp("golden-cli"))


def test_every_command_is_recorded(golden):
    assert sorted(golden["params"]) == sorted(cli.commands)
    assert {argv[0] for _, argv, _ in RUNS} == set(cli.commands)
    assert sorted(golden["runs"]) == sorted(name for name, _, _ in RUNS)


@pytest.mark.parametrize("name", [name for name, _, _ in RUNS])
def test_run_matches_golden(observed, golden, name):
    assert observed["runs"][name] == golden["runs"][name]


@pytest.mark.parametrize("command", sorted(cli.commands))
def test_options_match_golden(golden, command):
    assert command_params()[command] == golden["params"][command]
