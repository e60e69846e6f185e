"""Command-line surface: corpora in, reproducible reports out.

Every command but validate and cost takes --seed (falling back to the
FAKESCOPE_SEED environment variable, then 0) and writes its artifacts under
--out; validate and cost write only when given --out. Whatever a command
writes, it records in a manifest with input/output digests next to the
artifacts. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import click

from . import cost as cost_mod
from . import sensitivity as sens_mod
from .corpus import (
    CorpusError,
    PRESETS,
    load_dataset,
    rebalance,
    save_dataset,
    synthesize,
    validate,
)
from .corpus.io import parse_timestamp
from .features.catalog import catalog as feature_catalog
from .features.catalog import feature_set
from .features.extract import extract, without_unread_tables
from .learn.cv import class_distribution_sweep, cross_validate
from .learn.model import ALGORITHMS, jsonable_params, model_to_json, train as train_model
from .learn.tree import LearnError
from .manifest import RunManifest, write_csv, write_json
from .metrics import MetricError
from .rules.context import iter_contexts
from .rules.report import rule_report, run_ruleset
from .sensitivity import SensitivityError

DATA_ERRORS = (
    CorpusError,
    LearnError,
    MetricError,
    SensitivityError,
    cost_mod.CostError,
    OSError,
    KeyError,
    ValueError,
)


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("FAKESCOPE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"FAKESCOPE_SEED must be an integer, got {env!r}") from None


def _write_rows(path: Path, rows: Sequence[dict], fmt: str) -> Path:
    if fmt == "json":
        return write_json(path.with_suffix(".json"), list(rows))
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_cell(row.get(column)) for column in columns] for row in rows]
    return write_csv(path.with_suffix(".csv"), columns, cells)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _echo_table(rows: Sequence[dict]) -> None:
    if not rows:
        click.echo("(empty)")
        return
    columns = list(rows[0].keys())
    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        cells = {}
        for c in columns:
            value = row.get(c)
            text = f"{value:.4f}" if isinstance(value, float) else _cell(value)
            widths[c] = max(widths[c], len(text))
            cells[c] = text
        rendered.append(cells)
    click.echo("  ".join(c.ljust(widths[c]) for c in columns))
    for cells in rendered:
        click.echo("  ".join(cells[c].ljust(widths[c]) for c in columns))


def _record(out_dir, command: str, params: dict, seed: Optional[int], artifacts, inputs=()) -> None:
    """Writes the manifest of one run: its parameters, seed and the digests
    of what it read and wrote."""
    manifest = RunManifest(command=command, parameters=params, seed=seed)
    for path in inputs:
        manifest.add_input(path)
    for path in artifacts:
        manifest.add_artifact(path)
    manifest.write(out_dir)


def _options(*decorators):
    """One decorator applying several click options, in the given order."""
    def apply(command):
        for decorator in reversed(decorators):
            command = decorator(command)
        return command
    return apply


seed_option = click.option(
    "--seed", type=int, default=None, callback=lambda ctx, param, seed: _resolve_seed(seed),
    help="Master seed (default: $FAKESCOPE_SEED or 0).",
)
out_option = click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
jobs_option = click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=1,
    help="Upper bound on workers (at least 1); fits run one at a time, which meets any bound.",
)


def _checked(parse):
    """A click callback giving ``parse(value)``: its ValueError becomes a data
    error naming the option and the value, before any corpus is read."""
    def callback(ctx, param, value):
        try:
            return None if value is None else parse(value)
        except ValueError as exc:
            raise ValueError(f"{param.opts[0]} {str(value)!r}: {exc}") from None
    return callback


def _at_least(low: int):
    def check(value: int) -> int:
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return check


reference_time_option = click.option(
    "--reference-time",
    "reference_time",
    default=None,
    callback=_checked(parse_timestamp),
    help="ISO-8601 instant used for account ages (default: newest timestamp + 1 day).",
)
corpus_options = _options(seed_option, out_option, format_option, reference_time_option)


@click.group()
def cli():
    """Fake-follower detection pipeline."""


@cli.command()
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default="paper-like")
@click.option("--humans", type=int, default=None, help="Override the preset's human count.")
@click.option("--fakes", type=int, default=None, help="Override the preset's fake count.")
@seed_option
@out_option
@format_option
def synth(preset, humans, fakes, seed, out_dir, fmt):
    """Generate a deterministic synthetic corpus."""
    config = PRESETS[preset](seed=seed)
    config = replace(
        config,
        n_humans=config.n_humans if humans is None else humans,
        n_fakes=config.n_fakes if fakes is None else fakes,
    )
    dataset = synthesize(config)
    written = save_dataset(dataset, out_dir, fmt=fmt)
    params = {"preset": preset, "humans": config.n_humans, "fakes": config.n_fakes, "format": fmt}
    _record(out_dir, "synth", params, seed, written.values())
    click.echo(f"wrote {len(dataset)} accounts to {out_dir}")


@cli.command()
@click.argument("src", type=click.Path())
@corpus_options
def ingest(src, seed, out_dir, fmt, reference_time):
    """Load, validate, and re-serialize a corpus in normalized form."""
    dataset = load_dataset(src, fmt=fmt, reference_time=reference_time)
    report = validate(dataset)
    written = save_dataset(dataset, out_dir, fmt=fmt)
    counts = dataset.class_counts()
    summary = {
        "accounts": len(dataset),
        "humans": counts["human"],
        "fakes": counts["fake"],
        "tweets": sum(len(t) for t in (dataset.tweets or {}).values()),
        "edges": len(dataset.graph.edges) if dataset.graph else 0,
        "violations": len(report),
    }
    summary_path = write_json(Path(out_dir) / "summary.json", summary)
    _record(out_dir, "ingest", {"src": str(src), "format": fmt}, seed,
            [*written.values(), summary_path], inputs=[src])
    click.echo(json.dumps(summary, sort_keys=True))


@cli.command("validate")
@click.argument("src", type=click.Path())
@format_option
@click.option("--out", "out_dir", type=click.Path(), default=None)
@reference_time_option
def validate_cmd(src, fmt, out_dir, reference_time):
    """Report every dataset-invariant violation (empty report = valid)."""
    dataset = load_dataset(src, fmt=fmt, reference_time=reference_time)
    report = validate(dataset)
    rows = [
        {"code": v.code, "subject": v.subject, "message": v.message} for v in report.violations
    ]
    if out_dir:
        path = _write_rows(Path(out_dir) / "validation", rows, fmt)
        _record(out_dir, "validate", {"src": str(src), "format": fmt}, None, [path], inputs=[src])
    if rows:
        _echo_table(rows)
    click.echo(f"{len(rows)} violation(s)")


@cli.command()
@click.argument("src", type=click.Path())
@click.option("--ruleset", type=click.Choice(["cc", "sos", "sb", "all"]), default="all")
@click.option("--report", "with_report", is_flag=True, help="Also evaluate each rule as a classifier.")
@corpus_options
def rules(src, ruleset, with_report, seed, out_dir, fmt, reference_time):
    """Run the rule-based detectors over a corpus."""
    dataset = load_dataset(src, fmt=fmt, reference_time=reference_time)
    selected = ["cc", "sos", "sb"] if ruleset == "all" else [ruleset]
    contexts = list(iter_contexts(dataset))
    written = [
        _write_rows(Path(out_dir) / f"verdicts_{name}",
                    run_ruleset(name, dataset, contexts=contexts).as_rows(), fmt)
        for name in selected
    ]
    if with_report:
        rows = [entry.as_row() for entry in rule_report(dataset, contexts=contexts)]
        written.append(_write_rows(Path(out_dir) / "rule_report", rows, fmt))
        _echo_table(rows)
    _record(out_dir, "rules", {"src": str(src), "ruleset": ruleset, "report": with_report}, seed,
            written, inputs=[src])
    click.echo(f"rules written to {out_dir}")


@cli.command()
@click.argument("src", type=click.Path())
@click.option("--class", "feature_class", type=click.Choice(["a", "b", "c", "all"]), default="all")
@corpus_options
def features(src, feature_class, seed, out_dir, fmt, reference_time):
    """Extract the feature matrix for a corpus."""
    dataset = load_dataset(src, fmt=fmt, reference_time=reference_time)
    specs = feature_catalog(None if feature_class == "all" else feature_class)
    matrix = extract(dataset, specs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = matrix.to_csv(out / "features.csv") if fmt == "csv" else matrix.to_jsonl(out / "features.jsonl")
    _record(out_dir, "features", {"src": str(src), "class": feature_class}, seed, [path], inputs=[src])
    click.echo(f"extracted {matrix.n_rows} rows x {len(matrix.specs)} features")


def _parse_prune(value: str) -> tuple:
    """``--prune STRATEGY[:ARG]`` as (strategy, float ARG or None)."""
    name, _, arg = value.partition(":")
    if name not in ("reduced_error", "subtree_raising"):
        raise ValueError(f"unknown strategy {name!r}; "
                         "give reduced_error:FOLDS or subtree_raising:CONF")
    if not arg:
        return name, None
    try:
        number = float(arg)
    except ValueError:
        raise ValueError(f"{arg!r} is not a number") from None
    if name == "reduced_error" and not (number.is_integer() and number >= 2):
        raise ValueError("the fold count must be an integer of at least 2")
    if name == "subtree_raising" and not 0 < number < 0.5:
        raise ValueError("the confidence must lie strictly between 0 and 0.5")
    return name, number


def _algo_params(algo: str, trees: int, k_neighbors: int, rounds: int, depth: int, prune: Optional[tuple]) -> dict:
    params: dict = {}
    if algo == "rf":
        params["n_trees"] = trees
    if algo == "knn":
        params["k"] = k_neighbors
    if algo == "ab":
        params["rounds"] = rounds
        params["depth"] = depth
    if algo == "dt" and prune:
        params["prune"] = prune
    return params


folds_option = click.option("--k", type=int, default=10, callback=_checked(_at_least(2)))
algo_option = click.option("--algo", type=click.Choice(ALGORITHMS), default="rf")
features_option = click.option(
    "--features",
    "feature_selector",
    default="class-a",
    help="class-a | class-b | class-c | all | yang | stringhini",
)
model_options = _options(
    algo_option,
    features_option,
    click.option("--trees", type=int, default=64),
    click.option("--knn-k", "k_neighbors", type=int, default=5, callback=_checked(_at_least(1))),
    click.option("--rounds", type=int, default=50),
    click.option("--depth", type=int, default=1),
    click.option("--prune", default=None, callback=_checked(_parse_prune),
                 help="reduced_error:FOLDS or subtree_raising:CONF"),
)


@cli.command("train")
@click.argument("src", type=click.Path())
@model_options
@corpus_options
def train_cmd(src, algo, feature_selector, seed, out_dir, fmt, reference_time, **tuning):
    """Train one classifier on a labeled corpus and save the model."""
    dataset = load_dataset(src, fmt=fmt, reference_time=reference_time)
    matrix = extract(dataset, feature_set(feature_selector))
    params = _algo_params(algo, **tuning)
    model = train_model(algo, matrix, params=params, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    model_path.write_text(model_to_json(model) + "\n", encoding="utf-8")
    _record(out_dir, "train",
            {"src": str(src), "algo": algo, "features": feature_selector,
             "params": jsonable_params(params)},
            seed, [model_path], inputs=[src])
    click.echo(f"model written to {model_path}")


@cli.command()
@click.argument("src", type=click.Path())
@model_options
@folds_option
@corpus_options
@jobs_option
def cv(src, algo, feature_selector, k, seed, out_dir, fmt, reference_time, jobs, **tuning):
    """K-fold cross-validation with pooled metrics and ROC points.

    The tables are always csv; --format picks the corpus file read first."""
    dataset = load_dataset(src, fmt=fmt, reference_time=reference_time)
    params = _algo_params(algo, **tuning)
    report = cross_validate(
        algo, dataset, feature_set(feature_selector), k=k, seed=seed, params=params, jobs=jobs
    )
    out = Path(out_dir)
    pooled_row = {"algorithm": algo, "k": k, **report.pooled.as_dict()}
    written = [
        write_json(out / "cv_report.json", report.as_dict()),
        _write_rows(out / "cv_report", [pooled_row], "csv"),
        _write_rows(out / "roc_points", [{"fpr": x, "tpr": y} for x, y in report.roc.points], "csv"),
    ]
    _record(out_dir, "cv",
            {"src": str(src), "algo": algo, "features": feature_selector, "k": k,
             "params": jsonable_params(params)},
            seed, written, inputs=[src])
    _echo_table([pooled_row])


MAX_FRACTIONS = 1_000  # each fraction is a full k-fold CV; the default range has 19


def _parse_fractions(spec: str) -> list[float]:
    """``START:STOP:STEP``, or a single value, as the human fractions it
    names: at least one and at most MAX_FRACTIONS, each strictly between 0
    and 1."""
    values = [float(part) for part in spec.split(":")]
    if len(values) == 3:
        start, stop, step = values
        if not step > 0:
            raise ValueError("the step must be positive")
        values = []  # the first value out of range ends a range, even one with no end
        value = start
        while value <= stop + 1e-9 and (not values or 0.0 < values[-1] < 1.0):
            if len(values) == MAX_FRACTIONS:  # also ends a step too small to move START
                raise ValueError(f"the range names more than {MAX_FRACTIONS} fractions")
            values.append(round(value, 10))
            value = start + len(values) * step
    elif len(values) != 1:
        raise ValueError("expected START:STOP:STEP or a single value")
    if not values or not all(0.0 < value < 1.0 for value in values):
        raise ValueError("give at least one fraction, each strictly between 0 and 1")
    return values


@cli.command()
@click.argument("src", type=click.Path())
@click.option("--fractions", default="0.05:0.95:0.05", help="START:STOP:STEP of human fractions.",
              callback=_checked(lambda spec: _parse_fractions(spec) and spec))  # kept as given
@algo_option
@features_option
@click.option("--target-size", type=int, required=True)
@folds_option
@corpus_options
def sweep(src, fractions, algo, feature_selector, target_size, k, seed, out_dir, fmt, reference_time):
    """Vary the class distribution and cross-validate at each mixture."""
    dataset = load_dataset(src, fmt=fmt, reference_time=reference_time)
    specs = feature_set(feature_selector)
    report = class_distribution_sweep(
        dataset, algo, _parse_fractions(fractions), target_size=target_size, k=k, seed=seed,
        specs=specs,
    )
    written = [
        _write_rows(Path(out_dir) / "sweep", report.as_rows(), fmt),
        write_json(Path(out_dir) / "best_fractions.json", report.best_fraction),
    ]
    _record(out_dir, "sweep",
            {"src": str(src), "algo": algo, "features": feature_selector,
             "fractions": fractions, "target_size": target_size, "k": k},
            seed, written, inputs=[src])
    _echo_table(report.as_rows())


@cli.command()
@click.option("--followers", type=int, required=True)
@click.option("--tweets-per-follower", type=int, default=0)
@click.option("--relations-per-follower", type=int, default=None,
              help="Sets both friends and followers per follower.")
@click.option("--friends-per-follower", type=int, default=0)
@click.option("--followers-per-follower", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(), default=None)
@format_option
def cost(followers, tweets_per_follower, relations_per_follower, friends_per_follower,
         followers_per_follower, out_dir, fmt):
    """Estimate crawl calls and rate-limited minutes for a target account."""
    if relations_per_follower is not None:
        friends_per_follower = relations_per_follower
        followers_per_follower = relations_per_follower
    profile = cost_mod.TargetProfile(
        followers=followers,
        tweets_per_follower=tweets_per_follower,
        friends_per_follower=friends_per_follower,
        followers_per_follower=followers_per_follower,
    )
    row = cost_mod.estimate(profile).as_dict()
    _echo_table([row])
    if out_dir:
        path = _write_rows(Path(out_dir) / "cost", [row], fmt)
        _record(out_dir, "cost",
                {"followers": followers, "tweets_per_follower": tweets_per_follower,
                 "friends_per_follower": friends_per_follower,
                 "followers_per_follower": followers_per_follower},
                None, [path])


@cli.command()
@click.argument("train_src", type=click.Path())
@click.option("--test", "test_src", type=click.Path(), default=None,
              help="Disjoint test corpus; defaults to a seeded split of TRAIN_SRC.")
@click.option("--test-fraction", type=click.FloatRange(0, 1, min_open=True, max_open=True),
              default=0.3, help="Share of TRAIN_SRC held out for testing when --test is not given.")
@click.option("--algos", default=",".join(ALGORITHMS))
@features_option
@corpus_options
@jobs_option
def sensitivity(train_src, test_src, test_fraction, algos, feature_selector, seed, out_dir, fmt, jobs, reference_time):
    """Leave-one-feature-out importance fused across classifiers."""
    specs = feature_set(feature_selector)
    algorithms = tuple(a.strip() for a in algos.split(",") if a.strip())
    if test_src:
        train_set = load_dataset(train_src, fmt=fmt, reference_time=reference_time)
        test_set = load_dataset(test_src, fmt=fmt, reference_time=reference_time)
    else:
        full = without_unread_tables(
            load_dataset(train_src, fmt=fmt, reference_time=reference_time), specs)
        counts = full.class_counts()
        test_size = int(len(full) * test_fraction)
        if test_size == 0:
            raise ValueError(
                f"--test-fraction {test_fraction} of {len(full)} accounts holds out 0 test accounts"
            )
        frac = counts["human"] / max(1, counts["human"] + counts["fake"])
        test_set = rebalance(full, frac, test_size, seed=seed + 1)
        held_out = set(test_set.account_ids)
        train_ids = [uid for uid in full.account_ids if uid not in held_out]
        train_set = full.subset(train_ids, provenance=f"{full.provenance}|train-split")
    report = sens_mod.analyze(
        train_set, test_set, algorithms=algorithms, specs=specs, seed=seed, jobs=jobs
    )
    written = [
        _write_rows(Path(out_dir) / "sensitivity", report.as_rows(), fmt),
        write_json(Path(out_dir) / "sensitivity_cells.json",
                   [cell.__dict__ for cell in report.cells], default=float),
    ]
    _record(out_dir, "sensitivity",
            {"train": str(train_src), "test": str(test_src) if test_src else f"split:{test_fraction}",
             "algos": list(algorithms), "features": feature_selector, "jobs": jobs},
            seed, written, inputs=[p for p in (train_src, test_src) if p])
    bar_rows = [
        {"rank": s.rank, "feature": s.feature,
         "score": s.normalized_importance,
         "bar": "#" * max(1, int(round(s.normalized_importance * 40)))}
        for s in report.scores
    ]
    _echo_table(bar_rows)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1
    except DATA_ERRORS as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
