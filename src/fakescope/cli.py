"""Command-line surface: corpora in, reproducible reports out.

Every command takes --seed (falling back to the FAKESCOPE_SEED environment
variable, then 0), writes its artifacts under --out, and drops a manifest
with input/output digests next to them. Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import click

from . import cost as cost_mod
from . import sensitivity as sens_mod
from .corpus import (
    CorpusError,
    PRESETS,
    SynthConfig,
    load_dataset,
    rebalance,
    save_dataset,
    synthesize,
    validate,
)
from .corpus.io import parse_timestamp
from .features.catalog import catalog as feature_catalog
from .features.catalog import feature_set
from .features.extract import extract
from .learn.cv import class_distribution_sweep, cross_validate
from .learn.model import jsonable_params, model_to_json, train as train_model
from .learn.tree import LearnError
from .manifest import RunManifest
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
    return int(env) if env else 0


def _write_rows(path: Path, rows: Sequence[dict], fmt: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(list(rows), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path.with_suffix(".json")
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(v) for k, v in row.items()})
    return path.with_suffix(".csv")


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


def _manifest(command: str, params: dict, seed: Optional[int]) -> RunManifest:
    return RunManifest(command=command, parameters=params, seed=seed)


seed_option = click.option("--seed", type=int, default=None, help="Master seed (default: $FAKESCOPE_SEED or 0).")
out_option = click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
jobs_option = click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=1,
    help="Upper bound on workers (at least 1); fits run one at a time, which meets any bound.",
)
reference_time_option = click.option(
    "--reference-time",
    "reference_time",
    default=None,
    help="ISO-8601 instant used for account ages (default: newest timestamp + 1 day).",
)


def _load(src, fmt, reference_time=None):
    ref = parse_timestamp(reference_time) if reference_time else None
    return load_dataset(src, fmt=fmt, reference_time=ref)


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
    seed = _resolve_seed(seed)
    config = PRESETS[preset](seed=seed)
    if humans is not None or fakes is not None:
        config = SynthConfig(
            n_humans=humans if humans is not None else config.n_humans,
            n_fakes=fakes if fakes is not None else config.n_fakes,
            seed=seed,
            human=config.human,
            fake=config.fake,
            reference_time=config.reference_time,
        )
    dataset = synthesize(config)
    written = save_dataset(dataset, out_dir, fmt=fmt)
    manifest = _manifest(
        "synth", {"preset": preset, "humans": config.n_humans, "fakes": config.n_fakes, "format": fmt}, seed
    )
    for path in written.values():
        manifest.add_artifact(path)
    manifest.write(out_dir)
    click.echo(f"wrote {len(dataset)} accounts to {out_dir}")


@cli.command()
@click.argument("src", type=click.Path())
@seed_option
@out_option
@format_option
@reference_time_option
def ingest(src, seed, out_dir, fmt, reference_time):
    """Load, validate, and re-serialize a corpus in normalized form."""
    seed = _resolve_seed(seed)
    dataset = _load(src, fmt=fmt, reference_time=reference_time)
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
    summary_path = Path(out_dir) / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = _manifest("ingest", {"src": str(src), "format": fmt}, seed)
    manifest.add_input(src)
    for path in written.values():
        manifest.add_artifact(path)
    manifest.add_artifact(summary_path)
    manifest.write(out_dir)
    click.echo(json.dumps(summary, sort_keys=True))


@cli.command("validate")
@click.argument("src", type=click.Path())
@format_option
@click.option("--out", "out_dir", type=click.Path(), default=None)
@reference_time_option
def validate_cmd(src, fmt, out_dir, reference_time):
    """Report every dataset-invariant violation (empty report = valid)."""
    dataset = _load(src, fmt=fmt, reference_time=reference_time)
    report = validate(dataset)
    rows = [
        {"code": v.code, "subject": v.subject, "message": v.message} for v in report.violations
    ]
    if out_dir:
        path = _write_rows(Path(out_dir) / "validation", rows, fmt)
        manifest = _manifest("validate", {"src": str(src), "format": fmt}, None)
        manifest.add_input(src)
        manifest.add_artifact(path)
        manifest.write(out_dir)
    if rows:
        _echo_table(rows)
    click.echo(f"{len(rows)} violation(s)")


@cli.command()
@click.argument("src", type=click.Path())
@click.option("--ruleset", type=click.Choice(["cc", "sos", "sb", "all"]), default="all")
@click.option("--report", "with_report", is_flag=True, help="Also evaluate each rule as a classifier.")
@seed_option
@out_option
@format_option
@reference_time_option
def rules(src, ruleset, with_report, seed, out_dir, fmt, reference_time):
    """Run the rule-based detectors over a corpus."""
    seed = _resolve_seed(seed)
    dataset = _load(src, fmt=fmt, reference_time=reference_time)
    manifest = _manifest("rules", {"src": str(src), "ruleset": ruleset, "report": with_report}, seed)
    manifest.add_input(src)
    selected = ["cc", "sos", "sb"] if ruleset == "all" else [ruleset]
    contexts = list(iter_contexts(dataset))
    for name in selected:
        run = run_ruleset(name, dataset, contexts=contexts)
        path = _write_rows(Path(out_dir) / f"verdicts_{name}", run.as_rows(), fmt)
        manifest.add_artifact(path)
    if with_report:
        rows = [entry.as_row() for entry in rule_report(dataset, contexts=contexts)]
        path = _write_rows(Path(out_dir) / "rule_report", rows, fmt)
        manifest.add_artifact(path)
        _echo_table(rows)
    manifest.write(out_dir)
    click.echo(f"rules written to {out_dir}")


@cli.command()
@click.argument("src", type=click.Path())
@click.option("--class", "feature_class", type=click.Choice(["a", "b", "c", "all"]), default="all")
@seed_option
@out_option
@format_option
@reference_time_option
def features(src, feature_class, seed, out_dir, fmt, reference_time):
    """Extract the feature matrix for a corpus."""
    seed = _resolve_seed(seed)
    dataset = _load(src, fmt=fmt, reference_time=reference_time)
    specs = feature_catalog(None if feature_class == "all" else feature_class)
    matrix = extract(dataset, specs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = matrix.to_csv(out / "features.csv") if fmt == "csv" else matrix.to_jsonl(out / "features.jsonl")
    manifest = _manifest("features", {"src": str(src), "class": feature_class}, seed)
    manifest.add_input(src)
    manifest.add_artifact(path)
    manifest.write(out_dir)
    click.echo(f"extracted {matrix.n_rows} rows x {len(matrix.specs)} features")


def _algo_params(algo: str, trees: int, k_neighbors: int, rounds: int, depth: int, prune: Optional[str]) -> dict:
    params: dict = {}
    if algo == "rf":
        params["n_trees"] = trees
    if algo == "knn":
        params["k"] = k_neighbors
    if algo == "ab":
        params["rounds"] = rounds
        params["depth"] = depth
    if algo == "dt" and prune:
        name, _, arg = prune.partition(":")
        params["prune"] = (name, float(arg) if arg else None)
    return params


algo_option = click.option(
    "--algo", type=click.Choice(["dt", "rf", "ab", "knn", "nb", "lr"]), default="rf"
)
features_option = click.option(
    "--features",
    "feature_selector",
    default="class-a",
    help="class-a | class-b | class-c | all | yang | stringhini",
)
trees_option = click.option("--trees", type=int, default=64)
knn_option = click.option("--knn-k", "k_neighbors", type=int, default=5)
rounds_option = click.option("--rounds", type=int, default=50)
depth_option = click.option("--depth", type=int, default=1)
prune_option = click.option("--prune", default=None, help="reduced_error:FOLDS or subtree_raising:CONF")


@cli.command("train")
@click.argument("src", type=click.Path())
@algo_option
@features_option
@trees_option
@knn_option
@rounds_option
@depth_option
@prune_option
@seed_option
@out_option
@format_option
@reference_time_option
def train_cmd(src, algo, feature_selector, trees, k_neighbors, rounds, depth, prune, seed, out_dir, fmt, reference_time):
    """Train one classifier on a labeled corpus and save the model."""
    seed = _resolve_seed(seed)
    dataset = _load(src, fmt=fmt, reference_time=reference_time)
    specs = feature_set(feature_selector)
    matrix = extract(dataset, specs)
    params = _algo_params(algo, trees, k_neighbors, rounds, depth, prune)
    model = train_model(algo, matrix, params=params, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    model_path.write_text(model_to_json(model) + "\n", encoding="utf-8")
    manifest = _manifest(
        "train", {"src": str(src), "algo": algo, "features": feature_selector, "params": jsonable_params(params)}, seed
    )
    manifest.add_input(src)
    manifest.add_artifact(model_path)
    manifest.write(out_dir)
    click.echo(f"model written to {model_path}")


@cli.command()
@click.argument("src", type=click.Path())
@algo_option
@features_option
@click.option("--k", type=int, default=10)
@trees_option
@knn_option
@rounds_option
@depth_option
@prune_option
@seed_option
@out_option
@format_option
@jobs_option
@reference_time_option
def cv(src, algo, feature_selector, k, trees, k_neighbors, rounds, depth, prune, seed, out_dir, fmt, jobs, reference_time):
    """K-fold cross-validation with pooled metrics and ROC points."""
    seed = _resolve_seed(seed)
    dataset = _load(src, fmt=fmt, reference_time=reference_time)
    specs = feature_set(feature_selector)
    params = _algo_params(algo, trees, k_neighbors, rounds, depth, prune)
    report = cross_validate(algo, dataset, specs, k=k, seed=seed, params=params, jobs=jobs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_json = out / "cv_report.json"
    with open(report_json, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    pooled_row = {"algorithm": algo, "k": k, **report.pooled.as_dict()}
    report_table = _write_rows(out / "cv_report", [pooled_row], "csv")
    roc_rows = [{"fpr": p[0], "tpr": p[1]} for p in report.roc.points]
    roc_path = _write_rows(out / "roc_points", roc_rows, "csv")
    manifest = _manifest(
        "cv",
        {"src": str(src), "algo": algo, "features": feature_selector, "k": k,
         "params": jsonable_params(params)},
        seed,
    )
    manifest.add_input(src)
    for path in (report_json, report_table, roc_path):
        manifest.add_artifact(path)
    manifest.write(out_dir)
    _echo_table([pooled_row])


@cli.command()
@click.argument("src", type=click.Path())
@click.option("--fractions", default="0.05:0.95:0.05", help="START:STOP:STEP of human fractions.")
@algo_option
@features_option
@click.option("--target-size", type=int, required=True)
@click.option("--k", type=int, default=10)
@seed_option
@out_option
@format_option
@reference_time_option
def sweep(src, fractions, algo, feature_selector, target_size, k, seed, out_dir, fmt, reference_time):
    """Vary the class distribution and cross-validate at each mixture."""
    seed = _resolve_seed(seed)
    dataset = _load(src, fmt=fmt, reference_time=reference_time)
    specs = feature_set(feature_selector)
    fraction_values = _parse_fractions(fractions)
    report = class_distribution_sweep(
        dataset, algo, fraction_values, target_size=target_size, k=k, seed=seed, specs=specs
    )
    path = _write_rows(Path(out_dir) / "sweep", report.as_rows(), fmt)
    best_path = Path(out_dir) / "best_fractions.json"
    with open(best_path, "w", encoding="utf-8") as fh:
        json.dump(report.best_fraction, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = _manifest(
        "sweep",
        {"src": str(src), "algo": algo, "features": feature_selector,
         "fractions": fractions, "target_size": target_size, "k": k},
        seed,
    )
    manifest.add_input(src)
    manifest.add_artifact(path)
    manifest.add_artifact(best_path)
    manifest.write(out_dir)
    _echo_table(report.as_rows())


def _parse_fractions(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise click.UsageError("--fractions expects START:STOP:STEP or a single value")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise click.UsageError("--fractions step must be positive")
    values = []
    current = start
    while current <= stop + 1e-9:
        values.append(round(current, 10))
        current += step
    return values


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
    estimate = cost_mod.estimate(profile)
    row = estimate.as_dict()
    _echo_table([row])
    if out_dir:
        path = _write_rows(Path(out_dir) / "cost", [row], fmt)
        manifest = _manifest("cost", {"followers": followers,
                                      "tweets_per_follower": tweets_per_follower,
                                      "friends_per_follower": friends_per_follower,
                                      "followers_per_follower": followers_per_follower}, None)
        manifest.add_artifact(path)
        manifest.write(out_dir)


@cli.command()
@click.argument("train_src", type=click.Path())
@click.option("--test", "test_src", type=click.Path(), default=None,
              help="Disjoint test corpus; defaults to a seeded split of TRAIN_SRC.")
@click.option("--test-fraction", type=float, default=0.3)
@click.option("--algos", default="dt,rf,ab,knn,nb,lr")
@features_option
@seed_option
@out_option
@format_option
@jobs_option
@reference_time_option
def sensitivity(train_src, test_src, test_fraction, algos, feature_selector, seed, out_dir, fmt, jobs, reference_time):
    """Leave-one-feature-out importance fused across classifiers."""
    seed = _resolve_seed(seed)
    specs = feature_set(feature_selector)
    algorithms = tuple(a.strip() for a in algos.split(",") if a.strip())
    if test_src:
        train_set = _load(train_src, fmt=fmt, reference_time=reference_time)
        test_set = _load(test_src, fmt=fmt, reference_time=reference_time)
    else:
        full = _load(train_src, fmt=fmt, reference_time=reference_time)
        counts = full.class_counts()
        test_size = int(len(full) * test_fraction)
        frac = counts["human"] / max(1, counts["human"] + counts["fake"])
        test_set = rebalance(full, frac, test_size, seed=seed + 1)
        held_out = set(test_set.account_ids)
        train_ids = [uid for uid in full.account_ids if uid not in held_out]
        train_set = full.subset(train_ids, provenance=f"{full.provenance}|train-split")
    report = sens_mod.analyze(
        train_set, test_set, algorithms=algorithms, specs=specs, seed=seed, jobs=jobs
    )
    rows = report.as_rows()
    path = _write_rows(Path(out_dir) / "sensitivity", rows, fmt)
    detail_path = Path(out_dir) / "sensitivity_cells.json"
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(
            [cell.__dict__ for cell in report.cells], fh, indent=2, sort_keys=True, default=float
        )
        fh.write("\n")
    manifest = _manifest(
        "sensitivity",
        {"train": str(train_src), "test": str(test_src) if test_src else f"split:{test_fraction}",
         "algos": list(algorithms), "features": feature_selector, "jobs": jobs},
        seed,
    )
    manifest.add_input(train_src)
    if test_src:
        manifest.add_input(test_src)
    manifest.add_artifact(path)
    manifest.add_artifact(detail_path)
    manifest.write(out_dir)
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
