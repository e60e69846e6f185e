"""fakescope benchmark: one workload per invocation, result as JSON on the last line.

    python3 perfbench/run.py --workload detect_pipeline --seed 7 --seconds 30 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result carries
the per-layer metrics plus the tracing overhead. Everything runs in this
one process, in a scratch directory inside the checkout that is removed
on exit. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"

REFERENCE_SEED = 7  # the seed whose outputs references.json stores
SETUP_REPEATS = 3
MIN_PASSES = 3
MAX_THREADS = "1"  # BLAS threads; the sensitivity pool's 2 workers fill nproc = 2


def summarize(values: list[float]) -> dict:
    """Median, first and third quartile (statistics.quantiles, n=4) and count."""
    values = sorted(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def git_commit(root: Path):
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed: int) -> dict:
    import importlib.util

    import numpy

    import fakescope

    try:
        fastsplit = importlib.util.find_spec("fakescope._fastsplit") is not None
    except ImportError:
        fastsplit = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fakescope_backend": getattr(fakescope, "BACKEND", None),
        "fastsplit_importable": fastsplit,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "jobs": workload.jobs,
        "seed": seed,
        "corpus": {"corpora": workload.corpora, "humans": workload.humans,
                   "fakes": workload.fakes, **workload.sizes},
        "git_commit": git_commit(ROOT),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.failed:
                self.failed += 1
                self.errors.append(o.error)


def load_reference(workload: str, seed: int):
    """Stored fingerprints at the reference seed, None at any other seed.

    A missing file or workload gives {}, so every warm-up operation fails.
    """
    if seed != REFERENCE_SEED:
        return None
    try:
        stored = json.loads(REFERENCES.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return stored.get("workloads", {}).get(workload, {})


def record_reference(workload: str, fingerprints: dict) -> None:
    try:
        stored = json.loads(REFERENCES.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        stored = {"seed": REFERENCE_SEED, "workloads": {}}
    stored["workloads"][workload] = fingerprints
    REFERENCES.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def measure(args, workdir: Path) -> dict:
    from tracing import LAYER_METRICS, Tracer, install, layer_metrics
    from workloads import WORKLOADS

    tally = Tally()
    setup_times = []
    workload = None
    for i in range(SETUP_REPEATS):
        workload = WORKLOADS[args.workload](args.seed, workdir / f"setup{i}")
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    for i in range(SETUP_REPEATS - 1):
        shutil.rmtree(workdir / f"setup{i}", ignore_errors=True)
    reference = None if args.record else load_reference(args.workload, args.seed)
    t0 = time.perf_counter()
    tally.add(workload.warm_up(reference))
    warm_up_s = time.perf_counter() - t0
    if args.record and tally.failed == 0:
        record_reference(args.workload, workload.expected)

    walls, cpus, traced_walls = [], [], []
    layers: dict[str, list[float]] = {}
    absent: set[str] = set()
    spans = []
    started = time.perf_counter()
    while True:
        traced = args.trace and len(walls) > len(traced_walls)
        workload.clean()
        gc.collect()  # every pass starts from the same heap
        tracer = Tracer() if traced else None
        hooks = install(tracer) if traced else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            results = workload.run_pass()
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if hooks is not None:
                hooks.remove()
        tally.add(workload.check(results))
        if traced:
            traced_walls.append(wall)
            absent |= hooks.absent
            for name, value in layer_metrics(tracer, hooks.absent).items():
                layers.setdefault(name, []).append(value)
            spans.append([span.as_dict() for span in tracer.spans])
        else:
            walls.append(wall)
            cpus.append(cpu)
        enough = len(traced_walls) >= 1 if args.trace else len(walls) >= MIN_PASSES
        # stop before a pass that would end past --seconds, not after it
        next_pass = statistics.median(walls + traced_walls)
        if enough and time.perf_counter() - started + next_pass > args.seconds:
            break

    end_to_end = {
        "setup_s": ("s", summarize(setup_times)),
        "wall_s": ("s", summarize(walls)),
        "cpu_s": ("s", summarize(cpus)),
        "accounts_per_s": ("1/s", summarize([workload.accounts / w for w in walls])),
        "peak_rss_mb": ("MB", summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])),
    }
    extra = {
        "warm_up_s": ("s", summarize([warm_up_s])),
        "error_rate": ("ratio", summarize([tally.failed / max(1, tally.attempted)])),
    }
    if workload.fits_per_pass:
        extra["fits_per_s"] = ("1/s", summarize([workload.fits_per_pass / w for w in walls]))
    per_layer = {name: (unit, summarize(layers[name]))
                 for name, unit in LAYER_METRICS.items() if name in layers}
    if args.trace:
        overhead = summarize(traced_walls)["median"] - summarize(walls)["median"]
        per_layer["trace.overhead_s"] = ("s", summarize([overhead]))
    return {
        "environment": environment(workload, args.seed),
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": per_layer,
        "absent": sorted(absent),
        "tally": tally,
        "spans": spans,
    }


def write_results(args, result: dict) -> Path:
    """Saves the environment, every summary, the errors and (traced) the spans."""
    out = ROOT / ".perfbench-results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    tally = result["tally"]
    payload = {
        "workload": args.workload,
        "environment": result["environment"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        **{section: {name: {"unit": unit, **s} for name, (unit, s) in result[section].items()}
           for section in ("end_to_end", "extra", "per_layer")},
        "absent": result["absent"],
        "spans": result["spans"],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (unit, s) in metrics.items():
        print(f"{name:28s} {s['median']:14.6g} {unit:6s} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's warm-up fingerprints as the reference")
    args = parser.parse_args(argv)
    if args.record and args.seed != REFERENCE_SEED:
        parser.error(f"--record stores the outputs of seed {REFERENCE_SEED} only")

    if not (SRC / "fakescope" / "__init__.py").is_file():
        print(f"perfbench: no fakescope sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", MAX_THREADS)
    os.environ.setdefault("OMP_NUM_THREADS", MAX_THREADS)
    sys.path.insert(0, str(SRC))
    import fakescope

    if not Path(fakescope.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported fakescope from {fakescope.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result["tally"]
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    print_table(f"{args.workload}: end-to-end, untraced passes", result["end_to_end"])
    print_table(f"{args.workload}: also reported", result["extra"])
    if args.trace:
        print_table(f"{args.workload}: per layer, traced passes", result["per_layer"])
        if result["absent"]:
            print("# absent (hook target no longer exists): " + ", ".join(result["absent"]))
    saved = write_results(args, result)
    print(f"# full result written to {saved.relative_to(ROOT)}")
    for error in tally.errors[:20]:
        print(f"# failed: {error}")
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": s["median"], "unit": unit} for name, (unit, s) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
