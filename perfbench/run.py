"""Benchmark of the shakenbec CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing built or installed:
every CLI run is `python3 -m shakenbec` with PYTHONPATH=src, one
process per run.  Workloads are listed in workloads.py and explained in
README.md.  The seed reaches the program only as `--seed`.

--trace 0 first times SETUP_PROBES runs of setup_probe.py (the CLI up
to its first engine call) after one untimed warm-up, then runs the
workload back to back until S seconds have passed and reports medians
over those runs.  --trace 1 alternates an untraced run with a run under
tracer.py for S seconds and reports the per-layer metrics of layers.py.
Every run's outputs go through the gate of gate.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run outputs, logs, span files and machine.json are kept under
.perfbench-runs/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from gate import check_run
from layers import EXACT_COUNTS, PER_LAYER, Trace, layer_metrics, load_records
from workloads import REFERENCE_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench-runs"

# name -> (unit, better).  throughput's work unit depends on the
# workload (mode-steps, site-steps or scan points); see README.md.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput": ("work/s", "higher"),
    "setup_s": ("s", "lower"),
}
SETUP_PROBES = 9
# One CLI run taking longer than this is killed and counted as failed,
# so that the benchmark ends within its 180 s limit.
RUN_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Run:
    """One process tree, from spawn to exit."""

    wall_s: float
    cpu_s: float  # user + system, waited-for descendants included
    peak_rss_mb: float  # largest single process of the tree
    exit_code: int


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(workers: int) -> dict[str, str]:
    """PYTHONPATH to this checkout's src; BLAS/OpenMP threads so that
    workers x threads stays within nproc."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    threads = str(max(1, nproc() // workers))
    for var in THREAD_VARS:
        env[var] = threads
    return env


class Spawner:
    """Runs processes through spawner.py, which run.py starts while small;
    see spawner.py for why the timed processes need a lean parent."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def run(self, argv: list[str], env: dict[str, str], log_path: Path) -> Run:
        request = {"argv": argv, "cwd": str(ROOT), "env": env,
                   "log": str(log_path), "timeout": RUN_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py ended without a reply")
        return Run(**json.loads(reply))


def cli_args(w: Workload, seed: int, outdir: Path, workers: int) -> list[str]:
    return [*w.argv, "--out", str(outdir), "--seed", str(seed), "--workers", str(workers)]


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def drift_limit() -> float:
    """The mode integrator's own norm-drift limit."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from shakenbec.bdg import NORM_DRIFT_TOL
    finally:
        sys.path.pop(0)
    return float(NORM_DRIFT_TOL)


class Runner:
    """Runs one workload at one seed and tallies the gate's verdicts."""

    def __init__(self, w: Workload, seed: int, base: Path, spawner: Spawner):
        self.w = w
        self.spawner = spawner
        self.seed = seed
        self.base = base
        self.workers = min(w.workers, nproc())
        self.env = child_env(self.workers)
        use_reference = seed == REFERENCE_SEED or not w.seed_sensitive
        self.ref_dir = HERE / "reference" / w.name if use_reference else None
        needs_drift = any(c.kind == "drift" for s in w.outputs for c in s.columns)
        self.drift_limit = drift_limit() if needs_drift else float("inf")
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def run(self, traced: bool) -> tuple[Run, Path | None]:
        """One CLI run, checked; returns it and its span directory."""
        self.count += 1
        tag = f"{'traced' if traced else 'run'}-{self.count}"
        outdir = self.base / tag
        args = cli_args(self.w, self.seed, outdir, self.workers)
        trace_dir = None
        if traced:
            trace_dir = self.base / f"{tag}-spans"
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_dir), "--", *args]
        else:
            argv = [sys.executable, "-m", "shakenbec", *args]
        run = self.spawner.run(argv, self.env, self.base / f"{tag}.log")
        n_ops = self.w.ops_per_run
        if run.exit_code != 0:
            failures = {op: f"exit code {run.exit_code}, see {tag}.log" for op in range(n_ops)}
        else:
            failures = check_run(self.w.outputs, outdir, self.ref_dir, n_ops, self.drift_limit)
        self.attempted += n_ops
        self.failed += len(failures)
        first = next(iter(failures.values()), "")
        print(f"{tag}: wall {run.wall_s:.3f} s, cpu {run.cpu_s:.3f} s, "
              f"rss {run.peak_rss_mb:.1f} MB, exit {run.exit_code}, "
              f"failed {len(failures)}/{n_ops} {first}".rstrip(), flush=True)
        return run, trace_dir


def measure_setup(runner: Runner) -> list[float]:
    w = runner.w
    walls = []
    for i in range(SETUP_PROBES + 1):
        outdir = runner.base / f"setup-{i}"
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                *cli_args(w, runner.seed, outdir, runner.workers)]
        run = runner.spawner.run(argv, runner.env, runner.base / f"setup-{i}.log")
        if run.exit_code != 0:
            raise RuntimeError(f"setup probe exited {run.exit_code}; see setup-{i}.log")
        if i > 0:  # the first is a warm-up
            walls.append(run.wall_s)
    return walls


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has ten samples beyond it"
    pct = 100 * (n - 10) // n
    return f"n={n}, p{pct}={sorted(values)[n - 11]:.4f}"


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    setup = measure_setup(runner)
    print(f"setup_s: median {statistics.median(setup):.4f} s ({tail(setup)})")
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        run, _ = runner.run(traced=False)
        runs.append(run)
        if len(runs) > 1:  # keep the last run's outputs only
            shutil.rmtree(runner.base / f"run-{runner.count - 1}", ignore_errors=True)
    walls = [r.wall_s for r in runs]
    wall = statistics.median(walls)
    print(f"wall_s: median {wall:.4f} s ({tail(walls)})")
    print(f"throughput: {runner.w.work_per_run / wall:.6g} {runner.w.work_unit}/s "
          f"({runner.w.work_per_run} {runner.w.work_unit} per run)")
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "throughput": runner.w.work_per_run / wall,
        "setup_s": statistics.median(setup),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run(traced=False)[0].wall_s)
        run, trace_dir = runner.run(traced=True)
        traced.append(run.wall_s)
        layers.append(layer_metrics(Trace(load_records(trace_dir))))
    for name in EXACT_COUNTS:
        values = {m[name] for m in layers}
        if len(values) > 1:
            print(f"warning: {name} differs between traced runs: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shakenbec" / "__init__.py").is_file():
        print(f"run.py: no shakenbec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    base = OUT_ROOT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    with Spawner() as spawner:
        machine = machine_info()
        (base / "machine.json").write_text(json.dumps(machine, indent=2) + "\n",
                                           encoding="utf-8")
        print("machine: " + json.dumps(machine))
        runner = Runner(w, args.seed, base, spawner)
        print(f"workload {w.name}: seed {args.seed}, workers {runner.workers}, "
              f"reference {'yes' if runner.ref_dir else 'no'}", flush=True)
        if args.trace:
            values, table = per_layer(runner, args.seconds), PER_LAYER
        else:
            values, table = end_to_end(runner, args.seconds), END_TO_END
    metrics = {}
    for name, (unit, _) in table.items():
        value = values[name]
        if unit in ("count", "bytes"):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    fail_frac = runner.failed / runner.attempted
    print(f"fail_frac: {fail_frac:.6g} ({runner.failed} of {runner.attempted} operations)")
    (base / "result.json").write_text(json.dumps(metrics, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
