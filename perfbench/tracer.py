"""Run the shakenbec CLI with spans recorded at every module boundary.

    python3 perfbench/tracer.py TRACE_DIR -- <shakenbec CLI arguments>

The wrappers are installed from here, around the public functions of
each shakenbec module, so the program itself carries no tracing code.
A wrapped function is replaced under every name that refers to it, in
every shakenbec module: `cli.load_config`, `analytics.bessel_j` and
`bdg.drive_shift` are the same wrapper as the original definition, so a
call is recorded once whichever module makes it.

Spans (name, start, end, parent) stay in memory and each process
writes them to TRACE_DIR/trace-<pid>.json when it ends.  Pool workers
forked from the traced process inherit the wrappers and the open span
stack, so their spans name the parent's span that started the pool.
Functions called hundreds of thousands of times (Bessel functions,
drive shifts, FFTs) are only counted and timed, not recorded as spans.
Computed work counts (mode steps, site steps, CSV rows) are summed in
the same per-process record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

# Functions recorded as spans, by the module that defines them.
SPANNED = {
    "cli": ["main"],
    "config": [
        "load_config", "lattice_from_config", "drive_from_config",
        "scan_from_config", "bdg_from_config", "twa_from_config",
    ],
    "output": ["write_csv", "write_manifest"],
    "analytics": ["most_unstable_mode", "critical_drive_amplitude", "cusp_frequency"],
    "specialmath": ["bessel_j0_inverse", "band_energy", "hopping_from_depth"],
    "bdg": ["grid_instability_scan", "occupation_rate"],
    "twa": ["ensemble_run", "sample_initial", "run_trajectory"],
    "fitting": ["bootstrap_rate", "windowed_log_slope", "fit_decay_rate"],
}
# Hot leaf functions: call count and summed time only.
COUNTED = {
    "specialmath": ["bessel_j"],
    "model": ["drive_shift"],
}
# FFTs are counted only while a twa span is open.
FFT_NAMES = ["fftn", "ifftn"]
TWA_SPANS = {f"twa.{name}" for name in SPANNED["twa"]}


class Recorder:
    """Per-process store of spans, counters and computed sums."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}  # name -> [calls, seconds]
        self.sums: dict[str, float] = {}
        self.maxes: dict[str, float] = {}
        self._next = 0

    def after_fork(self) -> None:
        """Start an empty record in a forked worker; keep the span stack.

        The containers are cleared in place: the wrappers hold them."""
        self.pid = os.getpid()
        for store in (self.spans, self.counts, self.sums, self.maxes):
            store.clear()
        self._next = 0
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def new_id(self) -> str:
        self._next += 1
        return f"{self.pid}.{self._next}"

    def add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.maxes[key] = max(self.maxes.get(key, value), value)

    def flush(self) -> None:
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "counts": self.counts,
            "sums": self.sums,
            "maxes": self.maxes,
        }
        path = self.trace_dir / f"trace-{self.pid}.json"
        path.write_text(json.dumps(record), encoding="utf-8")


class Tracer:
    """Installs the wrappers; owns the recorder and the open span stack."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.stack: list[str] = []
        self.twa_depth = 0
        self.missing: list[str] = []

    def span(self, name: str, fn, on_return=None):
        rec = self.rec
        stack = self.stack
        is_twa = name in TWA_SPANS
        sig = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.new_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            if is_twa:
                self.twa_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_twa:
                    self.twa_depth -= 1
                rec.spans.append([sid, name, t0, t1, parent])
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    on_return(rec, bound.arguments, result)
                except (KeyError, AttributeError, TypeError) as exc:
                    # the function's signature or result changed shape;
                    # its computed counts then read low
                    print(f"tracer: {name} hook failed: {exc!r}", file=sys.stderr)
            return result

        return wrapper

    def counter(self, name: str, fn, only_in_twa: bool = False):
        counts = self.rec.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_in_twa and self.twa_depth == 0:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = counts.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += time.perf_counter() - t0

        return wrapper

    def install(self) -> None:
        import numpy.fft

        importlib.import_module("shakenbec.cli")
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "shakenbec" or name.startswith("shakenbec.")
        ]
        for modname, names in SPANNED.items():
            for fname in names:
                self._replace(modules, modname, fname,
                              lambda n, f: self.span(n, f, ON_RETURN.get(n)))
        for modname, names in COUNTED.items():
            for fname in names:
                self._replace(modules, modname, fname, self.counter)
        for fname in FFT_NAMES:
            original = getattr(numpy.fft, fname)
            wrapped = self.counter(f"numpy.fft.{fname}", original, only_in_twa=True)
            setattr(numpy.fft, fname, wrapped)

    def _replace(self, modules, modname: str, fname: str, make) -> None:
        home = sys.modules.get(f"shakenbec.{modname}")
        original = getattr(home, fname, None) if home is not None else None
        if original is None or not callable(original):
            self.missing.append(f"{modname}.{fname}")
            return
        wrapped = make(f"{modname}.{fname}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def _on_scan(rec: Recorder, args: dict, result) -> None:
    cfg = args["cfg"]
    modes = result.rates.size - 1  # every grid mode but the condensate
    rec.add("bdg.mode_steps", modes * cfg.steps_per_period * cfg.n_cycles)
    rec.maximum("bdg.norm_drift_max", float(result.norm_drift))


def _on_trajectory(rec: Recorder, args: dict, result) -> None:
    cfg = args["cfg"]
    steps = cfg.steps_per_period * cfg.resolve_cycles(args["drive"])
    rec.add("twa.steps", steps)
    rec.add("twa.site_steps", args["state"].amplitudes.size * steps)


def _on_bootstrap(rec: Recorder, args: dict, result) -> None:
    rec.add("fitting.bootstrap_resamples", args["n_resamples"])
    rec.add("fitting.bootstrap_failed", result.n_failed)


def _on_write_csv(rec: Recorder, args: dict, result) -> None:
    rec.add("output.csv_rows", result)
    rec.add("output.csv_bytes", os.path.getsize(args["path"]))


ON_RETURN = {
    "bdg.grid_instability_scan": _on_scan,
    "twa.run_trajectory": _on_trajectory,
    "fitting.bootstrap_rate": _on_bootstrap,
    "output.write_csv": _on_write_csv,
}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_DIR -- <shakenbec arguments>", file=sys.stderr)
        return 2
    trace_dir = Path(argv[0])
    trace_dir.mkdir(parents=True, exist_ok=True)
    rec = Recorder(trace_dir)
    multiprocessing.util.register_after_fork(rec, Recorder.after_fork)
    tracer = Tracer(rec)
    tracer.install()
    if tracer.missing:
        print(f"tracer: not found, not traced: {', '.join(tracer.missing)}",
              file=sys.stderr)
    cli = sys.modules["shakenbec.cli"]
    try:
        return cli.main(argv[2:])
    finally:
        rec.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
