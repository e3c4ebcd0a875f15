"""Per-layer metrics computed from the span files of one traced run.

Times are busy times: the union of a layer's span intervals within one
process, summed over processes (pool workers included), so nested or
recursive calls are not counted twice.  Self time is a span's length
minus the part of it covered by its child spans, from any process.
Counts are exact: calls are counted spans or counted calls, and the
work counts (mode steps, site steps, CSV rows and bytes) are computed
by the tracer from each call's arguments and result.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "bdg.scan_s": ("s", "lower"),
    "bdg.scan_calls": ("count", "lower"),
    "bdg.rate_fit_s": ("s", "lower"),
    "bdg.integrate_s": ("s", "lower"),
    "bdg.mode_steps": ("count", "lower"),
    "bdg.mode_steps_per_s": ("mode-steps/s", "higher"),
    "bdg.norm_drift_max": ("ratio", "lower"),
    "twa.ensemble_s": ("s", "lower"),
    "twa.ensemble_self_s": ("s", "lower"),
    "twa.sample_s": ("s", "lower"),
    "twa.trajectory_s": ("s", "lower"),
    "twa.trajectory_calls": ("count", "lower"),
    "twa.site_steps": ("count", "lower"),
    "twa.site_steps_per_s": ("site-steps/s", "higher"),
    "twa.fft_calls": ("count", "lower"),
    "twa.fft_s": ("s", "lower"),
    "twa.fft_share": ("fraction", "lower"),
    "twa.fft_per_step": ("ffts/step", "lower"),
    "model.drive_shift_calls": ("count", "lower"),
    "model.drive_shift_s": ("s", "lower"),
    "fitting.bootstrap_s": ("s", "lower"),
    "fitting.bootstrap_calls": ("count", "lower"),
    "fitting.fit_calls": ("count", "lower"),
    "fitting.bootstrap_fail_frac": ("fraction", "lower"),
    "analytics.mum_s": ("s", "lower"),
    "analytics.mum_calls": ("count", "lower"),
    "analytics.k0c_s": ("s", "lower"),
    "analytics.k0c_calls": ("count", "lower"),
    "analytics.cusp_calls": ("count", "lower"),
    "specialmath.bessel_calls": ("count", "lower"),
    "specialmath.bessel_s": ("s", "lower"),
    "specialmath.j0inv_calls": ("count", "lower"),
    "specialmath.j0inv_s": ("s", "lower"),
    "specialmath.band_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "output.csv_s": ("s", "lower"),
    "output.csv_rows": ("count", "lower"),
    "output.csv_bytes": ("bytes", "lower"),
    "output.manifest_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly between two traced runs.
EXACT_COUNTS = [name for name, (unit, _) in PER_LAYER.items()
                if unit in ("count", "bytes")]

CONFIG_SPANS = (
    "config.load_config", "config.lattice_from_config", "config.drive_from_config",
    "config.scan_from_config", "config.bdg_from_config", "config.twa_from_config",
)


def load_records(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(trace_dir.glob("trace-*.json"))]


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


class Trace:
    """Spans, counters and sums of every process of one traced run."""

    def __init__(self, records: list[dict]):
        self.records = records
        self.children = defaultdict(list)
        self.counts = defaultdict(lambda: [0, 0.0])
        self.sums = defaultdict(float)
        self.maxes: dict[str, float] = {}
        for rec in records:
            for sid, name, t0, t1, parent in rec["spans"]:
                if parent is not None:
                    self.children[parent].append((t0, t1))
            for name, (n, seconds) in rec["counts"].items():
                self.counts[name][0] += n
                self.counts[name][1] += seconds
            for name, value in rec["sums"].items():
                self.sums[name] += value
            for name, value in rec["maxes"].items():
                self.maxes[name] = max(self.maxes.get(name, value), value)

    def busy(self, *names: str) -> float:
        return sum(
            _union((t0, t1) for _, name, t0, t1, _ in rec["spans"] if name in names)
            for rec in self.records
        )

    def calls(self, *names: str) -> int:
        return sum(1 for rec in self.records
                   for span in rec["spans"] if span[1] in names)

    def self_time(self, name: str) -> float:
        total = 0.0
        for rec in self.records:
            for sid, span_name, t0, t1, _ in rec["spans"]:
                if span_name == name:
                    covered = [(max(a, t0), min(b, t1)) for a, b in self.children[sid]
                               if b > t0 and a < t1]
                    total += (t1 - t0) - _union(covered)
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(trace: Trace) -> dict[str, float]:
    """Every PER_LAYER metric but trace.overhead_s, which needs two runs."""
    fft_calls = sum(trace.counts[f"numpy.fft.{f}"][0] for f in ("fftn", "ifftn"))
    fft_s = sum(trace.counts[f"numpy.fft.{f}"][1] for f in ("fftn", "ifftn"))
    scan_s = trace.busy("bdg.grid_instability_scan")
    rate_fit_s = trace.busy("bdg.occupation_rate")
    sample_s = trace.busy("twa.sample_initial")
    trajectory_s = trace.busy("twa.run_trajectory")
    return {
        "bdg.scan_s": scan_s,
        "bdg.scan_calls": trace.calls("bdg.grid_instability_scan"),
        "bdg.rate_fit_s": rate_fit_s,
        "bdg.integrate_s": scan_s - rate_fit_s,
        "bdg.mode_steps": trace.sums["bdg.mode_steps"],
        "bdg.mode_steps_per_s": _ratio(trace.sums["bdg.mode_steps"], scan_s - rate_fit_s),
        "bdg.norm_drift_max": trace.maxes.get("bdg.norm_drift_max", 0.0),
        "twa.ensemble_s": trace.busy("twa.ensemble_run"),
        "twa.ensemble_self_s": trace.self_time("twa.ensemble_run"),
        "twa.sample_s": sample_s,
        "twa.trajectory_s": trajectory_s,
        "twa.trajectory_calls": trace.calls("twa.run_trajectory"),
        "twa.site_steps": trace.sums["twa.site_steps"],
        "twa.site_steps_per_s": _ratio(trace.sums["twa.site_steps"], trajectory_s),
        "twa.fft_calls": fft_calls,
        "twa.fft_s": fft_s,
        "twa.fft_share": _ratio(fft_s, sample_s + trajectory_s),
        "twa.fft_per_step": _ratio(fft_calls, trace.sums["twa.steps"]),
        "model.drive_shift_calls": trace.counts["model.drive_shift"][0],
        "model.drive_shift_s": trace.counts["model.drive_shift"][1],
        "fitting.bootstrap_s": trace.busy("fitting.bootstrap_rate"),
        "fitting.bootstrap_calls": trace.calls("fitting.bootstrap_rate"),
        "fitting.fit_calls": trace.calls("fitting.windowed_log_slope", "fitting.fit_decay_rate"),
        "fitting.bootstrap_fail_frac": _ratio(trace.sums["fitting.bootstrap_failed"],
                                              trace.sums["fitting.bootstrap_resamples"]),
        "analytics.mum_s": trace.busy("analytics.most_unstable_mode"),
        "analytics.mum_calls": trace.calls("analytics.most_unstable_mode"),
        "analytics.k0c_s": trace.busy("analytics.critical_drive_amplitude"),
        "analytics.k0c_calls": trace.calls("analytics.critical_drive_amplitude"),
        "analytics.cusp_calls": trace.calls("analytics.cusp_frequency"),
        "specialmath.bessel_calls": trace.counts["specialmath.bessel_j"][0],
        "specialmath.bessel_s": trace.counts["specialmath.bessel_j"][1],
        "specialmath.j0inv_calls": trace.calls("specialmath.bessel_j0_inverse"),
        "specialmath.j0inv_s": trace.busy("specialmath.bessel_j0_inverse"),
        "specialmath.band_s": trace.busy("specialmath.hopping_from_depth",
                                         "specialmath.band_energy"),
        "config.load_s": trace.busy(*CONFIG_SPANS),
        "output.csv_s": trace.busy("output.write_csv"),
        "output.csv_rows": trace.sums["output.csv_rows"],
        "output.csv_bytes": trace.sums["output.csv_bytes"],
        "output.manifest_s": trace.busy("output.write_manifest"),
        "cli.self_s": trace.self_time("cli.main"),
    }
