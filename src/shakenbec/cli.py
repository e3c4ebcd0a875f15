"""Command-line scan harness.

Subcommands: rates, bdg, twa, endphase, fit.  main is the one
runner: it loads the layered configuration (--preset under --config)
and runs a cmd_*, which reads the keys it uses through config's
builders, computes, and returns its plot-ready tables (file name ->
(header, rows)) and diagnostics.  Only then does main create --out and
write them, through output, with a manifest.json listing exactly those
files and the wall time of each phase, so a run that fails leaves no
--out behind.  Exit code 0 on success, 2 for configuration problems, 3
for numerical failures.
Each study is one command: rates writes every closed form (the critical
drive amplitude k0_critical included), bdg each scan point's fastest
mode (bdg.csv) and every grid mode's rate (bdg_modes.csv), twa a
heating curve or a g scan.  A [scan] point that fails numerically fails
alone; endphase and fit run no scan and reject a [scan] section.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys
import time
from itertools import chain, count, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analytics, bdg, fitting, twa
from .config import (
    bdg_from_config,
    drive_from_config,
    endphase_from_config,
    fit_from_config,
    lattice_from_config,
    load_config,
    scan_from_config,
    twa_from_config,
    unreadable,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    ShakenBecError,
)
from .model import TWO_PI, DriveSpec, LatticeParams, Regime, Trajectory
from .output import config_as_dict, utc_stamp, write_csv, write_manifest

log = logging.getLogger("shakenbec")


class _StderrLines(logging.Handler):
    """Each record's bare message as one line on the sys.stderr of the moment."""

    def emit(self, record: logging.LogRecord) -> None:
        print(self.format(record), file=sys.stderr)


class _Point(NamedTuple):
    """A scan point: the scanned variable's value, and the drive and lattice it sets."""

    variable: str
    value: float
    drive: DriveSpec
    lattice: LatticeParams


def _scan_points(cp, allowed: tuple[str, ...], drive: DriveSpec,
                 p: LatticeParams) -> list[_Point] | None:
    """[scan] as one Point per value, or None without a [scan] section.

    Every point's drive and lattice are built, so checked, here, before
    any point runs.
    """
    scan = scan_from_config(cp, allowed)
    if scan is None:
        return None
    points = []
    for value in scan.values.tolist():
        change = {scan.variable: value}
        if scan.variable == "g":
            points.append(_Point("g", value, drive, dataclasses.replace(p, **change)))
        else:
            points.append(_Point(scan.variable, value, dataclasses.replace(drive, **change), p))
    return points


def _run_points(command: str, points: list[_Point], run, strict: bool = False):
    """Run each point in turn: ([(point, result or None, status)], diagnostics).

    A NumericalError fails only its own point (strict re-raises it): its
    status is the error class, and the shakenbec logger (stderr) and
    diagnostics' failed_points get its message.
    """
    outcomes, failures = [], []
    for point in points:
        try:
            outcomes.append((point, run(point), "ok"))
        except NumericalError as exc:
            if strict:
                raise
            log.warning(f"shakenbec {command}: point {point.variable}={point.value} "
                        f"failed: {exc}")
            failures.append({"variable": point.variable, "value": point.value,
                             "error": type(exc).__name__, "message": str(exc)})
            outcomes.append((point, None, type(exc).__name__))
    return outcomes, {"failed_points": failures}


def _cells(values: np.ndarray, missing: np.ndarray) -> list:
    """values as Python scalars, None where missing."""
    if missing.any():
        return np.where(missing, None, values.astype(object)).tolist()
    return values.tolist()


def _rate_rows(k0, omega, k0c, modes, chunk: int = 1024):
    """rates.csv rows, scan value first and trajectory within each value.

    Columns become Python values one chunk of scan points at a time, so
    only the arrays and one chunk are held in memory, never every row.
    """
    for lo in range(0, omega.size, chunk):
        part = slice(lo, lo + chunk)
        point = [k0[part].tolist(), omega[part].tolist(),
                 (omega[part] / TWO_PI).tolist()]
        crit = _cells(k0c[part], np.isnan(k0c[part]))
        per_mode = []
        for m in modes:
            inverted = m.inverted[part]
            cells = (
                np.where(m.high_freq[part], Regime.HIGH_FREQ.value,
                         Regime.LOW_FREQ.value),
                m.qx[part], m.qy[part], np.full(inverted.shape, m.n_pairs),
                m.gamma[part], m.big_gamma[part], m.omega_c[part],
                m.omega_c[part] / TWO_PI, m.bandwidth[part],
                m.cusp_at_bandwidth[part],
            )
            per_mode.append(zip(
                repeat(m.trajectory.value), *point,
                *(_cells(c, inverted) for c in cells), crit,
                inverted.astype(int).tolist(),
            ))
        for rows in zip(*per_mode):
            yield from rows


def cmd_rates(args, cp):
    p = lattice_from_config(cp)
    drive = drive_from_config(cp)
    scan = scan_from_config(cp, allowed=("omega", "k0"))
    k0, omega = drive.k0, np.array([drive.omega])
    if scan is not None and scan.variable == "omega":
        omega = scan.values
    elif scan is not None:
        k0 = scan.values
    table = analytics.ClosedFormScan(omega, p, k0)
    k0, omega = np.broadcast_arrays(table.k0, table.omega)
    k0c = np.broadcast_to(table.k0_critical, omega.shape)
    modes = [table.modes(traj) for traj in Trajectory]
    header = [
        "trajectory", "k0", "omega_rad_s", "omega_hz", "regime",
        "qx_mum", "qy_mum", "n_pairs", "gamma_rad_s", "big_gamma_rad_s",
        "omega_c_rad_s", "omega_c_hz", "bandwidth_rad_s",
        "cusp_at_bandwidth", "k0_critical", "inverted_band",
    ]
    return {"rates.csv": (header, _rate_rows(k0, omega, k0c, modes))}, {}


def cmd_bdg(args, cp):
    p = lattice_from_config(cp)
    drive = drive_from_config(cp)
    cfg = bdg_from_config(cp)
    points = _scan_points(cp, ("omega", "k0"), drive, p)
    outcomes, diagnostics = _run_points(
        "bdg", points or [_Point("omega", drive.omega, drive, p)],
        lambda point: bdg.grid_instability_scan(point.drive, point.lattice, cfg),
        strict=points is None,
    )
    head = ["trajectory", "k0", "omega_rad_s", "omega_hz"]
    # the analytic rate 2 gamma of every point, empty where the band is inverted
    omega, k0 = np.array([(pt.drive.omega, pt.drive.k0) for pt, _, _ in outcomes]).T
    closed = analytics.ClosedFormScan(omega, p, k0).modes(drive.trajectory)
    analytic = _cells(2.0 * closed.gamma, closed.inverted)
    rows, mode_rows = [], []
    for (point, result, status), predicted in zip(outcomes, analytic):
        d = point.drive
        cells = [d.trajectory.value, d.k0, d.omega, d.omega / TWO_PI]
        if result is None:
            rows.append([*cells, None, predicted, None, None, None, None, status])
            continue
        q = result.q_max
        rows.append([*cells, result.rate, predicted, q.qx, q.qy, q.qz,
                     result.norm_drift, status])
        # every grid mode's momentum and rate, in [nx, ny, nz] index order
        modes = [*result.grid.momenta.tolist(), result.rates.ravel().tolist()]
        mode_rows.append(zip(*map(repeat, cells), *modes))
    done = [result for _, result, _ in outcomes if result is not None]
    diagnostics["norm_drift_max"] = max((r.norm_drift for r in done), default=None)
    diagnostics["mode_steps"] = sum(r.mode_steps for r in done)
    return {
        "bdg.csv": ([*head, "extracted_rate_rad_s", "analytic_rate_rad_s",
                     "qx_max", "qy_max", "qz_max", "norm_drift", "status"], rows),
        "bdg_modes.csv": ([*head, "qx", "qy", "qz", "rate_rad_s"],
                          chain.from_iterable(mode_rows)),
    }, diagnostics


def _mean_n_ex(trace) -> np.ndarray:
    """An ensemble's excited density: the mean of its rows less the half quantum."""
    return trace.n_ex_raw.mean(axis=0) - trace.half_quantum


def _band(trace, cfg):
    """(band_lo, band_hi) cells: the mean n_ex -/+ the std of bootstrap means
    of whole realizations, from their own stream (master_seed, 0xB00757);
    empty where fewer than two rows or resamples make the width zero."""
    if len(trace.n_ex_raw) < 2 or cfg.bootstrap_resamples < 2:
        empty = [None] * len(trace.times)
        return empty, empty
    mean = _mean_n_ex(trace)
    rng = twa.realization_rng(cfg.master_seed, 0xB00757)
    band = fitting.bootstrap_means(trace.n_ex_raw, cfg.bootstrap_resamples, rng).std(axis=0)
    return mean - band, mean + band


def _rate_with_error(trace, period, cfg, stop=None):
    """The windowed log slope of an ensemble's mean growth and its bootstrap
    error over realizations, None where the bootstrap is degenerate: each
    row of trace.n_ex, clipped at zero, as a growth trace over samples
    [:stop], fitted over the last cfg.rate_window_cycles periods, or the
    whole run when it is shorter."""
    window = min(cfg.rate_window_cycles, trace.times.size - 1)
    times, values = trace.times[:stop], np.maximum(trace.n_ex[:, :stop], 0.0)
    fitter = lambda tr: fitting.windowed_log_slope(tr, window, period)
    kind = fitting.TraceKind.MODE_OCCUPATION
    fit = fitter(fitting.DecayTrace(times, values.mean(axis=0), kind))
    boot = fitting.bootstrap_rate(times, values, kind, fitter,
                                  n_resamples=cfg.bootstrap_resamples,
                                  seed=cfg.master_seed)
    return fit, None if boot.degenerate else boot.std


def _twa_counters(traces) -> dict:
    """The worst atom drift of TWA ensembles (None without one) and their
    engine counters, summed over them, for the manifest."""
    return {"atom_drift_max": max((float(tr.atom_drift.max()) for tr in traces), default=None),
            "realizations": sum(len(tr.n_ex_raw) for tr in traces),
            "transforms": sum(tr.transforms for tr in traces),
            "site_steps": sum(tr.site_steps for tr in traces)}


def _fit_warnings(rows) -> dict:
    """The manifest's fit_warnings: the non-empty warning (last cell) of
    each fit row, keyed by its first cell (twa's window or g=<value>, fit's method)."""
    return {row[0]: row[-1] for row in rows if row[-1]}


def cmd_twa(args, cp):
    p = lattice_from_config(cp)
    drive = drive_from_config(cp)
    cfg = twa_from_config(cp, args.seed)
    points = _scan_points(cp, ("g",), drive, p)
    cfg.resolve_cycles((drive,))  # a zero run length fails before any sampling
    period = drive.period

    if points is not None:
        def run(point):
            [trace] = twa.ensemble_run((drive,), point.lattice, cfg, workers=args.workers)
            fit, err = _rate_with_error(trace, period, cfg)
            return trace, fit.rate, err, fit.warning

        outcomes, diagnostics = _run_points("twa", points, run)
        diagnostics.update(_twa_counters([done[0] for _, done, _ in outcomes if done]))
        diagnostics["fit_warnings"] = _fit_warnings(
            [(f"g={point.value}", done[3]) for point, done, _ in outcomes if done])
        rows = []
        for point, done, status in outcomes:
            rate, err, warning = done[1:] if done else (None, None, None)
            rows.append([point.value, point.value / p.j, rate, err, cfg.n_realizations,
                         warning, status])
        header = ["g_rad_s", "g_over_j", "rate_rad_s", "rate_err_rad_s",
                  "n_realizations", "warning", "status"]
        return {"twa_g_scan.csv": (header, rows)}, diagnostics

    [trace] = twa.ensemble_run((drive,), p, cfg, workers=args.workers)
    rate_rows = []
    for label, stop in (("early", cfg.rate_window_cycles + 1), ("late", None)):
        fit, err = _rate_with_error(trace, period, cfg, stop)
        rate_rows.append([
            label, fit.method.value, fit.rate, err,
            fit.window[0], fit.window[1], fit.n_points, fit.warning,
        ])
    return {
        "twa_trace.csv": (
            ["time_s", "cycle", "n_ex_raw", "n_ex", "band_lo", "band_hi",
             "condensed_fraction"],
            zip(trace.times, count(), trace.n_ex_raw.mean(axis=0), _mean_n_ex(trace),
                *_band(trace, cfg), trace.condensed_fraction.mean(axis=0)),
        ),
        "twa_rates.csv": (
            ["window", "method", "rate_rad_s", "rate_err_rad_s",
             "window_start_s", "window_end_s", "n_points", "warning"],
            rate_rows,
        ),
    }, {**_twa_counters([trace]), "fit_warnings": _fit_warnings(rate_rows)}


def cmd_endphase(args, cp):
    p, cfg, protocols = endphase_from_config(cp, args.seed)
    # endphase takes ensemble means only, so it never reads the twa command's
    # fit keys; they stay accepted, as presets shared with twa set them
    unused = [f"twa.{key}" for key in ("bootstrap_resamples", "rate_window_cycles")
              if cp.has_option("twa", key)]
    if unused:
        log.warning(f"shakenbec endphase: {', '.join(unused)} not read: endphase "
                    "takes ensemble means, with no bootstrap band or rate fit")
    # every protocol runs the same samples for the same length: one stack
    traces = twa.ensemble_run(tuple(d for _, _, d in protocols), p, cfg, workers=args.workers)
    rows = [[name, phase, float(n_ex[d.envelope.total_periods]), float(n_ex[-1])]
            for (name, phase, d), n_ex in zip(protocols, map(_mean_n_ex, traces))]
    header = ["protocol", "end_phase_rad", "n_ex_at_stop", "n_ex_final"]
    return {"endphase.csv": (header, rows)}, {**_twa_counters(traces), "unused_keys": unused}


def _read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        # utf-8-sig: a byte-order mark (Excel's "CSV UTF-8") is not data
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable("trace file", path, exc) from exc
    times, values = [], []
    for line_no, row in enumerate(rows, start=1):
        if not row or not any(tok.strip() for tok in row):
            continue
        if len(row) < 2:
            raise ConfigError(f"{path}: line {line_no}: need at least two columns")
        try:
            t, y = float(row[0]), float(row[1])
        except ValueError:
            try:
                float(row[0])
            except ValueError:
                if line_no == 1:
                    continue  # a header row: its time cell is not a number
            raise ConfigError(
                f"{path}: line {line_no}: non-numeric entry in {row[:2]}"
            ) from None
        times.append(t)
        values.append(y)
    if len(times) < 2:
        raise ConfigError(f"{path}: fewer than two data rows")
    return np.array(times), np.array(values)


def cmd_fit(args, cp):
    times, values = _read_trace_csv(args.trace)
    try:
        trace = fitting.DecayTrace(times, values, fit_from_config(cp))
    except DomainError as exc:
        raise ConfigError(f"{args.trace}: {exc}") from exc
    result = fitting.fit_decay_rate(trace)
    rows = [[result.method.value, result.amplitude, result.rate, result.stderr,
             result.r_squared, result.window[0], result.window[1],
             result.n_points, result.warning]]
    return {"fit.csv": (
        ["method", "amplitude", "rate_rad_s", "stderr_rad_s", "r_squared",
         "window_start_s", "window_end_s", "n_points", "warning"],
        rows,
    )}, {"fit_warnings": _fit_warnings(rows)}


def _worker_count(text: str) -> int:
    n, limit = int(text), os.cpu_count() or 1
    if not 1 <= n <= limit:
        raise argparse.ArgumentTypeError(f"must be in 1..{limit}, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shakenbec",
        description="Parametric instabilities of shaken lattice condensates: "
        "closed-form rates, Bogoliubov mode dynamics, truncated-Wigner runs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, trace_arg=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="config file (ini-style)")
        sp.add_argument("--preset", metavar="NAME", help="built-in parameter preset")
        sp.add_argument("--out", metavar="DIR", default=".", help="output directory")
        sp.add_argument("--seed", type=int, metavar="N",
                        help="twa, endphase: override the ensemble master seed")
        sp.add_argument("--workers", type=_worker_count, default=1, metavar="N",
                        help="twa, endphase: realization batches, one process each")
        if trace_arg:
            sp.add_argument("trace", help="input CSV with time,value columns")
        sp.set_defaults(func=func)
        return sp

    add("rates", cmd_rates, "closed-form rates and critical drive amplitudes")
    add("bdg", cmd_bdg, "Bogoliubov grid scans vs the analytic rate")
    add("twa", cmd_twa, "truncated-Wigner ensemble runs and g scans")
    add("endphase", cmd_endphase, "post-stop excitation vs drive end phase")
    add("fit", cmd_fit, "fit a decay/growth rate to a trace CSV", trace_arg=True)
    return ap


_EXIT_CODES = (
    (ConfigError, "config error", 2),
    (DomainError, "invalid parameter", 2),
    (NumericalError, "numerical failure", 3),
)


def main(argv: list[str] | None = None) -> int:
    """Run one command; write its tables and a manifest.json into --out.

    A ShakenBecError becomes one stderr line, through the shakenbec
    logger, and the exit code of its family: 2 for configuration and
    parameter errors (an --out that cannot be a directory included), 3
    for numerical failures."""
    args = build_parser().parse_args(argv)
    if not log.handlers:
        log.addHandler(_StderrLines())
    try:
        started = utc_stamp()
        t_config = time.perf_counter()
        cp = load_config(args.config, args.preset)
        if args.command in ("endphase", "fit") and cp.has_section("scan"):
            raise ConfigError(f"{args.command} runs no scan; remove the [scan] section")
        t_compute = time.perf_counter()
        tables, diagnostics = args.func(args, cp)
        t_write = time.perf_counter()
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {args.out}: {exc.strerror}") from exc
        for name, (header, rows) in tables.items():
            write_csv(outdir / name, header, rows)
        timings = {"config_s": t_compute - t_config, "compute_s": t_write - t_compute,
                   "write_s": time.perf_counter() - t_write}
        # only the ensemble commands read --seed and --workers; the rest record null
        ensemble = args.command in ("twa", "endphase")
        write_manifest(outdir, args.command, config_as_dict(cp),
                       args.seed if ensemble else None, args.workers if ensemble else None,
                       list(tables), started=started, diagnostics=diagnostics,
                       timings=timings)
        return 0
    except ShakenBecError as exc:
        for family, label, code in _EXIT_CODES:
            if isinstance(exc, family):
                log.error(f"shakenbec: {label}: {exc}")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
