"""Command-line scan harness.

Subcommands: rates, k0c, bdg, twa, endphase, fit.  Every command reads
a layered configuration (--preset under --config), writes plot-ready
CSV files plus a manifest.json into --out, and returns exit code 0 on
success, 2 for configuration problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import analytics, bdg, fitting, twa
from .config import (
    bdg_from_config,
    drive_from_config,
    lattice_from_config,
    load_config,
    scan_from_config,
    twa_from_config,
    _get,
    _bool,
)
from .errors import (
    ConfigError,
    DomainError,
    InvertedBandError,
    NumericalError,
    ShakenBecError,
)
from .model import DriveSpec, Envelope, Regime, Trajectory
from .output import config_as_dict, utc_stamp, write_csv, write_manifest
from .specialmath import j0_first_zero

TWO_PI = 2.0 * math.pi


def _setup(args):
    args._started = utc_stamp()
    cp = load_config(args.config, args.preset)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return cp, outdir


def _finish(args, cp, outdir, command, outputs, diagnostics=None) -> int:
    write_manifest(
        outdir,
        command,
        config_as_dict(cp),
        getattr(args, "seed", None),
        getattr(args, "workers", 1),
        outputs,
        started=getattr(args, "_started", None),
        diagnostics=diagnostics,
    )
    return 0


def _failed_point(command: str, variable: str, value: float, exc: Exception) -> dict:
    """Report a failed scan point on stderr; return its manifest record."""
    print(f"shakenbec {command}: point {variable}={value} failed: {exc}",
          file=sys.stderr)
    return {"variable": variable, "value": value,
            "error": type(exc).__name__, "message": str(exc)}


def _drive_variant(drive: DriveSpec, variable: str, value: float) -> DriveSpec:
    if variable == "omega":
        return dataclasses.replace(drive, omega=value)
    if variable == "k0":
        return dataclasses.replace(drive, k0=value)
    raise ConfigError(f"cannot scan drive variable '{variable}'")


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


def cmd_rates(args) -> int:
    cp, outdir = _setup(args)
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
    write_csv(outdir / "rates.csv", header, _rate_rows(k0, omega, k0c, modes))
    return _finish(args, cp, outdir, "rates", ["rates.csv"])


def cmd_k0c(args) -> int:
    cp, outdir = _setup(args)
    p = lattice_from_config(cp)
    scan = scan_from_config(cp, allowed=("omega",))
    if scan is None:
        drive = drive_from_config(cp)
        omega = np.array([drive.omega])
    else:
        omega = scan.values
    k0c = analytics.ClosedFormScan(omega, p).k0_critical
    asymptote = j0_first_zero()
    header = [
        "omega_rad_s", "omega_hz", "g_over_omega",
        "k0_critical", "k0_critical_asymptote", "no_solution",
    ]
    none = np.isnan(k0c)
    rows = zip(omega.tolist(), (omega / TWO_PI).tolist(), (p.g / omega).tolist(),
               _cells(k0c, none), repeat(asymptote), none.astype(int).tolist())
    write_csv(outdir / "k0c.csv", header, rows)
    return _finish(args, cp, outdir, "k0c", ["k0c.csv"])


def cmd_bdg(args) -> int:
    cp, outdir = _setup(args)
    p = lattice_from_config(cp)
    drive = drive_from_config(cp)
    cfg = bdg_from_config(cp)
    scan = scan_from_config(cp, allowed=("omega", "k0"))
    if scan is None:
        points = [("omega", drive.omega)]
    else:
        points = [(scan.variable, float(v)) for v in scan.values]

    header = [
        "trajectory", "k0", "omega_rad_s", "omega_hz",
        "extracted_rate_rad_s", "analytic_rate_rad_s",
        "qx_max", "qy_max", "qz_max", "norm_drift", "status",
    ]
    rows, drifts, failures = [], [], []
    mode_steps = 0
    single = scan is None
    for variable, value in points:
        d = _drive_variant(drive, variable, value)
        try:
            analytic = 2.0 * analytics.most_unstable_mode(
                d.trajectory, d.k0, d.omega, p
            ).gamma
        except InvertedBandError:
            analytic = None
        try:
            result = bdg.grid_instability_scan(d, p, cfg)
            q = result.q_max
            rows.append([
                d.trajectory.value, d.k0, d.omega, d.omega / TWO_PI,
                result.rate, analytic, q.qx, q.qy, q.qz,
                result.norm_drift, "ok",
            ])
            drifts.append(float(result.norm_drift))
            mode_steps += result.mode_steps
        except NumericalError as exc:
            if single:
                raise
            failures.append(_failed_point("bdg", variable, value, exc))
            rows.append([
                d.trajectory.value, d.k0, d.omega, d.omega / TWO_PI,
                None, analytic, None, None, None, None,
                type(exc).__name__,
            ])
    write_csv(outdir / "bdg.csv", header, rows)
    return _finish(args, cp, outdir, "bdg", ["bdg.csv"], {
        "norm_drift_max": max(drifts, default=None), "failed_points": failures,
        "mode_steps": mode_steps,
    })


def _early_slice(trace: fitting.DecayTrace, n_keep: int) -> fitting.DecayTrace:
    return fitting.DecayTrace(
        trace.times[: n_keep + 1], trace.values[: n_keep + 1], trace.kind
    )


def _growth_traces(result: twa.EnsembleResult) -> list[fitting.DecayTrace]:
    """Each realization's excited density, clipped at zero, as a growth trace."""
    kind = fitting.TraceKind.MODE_OCCUPATION
    return [fitting.DecayTrace(tr.times, np.maximum(tr.n_ex, 0.0), kind)
            for tr in result.traces]


def _rate_with_error(traces, window, period, seed, resamples):
    fitter = lambda tr: fitting.windowed_log_slope(tr, window, period)
    mean = fitting.DecayTrace(
        traces[0].times,
        np.stack([tr.values for tr in traces]).mean(axis=0),
        traces[0].kind,
    )
    fit = fitter(mean)
    boot = fitting.bootstrap_rate(traces, fitter, n_resamples=resamples, seed=seed)
    return fit, boot


def cmd_twa(args) -> int:
    cp, outdir = _setup(args)
    p = lattice_from_config(cp)
    drive = drive_from_config(cp)
    grid, run_cfg, ens_cfg, window = twa_from_config(cp, args.seed)
    scan = scan_from_config(cp, allowed=("g",))
    period = drive.period

    if scan is not None:
        header = [
            "g_rad_s", "g_over_j", "rate_rad_s", "rate_err_rad_s",
            "n_realizations", "status",
        ]
        rows, drifts, failures = [], [], []
        for g in scan.values:
            p_g = dataclasses.replace(p, g=float(g))
            try:
                result = twa.ensemble_run(
                    grid, drive, p_g, run_cfg, ens_cfg, workers=args.workers
                )
                fit, boot = _rate_with_error(
                    _growth_traces(result), window, period, ens_cfg.master_seed,
                    ens_cfg.bootstrap_resamples,
                )
                rows.append([float(g), float(g) / p.j, fit.rate, boot.std,
                             ens_cfg.n_realizations, "ok"])
                drifts.append(result.atom_drift)
            except NumericalError as exc:
                failures.append(_failed_point("twa", "g", float(g), exc))
                rows.append([float(g), float(g) / p.j, None, None,
                             ens_cfg.n_realizations, type(exc).__name__])
        write_csv(outdir / "twa_g_scan.csv", header, rows)
        return _finish(args, cp, outdir, "twa", ["twa_g_scan.csv"], {
            "atom_drift_max": max(drifts, default=None), "failed_points": failures,
        })

    result = twa.ensemble_run(grid, drive, p, run_cfg, ens_cfg, workers=args.workers)
    trace_rows = [
        [t, cycle, raw, sub, lo, hi, cf]
        for cycle, (t, raw, sub, lo, hi, cf) in enumerate(
            zip(result.times, result.n_ex_raw, result.n_ex,
                result.band_lo, result.band_hi, result.condensed_fraction)
        )
    ]
    write_csv(
        outdir / "twa_trace.csv",
        ["time_s", "cycle", "n_ex_raw", "n_ex", "band_lo", "band_hi",
         "condensed_fraction"],
        trace_rows,
    )

    traces = _growth_traces(result)
    n_samples = traces[0].times.size
    rate_rows = []
    for label, subset in (
        ("early", [_early_slice(tr, min(window, n_samples - 1)) for tr in traces]),
        ("late", traces),
    ):
        fit, boot = _rate_with_error(
            subset, min(window, n_samples - 1), period,
            ens_cfg.master_seed, ens_cfg.bootstrap_resamples,
        )
        rate_rows.append([
            label, fit.method.value, fit.rate, boot.std,
            fit.window[0], fit.window[1], fit.n_points, fit.warning,
        ])
    write_csv(
        outdir / "twa_rates.csv",
        ["window", "method", "rate_rad_s", "rate_err_rad_s",
         "window_start_s", "window_end_s", "n_points", "warning"],
        rate_rows,
    )
    return _finish(args, cp, outdir, "twa", ["twa_trace.csv", "twa_rates.csv"],
                   {"atom_drift_max": result.atom_drift})


def cmd_endphase(args) -> int:
    cp, outdir = _setup(args)
    p = lattice_from_config(cp)
    drive = drive_from_config(cp)
    grid, run_cfg, ens_cfg, _ = twa_from_config(cp, args.seed)
    env = drive.envelope
    if env is None:
        raise ConfigError("endphase needs [drive] envelope keys (ramp_up, hold)")

    default_phases = "0, 0.7853981633974483, 1.5707963267948966"
    raw = _get(cp, "endphase", "phases", str, default_phases)
    try:
        phases = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad [endphase] phases list: {raw!r}") from exc
    include_ramped = _get(cp, "endphase", "include_ramped", _bool, True)
    ramp_down = _get(cp, "endphase", "ramp_down", int, 1)
    post_hold = _get(cp, "endphase", "post_hold_periods", int, 8)

    if post_hold < 0:
        raise ConfigError("[endphase] post_hold_periods must be >= 0")
    protocols = [
        ("abrupt", phase, Envelope(ramp_up=env.ramp_up, hold=env.hold, ramp_down=0,
                                   abrupt_stop=True, end_phase=phase))
        for phase in phases
    ]
    if include_ramped:
        if ramp_down > post_hold + 1:
            raise ConfigError(
                "[endphase] ramp_down exceeds post_hold_periods + 1; "
                "the ramped control would outlast the comparison window"
            )
        protocols.append(("ramped", None, Envelope(
            ramp_up=env.ramp_up, hold=env.hold, ramp_down=ramp_down, abrupt_stop=False,
        )))
    if not protocols:
        raise ConfigError("[endphase] has nothing to run: no phases and "
                          "include_ramped is off")

    # the abrupt stops are over after ramp_up + hold + 1 periods, the
    # ramped control (ramp_down <= post_hold + 1) no later: one run length
    # serves every protocol, so they evolve the same samples as one stack
    cfg = dataclasses.replace(run_cfg, n_cycles=env.ramp_up + env.hold + post_hold + 1)
    drives = tuple(dataclasses.replace(drive, envelope=e) for _, _, e in protocols)
    results = twa.ensemble_run(grid, drives, p, cfg, ens_cfg, workers=args.workers)
    rows = [
        [name, phase, float(res.n_ex[e.total_periods]), float(res.n_ex[-1])]
        for (name, phase, e), res in zip(protocols, results)
    ]
    write_csv(
        outdir / "endphase.csv",
        ["protocol", "end_phase_rad", "n_ex_at_stop", "n_ex_final"],
        rows,
    )
    return _finish(args, cp, outdir, "endphase", ["endphase.csv"],
                   {"atom_drift_max": max(res.atom_drift for res in results)})


def _read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    times, values = [], []
    try:
        fh = open(path, encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise ConfigError(f"trace file not found: {path}") from exc
    with fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row or not any(tok.strip() for tok in row):
                continue
            if len(row) < 2:
                raise ConfigError(
                    f"{path}: line {line_no}: need at least two columns"
                )
            try:
                t, y = float(row[0]), float(row[1])
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ConfigError(
                    f"{path}: line {line_no}: non-numeric entry in {row[:2]}"
                ) from None
            times.append(t)
            values.append(y)
    if len(times) < 2:
        raise ConfigError(f"{path}: fewer than two data rows")
    return np.array(times), np.array(values)


def cmd_fit(args) -> int:
    cp, outdir = _setup(args)
    times, values = _read_trace_csv(args.trace)
    kind_name = _get(cp, "fit", "kind", str, "condensed_fraction").strip().lower()
    kinds = {k.value: k for k in fitting.TraceKind}
    if kind_name not in kinds:
        raise ConfigError(
            f"[fit] kind must be one of {', '.join(kinds)}, got '{kind_name}'"
        )
    threshold = _get(cp, "fit", "r2_threshold", float, 0.9)
    try:
        trace = fitting.DecayTrace(times, values, kinds[kind_name])
    except DomainError as exc:
        raise ConfigError(f"{args.trace}: {exc}") from exc
    result = fitting.fit_decay_rate(trace, r2_threshold=threshold)
    write_csv(
        outdir / "fit.csv",
        ["method", "amplitude", "rate_rad_s", "stderr_rad_s", "r_squared",
         "window_start_s", "window_end_s", "n_points", "warning"],
        [[result.method.value, result.amplitude, result.rate, result.stderr,
          result.r_squared, result.window[0], result.window[1],
          result.n_points, result.warning]],
    )
    return _finish(args, cp, outdir, "fit", ["fit.csv"])


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
                        help="override the ensemble master seed")
        sp.add_argument("--workers", type=_worker_count, default=1, metavar="N",
                        help="TWA ensembles: realization batches, one process each")
        if trace_arg:
            sp.add_argument("trace", help="input CSV with time,value columns")
        sp.set_defaults(func=func)
        return sp

    add("rates", cmd_rates, "closed-form instability rates for all trajectories")
    add("k0c", cmd_k0c, "runaway-heating threshold amplitude vs frequency")
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


def report_failure(prog: str, exc: ShakenBecError) -> int:
    """Print exc as one stderr line; return the exit code of its family:
    2 for configuration and parameter errors, 3 for numerical failures."""
    for family, label, code in _EXIT_CODES:
        if isinstance(exc, family):
            print(f"{prog}: {label}: {exc}", file=sys.stderr)
            return code
    raise exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ShakenBecError as exc:
        return report_failure("shakenbec", exc)


if __name__ == "__main__":
    sys.exit(main())
