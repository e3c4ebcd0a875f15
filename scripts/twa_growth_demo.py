"""Stochastic heating curve at the transverse-resonant benchmark.

Runs a truncated-Wigner ensemble on a lattice with a continuous
transverse direction, prints the excited-density trace with bootstrap
bands, and fits the early exponential stage against the mode-summed
linear prediction.
"""

import argparse
import pathlib
import sys
import time

import numpy as np

from shakenbec import (
    BdgRunConfig,
    DriveSpec,
    Envelope,
    EnsembleConfig,
    Grid,
    LatticeParams,
    Trajectory,
    TwaRunConfig,
    ensemble_run,
    grid_instability_scan,
)
from shakenbec.cli import report_failure
from shakenbec.errors import ShakenBecError
from shakenbec.output import write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--g", type=float, default=12.0)
    ap.add_argument("--k0", type=float, default=2.1)
    ap.add_argument("--omega", type=float, default=20.0)
    ap.add_argument("--n0", type=float, default=50.0)
    ap.add_argument("--nx", type=int, default=16)
    ap.add_argument("--nz", type=int, default=8)
    ap.add_argument("--lz", type=float, default=12.9)
    ap.add_argument("--m-z", type=float, default=0.0712)
    ap.add_argument("--hold", type=int, default=22)
    ap.add_argument("--realizations", type=int, default=8)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--skip-linear-check", action="store_true")
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()

    grid = Grid(args.nx, args.nx, args.nz, lz=args.lz)
    p = LatticeParams(j=1.0, g=args.g, n0=args.n0, m_z=args.m_z)
    drive = DriveSpec(
        Trajectory.LINEAR_X, args.k0, args.omega,
        envelope=Envelope(ramp_up=2, hold=args.hold),
    )

    t0 = time.time()
    res = ensemble_run(
        grid, drive, p,
        TwaRunConfig(steps_per_period=128),
        EnsembleConfig(n_realizations=args.realizations, master_seed=args.seed),
        workers=args.workers,
    )
    print(f"{args.realizations} realizations in {time.time() - t0:.1f}s")
    for c in range(0, res.times.size, max(1, res.times.size // 12)):
        print(f"  cycle {c:3d}: n_ex {res.n_ex[c]:9.4f} "
              f"[{res.band_lo[c]:.4f}, {res.band_hi[c]:.4f}] "
              f"cf {res.condensed_fraction[c]:.4f}")

    if not args.skip_linear_check:
        flat = DriveSpec(Trajectory.LINEAR_X, args.k0, args.omega)
        scan = grid_instability_scan(
            flat, p,
            BdgRunConfig(
                steps_per_period=1024, n_cycles=10,
                grid=grid,
                fit_window_cycles=4,
            ),
        )
        sl = np.polyfit(scan.times[3:10], np.log(scan.occupation_sum[3:10]), 1)[0]
        print(f"mode-summed linear growth over cycles 3-9: {sl:.4f} rad/s")

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "twa_growth.csv"
    rows = [
        [float(res.times[c]), res.n_ex_raw[c], res.n_ex[c],
         res.band_lo[c], res.band_hi[c], res.condensed_fraction[c]]
        for c in range(res.times.size)
    ]
    write_csv(
        path,
        ["time_s", "n_ex_raw", "n_ex", "band_lo", "band_hi", "condensed_fraction"],
        rows,
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    try:
        main()
    except ShakenBecError as exc:
        sys.exit(report_failure("twa_growth_demo", exc))
