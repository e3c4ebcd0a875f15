"""Mode-resolved instability map over the Brillouin zone.

Integrates the linearized pair equations on a momentum grid at one
drive setting and writes the per-mode growth rates, plus where the
closed-form prediction puts the most unstable mode.
"""

import argparse
import pathlib
import sys
import time

from shakenbec import (
    BdgRunConfig,
    DriveSpec,
    Grid,
    LatticeParams,
    Trajectory,
    grid_instability_scan,
    most_unstable_mode,
)
from shakenbec.cli import report_failure
from shakenbec.errors import ShakenBecError
from shakenbec.output import write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--j", type=float, default=1.0, help="hopping (rad/s)")
    ap.add_argument("--g", type=float, default=12.0, help="interaction (rad/s)")
    ap.add_argument("--k0", type=float, default=1.25)
    ap.add_argument("--omega", type=float, default=11.0, help="drive (rad/s)")
    ap.add_argument("--trajectory", default="linear_x",
                    choices=[t.value for t in Trajectory])
    ap.add_argument("--n", type=int, default=24, help="grid points per axis")
    ap.add_argument("--steps-per-period", type=int, default=512)
    ap.add_argument("--n-cycles", type=int, default=24)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()

    traj = Trajectory(args.trajectory)
    p = LatticeParams(j=args.j, g=args.g, n0=1.0)
    drive = DriveSpec(traj, args.k0, args.omega)
    cfg = BdgRunConfig(
        steps_per_period=args.steps_per_period,
        n_cycles=args.n_cycles,
        grid=Grid(args.n, args.n, 1),
        fit_window_cycles=max(2, args.n_cycles // 3),
    )

    t0 = time.time()
    scan = grid_instability_scan(drive, p, cfg)
    print(f"scan of {args.n}x{args.n} modes in {time.time() - t0:.1f}s "
          f"(norm drift {scan.norm_drift:.1e})")

    ana = most_unstable_mode(traj, args.k0, args.omega, p)
    print(f"fastest mode  ({scan.q_max.qx:+.3f}, {scan.q_max.qy:+.3f}) "
          f"rate {scan.rate:.4f}")
    print(f"prediction    ({ana.q_mum[0].qx:+.3f}, {ana.q_mum[0].qy:+.3f}) "
          f"rate {2.0 * ana.gamma:.4f}")

    rows = []
    grid = scan.grid
    for ix, qx in enumerate(grid.qx_axis):
        for iy, qy in enumerate(grid.qy_axis):
            rows.append([qx, qy, scan.rates[ix, iy, 0]])
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "bdg_rate_map.csv"
    write_csv(path, ["qx", "qy", "rate_rad_s"], rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    try:
        main()
    except ShakenBecError as exc:
        sys.exit(report_failure("bdg_rate_map", exc))
