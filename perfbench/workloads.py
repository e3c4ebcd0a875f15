"""The four benchmark workloads: CLI arguments, sizes and output checks.

Each workload is one `shakenbec` CLI invocation on a config file kept in
perfbench/workloads/.  Its size is stated here, derived from that file,
so throughput needs nothing from the program but its exit; the traced
run's computed counts (bdg.mode_steps, twa.site_steps) must agree with
these sizes, which the benchmark's self-tests check.  README.md in this
directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

from gate import Column, CsvSpec

# Seed the reference outputs were recorded with.  Workloads whose output
# does not depend on the seed are checked against them at every seed.
REFERENCE_SEED = 1

# Tolerances, (relative, absolute).  ENGINE admits rounding-level
# changes in the engines: reassociating the Strang step's kinetic phase
# product moved twa traces by at most 5e-12 relative, reordering the
# RK4 sum left bdg rates unchanged at 12 digits, and the mode-integrator
# prototype of ROADMAP item 2 matched occupations to 1.1e-9.
# CLOSED_FORM admits a special-function rewrite within bessel_j's
# documented 1e-10 accuracy.  A wrong rate or trace moves far more.
CLOSED_FORM = (1e-8, 1e-10)
ENGINE = (1e-7, 1e-10)
EXACT = (1e-12, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments, without --out/--seed
    workers: int
    outputs: tuple[CsvSpec, ...]
    ops_per_run: int  # scan points, endphase protocols, or 1 for a run
    work_per_run: int  # unit of work named by work_unit
    work_unit: str
    seed_sensitive: bool  # does the program's output depend on --seed?


RATES_POINTS = 6000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bdg-scan",
            argv=("bdg", "--preset", "paper-11er",
                  "--config", "perfbench/workloads/bdg-scan.cfg"),
            workers=2,
            outputs=(
                CsvSpec("bdg.csv", rows_per_op=1, columns=(
                    Column("trajectory", "text"),
                    Column("k0", "num", EXACT),
                    Column("omega_rad_s", "num", EXACT),
                    Column("omega_hz", "num", EXACT),
                    Column("extracted_rate_rad_s", "num", ENGINE),
                    Column("analytic_rate_rad_s", "num", CLOSED_FORM),
                    # |q|: the fastest mode of a (q, -q) pair is picked
                    # by a rate tie that rounding may break either way
                    Column("qx_max", "absnum", ENGINE),
                    Column("qy_max", "absnum", ENGINE),
                    Column("qz_max", "absnum", ENGINE),
                    Column("norm_drift", "drift"),
                    Column("status", "ok"),
                )),
            ),
            ops_per_run=4,
            # 4 points x (24 x 24 - 1) modes x 512 steps x 32 cycles
            work_per_run=4 * 575 * 512 * 32,
            work_unit="mode-steps",
            seed_sensitive=False,
        ),
        Workload(
            name="twa-3d",
            argv=("twa", "--config", "perfbench/workloads/twa-3d.cfg"),
            workers=2,
            outputs=(
                CsvSpec("twa_trace.csv", rows_per_op=0, band_check=True, columns=(
                    Column("time_s", "num", EXACT),
                    Column("cycle", "text"),
                    Column("n_ex_raw", "num", ENGINE),
                    Column("n_ex", "num", ENGINE),
                    Column("band_lo", "num", ENGINE),
                    Column("band_hi", "num", ENGINE),
                    Column("condensed_fraction", "num", ENGINE),
                )),
                CsvSpec("twa_rates.csv", rows_per_op=0, columns=(
                    Column("window", "text"),
                    Column("method", "text"),
                    Column("rate_rad_s", "num", ENGINE),
                    Column("rate_err_rad_s", "num", ENGINE),
                    Column("window_start_s", "num", EXACT),
                    Column("window_end_s", "num", EXACT),
                    Column("n_points", "text"),
                    Column("warning", "text", optional=True),
                )),
            ),
            ops_per_run=1,
            # 16 x 16 x 8 sites x 128 steps x 10 cycles x 12 realizations
            work_per_run=2048 * 128 * 10 * 12,
            work_unit="site-steps",
            seed_sensitive=True,
        ),
        Workload(
            name="endphase-2d",
            argv=("endphase", "--config", "perfbench/workloads/endphase-2d.cfg"),
            workers=1,
            outputs=(
                CsvSpec("endphase.csv", rows_per_op=1, columns=(
                    Column("protocol", "text"),
                    Column("end_phase_rad", "num", EXACT, optional=True),
                    Column("n_ex_at_stop", "num", ENGINE),
                    Column("n_ex_final", "num", ENGINE),
                )),
            ),
            ops_per_run=3,
            # 3 protocols x 144 sites x 128 steps x 15 cycles x 6
            # realizations; abrupt: 2 + 6 + 1 periods + 6 post-hold,
            # ramped: 2 + 6 + 3 periods + (6 + 1 - 3) post-hold
            work_per_run=3 * 144 * 128 * 15 * 6,
            work_unit="site-steps",
            seed_sensitive=True,
        ),
        Workload(
            name="rates-scan",
            argv=("rates", "--config", "perfbench/workloads/rates-scan.cfg"),
            workers=1,
            outputs=(
                CsvSpec("rates.csv", rows_per_op=3, columns=(
                    Column("trajectory", "text"),
                    Column("k0", "num", EXACT),
                    Column("omega_rad_s", "num", EXACT),
                    Column("omega_hz", "num", EXACT),
                    Column("regime", "text"),
                    Column("qx_mum", "num", CLOSED_FORM),
                    Column("qy_mum", "num", CLOSED_FORM),
                    Column("n_pairs", "text"),
                    Column("gamma_rad_s", "num", CLOSED_FORM),
                    Column("big_gamma_rad_s", "num", CLOSED_FORM),
                    Column("omega_c_rad_s", "num", CLOSED_FORM),
                    Column("omega_c_hz", "num", CLOSED_FORM),
                    Column("bandwidth_rad_s", "num", CLOSED_FORM),
                    Column("cusp_at_bandwidth", "text"),
                    # empty below omega = g, where no threshold exists
                    Column("k0_critical", "num", CLOSED_FORM, optional=True),
                    Column("inverted_band", "text"),
                )),
            ),
            ops_per_run=RATES_POINTS,
            work_per_run=RATES_POINTS,
            work_unit="points",
            seed_sensitive=False,
        ),
    )
}
