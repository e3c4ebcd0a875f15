"""Release gate: every check a build must pass before results are trusted.

Each test prints one PASS line; a failing assert turns it into the
matching FAIL entry in the pytest report.  Tolerances are part of the
contract and must not be loosened without recording why.
"""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from shakenbec import (
    BandProblem,
    BdgRunConfig,
    DriveSpec,
    Envelope,
    EnsembleConfig,
    Grid,
    LatticeParams,
    Trajectory,
    TwaRunConfig,
    calibrate_g_from_cusp,
    critical_drive_amplitude,
    cusp_frequency,
    ensemble_run,
    evolve_modes,
    grid_instability_scan,
    hopping_from_depth,
    init_mode,
    most_unstable_mode,
)
from shakenbec.cli import main
from shakenbec.fitting import DecayTrace, TraceKind, bootstrap_rate, fit_exponential

TWO_PI = 2.0 * math.pi

# 87Rb in a 814 nm lattice, the calibration the defaults are tuned to
RB87_KG = 86.909180520 * 1.66053906660e-27
WAVELENGTH_M = 814e-9

REF = LatticeParams(j=TWO_PI * 50.0, g=TWO_PI * 700.0, n0=1.0, gamma0=1.0)


def wrap_dist(a: float, b: float) -> float:
    """Distance on the torus [-pi, pi)."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def ok(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS - {label}")


def test_01_cusp_values():
    lin = cusp_frequency(Trajectory.LINEAR_X, 1.25, REF)
    dia = cusp_frequency(Trajectory.DIAGONAL, 1.25, REF)
    lin_hz = lin.omega_c / TWO_PI
    dia_hz = dia.omega_c / TWO_PI
    assert abs(lin_hz - 444.5) < 1.0
    assert abs(dia_hz - 654.6) < 1.0
    assert abs(lin_hz - 444.0) / 444.0 < 0.01
    assert abs(dia_hz - 655.0) / 655.0 < 0.01
    ok(1, f"cusp frequencies {lin_hz:.1f} Hz (x) and {dia_hz:.1f} Hz (diagonal)")


def test_02_g_calibration_round_trip():
    g = calibrate_g_from_cusp(TWO_PI * 444.5, TWO_PI * 50.0, 1.25)
    assert abs(g - TWO_PI * 700.0) / (TWO_PI * 700.0) < 0.01
    ok(2, f"g from measured cusp: {g / TWO_PI:.1f} Hz vs 700 Hz")


def test_03_hopping_from_band_structure():
    problem = BandProblem.from_physical(11.0, WAVELENGTH_M, RB87_KG)
    j_hz = hopping_from_depth(problem)
    assert abs(j_hz - 50.0) / 50.0 < 0.15
    ok(3, f"J({problem.depth_er:g} recoils) = {j_hz:.2f} Hz vs 50 Hz")


def test_04_high_frequency_rate_formula():
    # mid-band drive frequencies between the cusp (8.29 J) and the
    # bandwidth (14.19 J) at the strongly interacting benchmark point
    p = LatticeParams(j=1.0, g=12.0, n0=1.0)
    cfg = BdgRunConfig(
        steps_per_period=512, n_cycles=24, grid=Grid(24, 24, 1), fit_window_cycles=8
    )
    ratios = []
    for om in (9.5, 11.0, 13.0):
        drive = DriveSpec(Trajectory.LINEAR_X, 1.25, om)
        target = most_unstable_mode(Trajectory.LINEAR_X, 1.25, om, p).big_gamma
        scan = grid_instability_scan(drive, p, cfg)
        ratio = scan.rate / target
        assert 0.85 < ratio < 1.15, f"omega={om}: ratio {ratio:.3f}"
        ratios.append(ratio)
    ok(4, "mode-resolved rates vs 8 J J2(K0) g / omega: ratios "
          + ", ".join(f"{r:.3f}" for r in ratios))


def test_05_most_unstable_mode_location():
    p = LatticeParams(j=1.0, g=12.0, n0=1.0)
    cfg = BdgRunConfig(
        steps_per_period=512, n_cycles=24, grid=Grid(24, 24, 1), fit_window_cycles=8
    )
    spacing = TWO_PI / 24

    def scan_at(traj):
        om = 1.01 * cusp_frequency(traj, 1.25, p).omega_c
        return grid_instability_scan(DriveSpec(traj, 1.25, om), p, cfg)

    res = scan_at(Trajectory.LINEAR_X)
    assert wrap_dist(res.q_max.qx, math.pi) <= spacing + 1e-12
    assert wrap_dist(res.q_max.qy, 0.0) <= spacing + 1e-12

    res = scan_at(Trajectory.DIAGONAL)
    assert wrap_dist(res.q_max.qx, math.pi) <= spacing + 1e-12
    assert wrap_dist(res.q_max.qy, math.pi) <= spacing + 1e-12

    res = scan_at(Trajectory.CIRCULAR)
    near_x = (
        wrap_dist(res.q_max.qx, math.pi) <= spacing + 1e-12
        and wrap_dist(res.q_max.qy, 0.0) <= spacing + 1e-12
    )
    near_y = (
        wrap_dist(res.q_max.qx, 0.0) <= spacing + 1e-12
        and wrap_dist(res.q_max.qy, math.pi) <= spacing + 1e-12
    )
    assert near_x or near_y
    ax = res.grid.qx_axis
    i_pi = int(np.argmin([wrap_dist(a, math.pi) for a in ax]))
    i_0 = int(np.argmin(np.abs(ax)))
    r1 = res.rates[i_pi, i_0, 0]
    r2 = res.rates[i_0, i_pi, 0]
    assert abs(r1 - r2) / max(r1, r2) < 0.01
    assert max(r1, r2) > 0.99 * res.rate
    ok(5, "scan maxima at (pi,0), (pi,pi), and the degenerate circular pair")


def test_06_exact_branch_ratios():
    k0 = 1.25
    om_hi = TWO_PI * 2000.0
    hi = {
        traj: most_unstable_mode(traj, k0, om_hi, REF).big_gamma - REF.gamma0
        for traj in Trajectory
    }
    assert hi[Trajectory.DIAGONAL] == pytest.approx(
        4.0 * hi[Trajectory.LINEAR_X], rel=1e-12
    )
    assert hi[Trajectory.CIRCULAR] == pytest.approx(
        2.0 * hi[Trajectory.LINEAR_X], rel=1e-12
    )

    om_lo = 0.5 * cusp_frequency(Trajectory.LINEAR_X, k0, REF).omega_c
    lo = [most_unstable_mode(t, k0, om_lo, REF).gamma for t in Trajectory]
    assert lo[0] == pytest.approx(lo[1], rel=1e-12)
    assert lo[0] == pytest.approx(lo[2], rel=1e-12)

    for traj in Trajectory:
        oc = cusp_frequency(traj, k0, REF).omega_c
        below = most_unstable_mode(traj, k0, oc * (1.0 - 1e-9), REF).gamma
        above = most_unstable_mode(traj, k0, oc * (1.0 + 1e-9), REF).gamma
        assert above == pytest.approx(below, rel=1e-6)
    ok(6, "4:2:1 high-frequency ratios, low-frequency degeneracy, cusp continuity")


def test_07_symplectic_invariant():
    p = LatticeParams(j=1.0, g=5.0, n0=1.0)
    # drive above the Bogoliubov bandwidth: every mode stays bounded, so
    # the absolute norm criterion is not masked by parametric growth
    drive = DriveSpec(Trajectory.LINEAR_X, 1.25, 20.0)
    cfg = BdgRunConfig(steps_per_period=256, n_cycles=100, fit_window_cycles=1)
    rng = np.random.default_rng(42)
    # 50 modes in the lattice plane, (qx, qy) drawn pair by pair
    q = np.vstack([rng.uniform(-math.pi, math.pi, (50, 2)).T, np.zeros(50)])
    batch = evolve_modes(q, *init_mode(q, p), drive, p, cfg)
    assert batch.norm_drift_abs < 1e-8
    ok(7, f"max |(|u|^2-|v|^2) - 1| = {batch.norm_drift_abs:.2e} over 50 modes")


def test_08_twa_conservation_and_growth():
    grid = Grid(16, 16, 8, lz=12.9)
    p = LatticeParams(j=1.0, g=12.0, n0=50.0, m_z=0.0712)
    k0, om = 2.1, 20.0

    # full ramped run: conservation and the saturation bend
    ramped = DriveSpec(
        Trajectory.LINEAR_X, k0, om, envelope=Envelope(ramp_up=2, hold=22)
    )
    [res] = ensemble_run(
        grid, (ramped,), p,
        TwaRunConfig(steps_per_period=128),
        EnsembleConfig(n_realizations=8, master_seed=3, bootstrap_resamples=50),
    )
    worst = 0.0
    for n_ex_raw, cf in zip(res.n_ex_raw, res.condensed_fraction):
        total = n_ex_raw * grid.volume / (1.0 - cf)
        worst = max(worst, float(np.abs(total - total[0]).max() / total[0]))
    assert worst < 1e-6

    inc = np.diff(res.n_ex_raw.mean(axis=0) - res.half_quantum)
    i = int(np.argmax(inc))
    assert 1 <= i <= inc.size - 2, "growth increments must rise then fall"
    assert inc[-1] < inc[i]

    # short-time growth against the mode-summed linear prediction, under
    # a constant drive so both engines see the same schedule
    flat = DriveSpec(Trajectory.LINEAR_X, k0, om)
    [twa] = ensemble_run(
        grid, (flat,), p,
        TwaRunConfig(steps_per_period=128, n_cycles=10),
        EnsembleConfig(n_realizations=12, master_seed=3, bootstrap_resamples=50),
    )
    bdg = grid_instability_scan(
        flat, p,
        BdgRunConfig(
            steps_per_period=1024, n_cycles=10, grid=Grid(16, 16, 8, lz=12.9),
            fit_window_cycles=4,
        ),
    )
    n_ex = twa.n_ex_raw.mean(axis=0) - twa.half_quantum
    sl_twa = np.polyfit(twa.times[3:10], np.log(n_ex[3:10]), 1)[0]
    sl_bdg = np.polyfit(bdg.times[3:10], np.log(bdg.occupation_sum[3:10]), 1)[0]
    assert abs(sl_twa - sl_bdg) / sl_bdg < 0.20
    ok(8, f"N drift {worst:.1e}, saturation bend at cycle {i + 1}, "
          f"growth {sl_twa:.3f} vs summed prediction {sl_bdg:.3f}")


def test_09_twa_g_scaling():
    grid = Grid(12, 12, 14, lz=TWO_PI / 0.24)
    drive = DriveSpec(Trajectory.LINEAR_X, 2.1, 20.0)
    cases = [(3.0, 56), (6.0, 28), (12.0, 16), (24.0, 9)]
    rates = []
    for g, n_cycles in cases:
        p = LatticeParams(j=1.0, g=g, n0=50.0, m_z=0.0712)
        [res] = ensemble_run(
            grid, (drive,), p,
            TwaRunConfig(steps_per_period=128, n_cycles=n_cycles),
            EnsembleConfig(n_realizations=10, master_seed=5, bootstrap_resamples=50),
        )
        n_ex = res.n_ex_raw.mean(axis=0) - res.half_quantum
        idx = np.flatnonzero((n_ex >= 0.4) & (n_ex <= 6.0))
        assert idx.size >= 3, f"g={g}: exponential window too short"
        rates.append(np.polyfit(res.times[idx], np.log(n_ex[idx]), 1)[0])
    gs = [c[0] for c in cases]
    slope = float(np.polyfit(np.log(gs), np.log(rates), 1)[0])
    assert 0.7 <= slope <= 1.3, f"log-log slope {slope:.3f}"
    ok(9, f"long-time rate vs g slope {slope:.2f} (linear, not quadratic)")


END_PHASE_CFG = """
[units]
frequency = rad_s

[lattice]
j = 1.0
g = 5.0
n0 = 100.0
gamma0 = 0.0

[drive]
trajectory = linear_x
k0 = 1.25
omega = 12.5
ramp_up = 2
hold = 6

[twa]
nx = 12
ny = 12
nz = 1
lz = 1.0
steps_per_period = 128
n_realizations = 6
master_seed = 4
bootstrap_resamples = 20

[endphase]
phases = 0, 1.5707963267948966
ramp_down = 3
post_hold_periods = 6
"""


def test_10_end_phase_ordering(tmp_path):
    cfg = tmp_path / "end.cfg"
    cfg.write_text(END_PHASE_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["endphase", "--config", str(cfg), "--out", str(out)]) == 0
    import csv

    with open(out / "endphase.csv", encoding="utf-8", newline="") as fh:
        rows = {
            (r["protocol"], r["end_phase_rad"]): float(r["n_ex_final"])
            for r in csv.DictReader(fh)
        }
    at_zero = rows[("abrupt", "0")]
    at_quarter = rows[("abrupt", "1.57079632679")]
    ramped = rows[("ramped", "")]
    assert at_zero > at_quarter
    assert ramped < at_quarter
    ok(10, f"stop at phase 0: {at_zero:.3f} > pi/2: {at_quarter:.3f} > "
           f"ramp-down: {ramped:.3f}")


def test_11_fit_calibration_and_coverage():
    t = np.linspace(0.0, 2.0, 25)
    clean = DecayTrace(times=t, values=2.0 * np.exp(-2.0 * t))
    fit = fit_exponential(clean)
    assert fit.rate == pytest.approx(2.0, rel=1e-10)
    assert fit.amplitude == pytest.approx(2.0, rel=1e-10)

    rng = np.random.default_rng(2026)
    n_hit = 0
    n_exp = 500
    for _ in range(n_exp):
        traces = []
        for _ in range(8):
            y = np.exp(-2.0 * t) * (1.0 + 0.05 * rng.standard_normal(t.size))
            traces.append(np.abs(y))
        bs = bootstrap_rate(
            t, np.stack(traces), TraceKind.CONDENSED_FRACTION, fit_exponential, n_resamples=100,
            seed=int(rng.integers(0, 2**31)),
        )
        if abs(bs.mean - 2.0) <= 2.0 * bs.std:
            n_hit += 1
    coverage = n_hit / n_exp
    assert coverage >= 0.90
    ok(11, f"noiseless fit exact; 2-sigma coverage {coverage:.3f} over {n_exp} runs")


def test_12_critical_amplitude_curve():
    g = TWO_PI * 700.0
    p = LatticeParams(j=1.0, g=g)
    omegas = np.geomspace(1.001 * g, 1e6 * g, 60)
    vals = [critical_drive_amplitude(om, p) for om in omegas]
    assert np.all(np.diff(vals) > 0.0)

    assert critical_drive_amplitude(1e9 * g, p) == pytest.approx(2.404826, abs=1e-5)

    for ratio in np.linspace(1e-6, 0.999, 25):
        oracle = scipy.optimize.brentq(
            lambda x: scipy.special.j0(x) - ratio, 0.0, 2.404825557, xtol=1e-13
        )
        assert abs(critical_drive_amplitude(g / ratio, p) - oracle) < 1e-8
    ok(12, "critical amplitude monotone, correct limit, matches series inverse")
