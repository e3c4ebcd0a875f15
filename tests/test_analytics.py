"""Closed-form rates, cusps and thresholds against brute-force oracles.

The most-unstable-mode formulas are checked against a direct numpy
maximization of the single-mode growth rate over the on-shell momentum
set, implemented here from scratch (scipy Bessel functions, no package
internals) so the two computations share no code.
"""

import math
import re

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import shakenbec.analytics as an
from shakenbec.errors import (
    CalibrationError,
    DomainError,
    InvertedBandError,
    NoCriticalAmplitudeError,
)
from shakenbec.model import LatticeParams, Momentum, Regime, Trajectory
from shakenbec.specialmath import bessel_j, j0_first_zero

TWO_PI = 2.0 * math.pi

# frozen for the published lattice point J = 2 pi 50 Hz, g = 2 pi 700 Hz,
# K0 = 1.25, gamma0 = 1/s (values pinned from the formulas at double
# precision, cross-checked below against the independent shell oracle)
REF = LatticeParams(j=TWO_PI * 50.0, g=TWO_PI * 700.0, n0=1.0, gamma0=1.0)
REF_K0 = 1.25
REF_CUSP_LIN = 2792.601916610551  # rad/s  (444.45639911647 Hz)
REF_CUSP_DIAG = 4112.768625245993  # rad/s  (654.5674565011586 Hz)
REF_BANDWIDTH_LIN = 4740.429000781905  # rad/s
REF_Q_LOW = 1.5241271263987195  # at omega = 2 pi 300 Hz
REF_GAMMA_LOW = 239.13078653310887  # rad/s
REF_BIG_GAMMA_LOW = 479.26157306621775  # rad/s, includes gamma0


def lat(j=1.0, g=2.0, gamma0=0.0):
    return LatticeParams(j=j, g=g, gamma0=gamma0)


# ------------------------------------------------------------ frozen values


def test_frozen_cusps():
    lin = an.cusp_frequency(Trajectory.LINEAR_X, REF_K0, REF)
    dia = an.cusp_frequency(Trajectory.DIAGONAL, REF_K0, REF)
    cir = an.cusp_frequency(Trajectory.CIRCULAR, REF_K0, REF)
    assert lin.omega_c == pytest.approx(REF_CUSP_LIN, rel=1e-12)
    assert dia.omega_c == pytest.approx(REF_CUSP_DIAG, rel=1e-12)
    assert cir.omega_c == pytest.approx(REF_CUSP_LIN, rel=1e-12)
    assert lin.bandwidth == pytest.approx(REF_BANDWIDTH_LIN, rel=1e-12)
    assert dia.bandwidth == pytest.approx(dia.omega_c, rel=1e-12)
    assert cir.bandwidth == pytest.approx(REF_CUSP_DIAG, rel=1e-12)
    assert dia.equals_bandwidth
    assert not lin.equals_bandwidth
    assert not cir.equals_bandwidth


def test_frozen_low_frequency_point():
    res = an.most_unstable_mode(
        Trajectory.LINEAR_X, REF_K0, TWO_PI * 300.0, REF
    )
    assert res.regime is Regime.LOW_FREQ
    assert res.q_mum[0].qx == pytest.approx(REF_Q_LOW, rel=1e-12)
    assert res.q_mum[0].qy == 0.0
    assert res.gamma == pytest.approx(REF_GAMMA_LOW, rel=1e-12)
    assert res.big_gamma == pytest.approx(REF_BIG_GAMMA_LOW, rel=1e-12)


def test_frozen_high_frequency_point():
    omega = TWO_PI * 3000.0
    res = an.most_unstable_mode(Trajectory.LINEAR_X, REF_K0, omega, REF)
    assert res.regime is Regime.HIGH_FREQ
    assert res.q_mum == (Momentum(math.pi, 0.0),)
    want = 4.0 * REF.j * abs(bessel_j(2, REF_K0)) * REF.g / omega
    assert res.gamma == pytest.approx(want, rel=1e-12)
    assert res.big_gamma == pytest.approx(2.0 * want + 1.0, rel=1e-12)


# --------------------------------------------------------------- structure


def test_cusp_never_exceeds_bandwidth():
    rng = np.random.default_rng(2)
    for _ in range(60):
        p = lat(j=float(rng.uniform(0.2, 3.0)), g=float(rng.uniform(0.0, 30.0)))
        k0 = float(rng.uniform(0.0, 2.35))
        for traj in Trajectory:
            c = an.cusp_frequency(traj, k0, p)
            assert c.omega_c <= c.bandwidth + 1e-10
            assert c.equals_bandwidth == (traj is Trajectory.DIAGONAL)


def test_high_frequency_trajectory_ratios():
    p = lat(j=1.0, g=6.0, gamma0=0.3)
    omega = 40.0  # above every cusp
    rates = {
        traj: an.most_unstable_mode(traj, 1.1, omega, p) for traj in Trajectory
    }
    for r in rates.values():
        assert r.regime is Regime.HIGH_FREQ
    g0 = p.gamma0
    lin = rates[Trajectory.LINEAR_X].big_gamma - g0
    dia = rates[Trajectory.DIAGONAL].big_gamma - g0
    cir = rates[Trajectory.CIRCULAR].big_gamma - g0
    assert dia == pytest.approx(4.0 * lin, rel=1e-14)
    assert cir == pytest.approx(2.0 * lin, rel=1e-14)
    # mode multiplicities behind the ratios
    assert len(rates[Trajectory.LINEAR_X].q_mum) == 1
    assert len(rates[Trajectory.DIAGONAL].q_mum) == 2
    assert len(rates[Trajectory.CIRCULAR].q_mum) == 2


def test_low_frequency_single_mode_degeneracy():
    p = lat(j=1.0, g=6.0)
    omega = 2.0  # below every cusp
    gammas = [
        an.most_unstable_mode(traj, 1.1, omega, p) for traj in Trajectory
    ]
    for r in gammas:
        assert r.regime is Regime.LOW_FREQ
    assert gammas[0].gamma == gammas[1].gamma == gammas[2].gamma


def test_branches_continuous_at_cusp():
    p = lat(j=1.3, g=7.0, gamma0=0.2)
    for traj in Trajectory:
        wc = an.cusp_frequency(traj, 0.9, p).omega_c
        below = an.most_unstable_mode(traj, 0.9, wc * (1.0 - 1e-9), p)
        above = an.most_unstable_mode(traj, 0.9, wc * (1.0 + 1e-9), p)
        assert below.regime is Regime.LOW_FREQ
        assert above.regime is Regime.HIGH_FREQ
        assert below.gamma == pytest.approx(above.gamma, rel=1e-6)
        # at the cusp the resonant momentum reaches the band corner
        assert abs(below.q_mum[0].qx) == pytest.approx(math.pi, rel=1e-4)


def test_high_frequency_rate_linear_in_gj_over_omega():
    k0, omega = 1.0, 60.0
    base = lat(j=1.0, g=4.0, gamma0=0.7)
    doubled_g = lat(j=1.0, g=8.0, gamma0=0.7)
    doubled_j = lat(j=2.0, g=4.0, gamma0=0.7)
    for traj in Trajectory:
        r0 = an.most_unstable_mode(traj, k0, omega, base)
        rg = an.most_unstable_mode(traj, k0, omega, doubled_g)
        rj = an.most_unstable_mode(traj, k0, omega, doubled_j)
        r2w = an.most_unstable_mode(traj, k0, 2.0 * omega, base)
        assert rg.big_gamma - 0.7 == pytest.approx(2.0 * (r0.big_gamma - 0.7),
                                                   rel=1e-14)
        assert rj.big_gamma - 0.7 == pytest.approx(2.0 * (r0.big_gamma - 0.7),
                                                   rel=1e-14)
        assert r2w.big_gamma - 0.7 == pytest.approx(0.5 * (r0.big_gamma - 0.7),
                                                    rel=1e-14)


def test_rate_cusp_shape_in_omega():
    p = lat(j=1.0, g=8.0, gamma0=0.0)
    k0 = 1.25
    wc = an.cusp_frequency(Trajectory.LINEAR_X, k0, p).omega_c
    low = np.linspace(0.1 * wc, 0.999 * wc, 25)
    rates = [
        an.most_unstable_mode(Trajectory.LINEAR_X, k0, float(w), p).big_gamma
        for w in low
    ]
    assert all(b > a for a, b in zip(rates, rates[1:]))  # rising below the cusp
    for w in (1.2 * wc, 2.0 * wc, 5.0 * wc):
        r = an.most_unstable_mode(Trajectory.LINEAR_X, k0, float(w), p)
        r0 = an.most_unstable_mode(Trajectory.LINEAR_X, k0, 1.1 * wc, p)
        assert r.big_gamma * w == pytest.approx(r0.big_gamma * 1.1 * wc, rel=1e-12)


# ----------------------------------------------- brute-force shell argmax


def _pair_terms(traj, k0, p, sx2, sy2):
    """(eps_eff, c_1) elementwise at sx2 = sin^2(qx/2), sy2 = sin^2(qy/2).

    eps_eff is the period-averaged dispersion and c_1 the weight of
    cos(2 omega t) in the momentum-even part of eps(q, t); on its l = 1
    resonance E(q) = omega the pair grows at |c_1| sinh(2 theta) / 2 =
    |c_1| g / (2 omega).  Built only from scipy Bessel functions.
    """
    b0 = scipy.special.j0(k0)
    b2 = scipy.special.jn(2, k0)
    if traj is Trajectory.LINEAR_X:
        return 4.0 * p.j * (b0 * sx2 + sy2), 8.0 * p.j * b2 * sx2
    # both 2d drives renormalize x and y alike; the circular y component
    # is cosine-phased, which flips the sign of its first harmonic
    sign = 1.0 if traj is Trajectory.DIAGONAL else -1.0
    return 4.0 * p.j * b0 * (sx2 + sy2), 8.0 * p.j * b2 * (sx2 + sign * sy2)


def _mode_rate(q, traj, k0, p):
    """(rate, E): the pair rate |c_1| g / (2 E) at momentum q, tuned to its
    own l = 1 resonance, and its Bogoliubov energy E."""
    sx2, sy2 = math.sin(0.5 * q.qx) ** 2, math.sin(0.5 * q.qy) ** 2
    eps, c1 = _pair_terms(traj, k0, p, sx2, sy2)
    energy = math.sqrt(eps * (eps + 2.0 * p.g))
    return 0.5 * abs(c1) * p.g / energy, energy


def test_low_frequency_gamma_matches_mode_rate_at_qmum():
    # the closed form equals the per-mode rate evaluated at its own momentum
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = lat(j=float(rng.uniform(0.5, 2.0)), g=float(rng.uniform(1.0, 15.0)))
        k0 = float(rng.uniform(0.2, 2.0))
        traj = list(Trajectory)[rng.integers(3)]
        wc = an.cusp_frequency(traj, k0, p).omega_c
        omega = float(rng.uniform(0.3, 0.95)) * wc
        res = an.most_unstable_mode(traj, k0, omega, p)
        s, _ = _mode_rate(res.q_mum[0], traj, k0, p)
        assert s == pytest.approx(res.gamma, rel=1e-10)


def _shell_argmax(traj, k0, omega, p, n=200001):
    """Maximize the pair growth rate over the exact resonance shell.

    Walks the shell E_eff(q) = omega parametrized by qx: the on-shell
    condition fixes sin^2(qy/2) at every qx, so the scan covers the
    whole curve without any off-shell leakage.  Built only from scipy
    Bessel functions and the defining dispersion formulas.
    """
    b0 = scipy.special.j0(k0)
    eps_res = math.sqrt(p.g**2 + omega**2) - p.g
    qx = np.linspace(0.0, math.pi, n)
    sx2 = np.sin(0.5 * qx) ** 2
    if traj is Trajectory.LINEAR_X:
        sy2 = eps_res / (4.0 * p.j) - b0 * sx2
    else:
        sy2 = eps_res / (4.0 * p.j * b0) - sx2
    _, c1 = _pair_terms(traj, k0, p, sx2, sy2)
    feasible = (sy2 >= 0.0) & (sy2 <= 1.0)
    assert feasible.any()
    s = np.where(feasible, 0.5 * np.abs(c1) * p.g / omega, -1.0)
    i = int(np.argmax(s))
    qy = 2.0 * math.asin(math.sqrt(min(max(float(sy2[i]), 0.0), 1.0)))
    return float(qx[i]), qy, float(s[i])


def test_most_unstable_mode_against_shell_scan():
    rng = np.random.default_rng(17)
    spacing = math.pi / 200000.0
    for _ in range(20):
        p = lat(j=float(rng.uniform(0.5, 2.0)), g=float(rng.uniform(0.5, 20.0)))
        k0 = float(rng.uniform(0.2, 2.2))
        traj = list(Trajectory)[rng.integers(3)]
        wc = an.cusp_frequency(traj, k0, p).omega_c
        omega = float(rng.uniform(0.25, 0.90)) * wc
        res = an.most_unstable_mode(traj, k0, omega, p)
        qx, qy, s_max = _shell_argmax(traj, k0, omega, p)
        assert s_max == pytest.approx(res.gamma, rel=1e-3)
        want = res.q_mum[0]
        # the representative must itself sit exactly on the shell
        assert _mode_rate(want, traj, k0, p)[1] == pytest.approx(omega, rel=1e-9)
        if traj is not Trajectory.DIAGONAL:
            # location is sharp for linear and circular; the diagonal
            # shell is rate-degenerate so any point maximizes.  The shell
            # is tangent to the axis at the maximum, so the minor
            # component only resolves to ~sqrt(grid step)
            got = sorted((abs(qx), abs(qy)))
            ref = sorted((abs(want.qx), abs(want.qy)))
            assert got[0] == pytest.approx(ref[0], abs=1e-2)
            assert got[1] == pytest.approx(ref[1], abs=4 * spacing)


# ---------------------------------------------------------- domain guards


def test_most_unstable_mode_guards():
    p = lat()
    zero = j0_first_zero()
    an.most_unstable_mode(Trajectory.LINEAR_X, 1.0, 1.0, p)  # a valid point first
    for bad in (zero, zero + 0.2, 2.404826):
        with pytest.raises(InvertedBandError):
            an.most_unstable_mode(Trajectory.LINEAR_X, bad, 1.0, p)
    # a k0 that DriveSpec rejects is a bad input, not an inverted band
    for bad, message in ((-0.1, "drive amplitude must be >= 0, got -0.1"),
                         (math.nan, "k0 must be finite, got nan"),
                         (math.inf, "k0 must be finite, got inf")):
        with pytest.raises(DomainError, match=re.escape(message)) as err:
            an.most_unstable_mode(Trajectory.LINEAR_X, bad, 1.0, p)
        assert not isinstance(err.value, InvertedBandError)
    with pytest.raises(DomainError):
        an.most_unstable_mode(Trajectory.LINEAR_X, 1.0, 0.0, p)
    with pytest.raises(InvertedBandError):
        an.cusp_frequency(Trajectory.DIAGONAL, zero + 0.1, p)


@pytest.mark.parametrize("k0", [6.0, 7.5, 12.0])
def test_later_positive_lobes_of_j0_are_inverted_everywhere(k0):
    # J0(k0) > 0 again past its second zero, but the closed forms hold
    # only below the first: every entry point rejects these k0 alike
    p = LatticeParams(j=1.0, g=5.0)
    assert scipy.special.j0(k0) > 0.0
    for traj in Trajectory:
        with pytest.raises(InvertedBandError):
            an.cusp_frequency(traj, k0, p)
        with pytest.raises(InvertedBandError):
            an.most_unstable_mode(traj, k0, 3.0, p)
        m = an.ClosedFormScan(np.array([1.0, 3.0, 30.0]), p, k0).modes(traj)
        assert m.inverted.all() and np.isnan(m.omega_c).all()
    with pytest.raises(CalibrationError, match="effective hopping"):
        an.calibrate_g_from_cusp(2.5276, 1.0, k0)


# ------------------------------------------------------- cusp in results


def test_instability_result_carries_the_cusp():
    for traj in Trajectory:
        for omega in (0.5, 40.0):  # both regimes
            res = an.most_unstable_mode(traj, 1.1, omega, lat())
            assert res.cusp == an.cusp_frequency(traj, 1.1, lat())


def test_instability_cusp_keys_on_lattice():
    weak, strong = lat(g=1.0), lat(g=3.0)  # differ only in g
    res_weak = an.most_unstable_mode(Trajectory.LINEAR_X, 1.1, 40.0, weak)
    res_strong = an.most_unstable_mode(Trajectory.LINEAR_X, 1.1, 40.0, strong)
    assert res_weak.cusp != res_strong.cusp
    assert res_weak.cusp == an.cusp_frequency(Trajectory.LINEAR_X, 1.1, weak)
    assert res_strong.cusp == an.cusp_frequency(Trajectory.LINEAR_X, 1.1, strong)
    want = 4.0 * weak.j * abs(bessel_j(2, 1.1)) * weak.g / 40.0
    assert res_weak.gamma == want


# ------------------------------------------------------ heating threshold


def test_critical_amplitude_monotone_and_asymptote():
    p = lat(j=1.0, g=1.0)
    omegas = np.linspace(1.2, 400.0, 60)
    k0cs = [an.critical_drive_amplitude(float(w), p) for w in omegas]
    assert all(b > a for a, b in zip(k0cs, k0cs[1:]))
    assert k0cs[-1] < j0_first_zero()
    assert an.critical_drive_amplitude(1e9, p) == pytest.approx(
        j0_first_zero(), abs=1e-4
    )
    assert an.critical_drive_amplitude(5.0, lat(g=0.0)) == j0_first_zero()


def test_critical_amplitude_against_root_finder():
    p = lat(j=1.0, g=1.0)
    for ratio in np.linspace(0.02, 0.98, 25):
        omega = p.g / float(ratio)
        ref = scipy.optimize.brentq(
            lambda x: scipy.special.j0(x) - ratio, 0.0, j0_first_zero(),
            xtol=1e-14,
        )
        assert an.critical_drive_amplitude(omega, p) == pytest.approx(ref,
                                                                      abs=1e-8)


def test_critical_amplitude_no_solution():
    p = lat(j=1.0, g=3.0)
    with pytest.raises(NoCriticalAmplitudeError):
        an.critical_drive_amplitude(2.9, p)
    with pytest.raises(DomainError):
        an.critical_drive_amplitude(0.0, p)
    # boundary g = omega has the solution at the zero of J0... ratio 1 -> 0
    assert an.critical_drive_amplitude(3.0, p) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------- calibration


@given(
    j=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
    k0=st.floats(min_value=0.0, max_value=2.3, allow_nan=False),
    g=st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_interaction_from_cusp_roundtrip(j, k0, g):
    # calibrate_g_from_cusp inverts the linear-drive cusp frequency
    corner = 4.0 * (j * bessel_j(0, k0))
    omega_c = math.sqrt(corner * (corner + 2.0 * g))
    assert an.calibrate_g_from_cusp(omega_c, j, k0) == pytest.approx(
        g, rel=1e-9, abs=1e-12
    )


def test_interaction_from_cusp_guards():
    with pytest.raises(CalibrationError, match="effective hopping"):
        an.calibrate_g_from_cusp(1.0, 1.0, 3.0)  # past the first zero of J0
    with pytest.raises(CalibrationError, match="band corner"):
        an.calibrate_g_from_cusp(3.9, 1.0, 0.0)  # below the non-interacting corner
    for bad in (math.nan, math.inf):  # no g to return, not a nan or inf one
        with pytest.raises(CalibrationError, match="must be finite"):
            an.calibrate_g_from_cusp(bad, 1.0, 1.0)
        with pytest.raises(DomainError, match="hopping must be positive and finite"):
            an.calibrate_g_from_cusp(20.0, bad, 1.0)


# ------------------------------------------------------- array evaluation
#
# _loop_mode is the scalar formula chain the array code replaced: Python
# floats and libm (math.asin, float **), so every element of a scan must
# match it bit for bit.


def _loop_mode(traj, k0, omega, p):
    b0, b2 = bessel_j(0, k0), abs(bessel_j(2, k0))
    cusp = an.cusp_frequency(traj, k0, p)
    c = 8.0 if traj is Trajectory.DIAGONAL else 4.0
    if omega >= cusp.omega_c:
        gamma = c * p.j * b2 * p.g / omega
        qx = math.pi
    else:
        eps_res = math.sqrt(p.g**2 + omega**2) - p.g
        qx = 2.0 * math.asin(min(math.sqrt(eps_res / (c * p.j * b0)), 1.0))
        gamma = eps_res * (b2 / b0) * (p.g / omega)
    qy = qx if traj is Trajectory.DIAGONAL else 0.0
    n_pairs = 1 if traj is Trajectory.LINEAR_X else 2
    return (omega >= cusp.omega_c, qx, qy, gamma, 2.0 * gamma * n_pairs + p.gamma0,
            cusp.omega_c, cusp.bandwidth, cusp.equals_bandwidth)


FIELDS = ("high_freq", "qx", "qy", "gamma", "big_gamma", "omega_c", "bandwidth",
          "cusp_at_bandwidth")


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("traj", list(Trajectory))
def test_omega_scan_bit_identical_to_scalar_formulas(traj):
    omegas = np.geomspace(0.5 * REF.g / 7.0, 40.0 * REF.g, 600)
    scan = an.ClosedFormScan(omegas, REF, REF_K0).modes(traj)
    assert scan.n_pairs == (1 if traj is Trajectory.LINEAR_X else 2)
    assert not scan.inverted.any()
    assert scan.high_freq.any() and not scan.high_freq.all()  # crosses the cusp
    want = np.array([_loop_mode(traj, REF_K0, float(w), REF) for w in omegas])
    for i, name in enumerate(FIELDS):
        assert np.array_equal(_bits(getattr(scan, name)), _bits(want[:, i])), name


def test_k0_scan_marks_the_inverted_band():
    zero = j0_first_zero()
    k0s = np.concatenate([np.linspace(0.0, 2.4, 97), [zero, 2.5, 10.0, 50.0, 60.0]])
    omega = TWO_PI * 500.0
    for traj in Trajectory:
        scan = an.ClosedFormScan(omega, REF, k0s).modes(traj)
        ok = k0s < zero
        assert np.array_equal(scan.inverted, ~ok)
        for name in FIELDS:
            values = getattr(scan, name)
            if values.dtype == bool:
                assert not values[~ok].any()
            else:
                assert np.isnan(values[~ok]).all()
        want = np.array([_loop_mode(traj, float(k), omega, REF) for k in k0s[ok]])
        for i, name in enumerate(FIELDS):
            assert np.array_equal(_bits(getattr(scan, name)[ok]), _bits(want[:, i]))


def test_scan_broadcasts_and_one_point_matches():
    k0s = np.linspace(0.1, 2.3, 7)[:, None]
    omegas = np.geomspace(1.0, 300.0, 11)
    p = lat(j=1.0, g=8.0, gamma0=0.25)
    table = an.ClosedFormScan(omegas, p, k0s)
    assert table.k0_critical.shape == omegas.shape
    for traj in Trajectory:
        scan = table.modes(traj)
        assert scan.gamma.shape == (7, 11)
        for (i, j) in [(0, 0), (3, 5), (6, 10), (2, 9)]:
            res = an.most_unstable_mode(traj, float(k0s[i, 0]), float(omegas[j]), p)
            assert res.gamma == scan.gamma[i, j]
            assert res.big_gamma == scan.big_gamma[i, j]
            assert res.q_mum[0] == Momentum(scan.qx[i, j], scan.qy[i, j])
            assert res.regime is (Regime.HIGH_FREQ if scan.high_freq[i, j]
                                  else Regime.LOW_FREQ)


def test_scan_threshold_matches_one_point_calls():
    p = lat(j=1.0, g=3.0)
    omegas = np.array([0.5, 2.9, 3.0, 3.1, 10.0, 1e3, 1e9])
    k0c = an.ClosedFormScan(omegas, p).k0_critical
    for omega, value in zip(omegas, k0c):
        if omega < p.g:
            assert math.isnan(value)
            with pytest.raises(NoCriticalAmplitudeError):
                an.critical_drive_amplitude(float(omega), p)
        else:
            assert _bits(value) == _bits(an.critical_drive_amplitude(float(omega), p))
    free = an.ClosedFormScan(omegas, lat(g=0.0)).k0_critical
    assert (free == j0_first_zero()).all()


@pytest.mark.parametrize("omega, k0, message", [
    (np.array([1.0, 0.0, -1.0]), 1.0, "drive frequency must be positive, got 0.0"),
    (2.0, np.array([0.5, -0.25, -1.0]), "drive amplitude must be >= 0, got -0.25"),
    (np.array([1.0, math.nan]), 1.0, "omega must be finite, got nan"),
    (np.array([math.inf, 1.0]), 1.0, "omega must be finite, got inf"),
    (1.0, np.array([0.5, math.nan]), "k0 must be finite, got nan"),
    (1.0, -math.inf, "k0 must be finite, got -inf"),
])
def test_scan_names_the_first_bad_input(omega, k0, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        an.ClosedFormScan(omega, lat(), k0)


LIN = Trajectory.LINEAR_X
NEGATIVE_K0 = "drive amplitude must be >= 0, got -1.0"


@pytest.mark.parametrize("call, message", [
    (lambda p: an.most_unstable_mode(LIN, 1.25, math.inf, p), "omega must be finite, got inf"),
    (lambda p: an.most_unstable_mode(LIN, 1.25, math.nan, p), "omega must be finite, got nan"),
    (lambda p: an.most_unstable_mode(LIN, math.nan, 1.0, p), "k0 must be finite, got nan"),
    (lambda p: an.critical_drive_amplitude(math.nan, p), "omega must be finite, got nan"),
    (lambda p: an.critical_drive_amplitude(math.inf, p), "omega must be finite, got inf"),
    (lambda p: an.cusp_frequency(LIN, math.nan, p), "k0 must be finite, got nan"),
    (lambda p: an.cusp_frequency(LIN, -1.0, p), NEGATIVE_K0),
    (lambda p: an.calibrate_g_from_cusp(20.0, 1.0, -1.0), NEGATIVE_K0),
], ids=["mum-omega-inf", "mum-omega-nan", "mum-k0-nan", "k0c-omega-nan", "k0c-omega-inf",
        "cusp-k0-nan", "cusp-k0-negative", "calibrate-k0-negative"])
def test_one_point_entries_check_drive_inputs(call, message):
    # each closed-form entry point rejects the omega and k0 that DriveSpec does
    with pytest.raises(DomainError, match=re.escape(message)):
        call(lat())
