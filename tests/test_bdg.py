"""Bogoliubov mode integration against closed-form rates and invariants."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from oracles import dispersion, ring_ground_depletion
from scipy.integrate import solve_ivp

from shakenbec import bdg
from shakenbec.analytics import most_unstable_mode
from shakenbec.bdg import (
    BdgRunConfig,
    GridScanResult,
    evolve_modes,
    grid_instability_scan,
    init_mode,
    occupation_rate,
)
from shakenbec.config import (
    bdg_from_config,
    drive_from_config,
    lattice_from_config,
    load_config,
)
from shakenbec.errors import (
    BlowUpError,
    DomainError,
    IntegratorToleranceError,
    SingularModeError,
)
from shakenbec.model import DriveSpec, Envelope, Grid, LatticeParams, Momentum, Trajectory
from shakenbec.specialmath import bessel_j

P = LatticeParams(j=1.0, g=12.0, gamma0=0.0)


def cfg(**kw):
    kw.setdefault("steps_per_period", 256)
    kw.setdefault("n_cycles", 24)
    kw.setdefault("fit_window_cycles", 8)
    return BdgRunConfig(**kw)


def columns(*qs):
    """The [3, m] momentum array of the Momentum objects qs."""
    return np.array([q.as_tuple() for q in qs]).T


def evolve(qs, drive, c, p=P):
    """evolve_modes from the static vacuum of each Momentum of qs."""
    q = columns(*qs)
    return evolve_modes(q, *init_mode(q, p), drive, p, c)


# ------------------------------------------------------------ initial state


def test_init_mode_ground_state():
    q = Momentum(1.3, -0.4, 0.0)
    [u], [v] = init_mode(columns(q), P)
    eps = 4.0 * P.j * (math.sin(0.5 * q.qx) ** 2 + math.sin(0.5 * q.qy) ** 2)
    cosh2 = (eps + P.g) / math.sqrt(eps * (eps + 2.0 * P.g))  # cosh(2 theta)
    assert abs(u) ** 2 - abs(v) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert u.real > 0.0 and v.real < 0.0  # relative sign convention
    assert abs(v) ** 2 == pytest.approx(0.5 * (cosh2 - 1.0), rel=1e-12)
    assert u.imag == 0.0 and v.imag == 0.0


def test_init_mode_rejects_the_condensate():
    # q = 0 is gapless: it has no Bogoliubov mode to start from
    for p in (P, LatticeParams(j=1.0, g=0.0)):
        with pytest.raises(SingularModeError, match="gapless"):
            init_mode(columns(Momentum(0.0, 0.0, 0.0)), p)
    # the error names the first gapless column
    q = columns(Momentum(1.0, 0.0, 0.0), Momentum(0.0, 0.0, 0.0), Momentum(0.0, 0.0, 0.0))
    with pytest.raises(SingularModeError, match=r"q\[:, 1\] = \(0\.0, 0\.0, 0\.0\)"):
        init_mode(q, P)


def test_init_mode_noninteracting():
    [u], [v] = init_mode(columns(Momentum(1.0, 0.0, 0.0)), LatticeParams(j=1.0, g=0.0))
    assert u == 1.0 + 0.0j
    assert v == 0.0 + 0.0j


def test_init_mode_eps_equals_2g():
    # eps = 2g puts E = 2 sqrt(2) g and cosh(2 theta) = 3 / (2 sqrt(2))
    g = 2.0
    qx = 2.0 * math.asin(math.sqrt(2.0 * g / 4.0))  # eps = 4 J sin^2 = 2 g, J = 1
    [u], _ = init_mode(columns(Momentum(qx, 0.0, 0.0)), LatticeParams(j=1.0, g=g))
    cosh2 = 3.0 / (2.0 * math.sqrt(2.0))
    assert abs(u) ** 2 == pytest.approx(0.5 * (cosh2 + 1.0), rel=1e-12)


def test_init_mode_depletion_matches_the_exact_three_site_ring():
    # Grid(3, 1, 1) holds the condensate and one (q, -q) pair, q = 2 pi / 3:
    # the exact ground state's n_+ + n_- tends to Bogoliubov's 2 |v|^2 as the
    # atom number grows at fixed g = U n0 (measured gaps 1.1e-5 at N = 30 and
    # 4.6e-6 at N = 90), and an ideal gas is not depleted at all
    p = LatticeParams(j=1.0, g=2.0)
    _, [v] = init_mode(columns(Momentum(2.0 * math.pi / 3.0, 0.0, 0.0)), p)
    gaps = [abs(ring_ground_depletion(n, p) - 2.0 * abs(v) ** 2) for n in (30, 90)]
    assert max(gaps) < 2e-5
    assert gaps[1] < gaps[0]
    assert ring_ground_depletion(30, LatticeParams(j=1.0, g=0.0)) < 1e-12


# ------------------------------------------------------------- invariants


def test_undriven_mode_is_stationary():
    d = DriveSpec(Trajectory.LINEAR_X, 0.0, 8.0)
    tr = evolve([Momentum(1.2, 0.5, 0.0)], d, cfg())
    occ = tr.occupations[:, 0]
    assert np.abs(occ - occ[0]).max() < 1e-7
    # one sample at t = 0 and one at every period boundary
    np.testing.assert_array_equal(tr.times, np.arange(25) * d.period)
    assert tr.norm_drift_abs < 1e-7


def test_norm_conservation_random_modes():
    rng = np.random.default_rng(3)
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0)
    c = cfg(n_cycles=20)
    for _ in range(10):
        q = Momentum(*rng.uniform(-math.pi, math.pi, size=2), 0.0)
        tr = evolve([q], d, c)
        assert tr.norm_drift_abs < 1e-7
        assert tr.norm_drift <= tr.norm_drift_abs + 1e-15  # relative never larger


def test_pair_symmetry_q_and_minus_q():
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    c = cfg()
    a = evolve([Momentum(1.1, 0.7, 0.0)], d, c).occupations[:, 0]
    b = evolve([Momentum(-1.1, -0.7, 0.0)], d, c).occupations[:, 0]
    diff = np.abs(a - b)
    assert diff.max() / max(1.0, a.max()) < 1e-8


def _oracle_occupations(qs, u0, v0, drive, times):
    """|v|^2 at the given times from an adaptive integrator, per Momentum
    of qs from its (u0, v0)."""
    out = []
    for q, u_start, v_start in zip(qs, u0, v0):
        mq = -q

        def rhs(t, y):
            ep = dispersion(q, t, drive, P) + P.g
            em = dispersion(mq, t, drive, P) + P.g
            u, v = y
            return [-1j * (ep * u + P.g * v), 1j * (P.g * u + em * v)]

        sol = solve_ivp(
            rhs, (times[0], times[-1]), [complex(u_start), complex(v_start)], method="DOP853",
            t_eval=times, rtol=1e-12, atol=1e-12,
        )
        assert sol.success
        out.append(np.abs(sol.y[1]) ** 2)
    return np.stack(out, axis=1)


# An abrupt stop leaves a kink in the drive; the integrator splits the
# RK4 step that contains the cut into two sub-steps meeting at the cut,
# so all cases converge at fourth order.  end_phase 0.5 and 3.0 put the
# cut strictly inside a step at 512 steps per period.
@pytest.mark.parametrize(
    "envelope",
    [
        None,
        Envelope(ramp_up=2, hold=4, abrupt_stop=True, end_phase=0.5),
        Envelope(ramp_up=2, hold=4, abrupt_stop=True, end_phase=3.0),
    ],
    ids=["constant", "ramp-hold-stop", "ramp-hold-stop-late"],
)
def test_evolve_modes_against_adaptive_oracle(envelope):
    # a run from t = 0, and the engine's period maps from a quarter period
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 6.0, envelope=envelope)
    qs = [Momentum(qx, qy, 0.0) for qx, qy in ((1.667, 0.0), (0.9, -0.6), (-2.8, 1.9))]
    q = columns(*qs)
    u0, v0 = init_mode(q, P)
    batch = evolve_modes(q, u0, v0, d, P, cfg(steps_per_period=512, n_cycles=10))
    oracle = _oracle_occupations(qs, u0, v0, d, batch.times)
    np.testing.assert_allclose(batch.occupations, oracle, rtol=1e-6, atol=1e-12)

    times = (0.25 + np.arange(11)) * d.period
    uv = np.array([u0, v0], dtype=complex)
    occ = [np.abs(uv[1]) ** 2]
    for t_start in times[:-1]:
        m, _ = bdg.period_map(q, t_start, d, P, 512)
        uv = np.einsum("ijm,jm->im", m, uv)
        occ.append(np.abs(uv[1]) ** 2)
    oracle = _oracle_occupations(qs, u0, v0, d, times)
    np.testing.assert_allclose(np.array(occ), oracle, rtol=1e-6, atol=1e-12)


def test_period_map_is_symplectic():
    # one period of a constant drive maps the columns (1, 0) and (0, 1) to
    # the columns of M; conservation of |u|^2 - |v|^2 makes
    # M^dagger sigma_z M = sigma_z
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0)
    rng = np.random.default_rng(5)
    qs = [Momentum(*rng.uniform(-math.pi, math.pi, size=2), 0.0) for _ in range(20)]
    sz = np.diag([1.0, -1.0])
    for m in _engine_maps(qs, d, cfg(steps_per_period=512), 0.3):
        assert np.abs(m.conj().T @ sz @ m - sz).max() < 1e-9
    assert m[1, 0] != 0.0  # the drive mixes u and v


def _engine_maps(qs, drive, c, t0, p=P):
    """m[mode] = the engine's map over one period from t0."""
    return bdg.period_map(columns(*qs), t0, drive, p, c.steps_per_period)[0].transpose(2, 0, 1)


def _reference_full_period_maps(qs, drive, n_steps, t0):
    """m[mode] from n_steps classical RK4 steps over the whole period."""
    dt = drive.period / n_steps

    def rhs_matrix(t):
        return -1j * np.array([
            [[dispersion(q, t, drive, P) + P.g, P.g],
             [-P.g, -dispersion(-q, t, drive, P) - P.g]]
            for q in qs
        ])

    m = np.broadcast_to(np.eye(2, dtype=complex), (len(qs), 2, 2))
    a4 = rhs_matrix(t0)
    for k in range(n_steps):
        a1, a2, a4 = a4, rhs_matrix(t0 + (k + 0.5) * dt), rhs_matrix(t0 + (k + 1) * dt)
        k1 = a1 @ m
        k2 = a2 @ (m + 0.5 * dt * k1)
        k3 = a2 @ (m + 0.5 * dt * k2)
        k4 = a4 @ (m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


@pytest.mark.parametrize("trajectory, steps_per_period", [
    *(pytest.param(t, 512, id=str(t)) for t in Trajectory),
    *(pytest.param(t, 513, id=f"{t}-513") for t in Trajectory),
])
def test_half_period_map_equals_full_period_rk4(trajectory, steps_per_period):
    # a constant drive has A(t + T/2) = -A(t), so at 512 steps the engine
    # integrates half a period and mirrors it; 513 steps take the
    # full-period loop and do not split evenly into the map's time
    # segments (64 or 65 steps, the shorter padded with steps of length
    # 0); either way the map must be the full-period RK4 map to rounding,
    # from a period boundary and from a quarter period
    d = DriveSpec(trajectory, 1.25, 6.0)
    qs = [Momentum(1.667, 0.0, 0.0), Momentum(0.9, -0.6, 0.0), Momentum(-2.8, 1.9, 0.0)]
    for t0 in (0.0, 0.25 * d.period):
        got = _engine_maps(qs, d, cfg(steps_per_period=steps_per_period), t0)
        want = _reference_full_period_maps(qs, d, steps_per_period, t0)
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) < 1e-11 * scale)
        assert np.abs(want[:, 1, 0]).min() > 1e-3  # the drive mixes u and v


@pytest.mark.parametrize("trajectory", list(Trajectory))
def test_envelope_period_map_equals_reference_rk4(trajectory):
    # under a smooth envelope every period takes the full-period loop on
    # the engine's per-axis energy tables; they must give the map that
    # RK4 on model.dispersion gives, in the ramp-up and the ramp-down,
    # for momenta that share axis values and have a transverse part
    d = DriveSpec(trajectory, 1.25, 6.0, envelope=Envelope(ramp_up=2, hold=2, ramp_down=2))
    qs = [Momentum(1.667, 0.0, 0.4), Momentum(1.667, -0.6, 0.0),
          Momentum(0.9, -0.6, 0.4), Momentum(-2.8, 0.0, -0.7)]
    for t0 in (0.25 * d.period, 4.5 * d.period):
        got = _engine_maps(qs, d, cfg(steps_per_period=512), t0)
        want = _reference_full_period_maps(qs, d, 512, t0)
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) < 1e-11 * scale)
        assert np.abs(want[:, 1, 0]).min() > 1e-3  # the drive mixes u and v


@pytest.mark.parametrize("envelope, steps_per_period, t0_periods, n_steps", [
    (None, 512, 0.0, 256),  # a constant drive: the half-period map
    (Envelope(ramp_up=2, hold=8), 512, 1.25, 512),  # in the ramp-up
    # the cut at 6.36 periods splits a step of the map from 6 periods
    (Envelope(ramp_up=2, hold=4, abrupt_stop=True, end_phase=0.7), 512, 6.0, 513),
    (None, 513, 0.0, 513),  # an odd step count: the full-period loop
])
def test_period_map_does_not_depend_on_its_batch(envelope, steps_per_period, t0_periods,
                                                 n_steps):
    # the map's time segments follow from its step list alone, never from
    # the number of columns, and its column blocks only group elementwise
    # work, so each mode's map is bit for bit the same alone, among three,
    # or among all the pairs of a 48x24 grid, which run in two blocks
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0, envelope=envelope)
    grid = Grid(48, 24)
    pairs = np.unique(np.minimum(np.arange(grid.n_modes), grid.partners()))[1:]
    assert bdg.BLOCK_COLUMNS < pairs.size <= 2 * bdg.BLOCK_COLUMNS
    q = grid.momenta[:, pairs]
    t0 = t0_periods * d.period
    m, steps = bdg.period_map(q, t0, d, P, steps_per_period)
    assert steps == n_steps
    for cols in ([100], [0, 150, pairs.size - 1]):
        part, part_steps = bdg.period_map(q[:, cols], t0, d, P, steps_per_period)
        assert part_steps == steps
        assert np.array_equal(part, m[:, :, cols])


def test_odd_steps_and_envelopes_take_the_full_period_loop():
    # mode_steps counts the RK4 steps integrated: one half-period map for
    # an even step count at constant amplitude, a whole period for an odd
    # one, and a whole period every cycle under an envelope.  A 4x4 grid
    # has 15 modes, 9 of them representing a (q, -q) pair.
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 6.0)
    c = cfg(steps_per_period=512, n_cycles=8, fit_window_cycles=4, grid=Grid(4, 4, 1))
    even = grid_instability_scan(d, P, c)
    odd = grid_instability_scan(d, P, dataclasses.replace(c, steps_per_period=513))
    assert even.mode_steps == 9 * 256
    assert odd.mode_steps == 9 * 513
    np.testing.assert_allclose(odd.rates, even.rates, rtol=1e-4, atol=1e-6)
    ramped = dataclasses.replace(d, envelope=Envelope(ramp_up=2, hold=6))
    assert grid_instability_scan(ramped, P, c).mode_steps == 9 * 512 * 8


def _mirror(a):
    """a at grid index (-i) mod n on each of the last three axes."""
    return np.roll(a[..., ::-1, ::-1, ::-1], 1, axis=(-3, -2, -1))


@pytest.mark.parametrize("envelope", [
    None,
    Envelope(ramp_up=2, hold=8),
    # the cut at 6.36 periods splits an RK4 step of the period maps from
    # 6 and from 6.25 periods
    Envelope(ramp_up=2, hold=4, abrupt_stop=True, end_phase=0.7),
])
def test_grid_scan_mirrors_each_pair(envelope):
    # q and -q obey each other's equations under (u, v) -> (v*, u*): the
    # map of -q is sigma_x M(q)* sigma_x, so |v|^2 and the rate are shared,
    # and the scan integrates one mode per pair and copies it to the other
    pz = LatticeParams(j=1.0, g=12.0, m_z=0.5)
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0, envelope=envelope)
    c = cfg(steps_per_period=512, n_cycles=8, fit_window_cycles=4, grid=Grid(6, 4, 3, lz=4.0))
    scan = grid_instability_scan(d, pz, c)
    # 71 modes: 3 are their own partners (qx, qy in {0, -pi}, qz = 0), 34
    # pairs; a cut inside a step splits it in two
    cut_steps = d.stop_time() is not None
    assert scan.mode_steps == 37 * (256 if envelope is None else 512 * 8 + cut_steps)
    assert np.array_equal(scan.rates, _mirror(scan.rates))
    # the tie goes to the lexicographically smaller momentum of the pair
    assert scan.q_max.as_tuple() <= (-scan.q_max).as_tuple()
    assert scan.rate > 0.0

    qs = [Momentum(*q) for q in scan.grid.momenta.T][1:]
    for t0 in (0.0, 0.25 * d.period) + ((6.25 * d.period,) if cut_steps else ()):
        maps = _engine_maps(qs + [-q for q in qs], d, c, t0, pz)
        m_q, m_mq = maps[: len(qs)], maps[len(qs):]
        mirrored = m_q[:, ::-1, ::-1].conj()  # sigma_x M* sigma_x
        scale = np.abs(m_q).max(axis=(1, 2))
        assert np.all(np.abs(m_mq - mirrored).max(axis=(1, 2)) < 1e-12 * scale)
    # the copied partner agrees with integrating it in its own right
    direct = evolve((scan.q_max, -scan.q_max), d, c, pz)
    np.testing.assert_allclose(direct.occupations[:, 1], direct.occupations[:, 0], rtol=1e-9)
    rates = occupation_rate(direct.times, direct.occupations, c.fit_window_cycles)
    np.testing.assert_allclose(rates, scan.rate, rtol=1e-9)


# ------------------------------------------------------- rates vs formulas


def test_resonant_rate_low_frequency():
    omega = 6.0
    res = most_unstable_mode(Trajectory.LINEAR_X, 1.25, omega, P)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, omega)
    tr = evolve([res.q_mum[0]], d, cfg(n_cycles=32))
    rate = occupation_rate(tr.times, tr.occupations[:, 0], 8)
    assert rate == pytest.approx(2.0 * res.gamma, rel=0.05)


def test_resonant_rate_band_edge():
    # between the cusp and the band top the resonant shell runs along
    # qx = pi; the closed-form rate applies to those on-shell modes
    omega = 11.0
    res = most_unstable_mode(Trajectory.LINEAR_X, 1.25, omega, P)
    eps_res = math.sqrt(P.g**2 + omega**2) - P.g
    sy2 = eps_res / (4.0 * P.j) - bessel_j(0, 1.25)
    q_shell = Momentum(math.pi, 2.0 * math.asin(math.sqrt(sy2)), 0.0)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, omega)
    tr = evolve([q_shell], d, cfg(n_cycles=32))
    rate = occupation_rate(tr.times, tr.occupations[:, 0], 8)
    assert rate == pytest.approx(2.0 * res.gamma, rel=0.05)


def test_rate_converged_in_step_size():
    omega = 6.0
    res = most_unstable_mode(Trajectory.LINEAR_X, 1.25, omega, P)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, omega)
    q = res.q_mum[0]
    r256 = occupation_rate(
        *_run(q, d, cfg(steps_per_period=256, n_cycles=24)), 8
    )
    r512 = occupation_rate(
        *_run(q, d, cfg(steps_per_period=512, n_cycles=24)), 8
    )
    assert r256 == pytest.approx(r512, rel=1e-6)


def _run(q, d, c):
    tr = evolve([q], d, c)
    return tr.times, tr.occupations[:, 0]


def test_occupation_rate_exact_and_zero():
    t = np.linspace(0.0, 3.0, 13)
    assert occupation_rate(t, 1e-4 * np.exp(1.7 * t), 6) == pytest.approx(
        1.7, rel=1e-10
    )
    assert occupation_rate(t, np.zeros(13), 6) == 0.0
    # one column per mode, each fitted as on its own
    cols = np.stack([1e-4 * np.exp(1.7 * t), np.zeros(13), 3.0 * np.exp(-0.2 * t)], 1)
    rates = occupation_rate(t, cols, 6)
    assert rates.shape == (3,)
    np.testing.assert_allclose(rates, [1.7, 0.0, -0.2], rtol=1e-10)
    for i in range(3):
        assert rates[i] == pytest.approx(occupation_rate(t, cols[:, i], 6), rel=1e-14)


# ----------------------------------------------------------------- guards


def test_config_validation():
    with pytest.raises(DomainError):
        BdgRunConfig(steps_per_period=32)
    with pytest.raises(DomainError):
        BdgRunConfig(n_cycles=0)
    with pytest.raises(DomainError):
        BdgRunConfig(n_cycles=4, fit_window_cycles=8)
    # a one-point grid holds only the condensate, which a scan excludes
    with pytest.raises(DomainError, match="besides the condensate"):
        BdgRunConfig(grid=Grid(1, 1, 1))
    assert BdgRunConfig(steps_per_period=64).grid.nx == 24


def test_evolve_modes_input_validation():
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 6.0)
    c = BdgRunConfig(steps_per_period=64, n_cycles=2, fit_window_cycles=1)
    q = columns(Momentum(1.0, 0.0, 0.0), Momentum(0.5, -0.5, 0.0))
    u0, v0 = init_mode(q, P)
    with pytest.raises(DomainError, match=r"shape \[3, m\], m >= 1, got \(3, 0\)"):
        evolve_modes(q[:, :0], u0[:0], v0[:0], d, P, c)
    with pytest.raises(DomainError, match=r"got \(2, 2\)"):
        evolve_modes(q[:2], u0, v0, d, P, c)
    with pytest.raises(DomainError, match=r"length 2, got shapes \(1,\) and \(2,\)"):
        evolve_modes(q, u0[:1], v0, d, P, c)
    with pytest.raises(DomainError, match=r"length 2, got shapes \(2,\) and \(\)"):
        evolve_modes(q, u0, v0[0], d, P, c)
    assert evolve_modes(q, u0, v0, d, P, c).occupations.shape == (3, 2)


@pytest.mark.parametrize("steps_per_period", [0, -4])
def test_period_map_rejects_a_step_count_below_one(steps_per_period):
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 6.0)
    with pytest.raises(DomainError, match="steps_per_period >= 1"):
        bdg.period_map(columns(Momentum(1.0, 0.0, 0.0)), 0.0, d, P, steps_per_period)


def test_blow_up_on_unstable_step():
    # eps dt far beyond the RK4 stability region: amplitudes leave the
    # finite range within the first cycle
    pbig = LatticeParams(j=1.0, g=1e6)
    d = DriveSpec(Trajectory.LINEAR_X, 1.0, 2.0 * math.pi)
    c = BdgRunConfig(steps_per_period=64, n_cycles=2, fit_window_cycles=1)
    with pytest.raises(BlowUpError):
        evolve([Momentum(math.pi, 0.0, 0.0)], d, c, pbig)


def test_blow_up_on_occupation_ceiling():
    q = columns(Momentum(1.0, 0.0, 0.0))
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 6.0)
    c = BdgRunConfig(steps_per_period=64, n_cycles=2, fit_window_cycles=1)
    with pytest.raises(BlowUpError, match="1e\\+200"):
        evolve_modes(q, np.array([2e100]), np.array([-1.8e100]), d, P, c)


def test_integrator_tolerance_guard():
    # a strong resonance at the minimum step count accumulates norm
    # drift past the 1e-6 relative guard before the run completes
    d = DriveSpec(Trajectory.LINEAR_X, 2.1, 20.0)
    c = BdgRunConfig(steps_per_period=64, n_cycles=64, fit_window_cycles=8)
    with pytest.raises(IntegratorToleranceError, match="steps_per_period"):
        evolve([Momentum(math.pi, 0.0, 0.0)], d, c)


# -------------------------------------------------------------- grid scans


def test_grid_scan_undriven_all_flat():
    c = cfg(
        steps_per_period=512, n_cycles=8, fit_window_cycles=4, grid=Grid(4, 4, 1)
    )
    d = DriveSpec(Trajectory.LINEAR_X, 0.0, 8.0)
    scan = grid_instability_scan(d, P, c)
    assert isinstance(scan, GridScanResult)
    assert scan.rates.shape == (4, 4, 1)
    assert np.abs(scan.rates).max() < 1e-8
    assert scan.rates[0, 0, 0] == 0.0  # condensate entry
    # occupation stays at the static depletion
    assert np.abs(scan.occupation_sum - scan.occupation_sum[0]).max() < 1e-8


def test_grid_scan_zero_interaction_ties():
    # g = 0 decouples u from v: no pairs are ever produced, every rate
    # is exactly zero, and the tie-break picks the lexicographically
    # smallest momentum
    p0 = LatticeParams(j=1.0, g=0.0)
    c = cfg(
        steps_per_period=256, n_cycles=8, fit_window_cycles=4, grid=Grid(4, 4, 1)
    )
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 8.0)
    scan = grid_instability_scan(d, p0, c)
    assert np.all(scan.rates == 0.0)
    assert np.all(scan.occupation_sum == 0.0)
    assert scan.q_max == Momentum(-math.pi, -math.pi, 0.0)


def test_grid_scan_finds_resonant_mode():
    omega = 6.0
    res = most_unstable_mode(Trajectory.LINEAR_X, 1.25, omega, P)
    c = cfg(steps_per_period=512, n_cycles=24, grid=Grid(12, 12, 1))
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, omega)
    scan = grid_instability_scan(d, P, c)
    # the 12-point axis sits within one spacing of the predicted mode
    spacing = 2.0 * math.pi / 12.0
    assert abs(abs(scan.q_max.qx) - res.q_mum[0].qx) <= 0.5 * spacing + 1e-9
    assert scan.q_max.qy == 0.0
    assert scan.rate > 0.3 * 2.0 * res.gamma  # grid point is near resonance
    # summed occupation matches every nonzero mode integrated on its own
    direct = evolve([Momentum(*q) for q in scan.grid.momenta[:, 1:].T], d, c)
    assert scan.occupation_sum.shape == (25,)
    np.testing.assert_allclose(
        direct.occupations.sum(axis=1) / scan.grid.volume, scan.occupation_sum, rtol=1e-9
    )


BDG_SCAN = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "bdg-scan.cfg"


@pytest.mark.parametrize("hz, resonant", [(350, True), (440, True), (900, False),
                                          (2500, False)])
def test_period_map_floquet_rate_on_bdg_scan(hz, resonant):
    # the period map M of each (q, -q) pair has det M = 1, so it grows
    # |v|^2 at the Floquet rate (2/T) arccosh(|tr M| / 2) when |tr M| > 2
    # and keeps it bounded otherwise.  Below the cusp the fastest pair's
    # rate is the scan's fitted rate; above the 2D Bogoliubov bandwidth
    # no pair of the bdg-scan grid is unstable
    cp = load_config(str(BDG_SCAN), "paper-11er")
    p, c = lattice_from_config(cp), bdg_from_config(cp)
    d = dataclasses.replace(drive_from_config(cp), omega=2.0 * math.pi * hz)
    grid = c.grid
    pairs = np.unique(np.minimum(np.arange(grid.n_modes), grid.partners()))[1:]
    m, _ = bdg.period_map(grid.momenta[:, pairs], 0.0, d, p, c.steps_per_period)
    half_trace = np.abs(m[0, 0] + m[1, 1]) / 2.0
    if resonant:
        rate = 2.0 / d.period * np.arccosh(half_trace.max())
        assert rate == pytest.approx(grid_instability_scan(d, p, c).rate, rel=1e-9)
    else:
        assert half_trace.max() <= 1.0


def test_grid_scan_transverse_axis():
    # a nonzero qz detunes the mode through its kinetic energy
    pz = LatticeParams(j=1.0, g=2.0, m_z=0.5)
    c = cfg(
        steps_per_period=512, n_cycles=8, fit_window_cycles=4,
        grid=Grid(4, 4, 4, lz=8.0),
    )
    d = DriveSpec(Trajectory.LINEAR_X, 0.0, 8.0)
    scan = grid_instability_scan(d, pz, c)
    assert scan.rates.shape == (4, 4, 4)
    assert scan.grid.qz_axis[1] == pytest.approx(2.0 * math.pi / 8.0, rel=1e-12)
