"""Drive kinematics, dispersions and the Bogoliubov transform against
quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dispersion, drive_shift_scalar, envelope_scalar

from shakenbec.analytics import ClosedFormScan, cusp_frequency, most_unstable_mode
from shakenbec.errors import DomainError, InvertedBandError
from shakenbec.model import (
    DriveSpec,
    Envelope,
    Grid,
    LatticeParams,
    Momentum,
    Trajectory,
    axis_energies,
    bogoliubov_transform,
    drive_shift,
    envelope_value,
)
from shakenbec.specialmath import bessel_j

TWO_PI = 2.0 * math.pi
ALL_TRAJECTORIES = list(Trajectory)


def lat(j=1.0, g=0.5, **kw):
    return LatticeParams(j=j, g=g, **kw)


# ---------------------------------------------------------------- momenta


@given(q=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_momentum_wrap_is_idempotent_and_in_zone(q):
    m = Momentum(q, -q)
    assert -math.pi <= m.qx <= math.pi
    assert Momentum(m.qx, m.qy).qx == m.qx
    # wrapping preserves the physical momentum modulo a reciprocal vector
    assert (q - m.qx) / TWO_PI == pytest.approx(round((q - m.qx) / TWO_PI), abs=1e-9)


def test_momentum_examples():
    assert Momentum(TWO_PI + 0.3, 0.0).qx == pytest.approx(0.3, abs=1e-12)
    assert Momentum(-TWO_PI - 0.3, 0.0).qx == pytest.approx(-0.3, abs=1e-12)
    m = Momentum(1.0, -2.0, 3.0)
    assert (-m).as_tuple() == (-1.0, 2.0, -3.0)
    assert Momentum(0.0, 0.0, 9.9).qz == 9.9  # transverse component never wraps
    with pytest.raises(DomainError):
        Momentum(math.inf, 0.0)


def test_trajectory_geometry():
    assert Trajectory.LINEAR_X.kappa == 0.0
    assert Trajectory.DIAGONAL.kappa == 1.0
    assert Trajectory.CIRCULAR.kappa == 1.0
    assert Trajectory.LINEAR_X.phi == 0.0
    assert Trajectory.DIAGONAL.phi == 0.0
    assert Trajectory.CIRCULAR.phi == -0.5 * math.pi


# ------------------------------------------------------------ dispersions


def eps0(qx, qy, qz, p):
    return (
        4.0 * p.j * (math.sin(0.5 * qx) ** 2 + math.sin(0.5 * qy) ** 2)
        + 0.5 * qz**2 / p.m_z
    )


def test_axis_energies_broadcast_and_sum_to_eps0():
    rng = np.random.default_rng(13)
    p = lat(j=1.3, m_z=0.07)
    qx, qy = rng.uniform(-math.pi, math.pi, (2, 5))
    qz = rng.uniform(-2.0, 2.0, 3)
    ax = rng.uniform(-2.0, 2.0, (4, 1, 1, 1))
    ex, ey, ez = axis_energies(qx[:, None, None], qy[None, :, None], qz, p, ax, 0.4)
    total = ex + ey + ez
    assert total.shape == (4, 5, 5, 3)
    for k, i, j, l in [(0, 0, 0, 0), (3, 4, 1, 2), (2, 1, 3, 1)]:
        ref = eps0(qx[i] - ax[k, 0, 0, 0], qy[j] - 0.4, qz[l], p)
        assert total[k, i, j, l] == pytest.approx(ref, rel=1e-14)


def test_bogoliubov_transform_on_arrays():
    g = 3.0
    eps = np.array([-1.0, 0.0, 1e-12, 0.5, 2.0 * g, 40.0])
    energy, u, v = bogoliubov_transform(eps, g)
    ok = eps > 0.0
    e = eps[ok]
    np.testing.assert_allclose(energy[ok], np.sqrt(e * (e + 2 * g)), rtol=1e-15)
    # |u|^2 - |v|^2 = 1 up to rounding of the much larger |u|^2 + |v|^2
    norm = u[ok] ** 2 - v[ok] ** 2
    assert np.all(np.abs(norm - 1.0) <= 1e-14 * (u[ok] ** 2 + v[ok] ** 2))
    assert np.all(u[ok] > 0.0) and np.all(v[ok] < 0.0)
    # each (u, v) is the positive-energy eigenvector of the pairing matrix
    for e, en, uu, vv in zip(eps[ok], energy[ok], u[ok], v[ok]):
        m = np.array([[e + g, g], [-g, -e - g]])
        assert np.abs(m @ [uu, vv] - en * np.array([uu, vv])).max() < 1e-9 * (1 + en)
    # no Bogoliubov mode where eps <= 0: bare vacuum
    assert list(energy[~ok]) == [0.0, 0.0]
    assert list(u[~ok]) == [1.0, 1.0] and list(v[~ok]) == [0.0, 0.0]
    # no interaction, no mixing
    e0, u0, v0 = bogoliubov_transform(eps[ok], 0.0)
    np.testing.assert_array_equal(e0, eps[ok])
    assert np.all(u0 == 1.0) and np.all(v0 == 0.0)


def test_bogoliubov_transform_propagates_nan():
    # a NaN energy must not turn into the bare vacuum (E, u, v) = (0, 1, 0);
    # the finite elements next to it keep the bits of their own calls
    eps = np.array([np.nan, -1.0, 0.0, 0.5, 40.0])
    out = bogoliubov_transform(eps, 3.0)
    for arr in out:
        assert np.isnan(arr[0])
        assert not np.isnan(arr[1:]).any()
    for i in range(1, eps.size):
        for arr, one in zip(out, bogoliubov_transform(eps[i], 3.0)):
            assert arr[i].tobytes() == one.tobytes()
    assert all(np.isnan(x) for x in bogoliubov_transform(math.nan, 1.0))


def test_dispersion_matches_defining_formula():
    rng = np.random.default_rng(7)
    p = lat(j=1.3, g=2.0, m_z=0.07)
    for _ in range(100):
        traj = ALL_TRAJECTORIES[rng.integers(3)]
        drive = DriveSpec(traj, k0=float(rng.uniform(0, 2.2)),
                          omega=float(rng.uniform(0.5, 30)))
        q = Momentum(*rng.uniform(-math.pi, math.pi, 2), float(rng.uniform(-2, 2)))
        t = float(rng.uniform(0, 5 * drive.period))
        ax, ay = drive_shift(t, drive)
        ref = eps0(q.qx - ax, q.qy - ay, q.qz, p) - eps0(-ax, -ay, 0.0, p)
        assert dispersion(q, t, drive, p) == pytest.approx(ref, abs=1e-12)


def test_dispersion_vanishes_at_condensate():
    p = lat()
    drive = DriveSpec(Trajectory.CIRCULAR, k0=1.7, omega=11.0)
    for t in np.linspace(0.0, drive.period, 13):
        assert dispersion(Momentum(0.0, 0.0), float(t), drive, p) == 0.0


def period_average(q, k0, traj, p, n=256):
    """Mean of eps(q, t) over n equally spaced times of one drive period."""
    drive = DriveSpec(traj, k0=k0, omega=1.0)
    ts = np.arange(n) * drive.period / n
    return float(np.mean([dispersion(q, t, drive, p) for t in ts]))


def corner(traj):
    """The most unstable band corner: (pi, pi) for diagonal, else (pi, 0)."""
    return Momentum(math.pi, math.pi if traj is Trajectory.DIAGONAL else 0.0)


def test_effective_dispersion_is_period_average():
    # averaged over a period, eps(q, t) at the trajectory's most unstable
    # band corner has the static Bogoliubov energy of the rate cusp
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = lat(j=float(rng.uniform(0.5, 2.0)), g=float(rng.uniform(0.0, 10.0)))
        k0 = float(rng.uniform(0.0, 2.3))
        for traj in ALL_TRAJECTORIES:
            eps = period_average(corner(traj), k0, traj, p)
            want = cusp_frequency(traj, k0, p).omega_c
            assert bogoliubov_transform(eps, p.g)[0] == pytest.approx(want, rel=1e-12)


def test_effective_dispersion_inverted_band():
    # past the first zero of J0 the shaken corner averages to a negative
    # energy, which the analytics reject as an inverted band; linear
    # shaking leaves the y direction bare
    p = lat()
    assert period_average(Momentum(math.pi, 0.0), 2.5, Trajectory.LINEAR_X, p) < 0.0
    bare = period_average(Momentum(0.0, math.pi), 2.5, Trajectory.LINEAR_X, p)
    assert bare == pytest.approx(4.0 * p.j, abs=1e-12)
    with pytest.raises(InvertedBandError):
        cusp_frequency(Trajectory.LINEAR_X, 2.5, p)
    assert ClosedFormScan(1.0, p, 2.5).modes(Trajectory.LINEAR_X).inverted


def test_effective_dispersion_renormalization_pattern():
    # averaging scales the hopping along each shaken axis by J0(k0): only
    # x under linear shaking, x and y under the diagonal and circular drives
    p = lat(j=2.0)
    k0 = 1.25
    b0 = bessel_j(0, k0)
    for traj in ALL_TRAJECTORIES:
        along_y = 1.0 if traj is Trajectory.LINEAR_X else b0
        along_x = period_average(Momentum(math.pi, 0.0), k0, traj, p)
        assert along_x == pytest.approx(4.0 * p.j * b0, rel=1e-12)
        assert period_average(Momentum(0.0, math.pi), k0, traj, p) == pytest.approx(
            4.0 * p.j * along_y, rel=1e-12
        )


# --------------------------------------------------------- drive harmonics


def measured_harmonics(q, drive, p, n=256):
    """rfft / n of the momentum-even part of eps(q, t) over one period."""
    even = [
        0.5 * (dispersion(q, t, drive, p) + dispersion(-q, t, drive, p))
        for t in np.arange(n) * drive.period / n
    ]
    return np.fft.rfft(even) / n


def first_harmonic(q, drive, p):
    """c_1, where the momentum-even part of eps(q, t) holds c_1 cos(2 omega t)."""
    return 2.0 * float(measured_harmonics(q, drive, p)[2].real)


def test_first_harmonic_closed_forms():
    # on resonance at the band corner the pair grows at |c_1| g / (2 omega),
    # which with c_1 from a Fourier analysis of eps(q, t) is the closed-form
    # high-frequency gamma; the momentum-even part of eps has no odd
    # harmonics and no sine content
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = lat(j=float(rng.uniform(0.5, 2.0)), g=float(rng.uniform(0.5, 10.0)))
        k0 = float(rng.uniform(0.1, 2.3))
        for traj in ALL_TRAJECTORIES:
            omega = float(rng.uniform(1.0, 3.0)) * cusp_frequency(traj, k0, p).omega_c
            spec = measured_harmonics(corner(traj), DriveSpec(traj, k0, omega), p)
            want = most_unstable_mode(traj, k0, omega, p).gamma
            assert abs(spec[2].real) * p.g / omega == pytest.approx(want, rel=1e-12)
            assert np.abs(spec[1::2]).max() < 1e-10
            assert np.abs(spec.imag).max() < 1e-9


def test_circular_first_harmonic_antisymmetry():
    # under circular shaking c_1 changes sign when qx and qy swap, so it
    # vanishes at (pi, pi): the circular cusp sits at the (pi, 0) corner
    p = lat()
    drive = DriveSpec(Trajectory.CIRCULAR, 1.0, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        qx, qy = rng.uniform(-math.pi, math.pi, 2)
        a = first_harmonic(Momentum(qx, qy), drive, p)
        b = first_harmonic(Momentum(qy, qx), drive, p)
        assert a == pytest.approx(-b, abs=1e-12)
    assert abs(first_harmonic(Momentum(math.pi, math.pi), drive, p)) < 1e-12


def test_diagonal_harmonics_symmetric():
    p = lat()
    drive = DriveSpec(Trajectory.DIAGONAL, 1.5, 1.0)
    a = measured_harmonics(Momentum(0.4, 1.9), drive, p)
    b = measured_harmonics(Momentum(1.9, 0.4), drive, p)
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)


# -------------------------------------------------------- envelopes, stops


def test_envelope_profile():
    env = Envelope(ramp_up=4, hold=3, ramp_down=2)
    drive = DriveSpec(Trajectory.LINEAR_X, k0=1.0, omega=TWO_PI, envelope=env)
    T = drive.period
    assert envelope_value(-1.0, drive) == 0.0
    assert envelope_value(0.0, drive) == 0.0
    assert envelope_value(2.0 * T, drive) == pytest.approx(0.5, abs=1e-12)
    assert envelope_value(5.5 * T, drive) == 1.0  # mid-hold
    assert envelope_value(8.0 * T, drive) == pytest.approx(0.5, abs=1e-12)
    assert envelope_value(9.0 * T, drive) == pytest.approx(0.0, abs=1e-12)
    assert envelope_value(20.0 * T, drive) == 0.0
    assert env.total_periods == 9
    assert drive.stop_time() is None


def test_no_envelope_means_constant_drive():
    drive = DriveSpec(Trajectory.LINEAR_X, k0=1.0, omega=3.0)
    for t in (0.0, 0.3, 17.0):
        assert envelope_value(t, drive) == 1.0


def test_abrupt_stop_time_and_frozen_shift():
    omega = TWO_PI
    env0 = Envelope(ramp_up=2, hold=3, abrupt_stop=True, end_phase=0.0)
    drive0 = DriveSpec(Trajectory.LINEAR_X, k0=1.25, omega=omega, envelope=env0)
    T = drive0.period
    ts = drive0.stop_time()
    # velocity phase 0 sits a quarter period into the extra cycle
    assert ts == pytest.approx(5.0 * T + 0.25 * T, rel=1e-12)
    assert envelope_value(ts - 1e-9, drive0) == 1.0
    assert envelope_value(ts + 1e-9, drive0) == 0.0
    ax, _ = drive_shift(ts + 3.0 * T, drive0)
    assert ax == pytest.approx(1.25, abs=1e-9)  # maximal frozen kick

    env_quarter = Envelope(ramp_up=2, hold=3, abrupt_stop=True,
                           end_phase=0.5 * math.pi)
    drive_q = DriveSpec(Trajectory.LINEAR_X, k0=1.25, omega=omega,
                        envelope=env_quarter)
    ax, _ = drive_shift(drive_q.stop_time() + T, drive_q)
    assert ax == pytest.approx(0.0, abs=1e-9)  # turning point: no kick
    assert env0.total_periods == 6  # the cut consumes one extra cycle


def test_stroboscopic_shift_values():
    p_lin = DriveSpec(Trajectory.LINEAR_X, k0=1.3, omega=7.0)
    p_diag = DriveSpec(Trajectory.DIAGONAL, k0=1.3, omega=7.0)
    p_circ = DriveSpec(Trajectory.CIRCULAR, k0=1.3, omega=7.0)
    for k in (0, 1, 5, 40):
        t = k * p_lin.period
        for d in (p_lin, p_diag):
            ax, ay = drive_shift(t, d)
            assert abs(ax) < 1e-12 and abs(ay) < 1e-12
        ax, ay = drive_shift(t, p_circ)
        assert abs(ax) < 1e-12
        assert ay == pytest.approx(-1.3, abs=1e-12)  # cosine-phased component


# no envelope, a ramp-down, a ramp-down of 0 and abrupt stops at the
# velocity phases 0 and pi/2
ENVELOPES = [
    None,
    Envelope(ramp_up=2, hold=1, ramp_down=2),
    Envelope(ramp_up=2, hold=1, ramp_down=0),
    Envelope(ramp_up=2, hold=1, abrupt_stop=True, end_phase=0.0),
    Envelope(ramp_up=2, hold=1, abrupt_stop=True, end_phase=0.5 * math.pi),
]


def branch_times(drive):
    """A sweep from one period before the start to two past the end, plus
    every branch boundary (end of ramp-up, hold and ramp-down, the cut,
    the end) exactly and one ulp to either side."""
    T = drive.period
    env = drive.envelope or Envelope()
    t_up = env.ramp_up * T
    t_hold_end = t_up + env.hold * T
    edges = [0.0, t_up, t_hold_end, t_hold_end + env.ramp_down * T, env.total_periods * T]
    if drive.stop_time() is not None:
        edges.append(drive.stop_time())
    edges = np.array(edges)
    sweep = np.linspace(-T, (env.total_periods + 2) * T, 301)
    return np.concatenate([sweep, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@pytest.mark.parametrize("envelope", ENVELOPES)
@pytest.mark.parametrize("trajectory", ALL_TRAJECTORIES)
def test_drive_arrays_match_one_point_calls_bit_for_bit(trajectory, envelope):
    drive = DriveSpec(trajectory, k0=1.25, omega=12.5, envelope=envelope)
    t = branch_times(drive)
    env = envelope_value(t[:, None], drive)
    ax, ay = drive_shift(t[:, None], drive)
    assert env.shape == ax.shape == ay.shape == (t.size, 1)
    one = [(envelope_value(v, drive), *drive_shift(v, drive)) for v in t.tolist()]
    assert all(type(x) is float for row in one for x in row)
    # bit for bit, the sign of zero included
    arrays = np.concatenate([env, ax, ay], axis=1)
    np.testing.assert_array_equal(np.array(one).view(np.int64), arrays.view(np.int64))


@pytest.mark.parametrize("envelope", ENVELOPES)
@pytest.mark.parametrize("trajectory", ALL_TRAJECTORIES)
def test_drive_one_point_values_match_scalar_formulas(trajectory, envelope):
    drive = DriveSpec(trajectory, k0=1.25, omega=12.5, envelope=envelope)
    t = branch_times(drive).tolist()
    env = np.array([envelope_value(v, drive) for v in t])
    np.testing.assert_array_max_ulp(env, [envelope_scalar(v, drive) for v in t], maxulp=1)
    shift = np.array([drive_shift(v, drive) for v in t])
    np.testing.assert_array_max_ulp(shift, [drive_shift_scalar(v, drive) for v in t], maxulp=1)
    if envelope is not None:  # the sweep reaches every branch
        assert (env == 0.0).any() and (env == 1.0).any() and ((0.0 < env) & (env < 1.0)).any()


def test_envelope_validation():
    with pytest.raises(DomainError):
        Envelope(ramp_up=0)
    with pytest.raises(DomainError):
        Envelope(hold=-1)
    with pytest.raises(DomainError):
        Envelope(end_phase=TWO_PI)
    with pytest.raises(DomainError):
        DriveSpec(Trajectory.LINEAR_X, k0=-0.1, omega=1.0)
    with pytest.raises(DomainError):
        DriveSpec(Trajectory.LINEAR_X, k0=1.0, omega=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="k0 must be finite"):
            DriveSpec(Trajectory.LINEAR_X, k0=bad, omega=1.0)
        with pytest.raises(DomainError, match="omega must be finite"):
            DriveSpec(Trajectory.LINEAR_X, k0=1.0, omega=bad)


def test_lattice_params_validation():
    with pytest.raises(DomainError):
        LatticeParams(j=0.0, g=1.0)
    with pytest.raises(DomainError):
        LatticeParams(j=1.0, g=-1.0)
    with pytest.raises(DomainError):
        LatticeParams(j=1.0, g=1.0, n0=0.0)
    with pytest.raises(DomainError):
        LatticeParams(j=1.0, g=1.0, gamma0=-0.5)
    with pytest.raises(DomainError):
        LatticeParams(j=1.0, g=1.0, m_z=0.0)
    good = dict(j=1.0, g=1.0, n0=1.0, gamma0=0.0, m_z=1.0)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                LatticeParams(**{**good, name: bad})
    p = LatticeParams(j=1.0, g=3.0, n0=50.0)
    assert p.u * p.n0 == pytest.approx(p.g, rel=1e-12)


# ------------------------------------------------------------------ grids


def test_grid_axes_and_measures():
    g = Grid(8, 6, 4, lz=12.9)
    assert g.qx_axis.shape == (8,)
    assert np.min(g.qx_axis) == pytest.approx(-math.pi, rel=1e-12)
    assert g.qz_axis[1] == pytest.approx(TWO_PI / 12.9, rel=1e-12)
    assert g.dz == pytest.approx(12.9 / 4.0, rel=1e-12)
    assert g.volume == pytest.approx(8 * 6 * 12.9, rel=1e-12)
    assert g.n_modes == 8 * 6 * 4


@pytest.mark.parametrize("g", [Grid(8, 6, 4, lz=10.0), Grid(5, 3, 3, lz=2.5)],
                         ids=["even", "odd"])
def test_grid_partners_and_momenta(g):
    # momenta lists every mode in [nx, ny, nz] index order; q pairs with
    # -q: partners() is a permutation that undoes itself, and the momenta
    # of a mode and of its partner sum to zero modulo each axis' period
    q = g.momenta
    assert q.shape == (3, g.n_modes)
    ix, iy, iz = np.unravel_index(np.arange(g.n_modes), (g.nx, g.ny, g.nz))
    for got, axis, i in zip(q, (g.qx_axis, g.qy_axis, g.qz_axis), (ix, iy, iz)):
        assert np.array_equal(got, axis[i])
    partner = g.partners()
    assert np.array_equal(np.sort(partner), np.arange(g.n_modes))
    assert np.array_equal(partner[partner], np.arange(g.n_modes))
    period = np.array([[TWO_PI], [TWO_PI], [TWO_PI * g.nz / g.lz]])
    gap = np.remainder(q + q[:, partner] + period / 2, period)
    np.testing.assert_allclose(gap - period / 2, 0.0, atol=1e-12)


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(0, 4)
    with pytest.raises(DomainError):
        Grid(4, 4, 1, lz=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="lz must be finite"):
            Grid(4, 4, 1, lz=bad)
