"""Drive kinematics, dispersions and Bogoliubov frames against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakenbec.errors import DomainError, InvertedBandError, SingularModeError
from shakenbec.model import (
    DriveSpec,
    Envelope,
    Grid,
    LatticeParams,
    Momentum,
    Trajectory,
    axis_energies,
    bogoliubov_frame,
    bogoliubov_transform,
    dispersion,
    drive_harmonics,
    drive_shift,
    effective_dispersion,
    envelope_value,
    shake_displacement,
)
from shakenbec.specialmath import ATOMIC_MASS_KG, RB87_MASS_U, bessel_j

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


def test_effective_dispersion_is_period_average():
    rng = np.random.default_rng(21)
    p = lat(j=0.8, g=1.0, m_z=0.3)
    ts = np.arange(2048) / 2048.0
    for _ in range(100):
        traj = ALL_TRAJECTORIES[rng.integers(3)]
        k0 = float(rng.uniform(0, 2.3))
        omega = float(rng.uniform(0.5, 25))
        drive = DriveSpec(traj, k0=k0, omega=omega)
        q = Momentum(*rng.uniform(-math.pi, math.pi, 2), float(rng.uniform(-1, 1)))
        avg = np.mean(
            [dispersion(q, float(t) * drive.period, drive, p) for t in ts]
        )
        try:
            val = effective_dispersion(q, k0, traj, p)
        except InvertedBandError:
            assert avg < 1e-8  # only inverted points may be rejected
            continue
        assert val == pytest.approx(avg, abs=1e-8)


def test_effective_dispersion_inverted_band():
    p = lat()
    with pytest.raises(InvertedBandError):
        effective_dispersion(Momentum(math.pi, 0.0), 2.5, Trajectory.LINEAR_X, p)
    # y direction stays bare under linear shaking
    val = effective_dispersion(Momentum(0.0, math.pi), 2.5, Trajectory.LINEAR_X, p)
    assert val == pytest.approx(4.0 * p.j, abs=1e-12)


def test_effective_dispersion_renormalization_pattern():
    p = lat(j=2.0)
    k0 = 1.25
    b0 = bessel_j(0, k0)
    qx = Momentum(math.pi, 0.0)
    qy = Momentum(0.0, math.pi)
    assert effective_dispersion(qx, k0, Trajectory.LINEAR_X, p) == pytest.approx(
        4.0 * p.j * b0, rel=1e-12
    )
    assert effective_dispersion(qy, k0, Trajectory.LINEAR_X, p) == pytest.approx(
        4.0 * p.j, rel=1e-12
    )
    for traj in (Trajectory.DIAGONAL, Trajectory.CIRCULAR):
        assert effective_dispersion(qy, k0, traj, p) == pytest.approx(
            4.0 * p.j * b0, rel=1e-12
        )


# --------------------------------------------------------- drive harmonics


def measured_harmonics(q, drive, p, l_max=4, n=1024):
    ts = np.arange(n) * drive.period / n
    even = np.array(
        [
            0.5 * (dispersion(q, t, drive, p) + dispersion(-q, t, drive, p))
            for t in ts
        ]
    )
    spec = np.fft.rfft(even) / n
    return [2.0 * float(spec[2 * l].real) for l in range(1, l_max + 1)], spec


def test_drive_harmonics_match_fourier_analysis():
    rng = np.random.default_rng(3)
    p = lat(j=1.1, g=0.7)
    for _ in range(30):
        traj = ALL_TRAJECTORIES[rng.integers(3)]
        drive = DriveSpec(traj, k0=float(rng.uniform(0.1, 2.3)),
                          omega=float(rng.uniform(1, 20)))
        q = Momentum(*rng.uniform(-math.pi, math.pi, 2))
        got = drive_harmonics(q, drive.k0, traj, p, l_max=4)
        want, spec = measured_harmonics(q, drive, p)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=1e-8)
        # the momentum-even part has no odd harmonics and no sine content
        assert abs(spec[1]) < 1e-10
        assert abs(spec[3]) < 1e-10
        assert np.max(np.abs(spec.imag)) < 1e-9


def test_first_harmonic_closed_forms():
    p = lat(j=1.6)
    k0 = 1.25
    b2 = bessel_j(2, k0)
    q = Momentum(0.9, -1.7)
    sx2 = math.sin(0.45) ** 2
    sy2 = math.sin(0.85) ** 2
    lin = drive_harmonics(q, k0, Trajectory.LINEAR_X, p, l_max=1)[0]
    dia = drive_harmonics(q, k0, Trajectory.DIAGONAL, p, l_max=1)[0]
    cir = drive_harmonics(q, k0, Trajectory.CIRCULAR, p, l_max=1)[0]
    assert lin == pytest.approx(8.0 * p.j * b2 * sx2, rel=1e-12)
    assert dia == pytest.approx(8.0 * p.j * b2 * (sx2 + sy2), rel=1e-12)
    assert cir == pytest.approx(8.0 * p.j * b2 * (sx2 - sy2), rel=1e-12)


def test_circular_first_harmonic_antisymmetry():
    p = lat()
    rng = np.random.default_rng(11)
    for _ in range(20):
        qx, qy = rng.uniform(-math.pi, math.pi, 2)
        a = drive_harmonics(Momentum(qx, qy), 1.0, Trajectory.CIRCULAR, p, 1)[0]
        b = drive_harmonics(Momentum(qy, qx), 1.0, Trajectory.CIRCULAR, p, 1)[0]
        assert a == pytest.approx(-b, abs=1e-12)
    corner = drive_harmonics(Momentum(math.pi, math.pi), 1.0,
                             Trajectory.CIRCULAR, p, 1)[0]
    assert corner == pytest.approx(0.0, abs=1e-12)


def test_diagonal_harmonics_symmetric():
    p = lat()
    a = drive_harmonics(Momentum(0.4, 1.9), 1.5, Trajectory.DIAGONAL, p, 3)
    b = drive_harmonics(Momentum(1.9, 0.4), 1.5, Trajectory.DIAGONAL, p, 3)
    assert a == pytest.approx(b, abs=1e-14)


# ------------------------------------------------------- Bogoliubov frames


def test_frame_is_eigenvector_of_pairing_matrix():
    rng = np.random.default_rng(5)
    p = lat(j=1.0, g=3.0)
    for _ in range(40):
        q = Momentum(*rng.uniform(0.2, math.pi, 2))
        traj = ALL_TRAJECTORIES[rng.integers(3)]
        k0 = float(rng.uniform(0, 2.0))
        fr = bogoliubov_frame(q, k0, traj, p)
        assert fr.cosh**2 - fr.sinh**2 == pytest.approx(1.0, abs=1e-12)
        eps = fr.eps_eff
        m = np.array([[eps + p.g, p.g], [-p.g, -eps - p.g]])
        vec = np.array([fr.cosh, -fr.sinh])
        resid = m @ vec - fr.energy * vec
        assert np.max(np.abs(resid)) < 1e-10
        assert fr.energy == pytest.approx(math.sqrt(eps * (eps + 2 * p.g)), rel=1e-12)


def test_frame_special_points():
    p = lat(j=1.0, g=1.0)
    # eps = 2 g makes cosh(2 theta) = 3 / (2 sqrt(2))
    qx = 2.0 * math.asin(math.sqrt(2.0 * p.g / (4.0 * p.j)))
    fr = bogoliubov_frame(Momentum(qx, 0.0), 0.0, Trajectory.LINEAR_X, p)
    assert fr.eps_eff == pytest.approx(2.0 * p.g, rel=1e-12)
    assert fr.cosh2 == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)
    # free particles: no mixing
    free = bogoliubov_frame(Momentum(1.0, 0.0), 0.0, Trajectory.LINEAR_X, lat(g=0.0))
    assert free.cosh2 == 1.0
    assert free.sinh2 == 0.0
    with pytest.raises(SingularModeError):
        bogoliubov_frame(Momentum(0.0, 0.0), 0.0, Trajectory.LINEAR_X, p)


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


def test_grid_index_of():
    g = Grid(8, 8, 4, lz=10.0)
    assert g.index_of(Momentum(0.0, 0.0, 0.0)) == (0, 0, 0)
    # pi and -pi are the same in-plane mode on an even grid
    i_pi = g.index_of(Momentum(math.pi, 0.0, 0.0))
    i_mpi = g.index_of(Momentum(-math.pi, 0.0, 0.0))
    assert i_pi == i_mpi == (4, 0, 0)
    assert g.index_of(Momentum(0.0, 0.0, TWO_PI / 10.0)) == (0, 0, 1)
    with pytest.raises(DomainError):
        g.index_of(Momentum(0.1234, 0.0, 0.0))
    with pytest.raises(DomainError):
        # the transverse axis is not periodic: aliased qz must be rejected
        g.index_of(Momentum(0.0, 0.0, 4.0 * TWO_PI / 10.0))


@pytest.mark.parametrize("about", [(0, 0, 0), (4, 0, 0), (3, 5, 1)])
def test_grid_partner_axes(about):
    # q0 + k pairs with q0 - k: the momenta of an index and of its partner
    # sum to twice the momentum at about, modulo the period of the FFT axis
    g = Grid(8, 6, 4, lz=10.0)
    axes = (g.qx_axis, g.qy_axis, g.qz_axis)
    periods = (TWO_PI, TWO_PI, TWO_PI * g.nz / g.lz)
    for axis, period, c, partner in zip(axes, periods, about, g.partner_axes(about)):
        assert sorted(partner) == list(range(axis.size))
        gap = np.remainder(axis + axis[partner] - 2.0 * axis[c] + period / 2, period)
        np.testing.assert_allclose(gap - period / 2, 0.0, atol=1e-12)


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(0, 4)
    with pytest.raises(DomainError):
        Grid(4, 4, 1, lz=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="lz must be finite"):
            Grid(4, 4, 1, lz=bad)


def test_shake_displacement_magnitude():
    mass = RB87_MASS_U * ATOMIC_MASS_KG
    dx = shake_displacement(1.25, TWO_PI * 2500.0, 407e-9, mass)
    hbar = 1.054571817e-34
    assert dx == pytest.approx(hbar * 1.25 / (407e-9 * TWO_PI * 2500.0 * mass),
                               rel=1e-12)
    assert 1.3e-7 < dx < 1.6e-7  # about 140 nm
    with pytest.raises(DomainError):
        shake_displacement(1.0, -1.0, 1e-9, mass)
