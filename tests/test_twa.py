"""Classical-field sampling, evolution invariants and ensembles."""

import concurrent.futures
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from shakenbec import cli, twa
from shakenbec.errors import BlowUpError, ConfigError, DomainError
from shakenbec.model import (
    DriveSpec,
    Envelope,
    Grid,
    LatticeParams,
    Trajectory,
    axis_energies,
    drive_shift,
)
from shakenbec.twa import (
    FieldState,
    TwaRunConfig,
    ensemble_run,
    realization_rng,
    run_trajectory,
    sample_initial,
)

GRID = Grid(6, 6, 2, lz=4.0)
P = LatticeParams(j=1.0, g=5.0, n0=2.0, m_z=0.7)
P0 = LatticeParams(j=1.0, g=0.0)


def momentum_amps(state):
    axes = (-3, -2, -1)
    return np.fft.fftn(state.amplitudes, axes=axes, norm="ortho") * math.sqrt(state.grid.dz)


def observables_of(state):
    amps = momentum_amps(state)
    total = float(np.sum(np.abs(amps) ** 2))
    cond = float(np.abs(amps[0, 0, 0, 0]) ** 2)
    return (total - cond) / state.grid.volume, cond / total


def atom_number(state):
    """Total atom number sum |a|^2 dz of a one-row state."""
    return float(np.sum(np.abs(state.amplitudes) ** 2)) * state.grid.dz


def field_energy(state, p):
    """Mean-field energy of a one-row state, conserved when the drive is off."""
    eps = sum(axis_energies(*state.grid.mesh, p))
    kinetic = np.sum(eps * np.abs(momentum_amps(state)) ** 2)
    interaction = np.sum(np.abs(state.amplitudes) ** 4) * state.grid.dz
    return float(kinetic + 0.5 * p.u * interaction)


def gpe_step(state, drive, p, t, dt):
    """One Strang step from time t to t + dt in position space, two FFT pairs.

    Half kinetic, contact, half kinetic, each kinetic half at the drive
    shift of its own midpoint: the splitting that run_trajectory fuses
    into one propagator pass per step.
    """
    a = state.amplitudes
    for k, frac in enumerate((0.25, 0.75)):
        if k:
            a = a * np.exp(-1j * dt * p.u * np.abs(a) ** 2)
        shift = drive_shift(t + frac * dt, drive)
        eps = sum(axis_energies(*state.grid.mesh, p, *shift))
        amps = np.fft.fftn(a, axes=(-3, -2, -1), norm="ortho") * np.exp(-0.5j * dt * eps)
        a = np.fft.ifftn(amps, axes=(-3, -2, -1), norm="ortho")
    return replace(state, amplitudes=a)


def contact_cos_sin(a, dt_u):
    """The contact phase from libm's cos and sin of theta = -dt U |a|^2."""
    theta = a.real**2 + a.imag**2
    theta *= -dt_u
    phase = np.empty_like(a)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    a *= phase
    return a


def contact_strided(a, dt_u):
    """twa._contact's half-angle arithmetic on the strided .real and .imag
    views of a complex phase: the reference the engine's contiguous-scratch
    version must match bit for bit."""
    t = np.empty(a.shape)
    phase = np.empty_like(a)
    c, s = phase.real, phase.imag
    np.multiply(a.real, a.real, out=t)
    np.multiply(a.imag, a.imag, out=c)
    t += c
    t *= -0.5 * dt_u
    np.tan(t, out=t)
    np.multiply(t, t, out=s)
    np.subtract(1.0, s, out=c)
    s += 1.0
    t += t
    c /= s
    np.divide(t, s, out=s)
    a *= phase
    return a


def fused_phases(grid, drives, p, cfg, n_cycles):
    """Each period's fused kinetic phases, per kept grid axis a (steps, P, n)
    array: row s is the trailing half phase of step s - 1 (none before the
    first step) times the leading half phase of step s, each half at the
    drive shift of its own midpoint, built from twa._kinetic_factors."""
    n_steps, period = cfg.steps_per_period, drives[0].period
    dt = period / n_steps
    shape = (grid.nx, grid.ny, grid.nz)
    kept = [i for i, n in enumerate(shape) if n > 1] or [2]
    offsets = dt * (0.25 + 0.5 * np.arange(2 * n_steps))
    trail = [np.ones((len(drives), shape[i])) for i in kept]
    periods = []
    for cycle in range(n_cycles):
        ax, ay = np.stack([drive_shift(cycle * period + offsets, d) for d in drives], -1)
        tables = twa._kinetic_factors(grid, p, 0.5 * dt, ax, ay)
        fused = []
        for i, tr in zip(kept, trail):
            f = tables[i][0::2].copy()
            f[0] = tables[i][0] * tr
            f[1:] = tables[i][2::2] * tables[i][1:-1:2]
            fused.append(f)
        trail = [tables[i][-1] for i in kept]
        periods.append(fused)
    return periods


def step_loop(state, drives, p, cfg):
    """run_trajectory with every step's propagators built alone, by
    twa._propagator of that step's fused phases, and contact_strided: the
    traces (n_ex_raw, condensed_fraction, atom_drift) of all P x R rows."""
    grid, rows = state.grid, state.amplitudes
    shape = (grid.nx, grid.ny, grid.nz)
    fwd = [twa._dft_matrix(n, -1) for n in shape if n > 1] or [twa._dft_matrix(1, -1)]
    inv = [m.conj() for m in fwd]
    pos = rows.reshape(len(drives), -1, rows[0].size).astype(complex)
    dt = drives[0].period / cfg.steps_per_period
    occ = []
    for fused in [None] + fused_phases(grid, drives, p, cfg, cfg.n_cycles):
        for step in zip(*fused) if fused else ():
            props = [twa._propagator(f, m, w) for f, m, w in zip(step, inv, fwd)]
            pos = twa._transform(props, pos, np.empty_like(pos))[0]
            pos = contact_strided(pos, dt * p.u)
        amps = twa._transform(fwd, pos.copy(), np.empty_like(pos))[0]
        occ.append((amps.real**2 + amps.imag**2).reshape(len(rows), -1))
    total = np.stack([o.sum(axis=1) * grid.dz for o in occ], axis=1)
    cond = np.stack([o[:, 0] * grid.dz for o in occ], axis=1)
    drift = (np.abs(total - total[:, :1]) / np.maximum(total[:, :1], 1e-300)).max(axis=1)
    return ((total - cond) / grid.volume, cond / np.where(total > 0.0, total, 1.0), drift)


def fftn_loop(state, drives, p, cfg):
    """run_trajectory's splitting written as a momentum-resident loop:
    fftn/ifftn over the grid axes longer than one point, each half-step
    kinetic phase multiplied in momentum space at the drive shift of its
    own midpoint, as in gpe_step, and contact_cos_sin; the momentum field
    of the stacked rows (protocol-major) at every period boundary."""
    n_steps, grid, period = cfg.steps_per_period, state.grid, drives[0].period
    dt = period / n_steps
    rows = state.amplitudes
    a = rows.reshape(len(drives), -1, *rows.shape[1:])
    axes = tuple(ax for ax in (-3, -2, -1) if a.shape[ax] > 1)

    def half_kinetic(t):
        """exp(-i dt/2 eps0(q - A(t))) of each drive, on its own rows."""
        return np.stack([
            np.exp(-0.5j * dt * sum(axis_energies(*grid.mesh, p, *drive_shift(t, d))))
            for d in drives
        ])[:, None]

    amps = np.fft.fftn(a, axes=axes, norm="ortho")
    fields = []
    for t0 in np.arange(cfg.n_cycles) * period:
        fields.append(amps.copy())
        for step in range(n_steps):
            t = t0 + step * dt
            amps = amps * half_kinetic(t + 0.25 * dt)
            a = contact_cos_sin(np.fft.ifftn(amps, axes=axes, norm="ortho"), dt * p.u)
            amps = np.fft.fftn(a, axes=axes, norm="ortho") * half_kinetic(t + 0.75 * dt)
    return fields + [amps]


def sample(k, grid=GRID):
    """The Wigner sample of stream (k, 0) on lattice P."""
    return sample_initial(grid, P, realization_rng(k, 0))


# ---------------------------------------------------------------- sampling


def test_sample_streams():
    # a sample is a function of its generator's stream
    np.testing.assert_array_equal(sample(7).amplitudes, sample(7).amplitudes)
    assert not np.array_equal(sample(7).amplitudes, sample(8).amplitudes)


def test_sampling_mean_noninteracting():
    # mean raw excited density = half a noise quantum per mode
    rng = realization_rng(42, 0)
    vals = np.array(
        [observables_of(sample_initial(GRID, P0, rng))[0] for _ in range(2500)]
    )
    hq = (GRID.n_modes - 1) / (2.0 * GRID.volume)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - hq) < 4.0 * se


def test_sampling_mean_interacting():
    # mean raw excited density = sum over modes of cosh(2 theta_q) / 2V,
    # computed here from the defining Bogoliubov relations
    eps = (
        (4.0 * P.j * np.sin(0.5 * GRID.qx_axis) ** 2)[:, None, None]
        + (4.0 * P.j * np.sin(0.5 * GRID.qy_axis) ** 2)[None, :, None]
        + (0.5 * GRID.qz_axis**2 / P.m_z)[None, None, :]
    )
    e = eps[eps > 0.0]
    want = float(((e + P.g) / np.sqrt(e * (e + 2.0 * P.g))).sum()) / (
        2.0 * GRID.volume
    )
    rng = realization_rng(43, 0)
    vals = np.array(
        [observables_of(sample_initial(GRID, P, rng))[0] for _ in range(2500)]
    )
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - want) < 4.0 * se


# ------------------------------------------------------------- invariants


def test_atom_number_conserved():
    st = sample(3)
    n_start = atom_number(st)
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0)
    s = st
    dt = d.period / 64
    for step in range(64):
        s = gpe_step(s, d, P, step * dt, dt)
        assert atom_number(s) == pytest.approx(n_start, rel=1e-12)


def test_energy_conserved_without_drive():
    st = sample(3)
    d = DriveSpec(Trajectory.LINEAR_X, 0.0, 2.0 * math.pi)
    e0 = field_energy(st, P)
    s = st
    dt = d.period / 128
    for step in range(128 * 20):
        s = gpe_step(s, d, P, step * dt, dt)
    assert field_energy(s, P) == pytest.approx(e0, rel=1e-4)


def test_free_modes_rotate_exactly():
    # U = 0 and no drive: each momentum amplitude picks up exactly
    # exp(-i eps(q) t) per step, nothing else
    grid = Grid(8, 8, 1)
    pfree = LatticeParams(j=1.3, g=0.0)
    amps_q = np.zeros((8, 8, 1), dtype=complex)
    amps_q[0, 0, 0] = 4.0
    amps_q[1, 0, 0] = 0.3
    amps_q[0, 3, 0] = 0.2j
    a = np.fft.ifftn(amps_q, norm="ortho") / math.sqrt(grid.dz)
    st = FieldState(amplitudes=a[None], grid=grid)
    d = DriveSpec(Trajectory.LINEAR_X, 0.0, 2.0 * math.pi)
    s = st
    for step in range(37):
        s = gpe_step(s, d, pfree, 0.01 * step, 0.01)
    eps = (
        (4.0 * pfree.j * np.sin(0.5 * grid.qx_axis) ** 2)[:, None, None]
        + (4.0 * pfree.j * np.sin(0.5 * grid.qy_axis) ** 2)[None, :, None]
        + (0.5 * grid.qz_axis**2 / pfree.m_z)[None, None, :]
    )
    want = amps_q * np.exp(-1j * eps * 0.37)
    np.testing.assert_allclose(momentum_amps(s)[0], want, atol=1e-12)


def test_trace_identities():
    st = sample(9)
    n_total = atom_number(st)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    [tr] = run_trajectory(st, (d,), P, TwaRunConfig(steps_per_period=64, n_cycles=10))
    hq = (GRID.n_modes - 1) / (2.0 * GRID.volume)
    assert tr.half_quantum == pytest.approx(hq, rel=1e-12)
    np.testing.assert_allclose(tr.n_ex, tr.n_ex_raw - hq, rtol=1e-12)
    # n_ex_raw and condensed fraction describe the same conserved total
    totals = tr.n_ex_raw * GRID.volume / (1.0 - tr.condensed_fraction)
    np.testing.assert_allclose(totals, n_total, rtol=1e-9)
    # the raw excited density can never exceed the total density
    assert np.all(tr.n_ex_raw <= n_total / GRID.volume + 1e-12)
    assert np.allclose(np.diff(tr.times), d.period, rtol=1e-12)


# ------------------------------------------------------------ step loop


def stacked(states):
    return replace(states[0], amplitudes=np.concatenate([st.amplitudes for st in states]))


STOP = Envelope(ramp_up=2, hold=1, abrupt_stop=True, end_phase=0.5)


@pytest.mark.parametrize("envelope", [None, STOP], ids=["constant", "abrupt-stop"])
def test_run_trajectory_matches_gpe_step_loop(envelope):
    # the fused position-space loop is the same splitting as gpe_step's
    # two FFT pairs per step, up to rounding
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0, envelope)
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=5)
    st = sample(4)
    [tr] = run_trajectory(st, (d,), P, cfg)
    s = st
    want = [observables_of(s)]
    dt = d.period / cfg.steps_per_period
    for cycle in range(cfg.n_cycles):
        for step in range(cfg.steps_per_period):
            s = gpe_step(s, d, P, cycle * d.period + step * dt, dt)
        want.append(observables_of(s))
    want = np.array(want)
    np.testing.assert_allclose(tr.times, d.period * np.arange(6), rtol=1e-12)
    np.testing.assert_allclose(tr.n_ex_raw[0], want[:, 0], rtol=1e-10)
    np.testing.assert_allclose(tr.condensed_fraction[0], want[:, 1], rtol=1e-10)


@pytest.mark.parametrize("grid, n_drives", [
    (Grid(5, 3, 3, lz=2.0), 1),  # odd sizes: no row aligns with a SIMD width
    (Grid(6, 6, 1), 1),  # nz = 1: the length-1 axis takes no pass
    (GRID, 2),  # two stacked drives, each on its own rows
], ids=["odd-3d", "2d", "two-drives"])
def test_run_trajectory_matches_fftn_loop(monkeypatch, grid, n_drives):
    # the position-resident circulant propagators against a momentum-
    # resident loop of fftn/ifftn with a separate multiply, both with the
    # cos/sin contact: every observable agrees to rounding.  atom_drift is
    # itself rounding, about 1e-13, so it is compared in absolute terms
    monkeypatch.setattr(twa, "_contact", contact_cos_sin)
    drives = end_phase_drives()[:n_drives]
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=4)
    st = stacked([sample(k, grid) for k in range(3)] * n_drives)
    traces = run_trajectory(st, drives, P, cfg)
    occ = [(f.real**2 + f.imag**2).reshape(len(st.amplitudes), -1)
           for f in fftn_loop(st, drives, P, cfg)]
    total = np.stack([o.sum(axis=1) * grid.dz for o in occ], axis=1)
    cond = np.stack([o[:, 0] * grid.dz for o in occ], axis=1)
    drift = (np.abs(total - total[:, :1]) / total[:, :1]).max(axis=1)
    for k, tr in enumerate(traces):
        rows = slice(3 * k, 3 * k + 3)
        np.testing.assert_allclose(tr.n_ex_raw, ((total - cond) / grid.volume)[rows],
                                   rtol=1e-11)
        np.testing.assert_allclose(tr.condensed_fraction, (cond / total)[rows], rtol=1e-11)
        np.testing.assert_allclose(tr.atom_drift, drift[rows], rtol=0, atol=1e-13)


def test_contact_matches_exp_i_theta():
    # the half-angle tangent against libm's cos and sin (through np.exp)
    # for theta = -dt U |a|^2 over +-1e8
    rng = np.random.default_rng(7)
    rho = np.concatenate([[0.0, math.pi / 2, math.pi, 1e-300, 1e8],
                          rng.uniform(0.0, 1e8, 3000), rng.uniform(0.0, 10.0, 3000),
                          np.geomspace(1e-300, 1e8, 3000)])
    a = np.sqrt(rho) * np.exp(2j * np.pi * rng.random(rho.size))
    for dt_u in (1.0, -1.0):
        theta = (a.real**2 + a.imag**2) * -dt_u
        got = twa._contact(a.copy(), dt_u)
        assert np.all(np.abs(got - a * np.exp(1j * theta)) <= 1e-15 * np.abs(a))
    # the phase itself, on a = 1 where theta = -dt_u exactly
    angles = [0.0, math.pi / 2, math.pi, 1e-300, 1e8,
              *rng.uniform(0.0, 1e8, 300), *rng.uniform(0.0, 10.0, 300)]
    for theta in angles + [-x for x in angles]:
        [phase] = twa._contact(np.ones(1, dtype=complex), -theta)
        assert abs(phase - complex(math.cos(theta), math.sin(theta))) <= 1e-15
        assert abs(phase.real**2 + phase.imag**2 - 1.0) <= 1e-15


def test_non_finite_field_raises_blow_up(monkeypatch):
    # tan of a NaN or infinite angle is NaN: the tangent never turns a
    # non-finite field finite, so the run's guard still sees it
    bad = np.array([np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(1.0, np.nan)])
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(twa._contact(bad, 0.5)).any()
    contact = twa._contact
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    for value in (np.nan, np.inf):
        def poisoned(a, dt_u, value=value):
            a.flat[7] = value
            return contact(a, dt_u)

        monkeypatch.setattr(twa, "_contact", poisoned)
        with pytest.raises(BlowUpError, match="field left the finite range in cycle 1"):
            run_trajectory(sample(1), (d,), P, quick_run())


@pytest.mark.parametrize("shape", [(3, 5, 47), (1, 6, 2049), (2, 3, 1), (1, 1, 9001)])
def test_contact_matches_strided_oracle_bit_for_bit(shape):
    # the same IEEE operations in the same order as on strided views, on
    # odd sizes in a buffer one element past its allocation, so that no
    # row starts on a SIMD boundary, with NaN and infinite elements; in
    # place, as run_trajectory reuses its field buffer
    rng = np.random.default_rng(11)
    size = math.prod(shape)
    specials = [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(1.0, np.nan),
                complex(-np.inf, 2.0)]
    for dt_u in (1e-3, 0.7, 1.0, -1.0, 1e8):
        a = np.empty(size + 1, dtype=complex)[1:].reshape(shape)
        a[...] = 4.0 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        a.flat[rng.choice(size, len(specials), replace=False)] = specials
        with np.errstate(invalid="ignore", over="ignore"):
            want = contact_strided(a.copy(), dt_u)
            got = twa._contact(a, dt_u)
        assert got is a
        assert got.tobytes() == want.tobytes()


def test_run_trajectory_leaves_its_state_unchanged():
    # a 1 x 1 x 1 grid has no axis longer than one point; its transform
    # must still copy the field, not evolve the caller's array in place
    grid = Grid(1, 1, 1)
    for st in (sample(3, grid), stacked([sample(k, grid) for k in range(2)])):
        before = st.amplitudes.copy()
        run_trajectory(st, (DriveSpec(Trajectory.LINEAR_X, 1.0, 6.0),), P, quick_run())
        assert st.amplitudes.tobytes() == before.tobytes()


def random_rows(shape, n_prot=2, n_real=3, seed=3):
    """A (P, R, nx, ny, nz) complex field of unit-variance entries."""
    rng = np.random.default_rng(seed)
    size = (n_prot, n_real, *shape)
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def transform(mats, field):
    """twa._transform of a (P, R, nx, ny, nz) field, shaped back to it."""
    buffers = np.empty((2, *field.shape[:2], field[0, 0].size), dtype=complex)
    buffers[0] = field.reshape(buffers[0].shape)
    return twa._transform(mats, *buffers)[0].reshape(field.shape)


@pytest.mark.parametrize("shape", [(5, 3, 3), (6, 6, 1), (1, 4, 1), (1, 1, 1)],
                         ids=["odd-3d", "2d", "length-1-axes", "1x1x1"])
def test_transform_matches_fftn(shape):
    # the kept axes are those longer than one point, or the last one
    field = random_rows(shape)
    sizes = [n for n in shape if n > 1] or [1]
    for sign, fftn in ((-1, np.fft.fftn), (1, np.fft.ifftn)):
        got = transform([twa._dft_matrix(n, sign) for n in sizes], field)
        want = fftn(field, axes=(-3, -2, -1), norm="ortho")
        assert np.abs(got - want).max() <= 1e-13


def propagators(phases):
    """twa._propagator of each drive's phases (P x n), P x 1 x n x n."""
    n = phases.shape[-1]
    return twa._propagator(phases, twa._dft_matrix(n, 1), twa._dft_matrix(n, -1))


def test_propagators_match_multiply_between_fftn_and_ifftn():
    # each axis's propagator F^-1 diag(f) F, one per drive, through the
    # transform equals the separable phase multiply between fftn and ifftn
    shape = (5, 3, 4)
    field = random_rows(shape)
    rng = np.random.default_rng(4)
    phases = [np.exp(1j * rng.uniform(-np.pi, np.pi, (2, n))) for n in shape]
    fx, fy, fz = phases
    kin = fx[:, :, None, None] * fy[:, None, :, None] * fz[:, None, None, :]
    axes = (-3, -2, -1)
    want = np.fft.ifftn(kin[:, None] * np.fft.fftn(field, axes=axes, norm="ortho"),
                        axes=axes, norm="ortho")
    assert np.abs(transform([propagators(f) for f in phases], field) - want).max() <= 1e-13
    # and each propagator is unitary
    for n in (1, 2, 3, 5, 8, 12, 16, 24, 32):
        for c in propagators(np.exp(1j * rng.uniform(-np.pi, np.pi, (2, n))))[:, 0]:
            assert np.abs(c @ c.conj().T - np.eye(n)).max() <= 1e-14


def test_transforms_counter_matches_the_engine(monkeypatch):
    # one propagator pass set per step and one forward transform per
    # period boundary: the manifest's count is the engine's own
    calls = []
    transform_ = twa._transform

    def counted(mats, src, out):
        calls.append(len(mats))
        return transform_(mats, src, out)

    monkeypatch.setattr(twa, "_transform", counted)
    drives = end_phase_drives()
    cfg = TwaRunConfig(steps_per_period=16, n_cycles=4)
    run_trajectory(stacked([sample(k) for k in range(2)] * len(drives)), drives, P, cfg)
    per_realization = 16 * 4 + 4 + 1
    assert len(calls) == per_realization
    assert set(calls) == {3}  # every call passes over the three axes of GRID
    calls.clear()
    results = ensemble_run(drives, P, ens(n=2, run=cfg))
    assert len(calls) == per_realization
    assert [res.transforms for res in results] == [2 * per_realization] * len(drives)
    # each trace's counters are the sums over the batches that joined into it
    monkeypatch.setattr(twa, "_transform", transform_)
    for workers, batches in ((1, [range(3)]), (2, [range(1), range(1, 3)])):
        parts = [twa._run_batch((drives, P, ens(n=3, run=cfg), ks)) for ks in batches]
        traces = ensemble_run(drives, P, ens(n=3, run=cfg), workers=workers)
        for k, res in enumerate(traces):
            assert res.transforms == sum(b[k].transforms for b in parts) == 3 * per_realization
            assert res.site_steps == sum(b[k].site_steps for b in parts) == (
                GRID.n_modes * 3 * 16 * 4)


CUT = Envelope(ramp_up=1, hold=1, abrupt_stop=True, end_phase=0.5)  # cut in period 3


@pytest.mark.parametrize("drives, held", [
    ((DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0),), 6),  # y and z, periods 2 to 4
    ((DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0),), 3),  # z only
    ((DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0, CUT),), 5),  # and x, y after the cut
    ((DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0), DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0)),
     3),  # y holds still for one drive only, so it is built per step
], ids=["linear_x", "circular", "abrupt-stop", "y-held-for-one-drive"])
def test_step_propagators_bit_for_bit(monkeypatch, drives, held):
    # each step applies, bit for bit, twa._propagator of its own fused
    # phases, whether its axis's propagator is built once for the period
    # (phases (P, n)) or with a block of steps (phases (steps, P, n))
    grid = Grid(5, 3, 3, lz=2.0)
    cfg = TwaRunConfig(steps_per_period=16, n_cycles=4)
    fwd = [twa._dft_matrix(n, -1) for n in (5, 3, 3)]
    inv = [m.conj() for m in fwd]
    want = [[twa._propagator(f, m, w) for f, m, w in zip(step, inv, fwd)]
            for fused in fused_phases(grid, drives, P, cfg, cfg.n_cycles)
            for step in zip(*fused)]
    applied, builds = [], []
    transform, propagator = twa._transform, twa._propagator

    def record(mats, src, out):
        if mats[0].ndim == 4:  # a step's propagators, not the forward transform
            applied.append([m.copy() for m in mats])
        return transform(mats, src, out)

    def counted(f, inv, fwd):
        builds.append(f.ndim)
        return propagator(f, inv, fwd)

    monkeypatch.setattr(twa, "_transform", record)
    monkeypatch.setattr(twa, "_propagator", counted)
    run_trajectory(stacked([sample(k, grid) for k in range(2)] * len(drives)), drives, P, cfg)
    assert len(applied) == len(want) == 16 * 4
    for got, exp in zip(applied, want):
        assert all(np.array_equal(g, e) for g, e in zip(got, exp))
    assert builds.count(2) == held


@pytest.mark.parametrize("grid, n_drives", [
    (Grid(5, 3, 3, lz=2.0), 1),  # a circular drive cut in period 4 of 5
    (Grid(6, 6, 1), 3),  # the end-phase study's stops and ramp
], ids=["odd-3d", "2d-three-drives"])
def test_run_trajectory_matches_step_loop_bit_for_bit(grid, n_drives):
    # per-period propagators and the contiguous contact leave every trace
    # equal to a loop that builds each step's propagators alone and takes
    # the strided contact
    drives = ((DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0, STOP),) if n_drives == 1
              else end_phase_drives())
    cfg = TwaRunConfig(steps_per_period=16, n_cycles=5)
    state = stacked([sample(k, grid) for k in range(3)] * len(drives))
    traces = run_trajectory(state, drives, P, cfg)
    n_raw, cf, drift = step_loop(state, drives, P, cfg)
    for k, tr in enumerate(traces):
        rows = slice(3 * k, 3 * k + 3)
        assert np.array_equal(tr.n_ex_raw, n_raw[rows])
        assert np.array_equal(tr.condensed_fraction, cf[rows])
        assert np.array_equal(tr.atom_drift, drift[rows])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 24, 32])
def test_dft_matrices_are_unitary(n):
    for sign in (-1, 1):
        f = twa._dft_matrix(n, sign)
        assert np.abs(f @ f.conj().T - np.eye(n)).max() <= 1e-15


def test_stacked_rows_bit_identical_to_single_runs():
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0, STOP)
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=4)
    grid = Grid(5, 3, 3, lz=2.0)  # odd sizes: no row aligns with a SIMD width
    states = [sample(k, grid) for k in range(5)]
    [batch] = run_trajectory(stacked(states), (d,), P, cfg)
    assert batch.n_ex_raw.shape == batch.condensed_fraction.shape == (5, 5)
    assert batch.atom_drift.shape == (5,)
    for j, st in enumerate(states):
        [solo] = run_trajectory(st, (d,), P, cfg)
        np.testing.assert_array_equal(batch.n_ex_raw[j], solo.n_ex_raw[0])
        np.testing.assert_array_equal(batch.n_ex[j], solo.n_ex[0])
        np.testing.assert_array_equal(batch.condensed_fraction[j], solo.condensed_fraction[0])
        assert batch.atom_drift[j] == solo.atom_drift[0]


def test_run_trajectory_holds_one_period_of_tables():
    # the end-phase study's shapes: 12 x 12 x 1 sites, three drives x six
    # rows, 128 steps per period, over three periods
    grid = Grid(12, 12, 1)
    stops = [Envelope(ramp_up=2, hold=6, abrupt_stop=True, end_phase=phase)
             for phase in (0.0, 0.5 * math.pi)]
    drives = tuple(DriveSpec(Trajectory.LINEAR_X, 1.25, 12.5, env)
                   for env in (*stops, Envelope(ramp_up=2, hold=6, ramp_down=3)))
    cfg = TwaRunConfig(steps_per_period=128, n_cycles=3)
    state = stacked([sample(k, grid) for k in range(6)] * 3)
    run_trajectory(state, drives, P, cfg)  # one-off allocations stay out of the count
    tracemalloc.start()
    try:
        run_trajectory(state, drives, P, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = state.amplitudes.size * 16  # one complex buffer of every row
    tables = 2 * 128 * 3 * (12 + 12 + 1) * 16  # one period: both half phases of each step
    # slack: the build's float energies and temporaries, less than one more
    # period of tables, and numpy's 8192-element complex casting buffer.  A
    # second period of tables kept alive during the build exceeds it
    assert peak < 2 * field + 2 * tables + 8192 * 16, (peak, field, tables)


def test_invariants_of_stacked_state():
    # each row of a stacked run keeps its own sample's atom number
    d = DriveSpec(Trajectory.DIAGONAL, 1.0, 7.0)
    states = [sample(k) for k in range(3)]
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=3)
    [tr] = run_trajectory(stacked(states), (d,), P, cfg)
    totals = tr.n_ex_raw * GRID.volume / (1.0 - tr.condensed_fraction)
    want = np.array([atom_number(st) for st in states])
    assert np.ptp(want) > 1e-6  # the noise gives each row its own atom number
    np.testing.assert_allclose(totals, np.repeat(want[:, None], 4, axis=1), rtol=1e-9)


def test_atom_drift_matches_atom_number(monkeypatch):
    # a lossy contact step makes the drift large and known: the kinetic
    # phases are unitary, so each of the 96 steps scales the atom number
    # by exp(-2e-4), and the trace must report that loss as its drift
    contact = twa._contact

    def lossy(a, dt_u):
        return contact(a, dt_u) * math.exp(-1e-4)

    monkeypatch.setattr(twa, "_contact", lossy)
    monkeypatch.setattr(twa, "ATOM_DRIFT_TOL", 1.0)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=3)
    [tr] = run_trajectory(sample(6), (d,), P, cfg)
    assert tr.atom_drift[0] == pytest.approx(1.0 - math.exp(-2e-4 * 96), rel=1e-9)


def test_atom_drift_guard_names_realization(monkeypatch):
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    [res] = ensemble_run((d,), P, ens(n=4), workers=2)
    drifts = res.atom_drift
    assert np.all(drifts < twa.ATOM_DRIFT_TOL)
    worst = int(np.argmax(drifts))
    assert drifts[worst] > 0.0
    # worst over both batches
    assert cli._twa_counters([res])["atom_drift_max"] == drifts[worst]
    assert np.sum(drifts >= 0.999 * drifts[worst]) == 1
    monkeypatch.setattr(twa, "ATOM_DRIFT_TOL", 0.999 * drifts[worst])
    with pytest.raises(BlowUpError, match=f"realization {worst}: atom number .* cycle"):
        ensemble_run((d,), P, ens(n=4), workers=2)


# ------------------------------------------------------------ protocol axis


def end_phase_drives(omega=9.0):
    """Two abrupt stops and a ramped control, as the endphase study runs."""
    envs = (STOP, replace(STOP, end_phase=2.0), Envelope(ramp_up=2, hold=1, ramp_down=2))
    return tuple(DriveSpec(Trajectory.LINEAR_X, 1.25, omega, e) for e in envs)


def test_stacked_drives_bit_identical_to_single_runs():
    drives = end_phase_drives()
    stack = ensemble_run(drives, P, ens(n=3), workers=2)
    assert len(stack) == len(drives)
    for d, res in zip(drives, stack):
        [solo] = ensemble_run((d,), P, ens(n=3), workers=1)
        for field in ("times", "n_ex_raw", "n_ex", "condensed_fraction"):
            assert getattr(res, field).tobytes() == getattr(solo, field).tobytes(), field
        for band, solo_band in zip(cli._band(res, ens(n=3)), cli._band(solo, ens(n=3))):
            assert band.tobytes() == solo_band.tobytes()
        assert (res.half_quantum, res.atom_drift.max(), len(res.n_ex) < 2) == (
            solo.half_quantum, solo.atom_drift.max(), len(solo.n_ex) < 2)
        assert res.n_ex_raw.shape == solo.n_ex_raw.shape
        assert res.n_ex_raw.tobytes() == solo.n_ex_raw.tobytes()
        assert res.atom_drift.tobytes() == solo.atom_drift.tobytes()
    # the protocols differ, so no result is a copy of another
    assert not np.array_equal(stack[0].n_ex, stack[1].n_ex)


def test_stacked_drives_must_share_omega_and_run_length():
    drives = end_phase_drives()
    st = stacked([sample(k) for k in range(3)])
    mixed = drives[:2] + (replace(drives[2], omega=10.0),)
    with pytest.raises(DomainError, match="share omega"):
        ensemble_run(mixed, P, ens(n=1))
    with pytest.raises(DomainError, match="share omega"):
        run_trajectory(st, mixed, P, quick_run())
    # with n_cycles unset, the ramped control ends a period after the stops
    by_schedule = TwaRunConfig(steps_per_period=32)
    assert by_schedule.resolve_cycles(drives[:2]) == 4
    with pytest.raises(DomainError, match="different run lengths"):
        by_schedule.resolve_cycles(drives)
    with pytest.raises(DomainError, match="different run lengths"):
        run_trajectory(st, drives, P, by_schedule)
    with pytest.raises(DomainError, match="split evenly"):
        run_trajectory(stacked([sample(k) for k in range(2)]),
                       drives, P, quick_run())


def test_atom_drift_guard_names_protocol_and_realization(monkeypatch):
    drives = end_phase_drives()
    runs = ensemble_run(drives, P, ens(n=4), workers=2)
    drifts = np.array([res.atom_drift for res in runs])
    worst = np.unravel_index(np.argmax(drifts), drifts.shape)
    assert drifts[worst] > 0.0
    assert np.sum(drifts >= 0.999 * drifts[worst]) == 1
    monkeypatch.setattr(twa, "ATOM_DRIFT_TOL", 0.999 * drifts[worst])
    want = f"protocol {worst[0]}, realization {worst[1]}: atom number .* cycle"
    with pytest.raises(BlowUpError, match=want):
        ensemble_run(drives, P, ens(n=4), workers=2)


# -------------------------------------------------------------- run config


def test_run_config_validation():
    with pytest.raises(DomainError):
        TwaRunConfig(steps_per_period=8)
    with pytest.raises(DomainError):
        TwaRunConfig(n_cycles=0)


def test_resolve_cycles():
    from shakenbec.model import Envelope

    bare = DriveSpec(Trajectory.LINEAR_X, 1.0, 6.0)
    ramped = DriveSpec(
        Trajectory.LINEAR_X, 1.0, 6.0, Envelope(ramp_up=3, hold=4, ramp_down=2)
    )
    assert TwaRunConfig(n_cycles=7).resolve_cycles((bare,)) == 7
    assert TwaRunConfig(n_cycles=7).resolve_cycles((ramped,)) == 7
    assert TwaRunConfig().resolve_cycles((ramped,)) == 9
    with pytest.raises(ConfigError):
        TwaRunConfig().resolve_cycles((bare,))


def test_resolve_cycles_needs_a_drive():
    with pytest.raises(DomainError, match="at least one drive"):
        TwaRunConfig(n_cycles=3).resolve_cycles(())
    with pytest.raises(DomainError, match="at least one drive"):
        run_trajectory(sample(1), (), P, quick_run())


# --------------------------------------------------------------- ensembles


def ens(n=3, seed=0, resamples=20, run=None):
    """quick_run(), or run, on GRID with an ensemble of n realizations."""
    return replace(run or quick_run(), grid=GRID, n_realizations=n, master_seed=seed,
                   bootstrap_resamples=resamples)


def quick_run():
    return TwaRunConfig(steps_per_period=32, n_cycles=6)


def assert_rows_are_realizations(res, d, seed=0):
    """Row k of the trace res is, bit for bit, the one-row run_trajectory
    of the sample drawn from realization_rng(seed, k)."""
    for k in range(len(res.n_ex)):
        st = sample_initial(GRID, P, realization_rng(seed, k))
        [solo] = run_trajectory(st, (d,), P, quick_run())
        for field in ("n_ex_raw", "n_ex", "condensed_fraction", "atom_drift"):
            assert getattr(res, field)[k].tobytes() == getattr(solo, field).tobytes()


def test_ensemble_deterministic_and_worker_independent(monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    [a] = ensemble_run((d,), P, ens(), workers=1)
    [b] = ensemble_run((d,), P, ens(), workers=1)
    [c] = ensemble_run((d,), P, ens(), workers=2)
    np.testing.assert_array_equal(a.n_ex, b.n_ex)
    np.testing.assert_array_equal(a.n_ex, c.n_ex)
    np.testing.assert_array_equal(cli._band(a, ens())[0], cli._band(c, ens())[0])
    [other] = ensemble_run((d,), P, ens(seed=1), workers=1)
    assert not np.array_equal(a.n_ex, other.n_ex)
    # never more batches (processes) than realizations, none empty
    pools.clear()
    runs = [ensemble_run((d,), P, ens(n=2), workers=w)[0]
            for w in (1, 2, 3)]
    assert pools == [2, 2]
    for run in runs:
        assert_rows_are_realizations(run, d)
        assert run.n_ex.tobytes() == runs[0].n_ex.tobytes()
        for band, first in zip(cli._band(run, ens(n=2)), cli._band(runs[0], ens(n=2))):
            assert band.tobytes() == first.tobytes()


def test_ensemble_structure():
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    [res] = ensemble_run((d,), P, ens(n=4), workers=1)
    assert len(res.n_ex) == 4
    assert_rows_are_realizations(res, d)
    mean = cli._mean_n_ex(res)
    np.testing.assert_allclose(
        mean + res.half_quantum,
        res.n_ex_raw.mean(axis=0),
        rtol=1e-12,
    )
    np.testing.assert_allclose(res.n_ex, res.n_ex_raw - res.half_quantum,
                               rtol=1e-12)
    assert not len(res.n_ex) < 2  # bands from more than one realization
    drift = cli._twa_counters([res])["atom_drift_max"]
    assert drift == max(res.atom_drift)
    assert 0.0 <= drift <= twa.ATOM_DRIFT_TOL
    band_lo, band_hi = cli._band(res, ens(n=4))
    assert np.all(band_hi >= band_lo)
    assert np.all((mean >= band_lo) & (mean <= band_hi))


def test_ensemble_blow_up_names_realization():
    bad = LatticeParams(j=1.0, g=10.0, n0=1e-308)  # infinite two-body coupling
    d = DriveSpec(Trajectory.LINEAR_X, 1.0, 6.0)
    with pytest.raises(BlowUpError, match="realization 0"):
        ensemble_run(
            (d,), bad, ens(n=2, run=TwaRunConfig(steps_per_period=16, n_cycles=1))
        )


def test_ensemble_bands_pinned_bit_for_bit(monkeypatch):
    # seed, draw order and arithmetic of the bootstrap bands, with the libm
    # cos/sin contact the numbers were recorded with (the tangent's last
    # bits follow the CPU's tan); recorded with fftn, so the DFT-matrix
    # transforms reproduce them to rounding
    # the twa command's band code (cli._band) over the engine's rows
    def run():
        trace = ensemble_run((DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0),),
                             LatticeParams(j=1.0, g=5.0, n0=2.0),
                             TwaRunConfig(steps_per_period=16, n_cycles=2, grid=Grid(4, 4, 1),
                                          n_realizations=3, master_seed=5,
                                          bootstrap_resamples=20), workers=1)[0]
        return cli._band(trace, ens(n=3, seed=5))

    shipped_lo, shipped_hi = run()
    monkeypatch.setattr(twa, "_contact", contact_cos_sin)
    band_lo, band_hi = run()
    np.testing.assert_allclose(band_lo, [
        0.06577447252690788, 0.5806436177909525, 0.6910172505276788,
    ], rtol=1e-12)
    np.testing.assert_allclose(band_hi, [
        0.3196012891484394, 0.9161114395309377, 1.0840169197451093,
    ], rtol=1e-12)
    np.testing.assert_allclose(shipped_lo, band_lo, rtol=1e-12)
    np.testing.assert_allclose(shipped_hi, band_hi, rtol=1e-12)


def test_ensemble_config_validation():
    with pytest.raises(DomainError):
        TwaRunConfig(n_realizations=0)
    with pytest.raises(DomainError):
        TwaRunConfig(bootstrap_resamples=0)
    with pytest.raises(DomainError, match="rate_window_cycles must be >= 1"):
        TwaRunConfig(rate_window_cycles=0)
