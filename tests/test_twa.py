"""Classical-field sampling, evolution invariants, ensembles, checkpoints."""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from shakenbec import twa
from shakenbec.errors import BlowUpError, ConfigError, DomainError
from shakenbec.model import (
    DriveSpec,
    Envelope,
    Grid,
    LatticeParams,
    Momentum,
    Trajectory,
)
from shakenbec.twa import (
    GAUGE_TAG,
    EnsembleConfig,
    FieldState,
    TwaRunConfig,
    atom_number,
    ensemble_run,
    field_energy,
    gpe_step,
    load_field,
    realization_rng,
    run_trajectory,
    sample_initial,
    save_field,
)

GRID = Grid(6, 6, 2, lz=4.0)
P = LatticeParams(j=1.0, g=5.0, n0=2.0, m_z=0.7)
P0 = LatticeParams(j=1.0, g=0.0)


def momentum_amps(state):
    return np.fft.fftn(state.amplitudes, norm="ortho") * math.sqrt(state.grid.dz)


def observables_of(state):
    amps = momentum_amps(state)
    total = float(np.sum(np.abs(amps) ** 2))
    cond = float(np.abs(amps[state.condensate_index]) ** 2)
    return (total - cond) / state.grid.volume, cond / total


# ---------------------------------------------------------------- sampling


def test_noiseless_sample_is_uniform_condensate():
    st = sample_initial(GRID, P, seed=0, noise_scale=0.0)
    assert np.allclose(np.abs(st.amplitudes) ** 2, P.n0, rtol=1e-12)
    assert atom_number(st) == pytest.approx(P.n0 * GRID.volume, rel=1e-12)
    n_ex, cf = observables_of(st)
    assert n_ex == pytest.approx(0.0, abs=1e-12)
    assert cf == pytest.approx(1.0, abs=1e-12)
    assert st.gauge == GAUGE_TAG
    assert st.seed == 0


def test_sample_seed_forms():
    a = sample_initial(GRID, P, seed=7)
    b = sample_initial(GRID, P, seed=realization_rng(7, 0))
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert a.seed == 7
    assert b.seed is None  # generator-fed samples carry no scalar seed
    c = sample_initial(GRID, P, seed=8)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    with pytest.raises(DomainError):
        sample_initial(GRID, P, seed=0, noise_scale=-0.1)
    with pytest.raises(DomainError, match="noise_scale must be finite"):
        sample_initial(GRID, P, seed=0, noise_scale=float("nan"))
    with pytest.raises(DomainError):
        sample_initial(GRID, P, Momentum(0.123, 0.0, 0.0), seed=0)  # off grid


def test_sampling_mean_noninteracting():
    # mean raw excited density = half a noise quantum per mode
    rng = realization_rng(42, 0)
    vals = np.array(
        [observables_of(sample_initial(GRID, P0, seed=rng))[0] for _ in range(2500)]
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
        [observables_of(sample_initial(GRID, P, seed=rng))[0] for _ in range(2500)]
    )
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - want) < 4.0 * se


def test_sample_at_band_corner_condensate():
    q0 = Momentum(math.pi, math.pi, 0.0)
    st = sample_initial(GRID, P, q0, seed=0, noise_scale=0.0)
    i0 = GRID.index_of(q0)
    assert st.condensate_index == i0
    amps = momentum_amps(st)
    assert np.abs(amps[i0]) ** 2 == pytest.approx(P.n0 * GRID.volume, rel=1e-12)
    # every other mode sits below the condensate energy: vacuum noise
    noisy = sample_initial(GRID, P, q0, seed=1)
    n_ex, _ = observables_of(noisy)
    assert n_ex > 0.0


# ------------------------------------------------------------- invariants


def test_atom_number_conserved():
    st = sample_initial(GRID, P, seed=3)
    n_start = atom_number(st)
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0)
    s = st
    dt = d.period / 64
    for _ in range(64):
        s = gpe_step(s, d, P, dt)
        assert atom_number(s) == pytest.approx(n_start, rel=1e-12)


def test_energy_conserved_without_drive():
    st = sample_initial(GRID, P, seed=3)
    d = DriveSpec(Trajectory.LINEAR_X, 0.0, 2.0 * math.pi)
    e0 = field_energy(st, P)
    s = st
    dt = d.period / 128
    for _ in range(128 * 20):
        s = gpe_step(s, d, P, dt)
    assert field_energy(s, P) == pytest.approx(e0, rel=1e-4)
    assert s.t == pytest.approx(20.0 * d.period, rel=1e-9)


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
    st = FieldState(amplitudes=a, grid=grid)
    d = DriveSpec(Trajectory.LINEAR_X, 0.0, 2.0 * math.pi)
    s = st
    for _ in range(37):
        s = gpe_step(s, d, pfree, 0.01)
    eps = (
        (4.0 * pfree.j * np.sin(0.5 * grid.qx_axis) ** 2)[:, None, None]
        + (4.0 * pfree.j * np.sin(0.5 * grid.qy_axis) ** 2)[None, :, None]
        + (0.5 * grid.qz_axis**2 / pfree.m_z)[None, None, :]
    )
    want = amps_q * np.exp(-1j * eps * 0.37)
    np.testing.assert_allclose(momentum_amps(s), want, atol=1e-12)


def test_trace_identities():
    st = sample_initial(GRID, P, seed=9)
    n_total = atom_number(st)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    tr = run_trajectory(st, d, P, TwaRunConfig(steps_per_period=64, n_cycles=10))
    hq = (GRID.n_modes - 1) * st.noise_scale**2 / (2.0 * GRID.volume)
    assert tr.half_quantum == pytest.approx(hq, rel=1e-12)
    np.testing.assert_allclose(tr.n_ex, tr.n_ex_raw - hq, rtol=1e-12)
    # n_ex_raw and condensed fraction describe the same conserved total
    totals = tr.n_ex_raw * GRID.volume / (1.0 - tr.condensed_fraction)
    np.testing.assert_allclose(totals, n_total, rtol=1e-9)
    # the raw excited density can never exceed the total density
    assert np.all(tr.n_ex_raw <= n_total / GRID.volume + 1e-12)
    assert np.allclose(np.diff(tr.times), d.period, rtol=1e-12)


# ------------------------------------------------------------ k-space loop


def stacked(states):
    return replace(states[0], amplitudes=np.stack([st.amplitudes for st in states]))


STOP = Envelope(ramp_up=2, hold=1, abrupt_stop=True, end_phase=0.5)


@pytest.mark.parametrize("envelope", [None, STOP], ids=["constant", "abrupt-stop"])
def test_run_trajectory_matches_gpe_step_loop(envelope):
    # the fused momentum-space loop is the same splitting as gpe_step's
    # two FFT pairs per step, up to rounding
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0, envelope)
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=5)
    st = replace(sample_initial(GRID, P, seed=4), t=0.1)
    tr = run_trajectory(st, d, P, cfg)
    s = st
    want = [observables_of(s)]
    for _ in range(cfg.n_cycles):
        for _ in range(cfg.steps_per_period):
            s = gpe_step(s, d, P, d.period / cfg.steps_per_period)
        want.append(observables_of(s))
    want = np.array(want)
    np.testing.assert_allclose(tr.times, st.t + d.period * np.arange(6), rtol=1e-12)
    np.testing.assert_allclose(tr.n_ex_raw, want[:, 0], rtol=1e-10)
    np.testing.assert_allclose(tr.condensed_fraction, want[:, 1], rtol=1e-10)


def test_step_chunks_do_not_change_results(monkeypatch):
    # kinetic tables are built STEP_CHUNK steps at a time; the trailing
    # half step carries across chunk boundaries, uneven last chunk included
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0, STOP)
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=4)
    st = sample_initial(GRID, P, seed=2)
    whole = run_trajectory(st, d, P, cfg)
    monkeypatch.setattr(twa, "STEP_CHUNK", 5)
    chunked = run_trajectory(st, d, P, cfg)
    assert chunked.n_ex_raw.tobytes() == whole.n_ex_raw.tobytes()
    assert chunked.condensed_fraction.tobytes() == whole.condensed_fraction.tobytes()


def test_stacked_rows_bit_identical_to_single_runs():
    d = DriveSpec(Trajectory.CIRCULAR, 1.25, 9.0, STOP)
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=4)
    grid = Grid(5, 3, 3, lz=2.0)  # odd sizes: no row aligns with a SIMD width
    states = [sample_initial(grid, P, seed=k) for k in range(5)]
    batch = run_trajectory(stacked(states), d, P, cfg)
    assert batch.n_ex_raw.shape == batch.condensed_fraction.shape == (5, 5)
    assert batch.atom_drift.shape == (5,)
    for j, st in enumerate(states):
        solo = run_trajectory(st, d, P, cfg)
        np.testing.assert_array_equal(batch.n_ex_raw[j], solo.n_ex_raw)
        np.testing.assert_array_equal(batch.n_ex[j], solo.n_ex)
        np.testing.assert_array_equal(batch.condensed_fraction[j], solo.condensed_fraction)
        assert batch.atom_drift[j] == solo.atom_drift


def test_invariants_of_stacked_state():
    d = DriveSpec(Trajectory.DIAGONAL, 1.0, 7.0)
    states = [sample_initial(GRID, P, seed=k) for k in range(3)]
    batch = stacked(states)
    np.testing.assert_allclose(
        atom_number(batch), [atom_number(st) for st in states], rtol=1e-12
    )
    np.testing.assert_allclose(
        field_energy(batch, P, d), [field_energy(st, P, d) for st in states], rtol=1e-12
    )


def test_atom_drift_matches_atom_number(monkeypatch):
    # a lossy contact step makes the drift large and known; the trace
    # must report the same drift as atom_number on gpe_step's fields
    contact = twa._contact

    def lossy(a, dt_u):
        return contact(a, dt_u) * math.exp(-1e-4)

    monkeypatch.setattr(twa, "_contact", lossy)
    monkeypatch.setattr(twa, "ATOM_DRIFT_TOL", 1.0)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    cfg = TwaRunConfig(steps_per_period=32, n_cycles=3)
    st = sample_initial(GRID, P, seed=6)
    tr = run_trajectory(st, d, P, cfg)
    s = st
    for _ in range(cfg.n_cycles * cfg.steps_per_period):
        s = gpe_step(s, d, P, d.period / cfg.steps_per_period)
    want = 1.0 - atom_number(s) / atom_number(st)
    assert want == pytest.approx(1.0 - math.exp(-2e-4 * 96), rel=1e-9)
    assert tr.atom_drift == pytest.approx(want, rel=1e-9)


def test_atom_drift_guard_names_realization(monkeypatch):
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    res = ensemble_run(GRID, d, P, quick_run(), ens(n=4), workers=2)
    drifts = np.array([tr.atom_drift for tr in res.traces])
    assert np.all(drifts < twa.ATOM_DRIFT_TOL)
    worst = int(np.argmax(drifts))
    assert drifts[worst] > 0.0
    assert res.atom_drift == drifts[worst]  # worst over both batches
    assert np.sum(drifts >= 0.999 * drifts[worst]) == 1
    monkeypatch.setattr(twa, "ATOM_DRIFT_TOL", 0.999 * drifts[worst])
    with pytest.raises(BlowUpError, match=f"realization {worst}: atom number .* cycle"):
        ensemble_run(GRID, d, P, quick_run(), ens(n=4), workers=2)


# ------------------------------------------------------------ protocol axis


def end_phase_drives(omega=9.0):
    """Two abrupt stops and a ramped control, as the endphase study runs."""
    envs = (STOP, replace(STOP, end_phase=2.0), Envelope(ramp_up=2, hold=1, ramp_down=2))
    return tuple(DriveSpec(Trajectory.LINEAR_X, 1.25, omega, e) for e in envs)


def test_stacked_drives_bit_identical_to_single_runs():
    drives = end_phase_drives()
    stack = ensemble_run(GRID, drives, P, quick_run(), ens(n=3), workers=2)
    assert len(stack) == len(drives)
    for d, res in zip(drives, stack):
        solo = ensemble_run(GRID, d, P, quick_run(), ens(n=3), workers=1)
        for field in ("times", "n_ex_raw", "n_ex", "condensed_fraction",
                      "band_lo", "band_hi"):
            assert getattr(res, field).tobytes() == getattr(solo, field).tobytes(), field
        assert (res.half_quantum, res.atom_drift, res.bands_degenerate) == (
            solo.half_quantum, solo.atom_drift, solo.bands_degenerate)
        for tr, want in zip(res.traces, solo.traces, strict=True):
            assert tr.realization == want.realization
            assert tr.n_ex_raw.tobytes() == want.n_ex_raw.tobytes()
            assert tr.atom_drift == want.atom_drift
    # the protocols differ, so no result is a copy of another
    assert not np.array_equal(stack[0].n_ex, stack[1].n_ex)


def test_stacked_drives_must_share_omega_and_run_length():
    drives = end_phase_drives()
    st = stacked([sample_initial(GRID, P, seed=k) for k in range(3)])
    mixed = drives[:2] + (replace(drives[2], omega=10.0),)
    with pytest.raises(DomainError, match="share omega"):
        ensemble_run(GRID, mixed, P, quick_run(), ens(n=1))
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
        run_trajectory(stacked([sample_initial(GRID, P, seed=k) for k in range(2)]),
                       drives, P, quick_run())


def test_atom_drift_guard_names_protocol_and_realization(monkeypatch):
    drives = end_phase_drives()
    runs = ensemble_run(GRID, drives, P, quick_run(), ens(n=4), workers=2)
    drifts = np.array([[tr.atom_drift for tr in res.traces] for res in runs])
    worst = np.unravel_index(np.argmax(drifts), drifts.shape)
    assert drifts[worst] > 0.0
    assert np.sum(drifts >= 0.999 * drifts[worst]) == 1
    monkeypatch.setattr(twa, "ATOM_DRIFT_TOL", 0.999 * drifts[worst])
    want = f"protocol {worst[0]}, realization {worst[1]}: atom number .* cycle"
    with pytest.raises(BlowUpError, match=want):
        ensemble_run(GRID, drives, P, quick_run(), ens(n=4), workers=2)


# -------------------------------------------------------------- run config


def test_run_config_validation():
    with pytest.raises(DomainError):
        TwaRunConfig(steps_per_period=8)
    with pytest.raises(DomainError):
        TwaRunConfig(n_cycles=0)
    with pytest.raises(DomainError):
        TwaRunConfig(post_hold_periods=-1)


def test_resolve_cycles():
    from shakenbec.model import Envelope

    bare = DriveSpec(Trajectory.LINEAR_X, 1.0, 6.0)
    ramped = DriveSpec(
        Trajectory.LINEAR_X, 1.0, 6.0, Envelope(ramp_up=3, hold=4, ramp_down=2)
    )
    assert TwaRunConfig(n_cycles=7).resolve_cycles(bare) == 7
    assert TwaRunConfig(n_cycles=7).resolve_cycles(ramped) == 7
    assert TwaRunConfig(post_hold_periods=5).resolve_cycles(ramped) == 14
    assert TwaRunConfig().resolve_cycles(ramped) == 9
    with pytest.raises(ConfigError):
        TwaRunConfig().resolve_cycles(bare)


# --------------------------------------------------------------- ensembles


def ens(n=3, seed=0, resamples=20):
    return EnsembleConfig(
        n_realizations=n, master_seed=seed, bootstrap_resamples=resamples
    )


def quick_run():
    return TwaRunConfig(steps_per_period=32, n_cycles=6)


def test_ensemble_deterministic_and_worker_independent(monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(twa, "ProcessPoolExecutor", CountingPool)
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    a = ensemble_run(GRID, d, P, quick_run(), ens(), workers=1)
    b = ensemble_run(GRID, d, P, quick_run(), ens(), workers=1)
    c = ensemble_run(GRID, d, P, quick_run(), ens(), workers=2)
    np.testing.assert_array_equal(a.n_ex, b.n_ex)
    np.testing.assert_array_equal(a.n_ex, c.n_ex)
    np.testing.assert_array_equal(a.band_lo, c.band_lo)
    other = ensemble_run(GRID, d, P, quick_run(), ens(seed=1), workers=1)
    assert not np.array_equal(a.n_ex, other.n_ex)
    # never more batches (processes) than realizations, none empty
    pools.clear()
    runs = [ensemble_run(GRID, d, P, quick_run(), ens(n=2), workers=w) for w in (1, 2, 3)]
    assert pools == [2, 2]
    for run in runs:
        assert [tr.realization for tr in run.traces] == [0, 1]
        for field in ("n_ex", "band_lo", "band_hi"):
            assert getattr(run, field).tobytes() == getattr(runs[0], field).tobytes()


def test_ensemble_structure():
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    res = ensemble_run(GRID, d, P, quick_run(), ens(n=4), workers=1)
    assert len(res.traces) == 4
    assert [tr.realization for tr in res.traces] == [0, 1, 2, 3]
    np.testing.assert_allclose(
        res.n_ex_raw,
        np.stack([tr.n_ex_raw for tr in res.traces]).mean(axis=0),
        rtol=1e-12,
    )
    np.testing.assert_allclose(res.n_ex, res.n_ex_raw - res.half_quantum,
                               rtol=1e-12)
    assert not res.bands_degenerate
    assert res.atom_drift == max(tr.atom_drift for tr in res.traces)
    assert 0.0 <= res.atom_drift <= twa.ATOM_DRIFT_TOL
    assert np.all(res.band_hi >= res.band_lo)
    assert np.all((res.n_ex >= res.band_lo) & (res.n_ex <= res.band_hi))
    # member traces are exactly the matching single-seed runs
    st = sample_initial(GRID, P, seed=realization_rng(0, 2))
    solo = run_trajectory(st, d, P, quick_run())
    np.testing.assert_array_equal(res.traces[2].n_ex_raw, solo.n_ex_raw)


def test_ensemble_degenerate_band():
    d = DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0)
    res = ensemble_run(GRID, d, P, quick_run(), ens(n=1), workers=1)
    assert res.bands_degenerate
    # width is pure summation roundoff, which is the point of the flag
    assert np.allclose(res.band_hi - res.band_lo, 0.0, atol=1e-12)


def test_ensemble_blow_up_names_realization():
    bad = LatticeParams(j=1.0, g=10.0, n0=1e-308)  # infinite two-body coupling
    d = DriveSpec(Trajectory.LINEAR_X, 1.0, 6.0)
    with np.errstate(all="ignore"), pytest.raises(BlowUpError, match="realization 0"):
        ensemble_run(
            GRID, d, bad, TwaRunConfig(steps_per_period=16, n_cycles=1), ens(n=2)
        )


def test_ensemble_bands_pinned_bit_for_bit():
    # seed, draw order and arithmetic of the bootstrap bands, to the last bit
    res = ensemble_run(Grid(4, 4, 1), DriveSpec(Trajectory.LINEAR_X, 1.25, 9.0),
                       LatticeParams(j=1.0, g=5.0, n0=2.0),
                       TwaRunConfig(steps_per_period=16, n_cycles=2),
                       ens(n=3, seed=5), workers=1)
    assert res.band_lo.tolist() == [
        0.06577447252690788, 0.5806436177909525, 0.6910172505276788,
    ]
    assert res.band_hi.tolist() == [
        0.3196012891484394, 0.9161114395309377, 1.0840169197451093,
    ]


def test_ensemble_config_validation():
    with pytest.raises(DomainError):
        EnsembleConfig(n_realizations=0)
    with pytest.raises(DomainError):
        EnsembleConfig(bootstrap_resamples=0)
    with pytest.raises(DomainError):
        EnsembleConfig(noise_scale=-1.0)
    with pytest.raises(DomainError, match="noise_scale must be finite"):
        EnsembleConfig(noise_scale=float("nan"))


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    st = sample_initial(GRID, P, seed=11)
    d = DriveSpec(Trajectory.DIAGONAL, 1.0, 7.0)
    s = gpe_step(st, d, P, 0.01)
    path = tmp_path / "field.bin"
    save_field(path, s)
    back = load_field(path)
    np.testing.assert_array_equal(back.amplitudes, s.amplitudes)
    assert back.grid == s.grid
    assert back.t == s.t
    assert back.condensate_index == s.condensate_index
    assert back.noise_scale == s.noise_scale
    assert back.gauge == GAUGE_TAG
    assert back.seed == 11
    # restart equivalence: evolving the loaded state matches continuing
    cont = gpe_step(s, d, P, 0.01)
    reload_cont = gpe_step(back, d, P, 0.01)
    np.testing.assert_array_equal(cont.amplitudes, reload_cont.amplitudes)


def test_checkpoint_rejects_stacked_state(tmp_path):
    states = [sample_initial(GRID, P, seed=k) for k in range(2)]
    path = tmp_path / "field.bin"
    with pytest.raises(DomainError, match="one field"):
        save_field(path, stacked(states))
    assert not path.exists()


def test_checkpoint_seed_none_round_trip(tmp_path):
    st = sample_initial(GRID, P, seed=realization_rng(5, 3))
    path = tmp_path / "field.bin"
    save_field(path, st)
    assert load_field(path).seed is None


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01\x02 not json\n" + b"\x00" * 64)
    with pytest.raises(ConfigError, match="not a field checkpoint"):
        load_field(path)


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "wrong.bin"
    path.write_bytes(b'{"format": "something-else", "version": 1}\n')
    with pytest.raises(ConfigError, match="format"):
        load_field(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    st = sample_initial(GRID, P, seed=0)
    path = tmp_path / "v2.bin"
    save_field(path, st)
    raw = path.read_bytes()
    header, blob = raw.split(b"\n", 1)
    patched = header.replace(b'"version": 1', b'"version": 2')
    path.write_bytes(patched + b"\n" + blob)
    with pytest.raises(ConfigError, match="version"):
        load_field(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    st = sample_initial(GRID, P, seed=0)
    path = tmp_path / "trunc.bin"
    save_field(path, st)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ConfigError, match="bytes"):
        load_field(path)
