"""Truncated-Wigner simulation of the driven lattice condensate.

The classical field a(x, y, z, t) lives on nx x ny lattice sites and an
nz-point periodic grid of the continuous transverse direction.  Momentum
amplitudes use the unitary FFT convention scaled so that

    N = sum_q |A_q|^2,   A = fftn(a, norm="ortho") * sqrt(dz),

which makes |A_q|^2 directly comparable to Bogoliubov pair occupations
(per mode) and n_ex = sum_{q != q0} |A_q|^2 / volume an excited density.

Initial states sample the Wigner distribution of the Bogoliubov vacuum:
half a quantum of noise per mode, rotated by the static (u, v)
amplitudes, on top of the coherent condensate.  Evolution is a
second-order Strang splitting of the Gross-Pitaevskii equation in the
co-moving frame: half-step kinetic (diagonal in momentum, drive shift
evaluated at the substep midpoint), full-step contact interaction
(diagonal in position, exact phase rotation), half-step kinetic.
gpe_step takes one such step in position space.  run_trajectory keeps
the field in momentum space and fuses the trailing half-kinetic phase
of each step with the leading one of the next, which is the same
splitting (Bao, Jin & Markowich, J. Comput. Phys. 175, 487 (2002)) at
one FFT pair per step; observables read |A_q|^2, which the kinetic
phase leaves unchanged, so no closing half step is taken.  A FieldState
may carry a leading realization axis: ensembles run as contiguous
batches of realizations, one array per batch, with one process per
batch when there is more than one.  A run may also take a tuple of
drives that share omega and run length, such as the stopping protocols
of an end-phase study: every drive evolves the same samples, the P x R
rows stack protocol-major in one array, each step applies each drive's
kinetic phase to its own rows and one FFT pair serves the whole stack,
and one result per drive comes back.  Rows of a stack evolve
bit-identically to single runs.  Every period the run checks that the
field is finite and that each realization keeps its atom number to
ATOM_DRIFT_TOL.  Ensemble means subtract the sampled half quantum per
mode to estimate the physical excited density.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, ConfigError, DomainError
from .fitting import bootstrap_means
from .model import (
    DriveSpec,
    Grid,
    LatticeParams,
    Momentum,
    axis_energies,
    bogoliubov_transform,
    drive_shift,
)

FIELD_FORMAT = "shakenbec-field"
FIELD_VERSION = 1
GAUGE_TAG = "comoving-shift-v1"  # kinetic frame, dispersion at q - A(t)
ATOM_DRIFT_TOL = 1e-6  # relative drift of each realization's atom number
GRID_AXES = (-3, -2, -1)  # amplitudes[..., ix, iy, iz], after any realization axis
STEP_CHUNK = 32  # steps whose kinetic factor tables are built at once


@dataclass(frozen=True)
class TwaRunConfig:
    """Controls for a single classical-field trajectory.

    n_cycles = None runs for the drive envelope's scheduled periods plus
    post_hold_periods of free evolution; an explicit value overrides.
    Observables are recorded at every period boundary.
    """

    steps_per_period: int = 256
    n_cycles: int | None = None
    post_hold_periods: int = 0

    def __post_init__(self) -> None:
        if self.steps_per_period < 16:
            raise DomainError("steps_per_period must be >= 16")
        if self.n_cycles is not None and self.n_cycles < 1:
            raise DomainError("n_cycles must be >= 1 when given")
        if self.post_hold_periods < 0:
            raise DomainError("post_hold_periods must be >= 0")

    def resolve_cycles(self, drive: DriveSpec | tuple[DriveSpec, ...]) -> int:
        """Periods to run for one drive, or for a tuple of stacked drives.

        Stacked drives run as one array, so they must resolve to the same
        count; DomainError otherwise.
        """
        counts = {self._cycles_of(d) for d in _protocols(drive)}
        if len(counts) > 1:
            raise DomainError(
                "stacked drives resolve to different run lengths "
                f"{sorted(counts)} periods; give n_cycles or equal schedules"
            )
        return counts.pop()

    def _cycles_of(self, drive: DriveSpec) -> int:
        if self.n_cycles is not None:
            return self.n_cycles
        env = drive.envelope
        scheduled = env.total_periods if env is not None else 0
        total = scheduled + self.post_hold_periods
        if total < 1:
            raise ConfigError(
                "run length is zero: give n_cycles, an envelope, or post_hold_periods"
            )
        return total


def _protocols(drive: DriveSpec | tuple[DriveSpec, ...]) -> tuple[DriveSpec, ...]:
    """The drives of a run as a tuple: one DriveSpec, or P that share omega."""
    drives = (drive,) if isinstance(drive, DriveSpec) else tuple(drive)
    if not drives:
        raise DomainError("a run needs at least one drive")
    omegas = {d.omega for d in drives}
    if len(omegas) > 1:
        raise DomainError(
            f"stacked drives must share omega (one time step), got {sorted(omegas)}"
        )
    return drives


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling controls for truncated-Wigner ensembles.

    Realization k draws its noise from a counter-based stream keyed by
    (master_seed, k), so results are independent of worker count and
    scheduling order.
    """

    n_realizations: int = 50
    master_seed: int = 0
    bootstrap_resamples: int = 200
    noise_scale: float = 1.0
    q0: Momentum = Momentum(0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise DomainError("n_realizations must be >= 1")
        if self.bootstrap_resamples < 1:
            raise DomainError("bootstrap_resamples must be >= 1")
        _check_noise_scale(self.noise_scale)


def _check_noise_scale(noise_scale: float) -> None:
    if not math.isfinite(noise_scale):
        raise DomainError(f"noise_scale must be finite, got {noise_scale}")
    if noise_scale < 0.0:
        raise DomainError("noise_scale must be >= 0")


@dataclass(frozen=True)
class FieldState:
    """Classical field in position space at one instant.

    amplitudes[ix, iy, iz] is the field on lattice site (ix, iy) and
    transverse slice iz; |a|^2 integrates to the atom number with the
    transverse measure dz.  A stacked state carries a leading
    realization axis, amplitudes[r, ix, iy, iz], whose rows share every
    other attribute; run_trajectory and gpe_step evolve the rows
    independently, save_field stores unstacked states only.
    """

    amplitudes: np.ndarray
    grid: Grid
    t: float = 0.0
    condensate_index: tuple[int, int, int] = (0, 0, 0)
    noise_scale: float = 1.0
    gauge: str = GAUGE_TAG
    seed: int | None = None  # scalar sampling seed, when one was used


@dataclass(frozen=True)
class ObservableTrace:
    """Stroboscopic observables of one trajectory.

    n_ex_raw is the Wigner-mean excited density including the sampled
    half quantum per mode; n_ex subtracts half_quantum, the constant
    (n_modes - 1) noise_scale^2 / (2 volume).  atom_drift is the worst
    relative change of the atom number over the run.  A trace of a
    stacked state has arrays with a leading realization axis: n_ex_raw,
    n_ex and condensed_fraction of shape (R, n_cycles + 1), atom_drift
    of shape (R,).
    """

    times: np.ndarray
    n_ex_raw: np.ndarray
    n_ex: np.ndarray
    condensed_fraction: np.ndarray
    half_quantum: float
    atom_drift: float | np.ndarray
    realization: int | None = None


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble-averaged observables with bootstrap uncertainty bands.

    bands_degenerate marks ensembles too small for the bootstrap to say
    anything (a single realization); the bands are then zero width and
    should not be quoted.  atom_drift is the worst atom_drift over the
    realizations' traces.
    """

    times: np.ndarray
    n_ex_raw: np.ndarray
    n_ex: np.ndarray
    condensed_fraction: np.ndarray
    band_lo: np.ndarray  # mean - bootstrap std of n_ex
    band_hi: np.ndarray
    traces: tuple[ObservableTrace, ...]
    half_quantum: float
    atom_drift: float
    bands_degenerate: bool = False


def realization_rng(master_seed: int, realization: int) -> np.random.Generator:
    """Counter-based generator for one ensemble member."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((master_seed, realization)))
    )


def sample_initial(
    grid: Grid,
    p: LatticeParams,
    q0: Momentum = Momentum(0.0, 0.0, 0.0),
    seed: int | np.random.Generator = 0,
    noise_scale: float = 1.0,
) -> FieldState:
    """Draw one Wigner sample of the Bogoliubov vacuum around a condensate.

    The condensate of |A|^2 = n0 * volume sits at q0 (which must be a
    grid momentum); every other mode receives u_q gamma_q +
    v_q gamma_-q^* with complex Gaussian gamma of mean square
    noise_scale^2 / 2.  Modes whose dispersion relative to the
    condensate is not positive (only possible for q0 != 0) fall back to
    bare vacuum noise (u, v) = (1, 0).  seed may be a scalar (stream 0
    of that seed) or a prepared generator for ensemble use.
    """
    scalar_seed: int | None = None
    if isinstance(seed, (int, np.integer)):
        scalar_seed = int(seed)
        rng = realization_rng(scalar_seed, 0)
    else:
        rng = seed
    _check_noise_scale(noise_scale)
    i0 = grid.index_of(q0)
    eps0 = sum(axis_energies(*grid.mesh, p))
    _, uu, vv = bogoliubov_transform(eps0 - eps0[i0], p.g)

    shape = (grid.nx, grid.ny, grid.nz)
    gamma = noise_scale * (
        rng.normal(0.0, 0.5, shape) + 1j * rng.normal(0.0, 0.5, shape)
    )
    gamma_pair = np.conj(gamma[np.ix_(*grid.partner_axes(i0))])

    amps_q = uu * gamma + vv * gamma_pair
    amps_q[i0] = math.sqrt(p.n0 * grid.volume)
    a = np.fft.ifftn(amps_q, norm="ortho") / math.sqrt(grid.dz)
    return FieldState(
        amplitudes=a,
        grid=grid,
        t=0.0,
        condensate_index=i0,
        noise_scale=noise_scale,
        seed=scalar_seed,
    )


def _kinetic_factors(grid: Grid, p: LatticeParams, h: float, shifts: np.ndarray):
    """exp(-i h eps0(q - A)) for each shift A, one (m, n) factor table per
    axis; the outer product of row k of each is the phase at shifts[k]."""
    ex, ey, ez = axis_energies(
        grid.qx_axis, grid.qy_axis, grid.qz_axis, p, shifts[:, :1], shifts[:, 1:]
    )
    ez = np.broadcast_to(ez, (len(shifts), grid.nz))
    return tuple(np.exp(-1j * h * e) for e in (ex, ey, ez))


def _phase(fx: np.ndarray, fy: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """Outer product of one row of each axis' factor table; leading axes
    (one per stacked drive) carry through."""
    return fx[..., :, None, None] * (fy[..., None, :, None] * fz[..., None, None, :])


def _contact(a: np.ndarray, dt_u: float) -> np.ndarray:
    """Exact contact phase exp(-i dt U |a|^2), applied in place.

    cos and sin written into one complex buffer give the same bits as a
    complex exp in about half the time."""
    theta = a.real**2 + a.imag**2
    theta *= -dt_u
    phase = np.empty_like(a)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    a *= phase
    return a


def _fft_axes(a: np.ndarray) -> tuple[int, ...]:
    """The grid axes longer than one point (a length-1 FFT is the identity)."""
    return tuple(ax for ax in GRID_AXES if a.shape[ax] > 1)


def gpe_step(
    state: FieldState, drive: DriveSpec, p: LatticeParams, dt: float
) -> FieldState:
    """Advance the field by one Strang split step of length dt.

    Position space in and out, two FFT pairs: half kinetic, contact,
    half kinetic.  A stacked state advances row by row.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    shifts = np.array([drive_shift(state.t + f * dt, drive) for f in (0.25, 0.75)])
    factors = _kinetic_factors(state.grid, p, 0.5 * dt, shifts)
    a = state.amplitudes
    axes = _fft_axes(a)
    for k in (0, 1):
        if k:
            a = _contact(a, dt * p.u)
        amps = np.fft.fftn(a, axes=axes, norm="ortho") * _phase(*(f[k] for f in factors))
        a = np.fft.ifftn(amps, axes=axes, norm="ortho")
    return replace(state, amplitudes=a, t=state.t + dt)


def run_trajectory(
    state: FieldState,
    drive: DriveSpec | tuple[DriveSpec, ...],
    p: LatticeParams,
    cfg: TwaRunConfig,
    *,
    first_realization: int = 0,
) -> ObservableTrace | tuple[ObservableTrace, ...]:
    """Evolve a field sample, recording observables each drive period.

    The field stays in momentum space: each step applies one fused
    kinetic phase and one FFT pair around the contact phase.  A stacked
    state evolves its rows in one array and the trace arrays gain its
    leading axis.  drive may be a tuple of P drives sharing omega and
    resolving to one run length: the state then holds P x R rows,
    protocol-major (row k R + j runs drive k), every step applies each
    drive's kinetic phase to its R rows and takes one FFT pair over the
    whole stack, and one trace per drive is returned, each as for a
    stacked state of R rows.  Row j of a drive's block is named
    realization first_realization + j in errors, and the drive's index
    as the protocol when P > 1.  Raises BlowUpError when the field
    leaves the finite range or an atom number drifts by more than
    ATOM_DRIFT_TOL.
    """
    drives = _protocols(drive)
    n_cycles = cfg.resolve_cycles(drives)
    n_steps, grid, period = cfg.steps_per_period, state.grid, drives[0].period
    dt = period / n_steps
    stacked = state.amplitudes.ndim == 4
    rows = state.amplitudes if stacked else state.amplitudes[None]
    n_prot = len(drives)
    if len(rows) % n_prot:
        raise DomainError(
            f"{len(rows)} field rows do not split evenly over {n_prot} drives"
        )
    n_real = len(rows) // n_prot
    a = rows.reshape(n_prot, n_real, *rows.shape[1:])
    axes = _fft_axes(a)
    i0 = np.ravel_multi_index(state.condensate_index, a.shape[2:])
    times = state.t + np.arange(n_cycles + 1) * period
    total = np.empty((len(rows), n_cycles + 1))
    cond = np.empty_like(total)
    drift = np.zeros(len(rows))
    # drive shifts at t + dt/4 and t + 3 dt/4 of every step of a period
    offsets = dt * (0.25 + 0.5 * np.arange(2 * n_steps))
    trail = [np.ones((n_prot, n)) for n in (grid.nx, grid.ny, grid.nz)]
    amps = np.fft.fftn(a, axes=axes, norm="ortho")
    for cycle in range(n_cycles + 1):
        if cycle:
            t0 = times[cycle - 1]
            for first in range(0, 2 * n_steps, 2 * STEP_CHUNK):
                shifts = np.array([[drive_shift(t0 + off, d) for d in drives]
                                   for off in offsets[first:first + 2 * STEP_CHUNK]])
                # per axis, a (2 steps, P, n) table: every drive at every offset
                factors = [
                    f.reshape(len(shifts), n_prot, -1)
                    for f in _kinetic_factors(grid, p, 0.5 * dt, shifts.reshape(-1, 2))
                ]
                # step s: trailing half of step s - 1, then leading half of step s
                fused = [f[0::2] for f in factors]
                for lead, f, tr in zip(fused, factors, trail):
                    lead[1:] *= f[1:-1:2]
                    lead[0] *= tr
                trail = [f[-1] for f in factors]
                for step in zip(*fused):
                    amps *= _phase(*step)[:, None]
                    a = _contact(np.fft.ifftn(amps, axes=axes, norm="ortho"), dt * p.u)
                    amps = np.fft.fftn(a, axes=axes, norm="ortho")
        occ = (amps.real**2 + amps.imag**2).reshape(len(rows), -1)
        total[:, cycle] = occ.sum(axis=1) * grid.dz
        cond[:, cycle] = occ[:, i0] * grid.dz
        dev = np.abs(total[:, cycle] - total[:, 0]) / np.maximum(total[:, 0], 1e-300)
        drift = np.maximum(drift, dev)
        bad = ~np.isfinite(total[:, cycle]) | (dev > ATOM_DRIFT_TOL)
        if bad.any():
            row = int(np.argmax(bad))
            prot, real = divmod(row, n_real)
            names = [f"protocol {prot}"] if n_prot > 1 else []
            if stacked:
                names.append(f"realization {first_realization + real}")
            where = ", ".join(names) + ": " if names else ""
            what = (
                f"atom number drifted by {dev[row]:.3e} (relative)"
                if np.isfinite(total[row, cycle]) else "field left the finite range"
            )
            raise BlowUpError(f"{where}{what} in cycle {cycle}; "
                              "reduce the time step or the drive strength")
    n_raw = (total - cond) / grid.volume
    cf = cond / np.where(total > 0.0, total, 1.0)
    half_quantum = (grid.n_modes - 1) * state.noise_scale**2 / (2.0 * grid.volume)
    traces = []
    for block in range(0, len(rows), n_real):
        n_k, cf_k, drift_k = (x[block:block + n_real] for x in (n_raw, cf, drift))
        if not stacked:
            n_k, cf_k, drift_k = n_k[0], cf_k[0], float(drift_k[0])
        traces.append(
            ObservableTrace(times, n_k, n_k - half_quantum, cf_k, half_quantum, drift_k)
        )
    return traces[0] if isinstance(drive, DriveSpec) else tuple(traces)


def _run_batch(payload) -> tuple[list[ObservableTrace], ...]:
    """Evolve realizations ks under every drive as one stacked state; per
    drive, one trace per realization."""
    grid, drives, p, run_cfg, ens_cfg, ks = payload
    states = [
        sample_initial(grid, p, ens_cfg.q0, realization_rng(ens_cfg.master_seed, k),
                       ens_cfg.noise_scale)
        for k in ks
    ]
    samples = np.stack([st.amplitudes for st in states])
    batch = replace(states[0], amplitudes=np.concatenate([samples] * len(drives)))
    return tuple(
        [replace(tr, n_ex_raw=tr.n_ex_raw[j], n_ex=tr.n_ex[j],
                 condensed_fraction=tr.condensed_fraction[j],
                 atom_drift=float(tr.atom_drift[j]), realization=k)
         for j, k in enumerate(ks)]
        for tr in run_trajectory(batch, drives, p, run_cfg, first_realization=ks[0])
    )


def ensemble_run(
    grid: Grid,
    drive: DriveSpec | tuple[DriveSpec, ...],
    p: LatticeParams,
    run_cfg: TwaRunConfig,
    ens_cfg: EnsembleConfig,
    workers: int = 1,
) -> EnsembleResult | tuple[EnsembleResult, ...]:
    """Average an ensemble of Wigner samples; deterministic per seed.

    The realizations are split into min(workers, n_realizations)
    contiguous batches, each evolved as one stacked state, in a process
    pool when there is more than one batch.  Realization k is sampled
    from realization_rng(master_seed, k) whatever its batch, and rows of
    a stacked state evolve bit-identically to single runs, so results do
    not depend on workers.  drive may be a tuple of drives that share
    omega and run length (see run_trajectory): every drive then evolves
    the same samples, all drives in one stack per batch, and one
    EnsembleResult per drive is returned, equal bit for bit to a
    separate call with that drive.  Bootstrap bands resample whole
    realizations (seeded from the master seed, afresh for each drive)
    and report mean +/- std of the resampled ensemble means.
    """
    drives = _protocols(drive)
    n_real = ens_cfg.n_realizations
    n_batches = min(workers, n_real)
    payloads = [
        (grid, drives, p, run_cfg, ens_cfg,
         range(n_real * b // n_batches, n_real * (b + 1) // n_batches))
        for b in range(n_batches)
    ]
    if n_batches > 1:
        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            batches = list(pool.map(_run_batch, payloads))
    else:
        batches = [_run_batch(payloads[0])]
    results = tuple(
        _summarize([tr for batch in batches for tr in batch[k]], ens_cfg)
        for k in range(len(drives))
    )
    return results[0] if isinstance(drive, DriveSpec) else results


def _summarize(traces: list[ObservableTrace], ens_cfg: EnsembleConfig) -> EnsembleResult:
    """Ensemble means and bootstrap bands of one drive's realizations."""
    raw = np.stack([tr.n_ex_raw for tr in traces])
    cf = np.stack([tr.condensed_fraction for tr in traces])
    mean_raw = raw.mean(axis=0)
    half_quantum = traces[0].half_quantum
    mean_sub = mean_raw - half_quantum

    # the bands draw from their own stream, (master_seed, 0xB00757)
    rng = realization_rng(ens_cfg.master_seed, 0xB00757)
    band = bootstrap_means(raw, ens_cfg.bootstrap_resamples, rng).std(axis=0)
    return EnsembleResult(
        times=traces[0].times,
        n_ex_raw=mean_raw,
        n_ex=mean_sub,
        condensed_fraction=cf.mean(axis=0),
        band_lo=mean_sub - band,
        band_hi=mean_sub + band,
        traces=tuple(traces),
        half_quantum=half_quantum,
        atom_drift=max(tr.atom_drift for tr in traces),
        bands_degenerate=len(traces) < 2,
    )


def atom_number(state: FieldState) -> float | np.ndarray:
    """Total atom number sum_q |A_q|^2 (conserved by the evolution), per
    realization for a stacked state."""
    return np.sum(np.abs(state.amplitudes) ** 2, axis=GRID_AXES) * state.grid.dz


def field_energy(
    state: FieldState, p: LatticeParams, drive: DriveSpec | None = None
) -> float | np.ndarray:
    """Mean-field energy of the state; conserved when the drive is off.

    Kinetic part evaluated with the co-moving shift at state.t when a
    drive is given, static dispersion otherwise.  Per realization for a
    stacked state.
    """
    grid = state.grid
    shift = drive_shift(state.t, drive) if drive is not None else (0.0, 0.0)
    eps = sum(axis_energies(*grid.mesh, p, *shift))
    amps_q = np.fft.fftn(state.amplitudes, axes=GRID_AXES, norm="ortho")
    kinetic = np.sum(eps * np.abs(amps_q) ** 2, axis=GRID_AXES) * grid.dz
    interaction = np.sum(np.abs(state.amplitudes) ** 4, axis=GRID_AXES) * grid.dz
    return kinetic + 0.5 * p.u * interaction


def save_field(path, state: FieldState) -> None:
    """Write a field checkpoint: one JSON header line + raw amplitudes.

    Amplitudes are stored as little-endian complex128 in C order.  A
    stacked state is rejected: the format holds one field.
    """
    if state.amplitudes.ndim != 3:
        raise DomainError(
            f"save_field stores one field, got amplitudes of shape "
            f"{state.amplitudes.shape}; save each realization separately"
        )
    header = {
        "format": FIELD_FORMAT,
        "version": FIELD_VERSION,
        "nx": state.grid.nx,
        "ny": state.grid.ny,
        "nz": state.grid.nz,
        "lz": state.grid.lz,
        "t": state.t,
        "condensate_index": list(state.condensate_index),
        "noise_scale": state.noise_scale,
        "gauge": state.gauge,
        "seed": state.seed,
    }
    data = np.ascontiguousarray(state.amplitudes, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(data.tobytes())


def load_field(path) -> FieldState:
    """Read a checkpoint written by save_field; validates format/version."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"not a field checkpoint: {path}") from exc
    if header.get("format") != FIELD_FORMAT:
        raise ConfigError(f"unrecognized checkpoint format in {path}")
    if header.get("version") != FIELD_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {header.get('version')} in {path}"
        )
    grid = Grid(header["nx"], header["ny"], header["nz"], header["lz"])
    expected = grid.n_modes * 16
    if len(blob) != expected:
        raise ConfigError(
            f"checkpoint payload has {len(blob)} bytes, expected {expected}"
        )
    a = np.frombuffer(blob, dtype="<c16").reshape(grid.nx, grid.ny, grid.nz).copy()
    return FieldState(
        amplitudes=a,
        grid=grid,
        t=header["t"],
        condensate_index=tuple(header["condensate_index"]),
        noise_scale=header["noise_scale"],
        gauge=header.get("gauge", GAUGE_TAG),
        seed=header.get("seed"),
    )
