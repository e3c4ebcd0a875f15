"""Truncated-Wigner simulation of the driven lattice condensate.

The classical field a(x, y, z, t) lives on nx x ny lattice sites and an
nz-point periodic grid of the continuous transverse direction.  Momentum
amplitudes use the unitary FFT convention scaled so that

    N = sum_q |A_q|^2,   A = fftn(a, norm="ortho") * sqrt(dz),

which makes |A_q|^2 directly comparable to Bogoliubov pair occupations
(per mode) and n_ex = sum_{q != 0} |A_q|^2 / volume an excited density.

A run starts at t = 0 from a sample of the Wigner distribution of the
Bogoliubov vacuum: half a quantum of noise per mode, rotated by the
static (u, v) amplitudes, on top of a coherent condensate at q = 0
(grid index (0, 0, 0)).  Evolution is a second-order Strang splitting
of the Gross-Pitaevskii equation in the co-moving frame: half-step
kinetic (diagonal in momentum, drive shift evaluated at the substep
midpoint), full-step contact interaction (diagonal in position, exact
phase rotation), half-step kinetic.  run_trajectory keeps the field in
position space and fuses the trailing half-kinetic phase of each step
with the leading one of the next: the same splitting (Bao, Jin &
Markowich, J. Comput. Phys. 175, 487 (2002)) at one kinetic pass per
step instead of two.  That phase is diagonal in q and separable, so on
each grid axis longer than one point it is one n x n circulant matrix,
the propagator F^-1 diag(f) F of the axis's unitary DFT matrix F; a
step multiplies each kept axis by its propagator, one matrix product
per row, then applies the contact phase.  Each period tabulates the
phases of all its steps from one drive_shift call per drive, once the
previous period's tables are freed.  Only period boundaries need
momentum amplitudes: one forward transform (F on each kept axis, fftn
to rounding) reads |A_q|^2, which the pending trailing half phase
leaves unchanged, so no closing half step is taken.  The contact phase
comes from one half-angle tangent, within 1e-15 of libm's cos and sin.
A FieldState holds rows of fields on a leading axis, and a run takes a
tuple of drives that share omega and run length, such as the stopping
protocols of an end-phase study: every drive evolves the same R
samples, the P x R rows stack protocol-major in one array, each drive's
propagators act on its own rows, and one trace of R rows per drive
comes back.  Ensembles run as contiguous batches of realizations, one
array per batch, with one process per batch when there is more than
one.  A row's matrix products, and a drive's propagators, do not depend
on the stack, so rows of a stack evolve bit-identically to single runs.
Every period the run checks that the field is finite and that each row
keeps its atom number to ATOM_DRIFT_TOL, with numpy overflow and invalid
warnings off: the guard reports the field they leave.  The engine returns
the rows; the twa command takes their means and bootstrap bands.
One TwaRunConfig holds the whole [twa] section: run_trajectory reads
its step and run length, ensemble_run its grid and ensemble fields, and
the twa command its bootstrap and rate-window fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, ConfigError, DomainError
from .model import (
    DriveSpec,
    Grid,
    LatticeParams,
    axis_energies,
    bogoliubov_transform,
    drive_shift,
)

ATOM_DRIFT_TOL = 1e-6  # relative drift of each realization's atom number


@dataclass(frozen=True)
class TwaRunConfig:
    """The [twa] section: one classical-field run and its ensemble.

    Each reader takes its own fields.  run_trajectory reads the step
    (steps_per_period) and the run length (n_cycles) and takes the grid
    from the state it evolves.  ensemble_run reads the grid and the
    ensemble: realization k draws its noise from a counter-based stream
    keyed by (master_seed, k), so results are independent of worker
    count and scheduling order.  The twa command reads
    bootstrap_resamples for its bands and rate errors and
    rate_window_cycles for its rate fits.

    n_cycles = None runs for the drive envelope's scheduled periods; an
    explicit value overrides.  Observables are recorded at every period
    boundary.
    """

    steps_per_period: int = 128
    n_cycles: int | None = None
    grid: Grid = Grid(16, 16)
    n_realizations: int = 16
    master_seed: int = 0
    bootstrap_resamples: int = 200
    rate_window_cycles: int = 8

    def __post_init__(self) -> None:
        if self.steps_per_period < 16:
            raise DomainError("steps_per_period must be >= 16")
        if self.n_cycles is not None and self.n_cycles < 1:
            raise DomainError("n_cycles must be >= 1 when given")
        if self.n_realizations < 1:
            raise DomainError("n_realizations must be >= 1")
        if self.bootstrap_resamples < 1:
            raise DomainError("bootstrap_resamples must be >= 1")
        if self.master_seed < 0:
            raise DomainError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.rate_window_cycles < 1:
            raise DomainError("rate_window_cycles must be >= 1")

    def resolve_cycles(self, drive: tuple[DriveSpec, ...]) -> int:
        """Periods to run for a tuple of drives that evolve as one array.

        There must be at least one drive, and the drives must share omega
        (one time step) and resolve to the same count; DomainError
        otherwise.
        """
        if not drive:
            raise DomainError("a run needs at least one drive")
        omegas = {d.omega for d in drive}
        if len(omegas) > 1:
            raise DomainError(
                f"stacked drives must share omega (one time step), got {sorted(omegas)}"
            )
        counts = {self._cycles_of(d) for d in drive}
        if len(counts) > 1:
            raise DomainError(
                "stacked drives resolve to different run lengths "
                f"{sorted(counts)} periods; give n_cycles or equal schedules"
            )
        return counts.pop()

    def _cycles_of(self, drive: DriveSpec) -> int:
        if self.n_cycles is not None:
            return self.n_cycles
        if drive.envelope is None:
            raise ConfigError("run length is zero: give n_cycles or an envelope")
        return drive.envelope.total_periods


@dataclass(frozen=True)
class FieldState:
    """Rows of classical fields in position space at t = 0.

    amplitudes[r, ix, iy, iz] is row r's field on lattice site (ix, iy)
    and transverse slice iz; |a|^2 integrates to the atom number with the
    transverse measure dz.  The rows share every other attribute, and
    run_trajectory evolves them independently.
    """

    amplitudes: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class ObservableTrace:
    """Stroboscopic observables of R trajectories, one row each.

    n_ex_raw is the Wigner-mean excited density including the sampled
    half quantum per mode; the property n_ex subtracts half_quantum, the
    constant (n_modes - 1) / (2 volume).  n_ex_raw, n_ex and
    condensed_fraction have shape (R, n_cycles + 1); atom_drift, of shape
    (R,), is each row's worst relative change of the atom number.  The
    ensemble's excited density is n_ex_raw.mean(axis=0) - half_quantum.
    site_steps (sites x R x time steps) is the work integrated for the
    rows; transforms, R (steps + n_cycles + 1), counts their whole-grid
    passes: one set of propagator passes per step and one forward
    transform per period boundary.
    """

    times: np.ndarray
    n_ex_raw: np.ndarray
    condensed_fraction: np.ndarray
    half_quantum: float
    atom_drift: np.ndarray
    site_steps: int
    transforms: int

    @property
    def n_ex(self) -> np.ndarray:
        return self.n_ex_raw - self.half_quantum


def realization_rng(master_seed: int, realization: int) -> np.random.Generator:
    """Counter-based generator for one ensemble member."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((master_seed, realization)))
    )


def sample_initial(
    grid: Grid,
    p: LatticeParams,
    rng: np.random.Generator,
) -> FieldState:
    """Draw one Wigner sample of the Bogoliubov vacuum around a condensate,
    as a FieldState of one row.

    The condensate of |A|^2 = n0 * volume sits at q = 0; every other
    mode receives u_q gamma_q + v_q gamma_-q^* with complex Gaussian
    gamma of mean square 1/2, drawn from rng.
    """
    _, uu, vv = bogoliubov_transform(sum(axis_energies(*grid.mesh, p)), p.g)
    gamma = rng.normal(0.0, 0.5, uu.shape) + 1j * rng.normal(0.0, 0.5, uu.shape)
    amps_q = uu * gamma + vv * np.conj(gamma.ravel()[grid.partners()]).reshape(uu.shape)
    amps_q[0, 0, 0] = math.sqrt(p.n0 * grid.volume)
    a = np.fft.ifftn(amps_q, norm="ortho") / math.sqrt(grid.dz)
    return FieldState(amplitudes=a[None], grid=grid)


def _kinetic_factors(grid: Grid, p: LatticeParams, h: float, ax, ay):
    """exp(-i h eps0(q - A)) at the shifts A = (ax, ay), two arrays of one
    shape S: per grid axis an S x n factor table, exponentiated in place;
    their outer product at an index of S is the phase at that shift."""
    ex, ey, ez = axis_energies(
        grid.qx_axis, grid.qy_axis, grid.qz_axis, p, ax[..., None], ay[..., None]
    )
    ez = np.broadcast_to(ez, (*ax.shape, grid.nz))
    return tuple(np.exp(z, out=z) for z in (-1j * h * e for e in (ex, ey, ez)))


def _contact(a: np.ndarray, dt_u: float) -> np.ndarray:
    """Exact contact phase exp(i theta), theta = -dt U |a|^2, applied in place.

    The phase comes from one half-angle tangent t = tan(theta / 2):
    cos theta = (1 - t^2) / (1 + t^2) and sin theta = 2 t / (1 + t^2),
    one transcendental pass where cos and sin take two.  Against libm's
    cos and sin it is within 1e-15 absolute for |theta| <= 1e8, and
    | |phase|^2 - 1 | <= 1e-15; a non-finite a stays non-finite.  Its
    two scratch arrays are all it allocates.
    """
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


def _dft_matrix(n: int, sign: int) -> np.ndarray:
    """exp(sign 2 pi i ((j k) mod n) / n) / sqrt(n): np.fft.fft's (sign -1)
    or ifft's unitary n-point DFT matrix, as with norm="ortho"."""
    k = np.arange(n)
    return np.exp(sign * 2j * np.pi / n * (np.outer(k, k) % n)) / math.sqrt(n)


def _propagator(f: np.ndarray, inv: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    """One axis's circulant propagators F^-1 diag(f) F, P x 1 x n x n, for
    each drive's kinetic phases f (P x n).  One n x n product per drive,
    whatever P, so a drive's propagator does not depend on the others."""
    return np.matmul(inv * f[:, None, :], fwd)[:, None]


def _transform(mats, src: np.ndarray, out: np.ndarray):
    """mats[i] (n x n, or P x 1 x n x n: one per drive) along kept grid axis
    i of the (P, R, sites) field src, last axis first: (result, spare).
    Each pass writes its axis first and alternates between src and out."""
    for m in reversed(mats):
        n = m.shape[-1]
        np.matmul(m, src.reshape(*src.shape[:2], -1, n).swapaxes(-1, -2),
                  out=out.reshape(*out.shape[:2], n, -1))
        src, out = out, src
    return src, out


def run_trajectory(
    state: FieldState,
    drive: tuple[DriveSpec, ...],
    p: LatticeParams,
    cfg: TwaRunConfig,
    *,
    first_realization: int = 0,
) -> tuple[ObservableTrace, ...]:
    """Evolve rows of field samples under P drives, recording observables
    each drive period; one trace per drive.

    The field stays in position space: each step takes one propagator
    pass per kept axis, then the contact phase, and a forward transform
    at each period boundary reads |A_q|^2.  The drives share omega and
    resolve to one run length (TwaRunConfig.resolve_cycles).  The state
    holds P x R rows, protocol-major: row k R + j runs drive k, and is
    row j of drive k's trace.  Row j of a drive's block is named
    realization first_realization + j in errors, and the drive's index
    as the protocol when P > 1.  Raises BlowUpError when the field
    leaves the finite range or an atom number drifts by more than
    ATOM_DRIFT_TOL.
    """
    n_cycles = cfg.resolve_cycles(drive)
    n_steps, grid, period = cfg.steps_per_period, state.grid, drive[0].period
    dt = period / n_steps
    rows = state.amplitudes
    n_prot = len(drive)
    if len(rows) % n_prot:
        raise DomainError(
            f"{len(rows)} field rows do not split evenly over {n_prot} drives"
        )
    n_real = len(rows) // n_prot
    # axes longer than one point; on a length-1 axis the kinetic factor is a
    # global phase.  A 1 x 1 x 1 grid keeps z (factor 1) to step its contact
    shape = (grid.nx, grid.ny, grid.nz)
    kept = [i for i, n in enumerate(shape) if n > 1] or [2]
    fwd = [_dft_matrix(shape[i], -1) for i in kept]
    inv = [m.conj() for m in fwd]
    pos = rows.reshape(n_prot, n_real, -1).astype(complex)  # (P, R, sites), a copy
    spare = np.empty_like(pos)
    times = np.arange(n_cycles + 1) * period
    total = np.empty((len(rows), n_cycles + 1))
    cond = np.empty_like(total)
    drift = np.zeros(len(rows))
    # drive shifts at t + dt/4 and t + 3 dt/4 of every step of a period
    offsets = dt * (0.25 + 0.5 * np.arange(2 * n_steps))
    trail = [np.ones((n_prot, shape[i])) for i in kept]
    # a step that overflows leaves a non-finite field, for the guard to report
    with np.errstate(over="ignore", invalid="ignore"):
        for cycle in range(n_cycles + 1):
            if cycle:
                # per grid axis, a (2 n_steps, P, n) table: every drive at every offset
                ax, ay = np.stack([drive_shift(times[cycle - 1] + offsets, d) for d in drive], -1)
                tables = _kinetic_factors(grid, p, 0.5 * dt, ax, ay)
                # even row s: trailing half of step s - 1, then leading half of step s
                for i, tr in zip(kept, trail):
                    tables[i][2::2] *= tables[i][1:-1:2]
                    tables[i][0] *= tr
                trail = [tables[i][-1].copy() for i in kept]
                for step in zip(*(tables[i][0::2] for i in kept)):
                    # built right before use: a period's table would cost memory
                    props = [_propagator(f, m, w) for f, m, w in zip(step, inv, fwd)]
                    pos, spare = _transform(props, pos, spare)
                    pos = _contact(pos, dt * p.u)
                del tables, step  # the next period's tables are built without them
            # the forward passes alternate between two buffers and must keep the
            # field, so they run on a copy; the result's buffer is the next
            # spare and the other is freed, which keeps two buffers between steps
            amps = spare = _transform(fwd, pos.copy(), spare)[0]
            occ = (amps.real**2 + amps.imag**2).reshape(len(rows), -1)
            total[:, cycle] = occ.sum(axis=1) * grid.dz
            cond[:, cycle] = occ[:, 0] * grid.dz
            dev = np.abs(total[:, cycle] - total[:, 0]) / np.maximum(total[:, 0], 1e-300)
            drift = np.maximum(drift, dev)
            bad = ~np.isfinite(total[:, cycle]) | (dev > ATOM_DRIFT_TOL)
            if bad.any():
                row = int(np.argmax(bad))
                prot, real = divmod(row, n_real)
                where = f"protocol {prot}, " if n_prot > 1 else ""
                what = (
                    f"atom number drifted by {dev[row]:.3e} (relative)"
                    if np.isfinite(total[row, cycle]) else "field left the finite range"
                )
                raise BlowUpError(f"{where}realization {first_realization + real}: {what} "
                                  f"in cycle {cycle}; reduce the time step or the drive strength")
    n_raw = (total - cond) / grid.volume
    cf = cond / np.where(total > 0.0, total, 1.0)
    half_quantum = (grid.n_modes - 1) / (2.0 * grid.volume)
    steps = n_steps * n_cycles
    blocks = [slice(k * n_real, (k + 1) * n_real) for k in range(n_prot)]
    return tuple(
        ObservableTrace(times, n_raw[b], cf[b], half_quantum, drift[b],
                        grid.n_modes * n_real * steps, n_real * (steps + n_cycles + 1))
        for b in blocks
    )


def _run_batch(payload) -> tuple[ObservableTrace, ...]:
    """Evolve realizations ks under every drive as one array; one trace
    per drive, of one row per realization."""
    drive, p, cfg, ks = payload
    samples = np.concatenate([
        sample_initial(cfg.grid, p, realization_rng(cfg.master_seed, k)).amplitudes
        for k in ks
    ])
    batch = FieldState(np.concatenate([samples] * len(drive)), cfg.grid)
    return run_trajectory(batch, drive, p, cfg, first_realization=ks[0])


def ensemble_run(
    drive: tuple[DriveSpec, ...],
    p: LatticeParams,
    cfg: TwaRunConfig,
    workers: int = 1,
) -> tuple[ObservableTrace, ...]:
    """Evolve an ensemble of Wigner samples on cfg.grid under each drive of
    a tuple; one ObservableTrace per drive, of every realization's row in
    realization order, deterministic per seed.

    The drives share omega and run length (see run_trajectory) and every
    drive evolves the same samples.  The cfg.n_realizations realizations
    are split into min(workers, n_realizations) contiguous batches, each
    evolved under all drives as one array, in a process pool when there
    is more than one batch; a drive's trace joins its batches' rows and
    sums their work counters.  Realization k is sampled from
    realization_rng(cfg.master_seed, k) whatever its batch, and rows of
    a stack evolve bit-identically to single runs, so results depend
    neither on workers nor on the other drives of the tuple.
    """
    n_real = cfg.n_realizations
    n_batches = min(workers, n_real)
    payloads = [
        (drive, p, cfg, range(n_real * b // n_batches, n_real * (b + 1) // n_batches))
        for b in range(n_batches)
    ]
    if n_batches > 1:
        # imported here: the pool's modules (multiprocessing, socket,
        # subprocess) cost a run that starts none 1.5 MB of peak RSS
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            batches = list(pool.map(_run_batch, payloads))
    else:
        batches = [_run_batch(payloads[0])]
    return tuple(
        replace(parts[0], **{
            name: np.concatenate([getattr(tr, name) for tr in parts])
            for name in ("n_ex_raw", "condensed_fraction", "atom_drift")
        }, site_steps=sum(tr.site_steps for tr in parts),
            transforms=sum(tr.transforms for tr in parts))
        for parts in zip(*batches)
    )
