"""Time-dependent Bogoliubov mode dynamics.

Each quasimomentum pair (q, -q) evolves under the 2x2 linearized
equations of motion in the co-moving frame,

    i d/dt (u, v) = [[eps(q, t) + g, g], [-g, -eps(-q, t) - g]] (u, v),

which are linear, so each drive period acts on (u, v) as a 2x2 map per
mode.  The engine builds that map by integrating the columns (1, 0) and
(0, 1) over one period with fixed-step classical Runge-Kutta, vectorized
over modes, and propagates (u, v) stroboscopically, one map product per
period (Floquet theory; Lellouch et al., PRX 7, 021015 (2017)).  A
constant drive reuses one map; an envelope needs one per period, and
the RK4 step holding an abrupt stop is split at the cut, which keeps
the scheme fourth order across the kink in the drive.

Two exact symmetries save work.  The conjugation (u, v) -> (v*, u*)
carries the equations of q onto those with eps(q) and eps(-q)
swapped, which are the equations of -q.  At constant amplitude the
drive obeys A(t + T/2) = -A(t), which makes the same swap, so a period
map is sigma_x N* sigma_x N with N the map over the first half period,
from any start time: a constant drive with an even steps_per_period
integrates only half a period (an envelope, an abrupt stop or an odd
step count takes the full-period loop).  And at every instant the map
of -q is sigma_x M(q)* sigma_x, so q and -q share |v|^2: a grid scan,
envelopes included, integrates one mode of each pair and copies its
occupations to the partner, so their rates tie exactly.  The drive is
evaluated at absolute time, so a restarted state continues its
protocol.  The guards run on the propagated state every period: the
amplitudes must stay finite and below OCCUPATION_CEILING, and the exact
invariant |u|^2 - |v|^2 must not drift by more than NORM_DRIFT_TOL
relative to the mode magnitude (so strongly amplified modes are held to
the same standard as quiescent ones).  The pair occupation |v|^2 grows
as exp(2 s t) on resonance; rates extracted here are occupation rates,
i.e. twice the amplitude rate.  Grid scans run in one process.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError, DomainError, IntegratorToleranceError
from .model import (
    DriveSpec,
    Grid,
    LatticeParams,
    Momentum,
    Trajectory,
    axis_energies,
    bogoliubov_frame,
    bogoliubov_transform,
    drive_shift,
)

NORM_DRIFT_TOL = 1e-6  # relative drift of |u|^2 - |v|^2 per run
OCCUPATION_CEILING = 1e200  # abort before exp growth overflows doubles


@dataclass(frozen=True)
class BdgRunConfig:
    """Integration controls for mode evolution and grid scans.

    steps_per_period: fixed RK4 steps per drive period
    n_cycles: total drive periods to integrate
    grid: momentum-grid dimensions (nx, ny, nz) for scans
    lz: transverse box length (sets the qz spacing 2*pi/lz)
    fit_window_cycles: trailing periods used for log-slope rate fits
    """

    steps_per_period: int = 256
    n_cycles: int = 32
    grid: tuple[int, int, int] = (24, 24, 1)
    lz: float = 1.0
    fit_window_cycles: int = 8

    def __post_init__(self) -> None:
        if self.steps_per_period < 64:
            raise DomainError("steps_per_period must be >= 64")
        if self.n_cycles < 1:
            raise DomainError("n_cycles must be >= 1")
        if not (1 <= self.fit_window_cycles <= self.n_cycles):
            raise DomainError("fit_window_cycles must be in 1..n_cycles")

    @property
    def momentum_grid(self) -> Grid:
        return Grid(*self.grid, lz=self.lz)


@dataclass(frozen=True)
class ModePairState:
    """Instantaneous (u, v) amplitudes of one Bogoliubov pair."""

    q: Momentum
    u: complex
    v: complex
    t: float = 0.0

    @property
    def occupation(self) -> float:
        return abs(self.v) ** 2

    @property
    def norm(self) -> float:
        return abs(self.u) ** 2 - abs(self.v) ** 2


@dataclass(frozen=True)
class ModeBatchTrajectory:
    """Stroboscopic record of a batch of modes sharing one clock."""

    times: np.ndarray
    occupations: np.ndarray  # [n_samples, n_modes]
    final_states: tuple[ModePairState, ...]
    norm_drift: float  # worst over the batch
    norm_drift_abs: float


@dataclass(frozen=True)
class GridScanResult:
    """Outcome of evolving every nonzero mode of a momentum grid."""

    grid: Grid
    q_max: Momentum
    rate: float  # occupation growth rate of the fastest mode (rad/s)
    rates: np.ndarray  # [nx, ny, nz] occupation rates; 0 at the condensate
    times: np.ndarray
    occupation_sum: np.ndarray  # sum_q |v_q|^2 / volume at each boundary
    norm_drift: float
    mode_steps: int  # RK4 steps actually integrated, summed over modes
    occupations: np.ndarray | None = None  # [n_samples, nx, ny, nz] if kept


def init_mode(q: Momentum, p: LatticeParams) -> ModePairState:
    """Ground-state (u, v) = (cosh theta, -sinh theta) of the undriven
    lattice at momentum q; the relative sign is what makes |v|^2 silent
    until the drive is switched on.
    """
    frame = bogoliubov_frame(q, 0.0, Trajectory.LINEAR_X, p)
    return ModePairState(q=q, u=complex(frame.cosh), v=complex(-frame.sinh), t=0.0)


def _batch_rhs(u, v, ep, em, g):
    du = -1j * ((ep + g) * u + g * v)
    dv = -1j * (-g * u - (em + g) * v)
    return du, dv


class _BatchRun(NamedTuple):
    times: np.ndarray
    occupations: np.ndarray  # [n_cycles + 1, n_modes]
    u: np.ndarray
    v: np.ndarray
    norm_drift: float
    norm_drift_abs: float
    mode_steps: int  # RK4 steps integrated, summed over modes


def _evolve_batch(
    qx: np.ndarray,
    qy: np.ndarray,
    qz: np.ndarray,
    u0: np.ndarray,
    v0: np.ndarray,
    t0: float,
    drive: DriveSpec,
    p: LatticeParams,
    cfg: BdgRunConfig,
) -> _BatchRun:
    """Evolve many modes from time t0, sampling |v|^2 at every period."""
    ez = axis_energies(qx, qy, qz, p)[2]
    sqx, cqx = np.sin(0.5 * qx), np.cos(0.5 * qx)
    sqy, cqy = np.sin(0.5 * qy), np.cos(0.5 * qy)
    sxx, syy, sxc, syc = sqx * sqx, sqy * sqy, sqx * cqx, sqy * cqy
    g = p.g
    fourj = 4.0 * p.j
    period = drive.period
    n_steps = cfg.steps_per_period
    dt = period / n_steps
    # A(t + T/2) = -A(t) makes the second half period's map sigma_x N* sigma_x
    # (module docstring); an envelope breaks that symmetry, and an odd step
    # count puts no step boundary at T/2
    half_period = drive.envelope is None and n_steps % 2 == 0
    map_steps = n_steps // 2 if half_period else n_steps
    rk4_steps = 0

    def period_map(t_start: float) -> np.ndarray:
        """m[i, j, mode]: one period from t_start takes (u, v) to m @ (u, v)."""
        nonlocal rk4_steps
        # the drive at each of the 2 * map_steps + 1 half-step times, once;
        # an abrupt stop strictly inside step `cut` splits that step at
        # the cut, whose kink would otherwise cost the scheme its order
        times = [t_start + 0.5 * dt * k for k in range(2 * map_steps + 1)]
        ts = drive.stop_time()
        cut = math.floor((ts - t_start) / dt) if ts is not None else -1
        if 0 <= cut < map_steps and times[2 * cut] < ts < times[2 * cut + 2]:
            h1, h2 = ts - times[2 * cut], times[2 * cut + 2] - ts
            times += [ts - 0.5 * h1, ts, ts + 0.5 * h2]
            rk4_steps += 1
        else:
            cut = -1
        shifts = np.array([drive_shift(t, drive) for t in times])
        sin_a, cos_a = np.sin(shifts), np.cos(shifts)

        def eps_pair(k: int):
            even = fourj * (sxx * cos_a[k, 0] + syy * cos_a[k, 1]) + ez
            odd = fourj * (sxc * sin_a[k, 0] + syc * sin_a[k, 1])
            return even - odd, even + odd  # eps(+q, t), eps(-q, t)

        def rk4(u, v, h, e1, e2, e4):
            k1u, k1v = _batch_rhs(u, v, *e1, g)
            k2u, k2v = _batch_rhs(u + 0.5 * h * k1u, v + 0.5 * h * k1v, *e2, g)
            k3u, k3v = _batch_rhs(u + 0.5 * h * k2u, v + 0.5 * h * k2v, *e2, g)
            k4u, k4v = _batch_rhs(u + h * k3u, v + h * k3v, *e4, g)
            return (
                u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            )

        # row j of (u, v) is the solution starting from column j of the identity
        u, v = np.broadcast_to(np.eye(2, dtype=np.complex128)[:, :, None], (2, 2, qx.size))
        e4 = eps_pair(0)
        for step in range(map_steps):
            e1, e4 = e4, eps_pair(2 * step + 2)
            if step == cut:
                e_cut = eps_pair(2 * map_steps + 2)
                u, v = rk4(u, v, h1, e1, eps_pair(2 * map_steps + 1), e_cut)
                u, v = rk4(u, v, h2, e_cut, eps_pair(2 * map_steps + 3), e4)
            else:
                u, v = rk4(u, v, dt, e1, eps_pair(2 * step + 1), e4)
        rk4_steps += map_steps
        m = np.stack((u, v))
        if not half_period:
            return m
        s = m[::-1, ::-1].conj()  # sigma_x N* sigma_x
        return s[:, :1] * m[:1] + s[:, 1:] * m[1:]

    u = u0.astype(np.complex128)
    v = v0.astype(np.complex128)
    n_samples = cfg.n_cycles + 1
    occ = np.empty((n_samples, u.size))
    occ[0] = np.abs(v) ** 2
    times = t0 + np.arange(n_samples) * period
    drift = 0.0
    drift_abs = 0.0
    norm0 = np.abs(u) ** 2 - np.abs(v) ** 2
    m = None
    for cycle in range(cfg.n_cycles):
        if m is None or drive.envelope is not None:
            m = period_map(times[cycle])
        u, v = m[0, 0] * u + m[0, 1] * v, m[1, 0] * u + m[1, 1] * v
        nu = np.abs(u) ** 2
        nv = np.abs(v) ** 2
        occ[cycle + 1] = nv
        if not np.all(np.isfinite(nv)):
            raise BlowUpError(
                f"mode amplitudes left the finite range in cycle {cycle + 1}; "
                "reduce n_cycles or the drive strength"
            )
        if nv.max() > OCCUPATION_CEILING:
            raise BlowUpError(
                f"mode occupation exceeded {OCCUPATION_CEILING:.0e} in cycle "
                f"{cycle + 1}; reduce n_cycles"
            )
        dev = np.abs(nu - nv - norm0)
        drift_abs = max(drift_abs, float(dev.max()))
        rel = dev / np.maximum(1.0, nu + nv)
        drift = max(drift, float(rel.max()))
        if drift > NORM_DRIFT_TOL:
            raise IntegratorToleranceError(
                f"|u|^2 - |v|^2 drifted by {drift:.3e} (relative) after cycle "
                f"{cycle + 1}; increase steps_per_period"
            )
    return _BatchRun(times, occ, u, v, drift, drift_abs, rk4_steps * qx.size)


def evolve_modes(
    states: Sequence[ModePairState],
    drive: DriveSpec,
    p: LatticeParams,
    cfg: BdgRunConfig,
) -> ModeBatchTrajectory:
    """Integrate many Bogoliubov pairs at once.

    All states must share the same start time; the batch advances on a
    common stroboscopic clock.
    """
    if not states:
        raise DomainError("evolve_modes needs at least one mode")
    t0 = states[0].t
    if any(s.t != t0 for s in states):
        raise DomainError("all modes in a batch must share the same start time")
    qx = np.array([s.q.qx for s in states])
    qy = np.array([s.q.qy for s in states])
    qz = np.array([s.q.qz for s in states])
    u0 = np.array([s.u for s in states], dtype=np.complex128)
    v0 = np.array([s.v for s in states], dtype=np.complex128)
    run = _evolve_batch(qx, qy, qz, u0, v0, t0, drive, p, cfg)
    finals = tuple(
        ModePairState(q=s.q, u=complex(run.u[i]), v=complex(run.v[i]), t=run.times[-1])
        for i, s in enumerate(states)
    )
    return ModeBatchTrajectory(
        times=run.times,
        occupations=run.occupations,
        final_states=finals,
        norm_drift=run.norm_drift,
        norm_drift_abs=run.norm_drift_abs,
    )


def occupation_rate(
    times: np.ndarray, occupation: np.ndarray, fit_window_cycles: int
) -> float | np.ndarray:
    """Log-slope of occupation series over their trailing window.

    occupation is one series [n_samples] or one series per column
    [n_samples, n_modes]; all columns are fitted in one least-squares
    solve, and a 1-D input returns a float.  A series whose window
    contains non-positive samples (a mode that never got populated,
    e.g. at zero interaction) gets rate 0.
    """
    w = fit_window_cycles + 1
    tw = times[-w:] - times[-w:].mean()
    nw = occupation[-w:]
    populated = np.all(nw > 0.0, axis=0)
    # centred times sum to zero, so the intercept drops out of the slope
    slope = tw @ np.log(np.where(populated, nw, 1.0)) / (tw @ tw)
    rates = np.where(populated, slope, 0.0)
    return float(rates) if rates.ndim == 0 else rates


def grid_instability_scan(
    drive: DriveSpec,
    p: LatticeParams,
    cfg: BdgRunConfig,
    keep_occupations: bool = False,
) -> GridScanResult:
    """Evolve every mode of a momentum grid and locate the fastest growth.

    The grid is taken from cfg.  The condensate mode q = 0 is excluded
    (its linearization is singular); its entries in the rate and
    occupation arrays are zero.  Rate ties are broken towards
    lexicographically smallest (qx, qy, qz); q and -q always tie, as
    one mode of each pair is integrated and copied to the other (its
    grid index is (-i) mod n on each axis).  The summed occupation
    divided by the grid volume is directly comparable to the excited
    density of a truncated-Wigner run on the same grid.
    """
    grid = cfg.momentum_grid
    shape = (grid.nx, grid.ny, grid.nz)
    qx, qy, qz = (axis.ravel() for axis in np.broadcast_arrays(*grid.mesh))
    # each (q, -q) pair is integrated once, at its lower flat index
    index = np.arange(grid.n_modes).reshape(shape)
    rep = np.minimum(index, index[np.ix_(*grid.partner_axes())]).ravel()
    own = np.flatnonzero(rep == index.ravel())  # own[0] = 0 is the condensate
    slot = np.empty(grid.n_modes, dtype=int)
    slot[own] = np.arange(-1, own.size - 1)
    own, column = own[1:], slot[rep[1:]]  # column: each mode's place in own
    _, u0, v0 = bogoliubov_transform(
        sum(axis_energies(qx[own], qy[own], qz[own], p)), p.g
    )
    run = _evolve_batch(qx[own], qy[own], qz[own], u0, v0, 0.0, drive, p, cfg)
    rates = np.zeros(grid.n_modes)
    rates[1:] = occupation_rate(run.times, run.occupations, cfg.fit_window_cycles)[column]
    best = rates[1:].max()
    tie = 1 + np.flatnonzero(rates[1:] == best)
    i_best = tie[np.lexsort((qz[tie], qy[tie], qx[tie]))[0]]

    occupations = None
    if keep_occupations:
        occupations = np.zeros((run.times.size, grid.n_modes))
        occupations[:, 1:] = run.occupations[:, column]
        occupations = occupations.reshape((run.times.size, *shape))
    return GridScanResult(
        grid=grid,
        q_max=Momentum(qx[i_best], qy[i_best], qz[i_best]),
        rate=float(best),
        rates=rates.reshape(shape),
        times=run.times,
        occupation_sum=run.occupations[:, column].sum(axis=1) / grid.volume,
        norm_drift=run.norm_drift,
        mode_steps=run.mode_steps,
        occupations=occupations,
    )
