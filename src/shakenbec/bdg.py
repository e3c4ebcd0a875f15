"""Time-dependent Bogoliubov mode dynamics.

Each quasimomentum pair (q, -q) evolves under the 2x2 linearized
equations of motion in the co-moving frame,

    i d/dt (u, v) = [[eps(q, t) + g, g], [-g, -eps(-q, t) - g]] (u, v),

which are linear, so each drive period acts on (u, v) as a 2x2 map per
mode.  Modes travel as arrays: momenta q[:, mode] = (qx, qy, qz) of
shape [3, m], and (u, v) as two arrays of length m.  init_mode gives the
static vacuum (u, v) of each column, and grid_instability_scan feeds a
grid's modes through init_mode and evolve_modes.  _period_map builds
the map by integrating the columns (1, 0) and (0, 1) over one period
with fixed-step classical Runge-Kutta, vectorized over modes;
evolve_modes propagates (u, v) stroboscopically, one map product per
period (Floquet theory; Lellouch et al., PRX 7, 021015 (2017)).  A
constant drive reuses one map; an envelope needs one per period, and
the RK4 step holding an abrupt stop is split at the cut, which keeps
the scheme fourth order across the kink in the drive.  One
model.drive_shift call gives A(t) at every RK4 node of a map, the cut's
included, where model.axis_energies tabulates eps(+-q, t) = eps0(+-q -
A(t)) - eps0(-A(t)) on each momentum axis' distinct values, per mode.

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
occupations to the partner, so their rates tie exactly.  Every run
starts at t = 0.  The guards run on the propagated state every
period: the amplitudes must stay finite and below OCCUPATION_CEILING,
and the exact invariant |u|^2 - |v|^2 must not drift by more than
NORM_DRIFT_TOL relative to the mode magnitude (so strongly amplified
modes are held to the same standard as quiescent ones).  The pair occupation |v|^2 grows
as exp(2 s t) on resonance; rates extracted here are occupation rates,
i.e. twice the amplitude rate.  Grid scans run in one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError, IntegratorToleranceError, SingularModeError
from .model import (
    DriveSpec,
    Grid,
    LatticeParams,
    Momentum,
    axis_energies,
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
    grid: momentum grid for scans (its lz sets the qz spacing 2*pi/lz)
    fit_window_cycles: trailing periods used for log-slope rate fits
    """

    steps_per_period: int = 256
    n_cycles: int = 32
    grid: Grid = Grid(24, 24)
    fit_window_cycles: int = 8

    def __post_init__(self) -> None:
        if self.steps_per_period < 64:
            raise DomainError("steps_per_period must be >= 64")
        if self.n_cycles < 1:
            raise DomainError("n_cycles must be >= 1")
        if not (1 <= self.fit_window_cycles <= self.n_cycles):
            raise DomainError("fit_window_cycles must be in 1..n_cycles")
        if self.grid.n_modes < 2:
            raise DomainError("the grid needs a mode besides the condensate q = 0, got 1 x 1 x 1")


@dataclass(frozen=True)
class ModeBatchTrajectory:
    """Stroboscopic record of a batch of modes sharing one clock."""

    times: np.ndarray
    occupations: np.ndarray  # [n_samples, n_modes]
    norm_drift: float  # worst over the batch
    norm_drift_abs: float
    mode_steps: int  # RK4 steps integrated, summed over modes


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


def init_mode(q: np.ndarray, p: LatticeParams) -> tuple[np.ndarray, np.ndarray]:
    """Ground-state (u, v) = (cosh theta, -sinh theta) of the undriven
    lattice at the momenta q[:, mode] = (qx, qy, qz), as two arrays: the
    static frame grid_instability_scan starts from; the relative sign is
    what makes |v|^2 silent until the drive is switched on.  Raises
    SingularModeError naming the first gapless column (eps = 0, q = 0).
    """
    q = np.asarray(q, dtype=float)
    eps = sum(axis_energies(*q, p))
    gapless = eps == 0.0
    if gapless.any():
        i = int(gapless.argmax())
        raise SingularModeError(f"no Bogoliubov mode at gapless momentum q[:, {i}] = "
                                f"{tuple(q[:, i].tolist())}")
    _, u, v = bogoliubov_transform(eps, p.g)
    return u, v


def _batch_rhs(u, v, eps, g):
    return -1j * ((eps[0] + g) * u + g * v), -1j * (-g * u - (eps[1] + g) * v)


def _rk4(u, v, h, e1, e2, e4, g):
    """One classical RK4 step; e1, e2, e4 are the (eps(+q), eps(-q)) rows
    at its start, midpoint and end."""
    k1u, k1v = _batch_rhs(u, v, e1, g)
    k2u, k2v = _batch_rhs(u + 0.5 * h * k1u, v + 0.5 * h * k1v, e2, g)
    k3u, k3v = _batch_rhs(u + 0.5 * h * k2u, v + 0.5 * h * k2v, e2, g)
    k4u, k4v = _batch_rhs(u + h * k3u, v + h * k3v, e4, g)
    return (
        u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _period_map(
    q: np.ndarray, t_start: float, drive: DriveSpec, p: LatticeParams, steps_per_period: int
) -> tuple[np.ndarray, int]:
    """(m, steps): for the modes q[:, mode] = (qx, qy, qz), one period from
    t_start takes (u, v) to m @ (u, v), m[i, j, mode], in `steps` RK4 steps."""
    dt = drive.period / steps_per_period
    # A(t + T/2) = -A(t) makes the second half period's map sigma_x N* sigma_x
    # (module docstring); an envelope breaks that symmetry, and an odd step
    # count puts no step boundary at T/2
    half_period = drive.envelope is None and steps_per_period % 2 == 0
    map_steps = steps_per_period // 2 if half_period else steps_per_period
    # the drive at each of the 2 * map_steps + 1 half-step times, once;
    # an abrupt stop strictly inside step `cut` splits that step at the
    # cut, whose kink would otherwise cost the scheme its order
    times = t_start + 0.5 * dt * np.arange(2 * map_steps + 1)
    ts = drive.stop_time()
    cut = math.floor((ts - t_start) / dt) if ts is not None else -1
    if 0 <= cut < map_steps and times[2 * cut] < ts < times[2 * cut + 2]:
        h1, h2 = ts - times[2 * cut], times[2 * cut + 2] - ts
        times = np.append(times, [ts - 0.5 * h1, ts, ts + 0.5 * h2])
    else:
        cut = -1
    ax, ay = (a[:, None, None] for a in drive_shift(times, drive))
    # eps(+-q, t) = eps0(+-q - A) - eps0(-A): per-axis tables [time, sign,
    # axis value] on the distinct values of each axis, gathered per mode
    (ux, ix), (uy, iy) = (np.unique(axis, return_inverse=True) for axis in q[:2])
    sign = np.array([[1.0], [-1.0]])
    ex, ey, ez = axis_energies(sign * ux, sign * uy, q[2], p, ax, ay)
    ex -= sum(axis_energies(0.0, 0.0, 0.0, p, ax, ay))

    def eps(k: int) -> np.ndarray:
        return ex[k].take(ix, axis=1) + ey[k].take(iy, axis=1) + ez  # eps(+-q, t_k)

    g = p.g
    # row j of (u, v) is the solution starting from column j of the identity
    u, v = np.broadcast_to(np.eye(2, dtype=np.complex128)[:, :, None], (2, 2, q.shape[1]))
    e4 = eps(0)
    for step in range(map_steps):
        e1, e4 = e4, eps(2 * step + 2)
        if step == cut:
            e_cut = eps(2 * map_steps + 2)
            u, v = _rk4(u, v, h1, e1, eps(2 * map_steps + 1), e_cut, g)
            u, v = _rk4(u, v, h2, e_cut, eps(2 * map_steps + 3), e4, g)
        else:
            u, v = _rk4(u, v, dt, e1, eps(2 * step + 1), e4, g)
    m = np.stack((u, v))
    steps = map_steps + (cut >= 0)
    if not half_period:
        return m, steps
    s = m[::-1, ::-1].conj()  # sigma_x N* sigma_x
    return s[:, :1] * m[:1] + s[:, 1:] * m[1:], steps


def evolve_modes(
    q: np.ndarray,
    u0: np.ndarray,
    v0: np.ndarray,
    drive: DriveSpec,
    p: LatticeParams,
    cfg: BdgRunConfig,
) -> ModeBatchTrajectory:
    """Evolve the modes q[:, mode] = (qx, qy, qz) from (u0, v0) at t = 0,
    sampling |v|^2 at every period.  q must be [3, m] with m >= 1 and u0,
    v0 of length m; DomainError otherwise."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != 3 or q.shape[1] == 0:
        raise DomainError(f"evolve_modes needs momenta q of shape [3, m], m >= 1, got {q.shape}")
    u, v = (np.asarray(a, dtype=np.complex128) for a in (u0, v0))
    if u.shape != (q.shape[1],) or v.shape != u.shape:
        raise DomainError(f"evolve_modes needs u0 and v0 of length {q.shape[1]}, "
                          f"got shapes {u.shape} and {v.shape}")
    n_samples = cfg.n_cycles + 1
    occ = np.empty((n_samples, u.size))
    occ[0] = np.abs(v) ** 2
    times = np.arange(n_samples) * drive.period
    drift = 0.0
    drift_abs = 0.0
    norm0 = np.abs(u) ** 2 - np.abs(v) ** 2
    m = None
    rk4_steps = 0
    for cycle in range(cfg.n_cycles):
        if m is None or drive.envelope is not None:
            m, steps = _period_map(q, times[cycle], drive, p, cfg.steps_per_period)
            rk4_steps += steps
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
    return ModeBatchTrajectory(times, occ, drift, drift_abs, rk4_steps * u.size)


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
) -> GridScanResult:
    """Evolve every mode of a momentum grid and locate the fastest growth.

    The grid is taken from cfg.  The condensate mode q = 0 is excluded
    (its linearization is singular); its rate entry is zero.  Rate ties
    are broken towards lexicographically smallest (qx, qy, qz); q and
    -q always tie, as one mode of each pair is integrated and copied to
    the other (its grid index is (-i) mod n on each axis).  The summed occupation
    divided by the grid volume is directly comparable to the excited
    density of a truncated-Wigner run on the same grid.
    """
    grid = cfg.grid
    shape = (grid.nx, grid.ny, grid.nz)
    q = np.stack(np.broadcast_arrays(*grid.mesh)).reshape(3, -1)
    # each (q, -q) pair is integrated once, at its lower flat index
    index = np.arange(grid.n_modes).reshape(shape)
    rep = np.minimum(index, index[np.ix_(*grid.partner_axes())]).ravel()
    own = np.flatnonzero(rep == index.ravel())  # own[0] = 0 is the condensate
    slot = np.empty(grid.n_modes, dtype=int)
    slot[own] = np.arange(-1, own.size - 1)
    own, column = own[1:], slot[rep[1:]]  # column: each mode's place in own
    run = evolve_modes(q[:, own], *init_mode(q[:, own], p), drive, p, cfg)
    rates = np.zeros(grid.n_modes)
    rates[1:] = occupation_rate(run.times, run.occupations, cfg.fit_window_cycles)[column]
    best = rates[1:].max()
    tie = 1 + np.flatnonzero(rates[1:] == best)
    i_best = tie[np.lexsort(q[::-1, tie])[0]]
    return GridScanResult(
        grid=grid,
        q_max=Momentum(*q[:, i_best]),
        rate=float(best),
        rates=rates.reshape(shape),
        times=run.times,
        occupation_sum=run.occupations[:, column].sum(axis=1) / grid.volume,
        norm_drift=run.norm_drift,
        mode_steps=run.mode_steps,
    )
