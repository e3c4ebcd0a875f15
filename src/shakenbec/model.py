"""Core model objects: lattice parameters, drive protocols, dispersions.

Conventions used throughout the package:

* hbar = 1, lattice spacing a = 1.  Energies and rates are angular
  frequencies (rad/s); helpers on the config side convert from Hz.
* The condensate lives in a 2D square lattice (tight-binding, hopping J)
  with a third, continuous transverse direction of effective mass m_z,
  so single-particle energies read
  eps0(q) = 4 J [sin^2(qx/2) + sin^2(qy/2)] + qz^2 / (2 m_z).
  axis_energies is the only place this dispersion is written (bdg and
  twa tabulate it per momentum axis over a batch of drive shifts), and
  bogoliubov_transform the only place of the static Bogoliubov energy
  E = sqrt(eps (eps + 2 g)) and amplitudes (u, v); the bdg, twa and
  analytics engines all call these two kernels.
* Shaking enters as a time-dependent quasimomentum shift A(t): the
  simulation frame is the co-moving (kinetic) frame where the dispersion
  is evaluated at q - A(t).  The sine-phased components (x always, y for
  the diagonal drive) vanish at integer multiples of the period; the
  circular y component is cosine-phased and merely returns to its
  starting value there.  Either way the frame shift is periodic, so
  stroboscopic mode populations are directly comparable across cycles
  (a uniform momentum shift permutes modes without mixing them).
  drive_shift gives A(t), and envelope_value its amplitude, elementwise
  over an array of times (a float gives floats): one call per table.
* Time counts from the start of a run: bdg and twa runs both start at
  t = 0, where an envelope begins its ramp-up.
* The envelope's end_phase is quoted on the lattice velocity waveform of
  the final drive cycle: end_phase = 0 cuts while the lattice moves at
  peak speed (the frozen frame momentum, and hence the kick to the
  cloud, is maximal), end_phase = pi/2 cuts at a turning point where the
  lattice is momentarily at rest (no kick).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specialmath import _require_finite

TWO_PI = 2.0 * math.pi


class Trajectory(enum.Enum):
    """Shape of the shaking trajectory in the lattice plane."""

    LINEAR_X = "linear_x"
    DIAGONAL = "diagonal"
    CIRCULAR = "circular"

    @property
    def kappa(self) -> float:
        """Relative amplitude of the y drive component."""
        return 0.0 if self is Trajectory.LINEAR_X else 1.0

    @property
    def phi(self) -> float:
        """Phase lag of the y drive component."""
        return -0.5 * math.pi if self is Trajectory.CIRCULAR else 0.0


class Regime(enum.Enum):
    HIGH_FREQ = "high_freq"  # drive above the rate cusp, saturated rate
    LOW_FREQ = "low_freq"  # drive below the cusp, resonant shell inside band


@dataclass(frozen=True)
class Momentum:
    """Quasimomentum; in-plane components wrap to the first Brillouin zone."""

    qx: float
    qy: float
    qz: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "qx", _wrap_bz(self.qx))
        object.__setattr__(self, "qy", _wrap_bz(self.qy))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.qx, self.qy, self.qz)

    def __neg__(self) -> "Momentum":
        return Momentum(-self.qx, -self.qy, -self.qz)


def _wrap_bz(q: float) -> float:
    if not math.isfinite(q):
        raise DomainError(f"momentum component must be finite, got {q}")
    return q - TWO_PI * round(q / TWO_PI)


@dataclass(frozen=True)
class LatticeParams:
    """Static system parameters.

    j: tunneling rate (rad/s)
    g: condensate interaction energy g = U n0 (rad/s)
    n0: condensate density (atoms per site per unit transverse length)
    gamma0: phenomenological background heating rate added to predicted
        total rates (1/s)
    m_z: effective mass of the transverse direction, in 1/(energy a^2)
        units; eps_z = qz^2 / (2 m_z)
    """

    j: float
    g: float
    n0: float = 1.0
    gamma0: float = 0.0
    m_z: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, ("j", "g", "n0", "gamma0", "m_z"))
        if self.j <= 0.0:
            raise DomainError(f"hopping must be positive, got {self.j}")
        if self.g < 0.0:
            raise DomainError(f"interaction energy must be >= 0, got {self.g}")
        if self.n0 <= 0.0:
            raise DomainError(f"condensate density must be positive, got {self.n0}")
        if self.gamma0 < 0.0:
            raise DomainError(f"background rate must be >= 0, got {self.gamma0}")
        if self.m_z <= 0.0:
            raise DomainError(f"transverse mass must be positive, got {self.m_z}")

    @property
    def u(self) -> float:
        """Two-body coupling U = g / n0."""
        return self.g / self.n0


@dataclass(frozen=True)
class Envelope:
    """Piecewise drive envelope, in units of the drive period.

    The amplitude rises over ramp_up periods with a sin^2 profile, holds
    at unity for hold periods, then either ramps down smoothly over
    ramp_down periods or, when abrupt_stop is set, is cut instantly
    during one extra cycle at the phase end_phase of the lattice
    velocity waveform: end_phase = 0 stops the lattice from peak speed
    (largest frozen quasimomentum shift, maximal kick), end_phase = pi/2
    stops it at a turning point (no kick).
    """

    ramp_up: int = 1
    hold: int = 0
    ramp_down: int = 0
    abrupt_stop: bool = False
    end_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.ramp_up < 1:
            raise DomainError(f"ramp_up must be >= 1 period, got {self.ramp_up}")
        if self.hold < 0 or self.ramp_down < 0:
            raise DomainError("hold and ramp_down must be >= 0 periods")
        if not (0.0 <= self.end_phase < TWO_PI):
            raise DomainError(
                f"end_phase must lie in [0, 2*pi), got {self.end_phase}"
            )

    @property
    def total_periods(self) -> int:
        """Number of whole periods until the drive is over."""
        if self.abrupt_stop:
            return self.ramp_up + self.hold + 1
        return self.ramp_up + self.hold + self.ramp_down


@dataclass(frozen=True)
class DriveSpec:
    """A shaking protocol: trajectory shape, amplitude, frequency, envelope.

    k0 is the dimensionless drive amplitude (peak quasimomentum shift in
    inverse lattice spacings), omega the drive angular frequency (rad/s).
    envelope = None means the drive runs at constant unit amplitude,
    which is the natural choice for rate extraction.
    """

    trajectory: Trajectory
    k0: float
    omega: float
    envelope: Envelope | None = None

    def __post_init__(self) -> None:
        _require_finite(self, ("k0", "omega"))
        if self.k0 < 0.0:
            raise DomainError(f"drive amplitude must be >= 0, got {self.k0}")
        if self.omega <= 0.0:
            raise DomainError(f"drive frequency must be positive, got {self.omega}")

    @property
    def period(self) -> float:
        return TWO_PI / self.omega

    def stop_time(self) -> float | None:
        """Time of an abrupt cut after the start at t = 0, None for smooth
        protocols."""
        env = self.envelope
        if env is None or not env.abrupt_stop:
            return None
        t_hold_end = (env.ramp_up + env.hold) * self.period
        # the shift tracks the lattice velocity, and end_phase counts
        # from a velocity extremum: cut at shift phase end_phase + pi/2
        return t_hold_end + ((env.end_phase + 0.5 * math.pi) % TWO_PI) / self.omega


def envelope_value(t, drive: DriveSpec):
    """Dimensionless envelope amplitude at time t (1.0 if no envelope),
    elementwise over an array of times: a float t gives a float."""
    t = np.asarray(t, dtype=float)
    env = drive.envelope
    if env is None:
        value = np.ones(t.shape)
    else:
        period = drive.period
        t_up = env.ramp_up * period
        # the amplitude holds at one until t_cut, then ramps down over t_down
        t_cut, t_down = ((drive.stop_time(), 0.0) if env.abrupt_stop
                         else (t_up + env.hold * period, env.ramp_down * period))
        value = np.where((t_up <= t) & (t < t_cut), 1.0, 0.0)
        up = (0.0 <= t) & (t < t_up)
        # float_power is C pow, as a float's ** is (an array's ** multiplies)
        value[up] = np.float_power(np.sin(0.5 * math.pi * t[up] / t_up), 2)
        down = (t_cut <= t) & (t < t_cut + t_down)
        value[down] = np.float_power(np.cos(0.5 * math.pi * (t[down] - t_cut) / t_down), 2)
    return float(value) if value.ndim == 0 else value


def drive_shift(t, drive: DriveSpec):
    """Quasimomentum shift A(t) = (Ax, Ay) in the co-moving frame,
    elementwise over an array of times: a float t gives two floats, an
    array two arrays of its shape.

    After an abrupt stop the shift freezes at its cut value: the inertial
    force vanishes but the frame offset it imparted remains, which is
    what kicks the condensate when the cut happens away from a turning
    point of the lattice position.
    """
    t = np.asarray(t, dtype=float)
    amp = envelope_value(t, drive)
    ts = drive.stop_time()
    if ts is not None:
        frozen = t >= ts
        t, amp = np.where(frozen, ts, t), np.where(frozen, 1.0, amp)
    traj = drive.trajectory
    ax = amp * drive.k0 * np.sin(drive.omega * t)
    ay = amp * drive.k0 * traj.kappa * np.sin(drive.omega * t + traj.phi)
    return (float(ax), float(ay)) if ax.ndim == 0 else (ax, ay)


def axis_energies(qx, qy, qz, p: LatticeParams, ax=0.0, ay=0.0):
    """Per-axis terms of eps0(q - A), elementwise over broadcastable arrays.

    Returns (4 J sin^2((qx - ax)/2), 4 J sin^2((qy - ay)/2), qz^2 / (2 m_z));
    their sum is the lattice dispersion eps0(q - A) for the shift A = (ax, ay).
    """
    four_j = 4.0 * p.j
    return (
        four_j * np.sin(0.5 * (qx - ax)) ** 2,
        four_j * np.sin(0.5 * (qy - ay)) ** 2,
        0.5 * qz**2 / p.m_z,
    )


def bogoliubov_transform(eps, g: float):
    """Static Bogoliubov energy and amplitudes, elementwise over eps.

    Returns (E, u, v) with E = sqrt(eps (eps + 2 g)) and (u, v) =
    (cosh theta, -sinh theta), cosh(2 theta) = (eps + g) / E: the
    positive-energy amplitudes in the convention where the anomalous
    coupling enters with +g.  Where eps <= 0 there is no Bogoliubov
    mode; there E = 0 and (u, v) = (1, 0), bare vacuum.  A NaN eps gives
    NaN for E, u and v.
    """
    eps = np.asarray(eps, dtype=float)
    ok = ~(eps <= 0.0)  # NaN takes the formula branch and stays NaN
    e = np.where(ok, eps, 1.0)
    energy = np.sqrt(e * (e + 2.0 * g))
    cosh2 = (e + g) / energy
    u = np.where(ok, np.sqrt(0.5 * (cosh2 + 1.0)), 1.0)
    v = np.where(ok, -np.sqrt(np.maximum(0.5 * (cosh2 - 1.0), 0.0)), 0.0)
    return np.where(ok, energy, 0.0), u, v


@dataclass(frozen=True)
class Grid:
    """Discrete momentum grid used by the simulation engines.

    nx, ny lattice sites in the plane (momenta are the usual FFT
    frequencies times 2*pi, already inside the Brillouin zone); nz
    samples of the continuous transverse direction over a box of length
    lz with periodic boundaries.  nz = 1 restricts to the lattice plane.
    """

    nx: int
    ny: int
    nz: int = 1
    lz: float = 1.0

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1:
            raise DomainError("grid extents must all be >= 1")
        _require_finite(self, ("lz",))
        if self.lz <= 0.0:
            raise DomainError(f"transverse box length must be positive, got {self.lz}")

    @property
    def qx_axis(self) -> np.ndarray:
        return TWO_PI * np.fft.fftfreq(self.nx)

    @property
    def qy_axis(self) -> np.ndarray:
        return TWO_PI * np.fft.fftfreq(self.ny)

    @property
    def qz_axis(self) -> np.ndarray:
        return TWO_PI * np.fft.fftfreq(self.nz, d=self.lz / self.nz)

    @property
    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(qx, qy, qz) axes shaped to broadcast over an [nx, ny, nz] array."""
        return np.ix_(self.qx_axis, self.qy_axis, self.qz_axis)

    @property
    def dz(self) -> float:
        return self.lz / self.nz

    @property
    def volume(self) -> float:
        """2D site count times transverse length; densities are per volume."""
        return self.nx * self.ny * self.lz

    @property
    def n_modes(self) -> int:
        return self.nx * self.ny * self.nz

    def partner_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per axis, the index (-i) mod n of the pairing partner -q of the
        momentum q at index i."""
        return tuple((-np.arange(n)) % n for n in (self.nx, self.ny, self.nz))
