"""Core model objects: lattice parameters, drive protocols, dispersions.

Conventions used throughout the package:

* hbar = 1, lattice spacing a = 1.  Energies and rates are angular
  frequencies (rad/s); helpers on the config side convert from Hz.
* The condensate lives in a 2D square lattice (tight-binding, hopping J)
  with a third, continuous transverse direction of effective mass m_z,
  so single-particle energies read
  eps0(q) = 4 J [sin^2(qx/2) + sin^2(qy/2)] + qz^2 / (2 m_z).
  axis_energies is the only place this dispersion is written, and
  bogoliubov_transform the only place of the static Bogoliubov energy
  E = sqrt(eps (eps + 2 g)) and amplitudes (u, v); the scalar API here
  and the bdg, twa and analytics engines all call these two kernels.
* Shaking enters as a time-dependent quasimomentum shift A(t): the
  simulation frame is the co-moving (kinetic) frame where the dispersion
  is evaluated at q - A(t).  The sine-phased components (x always, y for
  the diagonal drive) vanish at integer multiples of the period; the
  circular y component is cosine-phased and merely returns to its
  starting value there.  Either way the frame shift is periodic, so
  stroboscopic mode populations are directly comparable across cycles
  (a uniform momentum shift permutes modes without mixing them).
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

from .errors import DomainError, InvertedBandError, SingularModeError
from .specialmath import HBAR, _require_finite, bessel_j

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
        """Absolute time of an abrupt cut, None for smooth protocols."""
        env = self.envelope
        if env is None or not env.abrupt_stop:
            return None
        t_hold_end = (env.ramp_up + env.hold) * self.period
        # the shift tracks the lattice velocity, and end_phase counts
        # from a velocity extremum: cut at shift phase end_phase + pi/2
        return t_hold_end + ((env.end_phase + 0.5 * math.pi) % TWO_PI) / self.omega


def envelope_value(t: float, drive: DriveSpec) -> float:
    """Dimensionless envelope amplitude at time t (1.0 if no envelope)."""
    env = drive.envelope
    if env is None:
        return 1.0
    if t < 0.0:
        return 0.0
    period = drive.period
    t_up = env.ramp_up * period
    if t < t_up:
        return math.sin(0.5 * math.pi * t / t_up) ** 2
    t_hold_end = t_up + env.hold * period
    if env.abrupt_stop:
        return 1.0 if t < drive.stop_time() else 0.0
    if t < t_hold_end:
        return 1.0
    if env.ramp_down == 0:
        return 0.0
    t_down = env.ramp_down * period
    if t < t_hold_end + t_down:
        return math.cos(0.5 * math.pi * (t - t_hold_end) / t_down) ** 2
    return 0.0


def drive_shift(t: float, drive: DriveSpec) -> tuple[float, float]:
    """Quasimomentum shift A(t) = (Ax, Ay) in the co-moving frame.

    After an abrupt stop the shift freezes at its cut value: the inertial
    force vanishes but the frame offset it imparted remains, which is
    what kicks the condensate when the cut happens away from a turning
    point of the lattice position.
    """
    ts = drive.stop_time()
    if ts is not None and t >= ts:
        t_eval, amp = ts, 1.0
    else:
        t_eval, amp = t, envelope_value(t, drive)
    traj = drive.trajectory
    ax = amp * drive.k0 * math.sin(drive.omega * t_eval)
    ay = amp * drive.k0 * traj.kappa * math.sin(drive.omega * t_eval + traj.phi)
    return ax, ay


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


def dispersion(q: Momentum, t: float, drive: DriveSpec, p: LatticeParams) -> float:
    """Instantaneous single-particle energy in the co-moving frame.

    eps(q, t) = eps0(q - A(t)) - eps0(-A(t)); the subtraction removes the
    condensate's own micromotion energy so eps(0, t) = 0 at all times.
    """
    ax, ay = drive_shift(t, drive)
    shifted = sum(axis_energies(q.qx, q.qy, q.qz, p, ax, ay))
    return float(shifted - sum(axis_energies(0.0, 0.0, 0.0, p, ax, ay)))


def effective_dispersion(
    q: Momentum, k0: float, trajectory: Trajectory, p: LatticeParams
) -> float:
    """Period-averaged dispersion of the driven lattice.

    Linear shaking renormalizes only the x tunneling by J0(k0); diagonal
    and circular trajectories renormalize both directions by the same
    factor.  Raises InvertedBandError if the result is negative at q,
    i.e. the zero momentum state is no longer the band minimum along the
    probed direction.
    """
    b0 = bessel_j(0, k0)
    ex, ey, ez = axis_energies(q.qx, q.qy, q.qz, p)
    planar = b0 * ex + ey if trajectory is Trajectory.LINEAR_X else b0 * (ex + ey)
    eps = float(planar + ez)
    if eps < 0.0:
        raise InvertedBandError(
            f"effective dispersion is negative at q = {q.as_tuple()} for "
            f"k0 = {k0} (J0 = {b0:.6f}); the condensate momentum is unstable"
        )
    return eps


@dataclass(frozen=True)
class BogoliubovFrame:
    """Hyperbolic rotation diagonalizing the static pairing problem at q."""

    eps_eff: float
    energy: float  # Bogoliubov energy E(q)
    cosh: float  # u = cosh(theta)
    sinh: float  # -v = sinh(theta)

    @property
    def cosh2(self) -> float:
        """cosh(2 theta) = (eps_eff + g) / E."""
        return self.cosh**2 + self.sinh**2

    @property
    def sinh2(self) -> float:
        """sinh(2 theta) = g / E."""
        return 2.0 * self.cosh * self.sinh


def bogoliubov_frame(
    q: Momentum, k0: float, trajectory: Trajectory, p: LatticeParams
) -> BogoliubovFrame:
    """Bogoliubov frame of the period-averaged problem at momentum q.

    With k0 = 0 this is the frame of the undriven lattice, used to seed
    time evolution.  Raises SingularModeError at gapless points where
    the effective dispersion vanishes (the condensate mode itself).
    """
    eps = effective_dispersion(q, k0, trajectory, p)
    if eps == 0.0:
        raise SingularModeError(
            f"Bogoliubov frame undefined at gapless momentum {q.as_tuple()}"
        )
    energy, u, v = bogoliubov_transform(eps, p.g)
    return BogoliubovFrame(eps, float(energy), float(u), -float(v))


def drive_harmonics(
    q: Momentum, k0: float, trajectory: Trajectory, p: LatticeParams, l_max: int = 4
) -> list[float]:
    """Even-frequency Fourier weights of the modulated dispersion.

    Returns [c_1, ..., c_l_max] where the momentum-even part of
    eps(q, t) - eps_eff(q) is sum_l c_l cos(2 l omega t).  The l = 1
    entry controls the dominant two-quantum parametric channel.  For the
    circular trajectory the y contribution alternates sign with l (its
    shift component follows cos(omega t), shifting the harmonic phase).
    """
    if l_max < 1:
        raise DomainError(f"l_max must be >= 1, got {l_max}")
    ex, ey, _ = axis_energies(q.qx, q.qy, 0.0, p)
    out = []
    for l in range(1, l_max + 1):
        b = bessel_j(2 * l, k0)
        if trajectory is Trajectory.LINEAR_X:
            geom = ex
        elif trajectory is Trajectory.DIAGONAL:
            geom = ex + ey
        else:
            geom = ex + ((-1.0) ** l) * ey
        out.append(float(2.0 * b * geom))
    return out


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

    def partner_axes(
        self, about: tuple[int, int, int] = (0, 0, 0)
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per axis, the pairing partner (2 about - i) mod n of index i:
        q0 + k pairs with q0 - k about the momentum q0 at index about."""
        return tuple(
            (2 * c - np.arange(n)) % n for c, n in zip(about, (self.nx, self.ny, self.nz))
        )

    def index_of(self, q: Momentum) -> tuple[int, int, int]:
        """Grid index of a momentum that lies on the grid (1e-9 tolerance)."""
        out = []
        # in-plane axes are Brillouin-zone periodic, the transverse one is not
        for val, axis, periodic in (
            (q.qx, self.qx_axis, True),
            (q.qy, self.qy_axis, True),
            (q.qz, self.qz_axis, False),
        ):
            diff = np.abs(axis - val)
            if periodic:
                diff = np.minimum(diff, np.abs(diff - TWO_PI))
            i = int(np.argmin(diff))
            if diff[i] > 1e-9:
                raise DomainError(f"momentum {q.as_tuple()} does not lie on the grid")
            out.append(i)
        return tuple(out)


def shake_displacement(
    k0: float, omega: float, site_spacing_m: float, mass_kg: float
) -> float:
    """Peak real-space displacement (meters) of the lattice shaking.

    A drive of dimensionless amplitude k0 at angular frequency omega on a
    lattice of spacing d for atoms of the given mass corresponds to a
    position modulation of amplitude hbar k0 / (d omega m).
    """
    if site_spacing_m <= 0.0 or mass_kg <= 0.0 or omega <= 0.0:
        raise DomainError("spacing, mass and frequency must be positive")
    return HBAR * k0 / (site_spacing_m * omega * mass_kg)
