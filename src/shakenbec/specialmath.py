"""Special functions and single-particle band structure.

Bessel functions of the first kind (integer order) are implemented here
rather than pulled from a heavier dependency: the ascending series is
used at small argument and Miller's backward recurrence beyond, which
keeps the package dependency surface at numpy only.  Accuracy is well
below 1e-10 absolute over the supported range (order <= 64, |x| <= 50).
J_0 is inverted on its first monotone branch by plain Newton steps
from the small-argument estimate x = 2 sqrt(1 - y), which lies below
the root; a handful of steps reach the rounding floor.

The band-structure solver diagonalizes the lattice Hamiltonian in a
plane-wave basis and is used to convert a lattice depth into a tunneling
rate, so that drive parameters can be tied to experimental lattice
calibrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

# CODATA 2018 exact / recommended values.
PLANCK_H = 6.62607015e-34  # J s
HBAR = 1.054571817e-34  # J s
ATOMIC_MASS_KG = 1.66053906660e-27  # kg
RB87_MASS_U = 86.909180527  # atomic mass units

MAX_ORDER = 64
MAX_ARGUMENT = 50.0
_SERIES_SWITCH = 12.0  # ascending series below, Miller recurrence above
_NEWTON_STEPS = 30  # bessel_j0_inverse takes at most 5 steps on (0, 1]
_EPS = math.ulp(1.0)  # machine epsilon


def _bessel_series(n: int, x: float) -> float:
    # sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!), term-ratio recursion
    h = 0.5 * x
    term = 1.0
    for k in range(1, n + 1):
        term *= h / k
        if term == 0.0:
            return 0.0
    total = term
    hh = h * h
    for k in range(1, 200):
        term *= -hh / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 1e-300:
            return total
    raise ConvergenceError(f"Bessel series stalled at order {n}, x = {x}")


def _bessel_miller(n: int, x: float) -> float:
    # Backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, normalized with
    # J_0 + 2 sum_k J_{2k} = 1.  Start well above both order and argument.
    m = (max(n, int(x)) + 44) // 2 * 2
    jp, j = 0.0, 1e-30
    norm = 0.0
    result = 0.0
    for k in range(m, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp, j = j, jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            result *= 1e-250
        if k - 1 == n:
            result = j
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += 2.0 * j
    norm += j
    return result / norm


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x).

    Supports integer orders 0..64 and |x| <= 50 with absolute error
    below 1e-10 (in practice close to machine precision).
    """
    if not isinstance(order, (int, np.integer)):
        raise DomainError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise DomainError(f"order must be in 0..{MAX_ORDER}, got {order}")
    if not math.isfinite(x) or abs(x) > MAX_ARGUMENT:
        raise DomainError(f"|x| must be <= {MAX_ARGUMENT}, got {x}")
    n = int(order)
    ax = abs(x)
    if ax == 0.0:
        return 1.0 if n == 0 else 0.0
    if ax <= _SERIES_SWITCH:
        val = _bessel_series(n, ax)
    else:
        val = _bessel_miller(n, ax)
    if x < 0.0 and n % 2 == 1:
        val = -val
    return val


@lru_cache(maxsize=1)
def j0_first_zero() -> float:
    """First positive zero of J_0 (the band-inversion drive amplitude)."""
    x = 2.4
    for _ in range(60):
        f = bessel_j(0, x)
        fp = -bessel_j(1, x)
        step = f / fp
        x -= step
        if abs(step) < 1e-14:
            break
    return x


def bessel_j0_inverse(y: float) -> float:
    """Inverse of J_0 on its first monotone branch.

    Returns the unique x in [0, first zero] with J_0(x) = y, for
    y in (0, 1].  Values outside that interval raise DomainError.
    Newton's method starts from x = min(2 sqrt(1 - y), first zero),
    below the root since J_0(x) >= 1 - x^2/4, and stops once the step
    falls below 1e-15 x or |J_0(x) - y| is within one machine epsilon
    (where J_0 is flat the step stalls at the rounding floor of y).
    Raises ConvergenceError when neither happens in _NEWTON_STEPS steps.
    """
    if not (0.0 < y <= 1.0):
        raise DomainError(f"bessel_j0_inverse needs y in (0, 1], got {y}")
    zero = j0_first_zero()
    x = min(2.0 * math.sqrt(1.0 - y), zero)
    for _ in range(_NEWTON_STEPS):
        residual = bessel_j(0, x) - y
        if abs(residual) <= _EPS:
            break
        step = residual / bessel_j(1, x)  # J_0' = -J_1
        x += step
        if abs(step) < 1e-15 * x:
            break
    else:
        raise ConvergenceError(
            f"bessel_j0_inverse({y}) not converged in {_NEWTON_STEPS} Newton steps"
        )
    return min(max(x, 0.0), zero)


def recoil_frequency_hz(wavelength_m: float, mass_kg: float) -> float:
    """Photon recoil energy h / (2 m lambda^2) expressed in Hz."""
    if wavelength_m <= 0.0 or mass_kg <= 0.0:
        raise DomainError("wavelength and mass must both be positive")
    return PLANCK_H / (2.0 * mass_kg * wavelength_m**2)


@dataclass(frozen=True)
class BandProblem:
    """Plane-wave description of one direction of the optical lattice.

    depth_er: lattice depth in recoil units (V0 / E_R), >= 0
    recoil_hz: recoil energy in Hz, sets the output energy scale
    cutoff: plane waves run over reciprocal vectors -cutoff..cutoff
    """

    depth_er: float
    recoil_hz: float
    cutoff: int = 21

    def __post_init__(self) -> None:
        if self.depth_er < 0.0:
            raise DomainError(f"lattice depth must be >= 0, got {self.depth_er}")
        if self.recoil_hz <= 0.0:
            raise DomainError(f"recoil energy must be > 0, got {self.recoil_hz}")
        if self.cutoff < 5:
            raise DomainError(f"plane-wave cutoff must be >= 5, got {self.cutoff}")

    @classmethod
    def from_physical(
        cls,
        depth_er: float,
        wavelength_m: float,
        mass_kg: float,
        cutoff: int = 21,
    ) -> "BandProblem":
        return cls(depth_er, recoil_frequency_hz(wavelength_m, mass_kg), cutoff)


def _ground_band_er(depth_er: float, q_frac: float, cutoff: int) -> float:
    # V(x) = V0 sin^2(pi x / a) couples plane waves q, q +/- 2pi/a with
    # amplitude -V0/4 and shifts the diagonal by V0/2 (recoil units).
    n = np.arange(-cutoff, cutoff + 1)
    diag = (q_frac + 2.0 * n) ** 2 + 0.5 * depth_er
    h = np.diag(diag) + np.diag(np.full(2 * cutoff, -0.25 * depth_er), 1) \
        + np.diag(np.full(2 * cutoff, -0.25 * depth_er), -1)
    return float(np.linalg.eigvalsh(h)[0])


def band_energy(problem: BandProblem, q: float) -> float:
    """Lowest-band energy at quasimomentum q, in units of the recoil energy.

    q is measured in inverse lattice spacings, q in [-pi, pi].  Raises
    ConvergenceError if enlarging the cutoff by 2 moves the result by
    more than 1e-8 recoils.
    """
    if abs(q) > math.pi + 1e-12:
        raise DomainError(f"quasimomentum must lie in [-pi, pi], got {q}")
    q_frac = q / math.pi
    e = _ground_band_er(problem.depth_er, q_frac, problem.cutoff)
    e_check = _ground_band_er(problem.depth_er, q_frac, problem.cutoff + 2)
    if abs(e - e_check) > 1e-8:
        raise ConvergenceError(
            f"band energy not converged at cutoff {problem.cutoff}: "
            f"delta = {abs(e - e_check):.3e} recoils"
        )
    return e


def hopping_from_depth(problem: BandProblem) -> float:
    """Tight-binding tunneling rate J in Hz from the lowest-band width.

    Uses J = [E(pi) - E(0)] / 4, the nearest-neighbor fit to the ground
    band; accurate to a few percent for depths of a few recoils and
    better as the lattice deepens.
    """
    width_er = band_energy(problem, math.pi) - band_energy(problem, 0.0)
    return 0.25 * width_er * problem.recoil_hz
