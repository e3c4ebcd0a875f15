"""Special functions and single-particle band structure.

Bessel functions of the first kind (integer order) are implemented here
rather than pulled from a heavier dependency, which keeps the package
dependency surface at numpy only.  `bessel_j` and `bessel_j0_inverse`
take a float (and return a float) or an array of any shape (and return
an array of that shape); a float is the one-point case of the array
code.  Each element takes the path a scalar loop would: the ascending
series for J_n, and for the J_0 inverse plain Newton steps from the
small-argument estimate x = 2 sqrt(1 - y), which lies below the root.
The series runs over the whole array until every element has met the
scalar stop test, past which its terms lie below half an ulp of its
total; a boolean mask stops each element's Newton steps where the
scalar loop would.  So every element gets the bits of a one-point
call.  The supported range, order <= 64 and |x| <= 8, covers the
closed forms, whose drive amplitudes all lie below the first zero of
J_0 (2.405); on it the series is within 1e-13 of scipy, and a handful
of Newton steps reach the rounding floor.

The band-structure solver diagonalizes the lattice Hamiltonian in a
plane-wave basis and is used to convert a lattice depth into a tunneling
rate, so that drive parameters can be tied to experimental lattice
calibrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# CODATA 2018 exact / recommended values.
PLANCK_H = 6.62607015e-34  # J s
ATOMIC_MASS_KG = 1.66053906660e-27  # kg
RB87_MASS_U = 86.909180527  # atomic mass units

MAX_ORDER = 64
# the ascending series loses digits to cancellation as |x| grows (1.7e-12
# near 12); the closed forms need no more than J0's first zero, 2.405
MAX_ARGUMENT = 8.0
_SERIES_TERMS = 200  # the series stalls if term 199 has not converged
_NEWTON_STEPS = 30  # bessel_j0_inverse takes at most 5 steps on (0, 1]
_EPS = math.ulp(1.0)  # machine epsilon


def _require(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise DomainError naming the first of values where bad holds."""
    if bad.any():
        raise DomainError(f"{message}, got {float(values.flat[bad.argmax()])}")


def _require_finite(obj, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _bessel_series(n: int, x: np.ndarray) -> np.ndarray:
    # sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!) at each x in [0, 8], term by
    # term over the whole array until every element has met the scalar
    # loop's stop test, a term at most 1e-17 of its total.  Past its own
    # stop an element's terms stay below half an ulp of its total, so the
    # extra terms leave it with the bits of a one-point call.
    h = 0.5 * x
    term = np.ones(h.shape)
    for k in range(1, n + 1):
        term *= h / k
    total = term
    hh = h * h
    done = np.zeros(h.shape, dtype=bool)
    for k in range(1, _SERIES_TERMS):
        term = term * (-hh / (k * (n + k)))
        total = total + term
        done |= np.abs(term) <= 1e-17 * np.abs(total) + 1e-300
        if done.all():
            return total
    raise ConvergenceError(f"Bessel series stalled at order {n}, x = {x[done.argmin()]}")


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order(x), elementwise over x.

    x is a float (a float is returned) or an array (an array of its
    shape is returned).  Supports integer orders 0..64 and |x| <= 8
    with absolute error below 1e-13, from the ascending series; an
    element outside raises DomainError naming it.
    """
    if not isinstance(order, (int, np.integer)):
        raise DomainError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise DomainError(f"order must be in 0..{MAX_ORDER}, got {order}")
    n = int(order)
    xa = np.asarray(x, dtype=float)
    flat = xa.reshape(-1)
    ax = np.abs(flat)
    _require(~(ax <= MAX_ARGUMENT), flat, f"|x| must be <= {MAX_ARGUMENT}")
    val = _bessel_series(n, ax)  # J_n(0) = 1 or 0 exactly
    if n % 2 == 1:
        np.negative(val, out=val, where=flat < 0.0)
    return float(val[0]) if xa.ndim == 0 else val.reshape(xa.shape)


def j0_first_zero() -> float:
    """First positive zero of J_0 (the band-inversion drive amplitude), the
    double 0x1.33d152e971b40p+1 that Newton's method on bessel_j reaches."""
    return 2.404825557695773


def bessel_j0_inverse(y):
    """Inverse of J_0 on its first monotone branch, elementwise over y.

    Returns the unique x in [0, first zero] with J_0(x) = y, for
    y in (0, 1]: a float for a float y, an array of y's shape for an
    array.  An element outside that interval raises DomainError naming
    it.  Newton's method starts from x = min(2 sqrt(1 - y), first zero),
    below the root since J_0(x) >= 1 - x^2/4; an element stops once its
    step falls below 1e-15 x or |J_0(x) - y| is within one machine
    epsilon (where J_0 is flat the step stalls at the rounding floor of
    y).  Raises ConvergenceError, naming the first such y, when an
    element does neither in _NEWTON_STEPS steps.
    """
    ya = np.asarray(y, dtype=float)
    flat = ya.reshape(-1)
    _require(~((flat > 0.0) & (flat <= 1.0)), flat, "bessel_j0_inverse needs y in (0, 1]")
    zero = j0_first_zero()
    x = np.minimum(2.0 * np.sqrt(1.0 - flat), zero)
    moving = np.ones(x.shape, dtype=bool)  # the elements still taking steps
    for _ in range(_NEWTON_STEPS):
        residual = bessel_j(0, x) - flat
        moving &= ~(np.abs(residual) <= _EPS)
        if not moving.any():
            break
        # J_0' = -J_1; a converged element takes no step and keeps its x
        step = np.divide(residual, bessel_j(1, x), out=np.zeros(x.shape), where=moving)
        np.add(x, step, out=x, where=moving)
        moving &= ~(np.abs(step) < 1e-15 * x)
        if not moving.any():
            break
    else:
        raise ConvergenceError(
            f"bessel_j0_inverse({flat[moving.argmax()]}) not converged in "
            f"{_NEWTON_STEPS} Newton steps"
        )
    x = np.minimum(np.maximum(x, 0.0), zero)
    return float(x[0]) if ya.ndim == 0 else x.reshape(ya.shape)


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
        _require_finite(self, ("depth_er", "recoil_hz"))
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
