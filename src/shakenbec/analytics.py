"""Closed-form instability rates, cusp frequencies, and stability maps.

These are the analytic predictions against which the mode integrator and
the truncated-Wigner ensembles are benchmarked.  All formulas refer to
the dominant two-quantum parametric channel (energy 2 x drive quantum
absorbed into a pair of Bogoliubov modes at +/- q), evaluated in the
period-averaged frame.

Two regimes meet at a cusp frequency omega_c where the resonant shell
reaches the corner of the effective Bogoliubov band:

* high frequency (omega >= omega_c): the most unstable modes sit at the
  band-corner momenta and the single-mode rate is
  gamma = c J |J2(k0)| g / omega with c = 4 (linear, circular) or 8
  (diagonal).
* low frequency (omega < omega_c): the resonant shell lies inside the
  band at effective energy eps* = sqrt(g^2 + omega^2) - g and the rate
  carries the Bogoliubov structure factor,
  gamma = eps* (J2/J0) (g / omega).

Only for the diagonal trajectory does the cusp coincide with the full
effective bandwidth: linear shaking leaves the y tunneling bare, and the
circular drive's harmonic weight cancels at the (pi, pi) corner, pushing
its operative band edge to (pi, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CalibrationError, DomainError, InvertedBandError, NoCriticalAmplitudeError
from .model import (
    LatticeParams,
    Momentum,
    Regime,
    Trajectory,
    bogoliubov_transform,
    check_drive,
)
from .specialmath import bessel_j, bessel_j0_inverse, j0_first_zero


def _corner_factor(trajectory: Trajectory) -> float:
    # band-corner energy prefactor: 4 J_eff for trajectories whose most
    # unstable corner is (pi, 0), 8 J_eff for the diagonal's (pi, pi)
    return 8.0 if trajectory is Trajectory.DIAGONAL else 4.0


@dataclass(frozen=True)
class CuspData:
    """Cusp frequency of a drive trajectory and the matching bandwidth."""

    omega_c: float
    bandwidth: float  # full effective Bogoliubov bandwidth of the trajectory
    equals_bandwidth: bool  # True when the cusp sits exactly at the bandwidth


def _cusp_terms(trajectory: Trajectory, b0, p: LatticeParams):
    """(omega_c, bandwidth, omega_c == bandwidth) elementwise over J0(k0).

    The cusp is where the resonant shell reaches the trajectory's most
    unstable band corner: Bogoliubov energy of 4 J_eff (linear and
    circular, corner (pi, 0)) or 8 J_eff (diagonal, corner (pi, pi)).
    For linear shaking the top of the effective band is at (pi, pi) with
    single-particle energy 4 J (|J0| + 1); for diagonal and circular
    trajectories it is 8 J |J0|.  A NaN J0 (an inverted band) gives NaN,
    NaN and False.
    """
    corner = _corner_factor(trajectory) * (p.j * b0)
    b0 = np.abs(b0)
    if trajectory is Trajectory.LINEAR_X:
        top = 4.0 * p.j * (b0 + 1.0)
    else:
        top = 8.0 * p.j * b0
    omega_c = bogoliubov_transform(corner, p.g)[0]
    bandwidth = bogoliubov_transform(top, p.g)[0]
    return omega_c, bandwidth, np.abs(omega_c - bandwidth) <= 1e-12 * bandwidth


@dataclass(frozen=True)
class InstabilityResult:
    """Most unstable modes and their growth rates for one drive setting."""

    q_mum: tuple[Momentum, ...]  # one representative per (q, -q) pair
    gamma: float  # single-mode amplitude growth rate
    big_gamma: float  # predicted total heating rate (includes gamma0)
    regime: Regime
    cusp: CuspData  # cusp of the trajectory at this amplitude


@dataclass(frozen=True, eq=False)
class ModeScan:
    """Most unstable mode of one trajectory at every point of a scan.

    Arrays have the scan's shape.  (qx, qy) is the first momentum of the
    q_mum set and n_pairs the number of (q, -q) pairs in it.  Where the
    band is inverted every float is nan and every flag False.
    """

    trajectory: Trajectory
    n_pairs: int
    inverted: np.ndarray
    high_freq: np.ndarray  # regime: omega >= omega_c
    qx: np.ndarray
    qy: np.ndarray
    gamma: np.ndarray
    big_gamma: np.ndarray
    omega_c: np.ndarray
    bandwidth: np.ndarray
    cusp_at_bandwidth: np.ndarray


def _libm(fn, values: np.ndarray) -> np.ndarray:
    # fn on each value as a Python float, so that asin comes from the C
    # library as in scalar code: numpy's arcsin differs in the last place
    return np.fromiter(map(fn, values.tolist()), float, values.size)


@dataclass(frozen=True, eq=False)
class ClosedFormScan:
    """Closed-form predictions over arrays of drive frequency and amplitude.

    omega and k0 are floats or arrays that broadcast together (k0 = 0
    when only the threshold is wanted).  This is the one implementation
    of the rate and threshold formulas: most_unstable_mode and
    critical_drive_amplitude evaluate it at a single point, and element
    by element it gives their bits.  model.check_drive, DriveSpec's check,
    raises DomainError for the first omega or k0 outside the drive domain;
    k0 at or past the first zero of J0 is marked inverted, not raised.
    """

    omega: np.ndarray
    lattice: LatticeParams
    k0: np.ndarray = 0.0

    def __post_init__(self) -> None:
        omega, k0 = check_drive(self.omega, self.k0)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "k0", k0)

    @cached_property
    def k0_critical(self) -> np.ndarray:
        """Runaway-heating threshold per omega, nan where g > omega.

        J0(k0c) = g / omega on the first monotone branch of J0 (see
        critical_drive_amplitude); the array has omega's shape.
        """
        ratio = self.lattice.g / self.omega
        out = np.full(ratio.shape, np.nan)
        out[ratio == 0.0] = j0_first_zero()
        solve = ~((ratio > 1.0) | (ratio == 0.0))
        out[solve] = bessel_j0_inverse(ratio[solve])
        return out

    @cached_property
    def _bessel_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (inverted, J0(k0), |J2(k0)|) on k0's shape, nan where inverted;
        # an inverted k0 never reaches bessel_j, so any finite k0 is fine
        inverted = ~(self.k0 < j0_first_zero())
        b0 = np.full(self.k0.shape, np.nan)
        b2 = np.full(self.k0.shape, np.nan)
        ok = ~inverted
        b0[ok] = bessel_j(0, self.k0[ok])
        b2[ok] = np.abs(bessel_j(2, self.k0[ok]))
        return inverted, b0, b2

    def modes(self, trajectory: Trajectory) -> ModeScan:
        """Location and rate of the dominant parametric instability.

        High frequency (omega >= omega_c): band-corner momenta and
        gamma = c J |J2| g / omega.  Low frequency: the resonant shell at
        eps* = sqrt(g^2 + omega^2) - g, q_r = 2 asin(sqrt(eps* / (c J J0)))
        and gamma = eps* (|J2| / J0) (g / omega).  big_gamma = 2 gamma
        n_pairs + gamma0.
        """
        p = self.lattice
        inverted, b0, b2 = self._bessel_terms
        omega_c, bandwidth, at_bandwidth = _cusp_terms(trajectory, b0, p)
        inverted, b0, b2, omega_c, bandwidth, at_bandwidth, omega = np.broadcast_arrays(
            inverted, b0, b2, omega_c, bandwidth, at_bandwidth, self.omega
        )
        high = omega >= omega_c  # False where inverted (nan)
        low = ~(high | inverted)
        c = _corner_factor(trajectory)
        qx = np.full(high.shape, np.nan)
        gamma = np.full(high.shape, np.nan)
        qx[high] = math.pi
        gamma[high] = c * p.j * b2[high] * p.g / omega[high]
        w, b0, b2 = omega[low], b0[low], b2[low]
        eps_res = np.sqrt(p.g**2 + np.float_power(w, 2)) - p.g
        # omega < omega_c keeps the arcsine argument <= 1 up to roundoff
        arg = np.minimum(np.sqrt(eps_res / (c * p.j * b0)), 1.0)
        qx[low] = 2.0 * _libm(math.asin, arg)
        gamma[low] = eps_res * (b2 / b0) * (p.g / w)
        if trajectory is Trajectory.DIAGONAL:
            qy = qx
        else:
            qy = np.where(inverted, np.nan, 0.0)
        n_pairs = 1 if trajectory is Trajectory.LINEAR_X else 2
        return ModeScan(
            trajectory, n_pairs, inverted=inverted.copy(), high_freq=high, qx=qx,
            qy=qy, gamma=gamma, big_gamma=2.0 * gamma * n_pairs + p.gamma0,
            omega_c=omega_c.copy(), bandwidth=bandwidth.copy(),
            cusp_at_bandwidth=at_bandwidth.copy(),
        )


def most_unstable_mode(
    trajectory: Trajectory,
    k0: float,
    omega: float,
    p: LatticeParams,
) -> InstabilityResult:
    """Closed-form location and rate of the dominant parametric instability.

    Requires 0 <= k0 < first zero of J0 (non-inverted band).  The
    returned q_mum contains one representative momentum per inequivalent
    (q, -q) pair; the total rate is big_gamma = 2 * gamma * (number of
    pairs) + gamma0.  The one-point case of ClosedFormScan.modes: a k0
    that DriveSpec rejects raises its DomainError, and a k0 at or past
    the first zero of J0 raises InvertedBandError.
    """
    m = ClosedFormScan(omega, p, k0).modes(trajectory)
    if m.inverted:
        raise InvertedBandError(
            f"band inverted: the closed forms need 0 <= k0 < {j0_first_zero():.6f}, "
            f"got {k0}"
        )
    qx, qy = float(m.qx), float(m.qy)
    if trajectory is Trajectory.LINEAR_X:
        q_set = (Momentum(qx, qy),)
    elif trajectory is Trajectory.DIAGONAL:
        q_set = (Momentum(qx, qy), Momentum(-qx, qy))
    else:
        q_set = (Momentum(qx, qy), Momentum(qy, qx))
    return InstabilityResult(
        q_mum=q_set,
        gamma=float(m.gamma),
        big_gamma=float(m.big_gamma),
        regime=Regime.HIGH_FREQ if m.high_freq else Regime.LOW_FREQ,
        cusp=CuspData(float(m.omega_c), float(m.bandwidth), bool(m.cusp_at_bandwidth)),
    )


def cusp_frequency(trajectory: Trajectory, k0: float, p: LatticeParams) -> CuspData:
    """Frequency of the rate cusp separating the two instability regimes.

    The one-point case of ClosedFormScan.modes, as most_unstable_mode
    is, at any omega (the cusp does not depend on it): a k0 that
    DriveSpec rejects raises its DomainError, and a k0 at or past the
    first zero of J0 raises InvertedBandError.
    """
    return most_unstable_mode(trajectory, k0, 1.0, p).cusp


def critical_drive_amplitude(omega: float, p: LatticeParams) -> float:
    """Drive amplitude k0^c marking the onset of runaway heating.

    Beyond this amplitude the two-dimensional drives heat far faster
    than the two-mode parametric prediction.  The empirical scaling sets
    the correlation measure (g / J_eff)(J / omega) to one, i.e.
    J0(k0^c) = g / omega on the first monotone branch of J0, so the
    threshold rises with omega and saturates at the first zero of J0.
    Raises NoCriticalAmplitudeError when g > omega (the combination
    exceeds one at any amplitude).  The one-point case of
    ClosedFormScan.k0_critical.
    """
    k0c = float(ClosedFormScan(omega, p).k0_critical)
    if math.isnan(k0c):
        raise NoCriticalAmplitudeError(
            f"no critical amplitude: g/omega = {p.g / omega:.4f} > 1"
        )
    return k0c


def calibrate_g_from_cusp(measured_omega_c: float, j: float, k0: float) -> float:
    """Interaction energy g from a measured linear-drive cusp, J, and K0.

    Inverts omega_c = sqrt(4 J_eff (4 J_eff + 2 g)), J_eff = J J0(k0).
    Raises DomainError for a J or k0 that cannot describe a drive, and
    CalibrationError for a k0 at or past the first zero of J0 or unless
    infinity > omega_c > 4 J_eff.
    """
    if not 0.0 < j < math.inf:  # NaN fails too
        raise DomainError(f"hopping must be positive and finite, got {j}")
    if not check_drive(1.0, k0)[1] < j0_first_zero():  # k0 of any drive
        raise CalibrationError(
            f"effective hopping J J0(k0) is positive only for "
            f"0 <= k0 < {j0_first_zero():.6f}, got k0 = {k0}"
        )
    corner = 4.0 * (j * bessel_j(0, k0))  # 4 J_eff
    if not corner < measured_omega_c < math.inf:  # NaN fails too
        raise CalibrationError(
            f"cusp frequency {measured_omega_c} must be finite and exceed the "
            f"band corner {corner}"
        )
    return (measured_omega_c**2 - corner**2) / (2.0 * corner)
