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
from functools import lru_cache

from .errors import CalibrationError, DomainError, InvertedBandError, NoCriticalAmplitudeError
from .model import (
    DriveSpec,
    LatticeParams,
    Momentum,
    Regime,
    Trajectory,
    bogoliubov_frame,
    bogoliubov_transform,
    drive_harmonics,
)
from .specialmath import bessel_j, bessel_j0_inverse, j0_first_zero


def effective_hopping(j: float, k0: float) -> float:
    """Time-averaged tunneling J_eff = J * J0(k0) (may be negative)."""
    if j <= 0.0:
        raise DomainError(f"hopping must be positive, got {j}")
    return j * bessel_j(0, k0)


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


def bogoliubov_bandwidth(trajectory: Trajectory, k0: float, p: LatticeParams) -> float:
    """Maximum Bogoliubov energy over the effective Brillouin zone.

    For linear shaking the top of the effective band is at (pi, pi) with
    single-particle energy 4 J (|J0| + 1); for diagonal and circular
    trajectories it is 8 J |J0|.
    """
    b0 = abs(bessel_j(0, k0))
    if trajectory is Trajectory.LINEAR_X:
        top = 4.0 * p.j * (b0 + 1.0)
    else:
        top = 8.0 * p.j * b0
    return float(bogoliubov_transform(top, p.g)[0])


def cusp_frequency(trajectory: Trajectory, k0: float, p: LatticeParams) -> CuspData:
    """Frequency of the rate cusp separating the two instability regimes.

    The cusp is where the resonant shell reaches the trajectory's most
    unstable band corner: Bogoliubov energy of 4 J_eff (linear and
    circular, corner (pi, 0)) or 8 J_eff (diagonal, corner (pi, pi)).
    Raises InvertedBandError when J_eff <= 0.
    """
    j_eff = effective_hopping(p.j, k0)
    if j_eff <= 0.0:
        raise InvertedBandError(
            f"cusp undefined at k0 = {k0}: effective hopping {j_eff:.4e} <= 0"
        )
    corner = _corner_factor(trajectory) * j_eff
    omega_c = float(bogoliubov_transform(corner, p.g)[0])
    bandwidth = bogoliubov_bandwidth(trajectory, k0, p)
    return CuspData(
        omega_c=omega_c,
        bandwidth=bandwidth,
        equals_bandwidth=abs(omega_c - bandwidth) <= 1e-12 * bandwidth,
    )


@dataclass(frozen=True)
class InstabilityResult:
    """Most unstable modes and their growth rates for one drive setting."""

    q_mum: tuple[Momentum, ...]  # one representative per (q, -q) pair
    gamma: float  # single-mode amplitude growth rate
    big_gamma: float  # predicted total heating rate (includes gamma0)
    regime: Regime
    cusp: CuspData  # cusp of the trajectory at this amplitude


@lru_cache(maxsize=1024)
def _k0_terms(trajectory: Trajectory, k0: float, p: LatticeParams):
    """(J0(k0), |J2(k0)|, CuspData), computed once per (trajectory, k0, p)."""
    return bessel_j(0, k0), abs(bessel_j(2, k0)), cusp_frequency(trajectory, k0, p)


def mode_growth_rate(
    q: Momentum,
    trajectory: Trajectory,
    k0: float,
    omega: float,
    p: LatticeParams,
) -> float:
    """Parametric amplitude growth rate of the (q, -q) pair, first harmonic.

    s(q) = |c_1(q)| sinh(2 theta_q) / 2, the rate the pair acquires when
    the drive is tuned to its l = 1 resonance E(q) = omega.  Returns the
    raw per-mode rate with no multiplicity or background added.
    """
    if omega <= 0.0:
        raise DomainError(f"drive frequency must be positive, got {omega}")
    frame = bogoliubov_frame(q, k0, trajectory, p)
    c1 = drive_harmonics(q, k0, trajectory, p, l_max=1)[0]
    return 0.5 * abs(c1) * frame.sinh2


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
    pairs) + gamma0.
    """
    zero = j0_first_zero()
    if not (0.0 <= k0 < zero):
        raise InvertedBandError(
            f"most_unstable_mode needs 0 <= k0 < {zero:.6f}, got {k0}"
        )
    if omega <= 0.0:
        raise DomainError(f"drive frequency must be positive, got {omega}")
    b0, b2, cusp = _k0_terms(trajectory, k0, p)
    c = _corner_factor(trajectory)
    if omega >= cusp.omega_c:
        regime = Regime.HIGH_FREQ
        gamma = c * p.j * b2 * p.g / omega
        if trajectory is Trajectory.LINEAR_X:
            q_set = (Momentum(math.pi, 0.0),)
        elif trajectory is Trajectory.DIAGONAL:
            q_set = (Momentum(math.pi, math.pi), Momentum(-math.pi, math.pi))
        else:
            q_set = (Momentum(math.pi, 0.0), Momentum(0.0, math.pi))
    else:
        regime = Regime.LOW_FREQ
        eps_res = math.sqrt(p.g**2 + omega**2) - p.g
        arg = math.sqrt(eps_res / (c * p.j * b0))
        arg = min(arg, 1.0)  # omega < omega_c keeps this <= 1 up to roundoff
        qr = 2.0 * math.asin(arg)
        gamma = eps_res * (b2 / b0) * (p.g / omega)
        if trajectory is Trajectory.LINEAR_X:
            q_set = (Momentum(qr, 0.0),)
        elif trajectory is Trajectory.DIAGONAL:
            q_set = (Momentum(qr, qr), Momentum(-qr, qr))
        else:
            q_set = (Momentum(qr, 0.0), Momentum(0.0, qr))
    big_gamma = 2.0 * gamma * len(q_set) + p.gamma0
    return InstabilityResult(
        q_mum=q_set,
        gamma=gamma,
        big_gamma=big_gamma,
        regime=regime,
        cusp=cusp,
    )


def critical_drive_amplitude(omega: float, p: LatticeParams) -> float:
    """Drive amplitude k0^c marking the onset of runaway heating.

    Beyond this amplitude the two-dimensional drives heat far faster
    than the two-mode parametric prediction.  The empirical scaling sets
    the correlation measure (g / J_eff)(J / omega) to one, i.e.
    J0(k0^c) = g / omega on the first monotone branch of J0, so the
    threshold rises with omega and saturates at the first zero of J0.
    Raises NoCriticalAmplitudeError when g > omega (the combination
    exceeds one at any amplitude).
    """
    if omega <= 0.0:
        raise DomainError(f"drive frequency must be positive, got {omega}")
    ratio = p.g / omega
    if ratio > 1.0:
        raise NoCriticalAmplitudeError(
            f"no critical amplitude: g/omega = {ratio:.4f} > 1"
        )
    if ratio == 0.0:
        return j0_first_zero()
    return bessel_j0_inverse(ratio)


def interaction_from_cusp(omega_c: float, j_eff: float) -> float:
    """Interaction energy g from a measured linear-drive cusp frequency.

    Inverts omega_c = sqrt(4 J_eff (4 J_eff + 2 g)).  Raises
    CalibrationError unless omega_c > 4 J_eff > 0.
    """
    if j_eff <= 0.0:
        raise CalibrationError(f"effective hopping must be positive, got {j_eff}")
    corner = 4.0 * j_eff
    if omega_c <= corner:
        raise CalibrationError(
            f"cusp frequency {omega_c} must exceed the band corner {corner}"
        )
    return (omega_c**2 - corner**2) / (2.0 * corner)


def omega_c(drive: DriveSpec, p: LatticeParams) -> CuspData:
    """Cusp data for a drive's trajectory and amplitude (drive.omega unused)."""
    return cusp_frequency(drive.trajectory, drive.k0, p)


def k0_critical(omega: float, g: float) -> float:
    """Runaway-heating threshold amplitude from bare omega and g."""
    return critical_drive_amplitude(omega, LatticeParams(j=1.0, g=g, n0=1.0))


def calibrate_g_from_cusp(measured_omega_c: float, j: float, k0: float) -> float:
    """Interaction energy from a measured linear-drive cusp, J, and K0."""
    return interaction_from_cusp(measured_omega_c, effective_hopping(j, k0))


def stable_condensate_momentum(trajectory: Trajectory, k0: float) -> Momentum:
    """Momentum minimizing the effective dispersion at drive amplitude k0.

    Below the first zero of J0 the condensate stays at q = 0; beyond it
    the effective tunneling changes sign and the minimum jumps to the
    band corner: (pi, 0) for linear shaking (only x inverts), (pi, pi)
    for diagonal and circular.
    """
    if k0 < 0.0:
        raise DomainError(f"drive amplitude must be >= 0, got {k0}")
    if k0 <= j0_first_zero():
        return Momentum(0.0, 0.0)
    if trajectory is Trajectory.LINEAR_X:
        return Momentum(math.pi, 0.0)
    return Momentum(math.pi, math.pi)
