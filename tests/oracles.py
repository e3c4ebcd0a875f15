"""Reference formulas that several test modules check the engines against."""

import math

from shakenbec.model import axis_energies, drive_shift


def dispersion(q, t, drive, p):
    """Single-particle energy of Momentum q at time t in the co-moving frame.

    eps(q, t) = eps0(q - A(t)) - eps0(-A(t)); the subtraction removes the
    condensate's own micromotion energy, so eps(0, t) = 0 at all times.
    """
    ax, ay = drive_shift(t, drive)
    shifted = sum(axis_energies(q.qx, q.qy, q.qz, p, ax, ay))
    return float(shifted - sum(axis_energies(0.0, 0.0, 0.0, p, ax, ay)))


def envelope_scalar(t, drive):
    """The envelope amplitude at one time t, branch by branch in scalar math:
    the reference for model.envelope_value."""
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


def drive_shift_scalar(t, drive):
    """The frame shift (Ax, Ay) at one time t in scalar math, frozen at its
    cut value after an abrupt stop: the reference for model.drive_shift."""
    ts = drive.stop_time()
    if ts is not None and t >= ts:
        t_eval, amp = ts, 1.0
    else:
        t_eval, amp = t, envelope_scalar(t, drive)
    traj = drive.trajectory
    ax = amp * drive.k0 * math.sin(drive.omega * t_eval)
    ay = amp * drive.k0 * traj.kappa * math.sin(drive.omega * t_eval + traj.phi)
    return ax, ay
