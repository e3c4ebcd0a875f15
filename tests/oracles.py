"""Reference formulas that several test modules check the engines against."""

from shakenbec.model import axis_energies, drive_shift


def dispersion(q, t, drive, p):
    """Single-particle energy of Momentum q at time t in the co-moving frame.

    eps(q, t) = eps0(q - A(t)) - eps0(-A(t)); the subtraction removes the
    condensate's own micromotion energy, so eps(0, t) = 0 at all times.
    """
    ax, ay = drive_shift(t, drive)
    shifted = sum(axis_energies(q.qx, q.qy, q.qz, p, ax, ay))
    return float(shifted - sum(axis_energies(0.0, 0.0, 0.0, p, ax, ay)))
