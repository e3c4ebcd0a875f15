"""Reference formulas that several test modules check the engines against."""

import itertools
import math

import numpy as np

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


def ring_ground_depletion(n_atoms, p):
    """Exact ground-state depletion <n_+ + n_-> of n_atoms bosons on the
    three-site ring, the Bose-Hubbard model of Grid(3, 1, 1).

    Its modes are q = 0 and the pair q = +-2 pi / 3, with kinetic energies
    axis_energies(q) = 4 J sin^2(q / 2).  The contact term on 3 sites is
    (U / 6) sum a+_k1 a+_k2 a_k3 a_k4 over k1 + k2 = k3 + k4 mod 2 pi, so
    with umklapp (2q = -q), and U = g / n0 = 3 g / n_atoms keeps g = U n0
    the Bogoliubov coupling.  The Hamiltonian conserves quasimomentum, and
    the ground state lies in the zero sector, n_+ = n_- mod 3: 166 Fock
    states at 30 atoms, 1,396 at 90.  It is built there and diagonalized
    with numpy.linalg.eigh.
    """
    pairs = np.array([(a, b) for a in range(n_atoms + 1) for b in range(n_atoms + 1 - a)
                      if (a - b) % 3 == 0])
    occ = np.column_stack([n_atoms - pairs.sum(axis=1), pairs])  # n_0, n_+, n_-
    index = np.full((n_atoms + 1, n_atoms + 1), -1)
    index[pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
    k = np.array([0, 1, -1])  # quasimomentum in units of 2 pi / 3
    eps = axis_energies(2.0 * math.pi / 3.0 * k, 0.0, 0.0, p)[0]
    h = np.diag(occ @ eps)
    contact = 3.0 * p.g / n_atoms / 6.0
    states = np.arange(len(occ))
    for k1, k2, k3, k4 in itertools.product(range(3), repeat=4):
        if (k[k1] + k[k2] - k[k3] - k[k4]) % 3:
            continue
        n, amp = occ.copy(), np.ones(len(occ))
        for mode in (k4, k3):  # annihilate, then create
            amp *= np.sqrt(np.maximum(n[:, mode], 0))
            n[:, mode] -= 1
        for mode in (k2, k1):
            n[:, mode] += 1
            amp *= np.sqrt(np.maximum(n[:, mode], 0))
        hit = amp != 0.0
        np.add.at(h, (index[n[hit, 1], n[hit, 2]], states[hit]), contact * amp[hit])
    assert np.allclose(h, h.T, rtol=1e-14, atol=0.0)
    ground = np.linalg.eigh(h)[1][:, 0]
    return float(ground**2 @ (occ[:, 1] + occ[:, 2]))
