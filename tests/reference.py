"""Slow, literal implementations kept as test oracles.

Each one walks the eigenspaces one at a time, as the physics is usually
written down, so the loop-free library code can be checked against it.
"""

import numpy as np

from weakmeas.hilbert import DensityMatrix, eig_hermitian, trace_distance
from weakmeas.protocol import EMPTY_PROB, coupled_state


def eigenspaces(dec):
    """Yield (eigenvalue, orthonormal column block) for each eigenspace."""
    bounds = np.append(dec.group_starts, dec.eigenvalues.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        value = float(np.mean(dec.eigenvalues[lo:hi]))
        yield value, dec.eigenvectors[:, lo:hi]


def _blocks(setup, eps):
    r = coupled_state(setup, eps)
    return r.amps.reshape(setup.dim_s, setup.meter.dim_m)


def branch_tables(setup, eps):
    """Meter eigenvalue, Born probability and joint probability with
    postselection of each readout branch of r(eps)."""
    blocks = _blocks(setup, eps)
    rows = []
    for value, vg in eigenspaces(eig_hermitian(setup.meter.B)):
        branch = blocks @ vg.conj()          # eigenspace coordinates
        w = setup.f.amps.conj() @ branch     # postselected meter component
        rows.append((value, np.vdot(branch, branch).real,
                     np.vdot(w, w).real))
    return tuple(np.array(col) for col in zip(*rows))


def projective_tables(a, s, f):
    """Eigenvalue, Born probability |P_i s|^2 and joint probability
    |<f, P_i s>|^2 of each eigenspace of A."""
    rows = []
    for value, vg in eigenspaces(eig_hermitian(a)):
        proj = vg @ (vg.conj().T @ s.amps)
        rows.append((value, np.vdot(proj, proj).real,
                     abs(complex(np.vdot(f.amps, proj))) ** 2))
    return tuple(np.array(col) for col in zip(*rows))


def branch_disturbance(setup, eps):
    """Disturbance by simulating the readout branch by branch.

    Project r(eps) onto each eigenspace of I (x) B, normalize, take the
    partial trace over the meter, and mix the branches with their Born
    weights. Returns the trace distance between that post-measurement
    system state and P_s.
    """
    blocks = _blocks(setup, eps)
    post = np.zeros((setup.dim_s, setup.dim_s), dtype=complex)
    for _, vg in eigenspaces(eig_hermitian(setup.meter.B)):
        # (I (x) P_Q) r, kept in the eigenspace coordinates of the branch
        branch = blocks @ vg.conj()
        weight = float(np.vdot(branch, branch).real)
        if weight <= EMPTY_PROB:
            continue
        # tr_M of the normalized branch state; the eigenspace frame
        # cancels inside the trace
        sigma = (branch @ branch.conj().T) / weight
        post += weight * sigma
    initial = DensityMatrix.from_state(setup.s)
    return trace_distance(DensityMatrix(post), initial)
