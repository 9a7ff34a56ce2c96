"""Slow, literal implementations kept as test oracles.

The branch tables and the disturbance walk the eigenspaces one at a
time, as the physics is usually written down, so the loop-free library
code can be checked against them. The dense Hilbert-space primitives
(inner product, product state, operator tensor product, spectral
evolution, projector, validated density matrix, meter partial trace),
the one-trial sampler and the single-array sampler spell out what the
library computes in factored, vectorized or chunked form. They take a
StateVector or a plain, possibly unnormalized, amplitude array, and
return amplitude arrays.
The single-eps readings prepare their own coupled state, one eps at a
time, so the library's eps sweep can be checked against them. The grid
meter's dense P and G are gathered entry by entry, so its strided build
can be checked against them byte for byte.
"""

import math
from dataclasses import dataclass

import numpy as np

from weakmeas.hilbert import (
    DimensionMismatchError,
    HERM_RTOL,
    HermiticityError,
    Observable,
    StateVector,
    eig_hermitian,
    real_part,
    trace_distance,
)
from weakmeas.oracle import (
    EstimateWithError,
    MonteCarloRun,
    _branch_tables,
    _philox_generator,
)
from weakmeas.protocol import (
    EMPTY_PROB,
    EmptyPostselectionError,
    _check_overlap,
    coupled_state,
)

_ZERO_NORM = 1e-15        # below this a vector cannot be normalized
TRACE_TOL = 1e-10         # density matrix trace deviation
EIG_FLOOR = -1e-10        # density matrix minimum eigenvalue


def _amps(v) -> np.ndarray:
    return v.amps if isinstance(v, StateVector) else np.asarray(v, complex)


def inner(v, w) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    v, w = _amps(v), _amps(w)
    if v.size != w.size:
        raise DimensionMismatchError(f"dims {v.size} and {w.size} differ")
    return complex(np.vdot(v, w))


def tensor_state(s, m) -> np.ndarray:
    """Product state s (x) m as a flat vector, system index major: the
    row-major flattening of the (dim_S, dim_M) array coupled_state uses."""
    return np.kron(_amps(s), _amps(m))


def tensor_op(x: Observable, y: Observable) -> Observable:
    """Operator x (x) y in the same index ordering as tensor_state."""
    return Observable(np.kron(x.entries, y.entries))


def evolve(h: Observable, eps: float, v) -> np.ndarray:
    """Apply exp(-i*eps*H) to v via the spectral calculus of H."""
    v = _amps(v)
    if h.dim != v.size:
        raise DimensionMismatchError(
            f"operator dim {h.dim} != state dim {v.size}"
        )
    dec = eig_hermitian(h)
    vm = dec.eigenvectors
    coeff = vm.conj().T @ v
    return vm @ (np.exp(-1j * eps * dec.eigenvalues) * coeff)


def projector(w) -> Observable:
    """Rank-1 orthogonal projector onto the ray of w."""
    w = _amps(w)
    n = np.linalg.norm(w)
    if n < _ZERO_NORM:
        raise ValueError("cannot project onto a zero vector")
    a = w / n
    return Observable(np.outer(a, a.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive trace-1 operator. Validated at construction."""

    dim: int
    entries: np.ndarray

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > HERM_RTOL * scale and defect > 0.0:
            raise HermiticityError(
                f"density matrix is not Hermitian: defect {defect:.3e}"
            )
        m = (m + m.conj().T) / 2.0
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if lo < EIG_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])

    @classmethod
    def from_state(cls, v: StateVector) -> "DensityMatrix":
        a = v.amps / np.linalg.norm(v.amps)
        return cls(np.outer(a, a.conj()))


def partial_trace_meter(rho: DensityMatrix, dim_s: int,
                        dim_m: int) -> DensityMatrix:
    """Trace out the meter factor of a composite density matrix."""
    if rho.dim != dim_s * dim_m:
        raise DimensionMismatchError(
            f"density matrix dim {rho.dim} != {dim_s} * {dim_m}"
        )
    blocks = rho.entries.reshape(dim_s, dim_m, dim_s, dim_m)
    return DensityMatrix(np.einsum("imjm->ij", blocks))


@dataclass(frozen=True)
class Outcome:
    """One trial: the meter eigenvalue read, and whether postselection
    succeeded afterwards."""

    b_value: float
    postselected: bool


def sample_run(setup, eps: float, rng: np.random.Generator) -> Outcome:
    """Simulate one trial: read the meter, then attempt postselection.

    Consumes exactly four uniforms (one Philox counter block) and uses
    the first two, keeping repeated calls aligned with the vectorized
    sampler's trial numbering.
    """
    b_vals, marginal, joint = _branch_tables(setup, eps)
    u = rng.random(4)
    cum = np.cumsum(marginal)
    gi = int(np.searchsorted(cum, u[0] * cum[-1], side="right"))
    gi = min(gi, len(b_vals) - 1)
    success_given_branch = joint[gi] / marginal[gi] if marginal[gi] > 0 else 0.0
    return Outcome(
        b_value=float(b_vals[gi]),
        postselected=bool(u[1] < success_given_branch),
    )


def sample_table(table, n_trials, seed, trial_offset=0):
    """Draw every trial of a run from one (n_trials, 4) block of uniforms
    and estimate with hits.mean() and hits.std(ddof=1) over the whole run:
    the chunked sampler must give the same counts, and an estimate within
    1e-12 relative of this one."""
    values, marginal, joint = table
    rng = _philox_generator(seed, trial_offset)
    u = rng.random((n_trials, 4))
    cum = np.cumsum(marginal)
    gi = np.searchsorted(cum, u[:, 0] * cum[-1], side="right")
    np.clip(gi, 0, len(values) - 1, out=gi)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(marginal > 0, joint / np.maximum(marginal, 1e-300), 0.0)
    ok = u[:, 1] < cond[gi]
    counts = np.bincount(2 * gi + ~ok, minlength=2 * len(values))
    hits = values[gi[ok]]
    n = hits.size
    mean = float(hits.mean()) if n else math.nan
    err = float(hits.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return MonteCarloRun(table, counts.reshape(-1, 2),
                         EstimateWithError(mean, err, n, n_trials, seed))


def momentum_matrix(grid) -> np.ndarray:
    """The grid's P gathered entry by entry from its circulant's first
    column, P[i, l] = ifft(k)[(i - l) % n], through an n x n index array."""
    n = grid.n_points
    first = np.fft.ifft(grid.wavenumbers())
    return first[(np.arange(n)[:, None] - np.arange(n)) % n]


def coupling_matrix(grid, rho) -> np.ndarray:
    """G = P + rho Q on the grid, as a sum of two dense matrices."""
    return momentum_matrix(grid) + np.diag(rho * grid.points())


def large_zero_mean_system(rng):
    """A random 4x4 Hermitian A of scale 1e7 and the mix s of its extreme
    eigenvectors, weighted by the opposite eigenvalues, so <s, As> = 0
    while the roundoff of <s, As> grows with A's entries."""
    m = 1e7 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    a = Observable((m + m.conj().T) / 2)
    dec = eig_hermitian(a)
    lo, hi = dec.eigenvalues[0], dec.eigenvalues[-1]
    w = hi / (hi - lo)
    return a, StateVector(np.sqrt(w) * dec.eigenvectors[:, 0]
                          + np.sqrt(1 - w) * dec.eigenvectors[:, -1])


def eigenspaces(dec):
    """Yield (eigenvalue, orthonormal column block) for each eigenspace."""
    bounds = np.append(dec.group_starts, dec.eigenvalues.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        value = float(np.mean(dec.eigenvalues[lo:hi]))
        yield value, dec.eigenvectors[:, lo:hi]


def branch_tables(setup, eps, b=None):
    """Meter eigenvalue, Born probability and joint probability with
    postselection of each readout branch of r(eps), for the readout
    Observable b (default: the meter's B)."""
    r = coupled_state(setup, eps)
    rows = []
    for value, vg in eigenspaces(eig_hermitian(b or setup.meter.B)):
        branch = r @ vg.conj()               # eigenspace coordinates
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


def branch_disturbance(setup, eps, b=None):
    """Disturbance by simulating the readout branch by branch.

    Project r(eps) onto each eigenspace of I (x) B, normalize, take the
    partial trace over the meter, and mix the branches with their Born
    weights. Returns the trace distance between that post-measurement
    system state and P_s. b is the readout Observable (default: the
    meter's B).
    """
    r = coupled_state(setup, eps)
    post = np.zeros((setup.A.dim, setup.A.dim), dtype=complex)
    for _, vg in eigenspaces(eig_hermitian(b or setup.meter.B)):
        # (I (x) P_Q) r, kept in the eigenspace coordinates of the branch
        branch = r @ vg.conj()
        weight = float(np.vdot(branch, branch).real)
        if weight <= EMPTY_PROB:
            continue
        # tr_M of the normalized branch state; the eigenspace frame
        # cancels inside the trace
        sigma = (branch @ branch.conj().T) / weight
        post += weight * sigma
    initial = DensityMatrix.from_state(setup.s)
    return trace_distance(DensityMatrix(post).entries, initial.entries)


def cauchy_schwarz(v, bv):
    """|v| |Bv|, the bound on |<v, Bv>| that scales its roundoff: at a
    large rho the imaginary residue of a reading grows with |B|, not
    with the reading."""
    return float(np.linalg.norm(v) * np.linalg.norm(bv))


def meter_reading(setup, eps):
    """Normalized average meter reading <r, (I (x) B) r> / eps at one eps."""
    if eps <= 0:
        raise ValueError("meter reading requires eps > 0")
    r = coupled_state(setup, eps)
    # (I (x) B) acts on the meter index of each row
    br = setup.meter.apply_B(r)
    val = complex(np.vdot(r, br))
    return real_part(val, "meter reading", cauchy_schwarz(r, br)) / eps


def conditional_expectation(setup, eps):
    """E_eps(B | f) at one eps: the mean meter reading given successful
    postselection, computed from the meter vector <f| r(eps)."""
    if eps <= 0:
        raise ValueError("conditional expectation requires eps > 0")
    _check_overlap(setup.A, setup.s, setup.f)
    w = setup.f.amps.conj() @ coupled_state(setup, eps)
    den = float(np.vdot(w, w).real)
    if den < EMPTY_PROB:
        raise EmptyPostselectionError(
            f"postselection probability {den:.3e} is numerically zero"
        )
    bw = setup.meter.apply_B(w)
    num = complex(np.vdot(w, bw))
    return real_part(num, "conditional reading", cauchy_schwarz(w, bw)) / den


def disturbance(setup, eps):
    """Trace distance between tr_M |r(eps)><r(eps)| and P_s, both as
    validated density matrices."""
    r = coupled_state(setup, eps)
    post = DensityMatrix(r @ r.conj().T)
    return trace_distance(post.entries,
                          DensityMatrix.from_state(setup.s).entries)
