"""Finite-dimensional complex Hilbert space primitives.

States, Hermitian observables, tensor products, spectral calculus, exact
unitary evolution, projectors, and partial traces. Everything here is
immutable after construction and safe to share across threads.

Tensor index convention: system-major. A composite index is
``i = i_S * dim_M + i_M``, so the meter index varies fastest and the
partial trace over the meter is a contiguous block sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical contracts, shared by the test suite.
NORM_TOL = 1e-12          # normalized-state norm deviation
HERM_RTOL = 1e-10         # Hermiticity defect relative to max entry
RECON_TOL = 1e-10         # spectral reconstruction, per entry
DEGEN_RTOL = 1e-9         # eigenvalue grouping, relative to spectral radius
TRACE_TOL = 1e-10         # density matrix trace deviation
EIG_FLOOR = -1e-10        # density matrix minimum eigenvalue
IMAG_TOL = 1e-10          # residual imaginary part in expectations
_ZERO_NORM = 1e-15        # below this a vector cannot be normalized


class DimensionMismatchError(ValueError):
    """Operands live in incompatible spaces."""


class HermiticityError(ValueError):
    """A matrix violated a Hermiticity contract."""


def _as_complex_vector(amps) -> np.ndarray:
    a = np.array(amps, dtype=np.complex128).reshape(-1)
    if a.size == 0:
        raise ValueError("state vector needs at least one amplitude")
    return a


class StateVector:
    """Vector in C^dim.

    The plain constructor normalizes, so ``norm`` is 1.0 afterwards.
    Intermediate results (projections, unitary images) are built with
    :meth:`raw`, which keeps the amplitudes and records their norm.
    """

    __slots__ = ("dim", "amps", "norm")

    def __init__(self, amps):
        a = _as_complex_vector(amps)
        if not np.isfinite(a).all():
            raise ValueError("state vector has non-finite amplitudes")
        n = float(np.linalg.norm(a))
        if n < _ZERO_NORM:
            raise ValueError("cannot normalize a numerically zero vector")
        a = a / n
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "dim", a.size)
        object.__setattr__(self, "norm", float(np.linalg.norm(a)))

    @classmethod
    def raw(cls, amps) -> "StateVector":
        """Wrap amplitudes without normalizing; the norm is recorded as-is."""
        self = object.__new__(cls)
        a = _as_complex_vector(amps)
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "dim", a.size)
        object.__setattr__(self, "norm", float(np.linalg.norm(a)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def normalized(self) -> "StateVector":
        return StateVector(self.amps)

    def __repr__(self):
        return f"StateVector(dim={self.dim}, norm={self.norm:.12g})"


class Observable:
    """Hermitian operator on C^dim.

    Construction rejects matrices whose Hermiticity defect exceeds
    ``HERM_RTOL`` relative to the largest entry, then stores the
    symmetrization (M + M†)/2 so downstream eigen-solvers see an exactly
    Hermitian matrix. The spectral decomposition is computed once and
    cached.
    """

    __slots__ = ("dim", "entries", "_decomp")

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("observable has non-finite entries")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > HERM_RTOL * scale and defect > 0.0:
            raise HermiticityError(
                f"matrix is not Hermitian: defect {defect:.3e} "
                f"exceeds {HERM_RTOL:.0e} * {scale:.3e}"
            )
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "_decomp", None)

    def __setattr__(self, name, value):
        raise AttributeError("Observable is immutable")

    @classmethod
    def identity(cls, dim: int) -> "Observable":
        return cls(np.eye(dim))

    def apply(self, v: StateVector) -> StateVector:
        if v.dim != self.dim:
            raise DimensionMismatchError(
                f"operator dim {self.dim} != state dim {v.dim}"
            )
        return StateVector.raw(self.entries @ v.amps)

    def __repr__(self):
        return f"Observable(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-system of a Hermitian operator.

    ``eigenvalues`` ascend and column ``eigenvectors[:, j]`` belongs to
    ``eigenvalues[j]``. Each eigenspace is a contiguous index range, and
    ``group_starts`` holds the first index of each one; eigenvalues within
    one eigenspace agree to ``DEGEN_RTOL`` relative to the spectral radius.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    group_starts: np.ndarray

    def group_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum x over each eigenspace; its last axis runs over eigenvectors."""
        return np.add.reduceat(x, self.group_starts, axis=-1)

    @property
    def group_values(self) -> np.ndarray:
        """Representative eigenvalue of each eigenspace (the group mean)."""
        sizes = np.diff(self.group_starts, append=self.eigenvalues.size)
        return self.group_sum(self.eigenvalues) / sizes


def _group_starts(eigenvalues: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    tol = DEGEN_RTOL * scale
    starts = [0]
    for i in range(1, eigenvalues.size):
        # anchor at the group's first eigenvalue so roundoff cannot chain
        # distinct eigenvalues into one group
        if eigenvalues[i] - eigenvalues[starts[-1]] > tol:
            starts.append(i)
    return np.array(starts)


def eig_hermitian(a: Observable) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian operator, cached on the input."""
    if a._decomp is not None:
        return a._decomp
    w, v = np.linalg.eigh(a.entries)
    w.setflags(write=False)
    v.setflags(write=False)
    dec = SpectralDecomposition(eigenvalues=w, eigenvectors=v,
                                group_starts=_group_starts(w))
    object.__setattr__(a, "_decomp", dec)
    return dec


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


def inner(v: StateVector, w: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    if v.dim != w.dim:
        raise DimensionMismatchError(f"dims {v.dim} and {w.dim} differ")
    return complex(np.vdot(v.amps, w.amps))


def tensor_state(s: StateVector, m: StateVector) -> StateVector:
    """Product state s (x) m with system-major index ordering."""
    return StateVector.raw(np.kron(s.amps, m.amps))


def tensor_op(x: Observable, y: Observable) -> Observable:
    """Operator x (x) y in the same index ordering as tensor_state."""
    return Observable(np.kron(x.entries, y.entries))


def evolve(h: Observable, eps: float, v: StateVector) -> StateVector:
    """Apply exp(-i*eps*H) to v via the spectral calculus of H."""
    if h.dim != v.dim:
        raise DimensionMismatchError(
            f"operator dim {h.dim} != state dim {v.dim}"
        )
    dec = eig_hermitian(h)
    vm = dec.eigenvectors
    coeff = vm.conj().T @ v.amps
    return StateVector.raw(vm @ (np.exp(-1j * eps * dec.eigenvalues) * coeff))


def evolve_coupling(a: Observable, g: Observable, eps: float,
                    v: StateVector) -> StateVector:
    """Apply exp(-i*eps*(A (x) G)) to a composite state.

    Works in the factored eigenbasis of A and G separately: A (x) G is
    diagonal there with entries alpha_j * gamma_k, so only the two factor
    diagonalizations are ever computed, never the composite one. This is
    the operator sum over A-eigenspaces of P_{a_j} (x) exp(-i*eps*alpha_j*G)
    evaluated without forming any dim(S)*dim(M) matrix.
    """
    ds, dm = a.dim, g.dim
    if v.dim != ds * dm:
        raise DimensionMismatchError(
            f"state dim {v.dim} != {ds} * {dm}"
        )
    da = eig_hermitian(a)
    dg = eig_hermitian(g)
    r = v.amps.reshape(ds, dm)
    # into the joint eigenbasis: rows via A's frame, columns via G's
    c = da.eigenvectors.conj().T @ r @ dg.eigenvectors.conj()
    phases = np.exp(-1j * eps * np.outer(da.eigenvalues, dg.eigenvalues))
    out = da.eigenvectors @ (phases * c) @ dg.eigenvectors.T
    return StateVector.raw(out.reshape(-1))


def projector(w: StateVector) -> Observable:
    """Rank-1 orthogonal projector onto the ray of w."""
    n = np.linalg.norm(w.amps)
    if n < _ZERO_NORM:
        raise ValueError("cannot project onto a zero vector")
    a = w.amps / n
    return Observable(np.outer(a, a.conj()))


def partial_trace_meter(rho: DensityMatrix, dim_s: int,
                        dim_m: int) -> DensityMatrix:
    """Trace out the meter factor of a composite density matrix."""
    if rho.dim != dim_s * dim_m:
        raise DimensionMismatchError(
            f"density matrix dim {rho.dim} != {dim_s} * {dim_m}"
        )
    blocks = rho.entries.reshape(dim_s, dim_m, dim_s, dim_m)
    return DensityMatrix(np.einsum("imjm->ij", blocks))


def expectation(a: Observable, v: StateVector) -> float:
    """Real expectation value <v, Av> of a Hermitian observable."""
    if a.dim != v.dim:
        raise DimensionMismatchError(
            f"operator dim {a.dim} != state dim {v.dim}"
        )
    raw = complex(np.vdot(v.amps, a.entries @ v.amps))
    if abs(raw.imag) > IMAG_TOL:
        raise HermiticityError(
            f"expectation has imaginary residue {raw.imag:.3e}"
        )
    return raw.real


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"dims {rho.dim} and {sigma.dim} differ"
        )
    diff = rho.entries - sigma.entries
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
