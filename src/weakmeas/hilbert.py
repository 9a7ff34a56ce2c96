"""Finite-dimensional complex Hilbert space primitives.

States, Hermitian observables, spectral decompositions, the coupled
evolution exp(-i eps (A (x) G)), the real part of an expectation
value, and the trace distance. Everything here is immutable after
construction and safe to share across threads.

A coupled system-meter state is a (dim_S, dim_M) array of amplitudes:
row i holds the meter amplitudes that go with system basis state i, so
the partial trace over the meter is a product of the array with its
conjugate transpose.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Numerical contracts, shared by the test suite.
HERM_RTOL = 1e-10         # Hermiticity defect relative to max entry
DEGEN_RTOL = 1e-9         # eigenvalue grouping, relative to spectral radius
IMAG_TOL = 1e-10          # imaginary residue of an expectation, relative
_ZERO_NORM = 1e-15        # below this a vector cannot be normalized
# entries up to this size cannot overflow M + M†
_HALF_MAX = sys.float_info.max / 2.0


class DimensionMismatchError(ValueError):
    """Operands live in incompatible spaces."""


class HermiticityError(ValueError):
    """A matrix violated a Hermiticity contract."""


class StateVector:
    """Unit vector in C^dim; the constructor normalizes its amplitudes."""

    __slots__ = ("dim", "amps")

    def __init__(self, amps):
        a = np.array(amps, dtype=np.complex128).reshape(-1)
        if a.size == 0:
            raise ValueError("state vector needs at least one amplitude")
        if not np.isfinite(a).all():
            raise ValueError("state vector has non-finite amplitudes")
        # scaling by 2^-e, 2^e just above the largest real or imaginary
        # part, is exact and keeps the norm from overflowing, and the
        # quotient by the scaled norm is unchanged
        parts = a.view(np.float64)
        _, e = math.frexp(float(np.abs(parts).max()))
        a = np.ldexp(parts, -e).view(np.complex128)
        n = float(np.linalg.norm(a))
        # the true norm is n 2^e, and at least 1 for e > 0
        if math.ldexp(n, min(e, 0)) < _ZERO_NORM:
            raise ValueError("cannot normalize a numerically zero vector")
        a = a / n
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "dim", a.size)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class Observable:
    """Hermitian operator on C^dim.

    Construction rejects matrices whose entries overflow float64 in
    |M|, M - M† or M + M†, then those whose Hermiticity defect exceeds
    ``HERM_RTOL`` relative to the largest entry. It stores the
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
        # finite entries near the float64 limit can still overflow |m|,
        # M - M† or M + M†; such a matrix is refused before it is judged
        with np.errstate(over="ignore", invalid="ignore"):
            scale = float(np.max(np.abs(m))) if m.size else 0.0
            defect = float(np.max(np.abs(m - m.conj().T)))
            sym = (m + m.conj().T) / 2.0
        if not (math.isfinite(scale) and math.isfinite(defect)
                and (scale <= _HALF_MAX or np.isfinite(sym).all())):
            raise ValueError("observable entries overflow float64 in |M|, "
                             "M - M† or M + M†; scale the matrix down")
        if defect > HERM_RTOL * scale and defect > 0.0:
            raise HermiticityError(
                f"matrix is not Hermitian: defect {defect:.3e} "
                f"exceeds {HERM_RTOL:.0e} * {scale:.3e}"
            )
        m = sym
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "_decomp", None)

    def __setattr__(self, name, value):
        raise AttributeError("Observable is immutable")

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
        # distinct eigenvalues into one group; a difference could overflow
        if eigenvalues[i] > eigenvalues[starts[-1]] + tol:
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


def evolve_coupling(a: Observable, g: Observable, eps: float,
                    r: np.ndarray) -> np.ndarray:
    """Apply exp(-i*eps*(A (x) G)) to a (dim_S, dim_M) coupled state.

    Works in the factored eigenbasis of A and G separately: A (x) G is
    diagonal there with entries alpha_j * gamma_k, so only the two factor
    diagonalizations are ever computed, never the composite one. This is
    the operator sum over A-eigenspaces of P_{a_j} (x) exp(-i*eps*alpha_j*G)
    evaluated without forming any dim(S)*dim(M) matrix.
    """
    if r.shape != (a.dim, g.dim):
        raise DimensionMismatchError(
            f"state shape {r.shape} != ({a.dim}, {g.dim})"
        )
    da = eig_hermitian(a)
    dg = eig_hermitian(g)
    # into the joint eigenbasis: rows via A's frame, columns via G's
    c = da.eigenvectors.conj().T @ r @ dg.eigenvectors.conj()
    phases = np.exp(-1j * eps * (da.eigenvalues[:, None] * dg.eigenvalues))
    return da.eigenvectors @ (phases * c) @ dg.eigenvectors.T


def expectation(a: Observable, v: StateVector) -> float:
    """Real expectation value <v, Av> of a Hermitian observable."""
    if a.dim != v.dim:
        raise DimensionMismatchError(
            f"operator dim {a.dim} != state dim {v.dim}"
        )
    return real_part(complex(np.vdot(v.amps, a.entries @ v.amps)),
                     "expectation", float(np.max(np.abs(a.entries))))


def real_part(value: complex, what: str, scale: float = 1.0) -> float:
    """The real part of an expectation value of a Hermitian operator.

    The imaginary part is roundoff that scales with the operator, whose
    largest entry the caller may pass as ``scale``, and with the value,
    so a residue above IMAG_TOL * max(1, scale, |Re value|) raises
    HermiticityError.
    """
    if abs(value.imag) > IMAG_TOL * max(1.0, scale, abs(value.real)):
        raise HermiticityError(
            f"{what} has imaginary residue {value.imag:.3e}"
        )
    return value.real


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma, two Hermitian matrices."""
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(
            f"shapes {rho.shape} and {sigma.shape} differ"
        )
    diff = rho - sigma
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
