"""Concrete meter constructions.

Two families: a two-dimensional meter whose readout/coupling pair can be
tuned to produce any weak value whatever, and a finite Fourier-grid
discretization of the continuum meter (position readout, momentum-based
coupling, Gaussian initial state).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hilbert import Observable, StateVector, eig_hermitian
from .protocol import CalibrationError, MeterSpec, verify_calibration

DEFAULT_N_POINTS = 1024
DEFAULT_HALF_WIDTH = 20.0
#: Largest grid accepted: a coupled state on it is a few tens of MB.
MAX_N_POINTS = 2 ** 20
#: Least distance, in Gaussian widths, from a shifted pointer to the grid
#: edge: at 8 a readout on the default grid moves by at most 4.2e-13.
EDGE_MARGIN = 8


def _typed(x, name: str, kind=numbers.Real):
    # & and float() would take a bool, a float or a string silently, or
    # fail with an unrelated TypeError; numpy scalars pass
    if isinstance(x, bool) or not isinstance(x, kind):
        what = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {what}, got {x!r}")
    return x


def _finite_rho(rho, meter: str) -> float:
    rho = float(_typed(rho, "rho"))
    if not math.isfinite(rho):
        raise CalibrationError(f"{meter} meter rho {rho!r} is not finite")
    return rho


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n_points samples covering [-L, L).

    n_points must be an integer power of two (the momentum operator is
    applied with an FFT) and at most MAX_N_POINTS, and L a real number,
    neither of them a bool. The supported envelope is
    n_points >= 128 and L >= 10 in units of the Gaussian width; outside
    it the meter moments degrade and gaussian_grid_meter reports the
    damage as a CalibrationError instead of refusing up front, so the
    failure mode stays observable. The coupling shifts the pointer by
    t = eps a for each eigenvalue a of A, and the grid is periodic, so
    a shift with L - max |t| < EDGE_MARGIN = 8 is refused with a
    ValueError: the tail wrapped to the far edge would move the readout.
    """

    n_points: int
    half_width: float

    def __post_init__(self):
        n = _typed(self.n_points, "n_points", numbers.Integral)
        _typed(self.half_width, "half_width")
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two, got {n}")
        if n > MAX_N_POINTS:
            raise ValueError(f"n_points must be at most {MAX_N_POINTS}, "
                             f"got {n}")
        if not 0 < self.half_width < np.inf:     # NaN fails both
            raise ValueError(f"half_width must be positive and finite, "
                             f"got {self.half_width!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @classmethod
    def default(cls) -> "GridSpec":
        return cls(DEFAULT_N_POINTS, DEFAULT_HALF_WIDTH)

    def points(self) -> np.ndarray:
        """Grid coordinates -L + k * spacing, k = 0 .. n-1."""
        return -self.half_width + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2 pi k / (2L), k in [-n/2, n/2), in FFT
        order: the spectrum of P."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


# the qubit meter's m and G do not depend on rho: every qubit meter shares
# these two, so G's cached eigendecomposition is computed once per process
_QUBIT_M = StateVector([1.0, 0.0])
_QUBIT_G = Observable([[0.0, 1.0], [1.0, 0.0]])


def qubit_meter(rho: float) -> MeterSpec:
    """The two-dimensional meter family, parametrized by a real rho.

    m = e1, G swaps the basis states, and B is the off-diagonal Hermitian
    matrix with upper entry rho + i/2, so <m, Bm> = 0 and
    <m, BGm> = rho + i/2 exactly: calibrated for every rho, with the
    weak-value-shifting real part dialed in directly. Every qubit meter
    holds the same immutable m and G objects; B is built and the
    calibration verified for each rho. A non-finite rho is a
    CalibrationError.
    """
    rho = _finite_rho(rho, "qubit")
    b = Observable([[0.0, rho + 0.5j], [rho - 0.5j, 0.0]])
    meter = MeterSpec(m=_QUBIT_M, B=b, G=_QUBIT_G)
    verify_calibration(meter)
    return meter


def position_operator(grid: GridSpec) -> Observable:
    """Q: multiplication by the grid coordinate. Diagonal, exactly real."""
    return Observable(np.diag(grid.points()))


def _momentum_matrix(grid: GridSpec) -> np.ndarray:
    # P = ifft diag(k) fft is circulant, P[i, l] = first[(i - l) % n]:
    # row i is a reversed length-n window of first[1:] + first ending at
    # index n - 1 + i, copied out of one strided view
    n = grid.n_points
    first = np.fft.ifft(grid.wavenumbers())
    doubled = np.concatenate((first[1:], first))
    return sliding_window_view(doubled, n)[:, ::-1].copy()


def momentum_operator(grid: GridSpec) -> Observable:
    """P = -i d/dq as periodic spectral differentiation.

    Diagonal in the discrete Fourier basis with the angular wavenumbers
    of ``grid.wavenumbers()``; Hermitian because the wavenumbers are
    real.
    """
    return Observable(_momentum_matrix(grid))


def _gaussian_amps(grid: GridSpec) -> np.ndarray:
    # square root of the unit-variance Gaussian density, so <m, Q^2 m> = 1
    q = grid.points()
    return (2.0 * np.pi) ** (-0.25) * np.exp(-q * q / 4.0)


def _coupling_matrix(grid: GridSpec, rho: float, q: np.ndarray):
    # G = P + rho Q, with rho Q added to P's diagonal in place
    g = _momentum_matrix(grid)
    g.flat[::grid.n_points + 1] += rho * q
    return g


class _DenseView:
    """The n x n matrix of a grid operator, built on the first read of
    ``entries`` and read-only. The meter's own calls never read it; it
    is there for callers that want the matrix itself. At n = 1024 a
    build copies 16 MiB and takes about 1 ms."""

    def __init__(self, build):
        self._build = build

    @cached_property
    def entries(self) -> np.ndarray:
        m = self._build()
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class GridMeter:
    """The Gaussian meter on a Fourier grid, applied without n x n matrices.

    It implements the five calls of the meter contract (see MeterSpec)
    itself. B = Q multiplies by the grid points, which are distinct and
    ascending, so each point is its own readout branch. P is applied
    with one FFT pair, and G = P + rho Q evolves by the split step
    exp(-it(P + rho Q)) = e^{i t^2 rho/2} e^{-it rho Q} e^{-itP}, exact
    in the continuum, where [Q, P] = i; on the grid it matches the dense
    exponential to roundoff while the state stays resolved. ``B`` and
    ``G`` are read-only dense views for callers that want the matrices,
    built only when their ``entries`` are read; at n = 1024 the G build
    takes about 1 ms, a strided copy of P's circulant plus rho Q on the
    diagonal.
    """

    grid: GridSpec
    rho: float

    def __post_init__(self):
        grid, rho = self.grid, self.rho
        q = grid.points()
        q.setflags(write=False)          # handed out as the branch values
        init = partial(object.__setattr__, self)
        init("_q", q)
        init("_k", grid.wavenumbers())
        init("m", StateVector(_gaussian_amps(grid)))
        init("B", _DenseView(lambda: np.diag(q.astype(complex))))
        init("G", _DenseView(partial(_coupling_matrix, grid, rho, q)))

    def apply_P(self, x: np.ndarray) -> np.ndarray:
        """P along the last axis of x."""
        return np.fft.ifft(self._k * np.fft.fft(x))

    def apply_B(self, x: np.ndarray) -> np.ndarray:
        return self._q * x

    def apply_G(self, x: np.ndarray) -> np.ndarray:
        return self.apply_P(x) + self.rho * self._q * x

    def evolve(self, t, v: np.ndarray) -> np.ndarray:
        """exp(-itG) v along the last axis of v; an array t broadcasts
        against v's leading axes, one time per row."""
        t = np.asarray(t, dtype=float)
        # t^2 overflows before t k does, so a finite chirp clears both
        with np.errstate(over="ignore", invalid="ignore"):
            chirp = t * (0.5 * t - self._q) * self.rho
        if not np.isfinite(chirp).all():
            raise ValueError("grid meter phases overflow float64: eps |A| "
                             "is far outside the weak regime")
        shift = np.abs(t).max(initial=0.0)
        if self.grid.half_width - shift < EDGE_MARGIN:
            raise ValueError(
                f"grid meter pointer shift eps |A| = {shift:.6g} exceeds "
                f"half_width - {EDGE_MARGIN} = "
                f"{self.grid.half_width - EDGE_MARGIN:g}: the Gaussian would "
                f"wrap around the periodic grid")
        kicked = np.fft.ifft(np.exp(-1j * t * self._k) * np.fft.fft(v))
        return np.exp(1j * chirp) * kicked

    def couple(self, a: Observable, s: StateVector, eps: float) -> np.ndarray:
        # sum_j P_j s (x) exp(-i eps alpha_j G) m: one evolved meter row
        # per eigenvalue of A, recombined in A's eigenbasis
        dec = eig_hermitian(a)
        v = dec.eigenvectors
        rows = self.evolve(eps * dec.eigenvalues[:, None], self.m.amps)
        return v @ ((v.conj().T @ s.amps)[:, None] * rows)

    def readout(self, r: np.ndarray):
        # r is already in B's eigenbasis, and every branch is one point
        return self._q, r, lambda x: x


def gaussian_grid_meter(grid: GridSpec, rho: float) -> GridMeter:
    """Gaussian meter state read out in position, coupled through P + rho Q.

    The continuum moments are <m, Bm> = 0 and <m, BGm> = rho + i/2; on an
    adequate grid (defaults: n = 1024, L = 20) the discretization error
    sits at the 1e-10 level. Coarse or narrow grids, and a non-finite
    rho, surface as a CalibrationError. The meter works with length-n
    vectors and FFTs (see GridMeter), so building and using it never
    forms an n x n matrix.
    """
    meter = GridMeter(grid, _finite_rho(rho, "grid"))
    try:
        # rho q overflows near |rho| = 1e307; the NaN gain then fails
        with np.errstate(over="ignore", invalid="ignore"):
            verify_calibration(meter)
    except CalibrationError as exc:
        raise CalibrationError(
            f"grid meter failed calibration at n_points={grid.n_points}, "
            f"half_width={grid.half_width}: {exc}"
        ) from exc
    return meter


def chirped_gaussian_state(grid: GridSpec, rho: float) -> StateVector:
    """The Gaussian meter state with a quadratic phase chirp.

    q -> exp(-i q^2 rho / 2) m(q). The position density is untouched.
    Chirping is how the rho-tunable coupling arises from a plain momentum
    coupling: conjugating P by the chirp shifts it by a multiple of Q, so
    <chirped(-rho), Q P chirped(-rho)> = <m, Q (P + rho Q) m>.
    """
    q = grid.points()
    return StateVector(np.exp(-0.5j * rho * q * q) * _gaussian_amps(grid))
