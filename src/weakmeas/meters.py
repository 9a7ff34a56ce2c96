"""Concrete meter constructions.

Two families: a two-dimensional meter whose readout/coupling pair can be
tuned to produce any weak value whatever, and a finite Fourier-grid
discretization of the continuum meter (position readout, momentum-based
coupling, Gaussian initial state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import Observable, StateVector
from .protocol import CalibrationError, MeterSpec, verify_calibration

DEFAULT_N_POINTS = 1024
DEFAULT_HALF_WIDTH = 20.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n_points samples covering [-L, L).

    n_points must be a power of two (the momentum operator is built with
    an FFT). The supported envelope is n_points >= 128 and L >= 10 in
    units of the Gaussian width; outside it the meter moments degrade and
    gaussian_grid_meter reports the damage as a CalibrationError instead
    of refusing up front, so the failure mode stays observable.
    """

    n_points: int
    half_width: float

    def __post_init__(self):
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two, got {n}")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @classmethod
    def default(cls) -> "GridSpec":
        return cls(DEFAULT_N_POINTS, DEFAULT_HALF_WIDTH)

    def points(self) -> np.ndarray:
        """Grid coordinates -L + k * spacing, k = 0 .. n-1."""
        return -self.half_width + self.spacing * np.arange(self.n_points)


def qubit_meter(rho: float) -> MeterSpec:
    """The two-dimensional meter family, parametrized by a real rho.

    m = e1, G swaps the basis states, and B is the off-diagonal Hermitian
    matrix with upper entry rho + i/2, so <m, Bm> = 0 and
    <m, BGm> = rho + i/2 exactly: calibrated for every rho, with the
    weak-value-shifting real part dialed in directly.
    """
    rho = float(rho)
    m = StateVector([1.0, 0.0])
    g = Observable([[0.0, 1.0], [1.0, 0.0]])
    b = Observable([[0.0, rho + 0.5j], [rho - 0.5j, 0.0]])
    meter = MeterSpec(m=m, B=b, G=g)
    verify_calibration(meter)
    return meter


def position_operator(grid: GridSpec) -> Observable:
    """Q: multiplication by the grid coordinate. Diagonal, exactly real."""
    return Observable(np.diag(grid.points()))


def momentum_operator(grid: GridSpec) -> Observable:
    """P = -i d/dq as periodic spectral differentiation.

    Diagonal in the discrete Fourier basis with angular wavenumbers
    2 pi k / (2L), k in [-n/2, n/2); Hermitian because the wavenumbers
    are real.
    """
    n = grid.n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    p = np.fft.ifft(k[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    return Observable(p)


def _gaussian_amps(grid: GridSpec) -> np.ndarray:
    # square root of the unit-variance Gaussian density, so <m, Q^2 m> = 1
    q = grid.points()
    return (2.0 * np.pi) ** (-0.25) * np.exp(-q * q / 4.0)


def gaussian_grid_meter(grid: GridSpec, rho: float) -> MeterSpec:
    """Gaussian meter state read out in position, coupled through P + rho Q.

    The continuum moments are <m, Bm> = 0 and <m, BGm> = rho + i/2; on an
    adequate grid (defaults: n = 1024, L = 20) the discretization error
    sits at the 1e-10 level. Coarse or narrow grids surface as a
    CalibrationError.
    """
    rho = float(rho)
    m = StateVector(_gaussian_amps(grid))
    b = position_operator(grid)
    g = Observable(momentum_operator(grid).entries + rho * b.entries)
    meter = MeterSpec(m=m, B=b, G=g)
    try:
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
