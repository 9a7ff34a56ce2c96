"""The weak measurement protocol.

A system observable A is coupled to a meter through the composite
Hamiltonian A (x) G for a short time eps, after which the meter
observable I (x) B is read out. This module prepares the coupled state,
evaluates unconditional and postselected meter statistics, extrapolates
the eps -> 0 limits numerically, evaluates every closed-form weak value
expression, and measures how much the procedure disturbs the system.

All composite-space arithmetic is done on (dim_S, dim_M)-reshaped
amplitude blocks, so no operator on the full product space is ever
materialized; grid meters with a few thousand points stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DensityMatrix,
    DimensionMismatchError,
    HermiticityError,
    Observable,
    StateVector,
    eig_hermitian,
    evolve_coupling,
    tensor_state,
    trace_distance,
)

# Numerical contracts, shared by the test suite.
CAL_READ_TOL = 1e-10      # |<m, Bm>|: the meter must initially read zero
CAL_GAIN_TOL = 1e-8       # |2 Im<m, BGm> - 1|: unit gain
ORTHO_CUTOFF = 1e-12      # |<f, s>| at or below this: weak value undefined
EMPTY_PROB = 1e-20        # postselection probability below this is empty
IMAG_TOL = 1e-10          # residual imaginary part in real readings

#: Geometric eps schedule used when none is given. Successive halvings so
#: each extrapolation step is an exact two-point Richardson update.
DEFAULT_EPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)


class CalibrationError(ValueError):
    """A meter failed one of the two calibration conditions."""


class UndefinedWeakValueError(ValueError):
    """Pre- and postselected states are orthogonal: weak value undefined."""


class EmptyPostselectionError(ValueError):
    """Postselection succeeds with numerically zero probability."""


@dataclass(frozen=True, eq=False)
class MeterSpec:
    """A meter: its Hilbert space dimension, initial state m, readout
    observable B, and coupling operator G.

    Construction checks dimensional consistency only. Calibration is a
    separate, explicit check (:func:`verify_calibration`) because
    deliberately mis-calibrated meters are legitimate probes of the
    general readout formula.
    """

    dim_m: int
    m: StateVector
    B: Observable
    G: Observable

    def __post_init__(self):
        if not (self.dim_m == self.m.dim == self.B.dim == self.G.dim):
            raise DimensionMismatchError(
                f"meter dims disagree: dim_m={self.dim_m}, m={self.m.dim}, "
                f"B={self.B.dim}, G={self.G.dim}"
            )
        if abs(self.m.norm - 1.0) > 1e-12:
            raise ValueError("meter state must be normalized")


@dataclass(frozen=True, eq=False)
class WeakSetup:
    """One full experiment: system observable A, preselected state s,
    postselected state f, and the meter."""

    A: Observable
    s: StateVector
    f: StateVector
    meter: MeterSpec

    def __post_init__(self):
        if not (self.A.dim == self.s.dim == self.f.dim):
            raise DimensionMismatchError(
                f"system dims disagree: A={self.A.dim}, s={self.s.dim}, "
                f"f={self.f.dim}"
            )
        for name, v in (("s", self.s), ("f", self.f)):
            if abs(v.norm - 1.0) > 1e-12:
                raise ValueError(f"state {name} must be normalized")

    @property
    def dim_s(self) -> int:
        return self.A.dim


@dataclass(frozen=True)
class EpsSchedule:
    """Descending coupling strengths used for the eps -> 0 extrapolation."""

    eps_values: tuple
    extrapolation_order: int = 1

    def __post_init__(self):
        vals = tuple(float(e) for e in self.eps_values)
        object.__setattr__(self, "eps_values", vals)
        if len(vals) < 2:
            raise ValueError("schedule needs at least two eps values")
        if any(not (0.0 < e <= 0.5) for e in vals):
            raise ValueError("eps values must lie in (0, 0.5]")
        if any(later >= earlier for later, earlier in zip(vals[1:], vals)):
            raise ValueError("eps values must be strictly descending")

    @classmethod
    def default(cls) -> "EpsSchedule":
        return cls(DEFAULT_EPS)


@dataclass(frozen=True)
class ExtrapolationResult:
    """Outcome of a Richardson extrapolation to eps = 0.

    ``error_estimate`` is the difference of the last two extrapolants;
    ``converged`` is False when that difference grew instead of shrinking,
    in which case the value is still reported but should be distrusted.
    """

    limit: float
    error_estimate: float
    converged: bool


@dataclass(frozen=True)
class WeakValueReport:
    """All weak-value readings of one setup, side by side.

    ``numeric`` carries the extrapolated protocol simulation with its
    ``numeric_error`` estimate; the remaining fields are closed-form.
    """

    numeric: float
    numeric_error: float
    closed_form: float
    traditional: float
    aav_complex: complex
    projective_conditional: float
    rho_effective: float


def coupling_moment(meter: MeterSpec) -> complex:
    """The moment <m, BGm> that controls both gain and weak values."""
    return complex(np.vdot(meter.m.amps,
                           meter.B.entries @ (meter.G.entries @ meter.m.amps)))


def verify_calibration(meter: MeterSpec) -> None:
    """Check both calibration conditions, raising CalibrationError if not.

    Condition 1: <m, Bm> = 0 (the meter initially reads zero).
    Condition 2: 2 Im<m, BGm> = 1 (unit gain).
    """
    read = complex(np.vdot(meter.m.amps, meter.B.entries @ meter.m.amps))
    if abs(read) > CAL_READ_TOL:
        raise CalibrationError(
            f"meter does not read zero initially: <m,Bm> = {read:.3e}"
        )
    gain = 2.0 * coupling_moment(meter).imag
    if abs(gain - 1.0) > CAL_GAIN_TOL:
        raise CalibrationError(
            f"meter gain 2 Im<m,BGm> = {gain!r} is not 1"
        )


def coupled_state(setup: WeakSetup, eps: float) -> StateVector:
    """Prepare r(eps) = exp(-i eps (A (x) G)) (s (x) m)."""
    if eps < 0:
        raise ValueError("coupling strength eps must be nonnegative")
    start = tensor_state(setup.s, setup.meter.m)
    return evolve_coupling(setup.A, setup.meter.G, eps, start)


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value.real)):
        raise HermiticityError(
            f"{what} has imaginary residue {value.imag:.3e}"
        )
    return value.real


def meter_reading(setup: WeakSetup, eps: float) -> float:
    """Normalized average meter reading <r, (I (x) B) r> / eps."""
    if eps <= 0:
        raise ValueError("meter reading requires eps > 0")
    r = coupled_state(setup, eps)
    blocks = r.amps.reshape(setup.dim_s, setup.meter.dim_m)
    # (I (x) B) acts on the meter index of each block row
    val = complex(np.vdot(blocks, blocks @ setup.meter.B.entries.T))
    return _real_part(val, "meter reading") / eps


def richardson_limit(eps_values, samples) -> ExtrapolationResult:
    """Extrapolate samples v(eps) to eps = 0.

    Builds the full Neville table of polynomial extrapolants in eps; each
    first-column step with halved eps is the classic two-point Richardson
    update 2 v(eps/2) - v(eps), and deeper columns cancel the higher-order
    terms the schedule can resolve.
    """
    x = [float(e) for e in eps_values]
    t = [float(v) for v in samples]
    if len(x) != len(t):
        raise ValueError("need one sample per eps value")
    if len(x) < 2:
        raise ValueError("extrapolation needs at least two points")
    diag = [t[0]]
    for m in range(1, len(x)):
        t = [
            (x[i] * t[i + 1] - x[i + m] * t[i]) / (x[i] - x[i + m])
            for i in range(len(x) - m)
        ]
        diag.append(t[0])
    err = abs(diag[-1] - diag[-2])
    if len(diag) >= 3:
        prev = abs(diag[-2] - diag[-3])
        converged = err <= prev or err <= 1e-10
    else:
        converged = True
    return ExtrapolationResult(limit=diag[-1], error_estimate=err,
                               converged=converged)


def unconditional_limit(setup: WeakSetup, sched: EpsSchedule = None) -> float:
    """Extrapolated eps -> 0 limit of the normalized meter reading.

    For a calibrated meter this equals <s, As>; in general it equals
    2 Im<m, BGm> * <s, As>.
    """
    if sched is None:
        sched = EpsSchedule.default()
    samples = [meter_reading(setup, e) for e in sched.eps_values]
    return richardson_limit(sched.eps_values, samples).limit


def _conditional_meter_vector(setup: WeakSetup, eps: float) -> np.ndarray:
    """Unnormalized meter state <f| r(eps), a dim_M vector.

    (P_f (x) I) r = f (x) (<f| r), so postselected moments of I (x) B
    reduce to moments of B in this vector.
    """
    r = coupled_state(setup, eps)
    blocks = r.amps.reshape(setup.dim_s, setup.meter.dim_m)
    return setup.f.amps.conj() @ blocks


def postselection_probability(setup: WeakSetup, eps: float) -> float:
    """Probability <r, (P_f (x) I) r> that the postselection succeeds."""
    w = _conditional_meter_vector(setup, eps)
    return float(np.vdot(w, w).real)


def conditional_expectation(setup: WeakSetup, eps: float) -> float:
    """E_eps(B | f): mean meter reading given successful postselection.

    Not yet divided by eps; the weak value is the eps -> 0 limit of
    E_eps(B | f) / eps.
    """
    if eps <= 0:
        raise ValueError("conditional expectation requires eps > 0")
    _check_overlap(setup.A, setup.s, setup.f)
    w = _conditional_meter_vector(setup, eps)
    den = float(np.vdot(w, w).real)
    if den < EMPTY_PROB:
        raise EmptyPostselectionError(
            f"postselection probability {den:.3e} is numerically zero"
        )
    num = complex(np.vdot(w, setup.meter.B.entries @ w))
    return _real_part(num, "conditional reading") / den


def _check_overlap(a: Observable, s: StateVector, f: StateVector) -> None:
    if a.dim != s.dim or a.dim != f.dim:
        raise DimensionMismatchError(
            f"dims disagree: A={a.dim}, s={s.dim}, f={f.dim}"
        )
    if abs(np.vdot(f.amps, s.amps)) <= ORTHO_CUTOFF:
        raise UndefinedWeakValueError(
            "weak value undefined: <f, s> is numerically zero"
        )


def weak_value_extrapolation(setup: WeakSetup,
                             sched: EpsSchedule = None) -> ExtrapolationResult:
    """Extrapolate E_eps(B|f)/eps to eps = 0, with an error estimate."""
    if sched is None:
        sched = EpsSchedule.default()
    samples = [conditional_expectation(setup, e) / e
               for e in sched.eps_values]
    return richardson_limit(sched.eps_values, samples)


def weak_value_numeric(setup: WeakSetup, sched: EpsSchedule = None) -> float:
    """The weak value as the protocol actually produces it: simulate the
    coupled readout at each scheduled eps and extrapolate to zero."""
    return weak_value_extrapolation(setup, sched).limit


def aav_complex_weak_value(a: Observable, s: StateVector,
                           f: StateVector) -> complex:
    """The complex ratio <f, As> / <f, s>."""
    _check_overlap(a, s, f)
    return complex(np.vdot(f.amps, a.entries @ s.amps)
                   / np.vdot(f.amps, s.amps))


def traditional_weak_value(a: Observable, s: StateVector,
                           f: StateVector) -> float:
    """Re(<f, As> / <f, s>), the value usually quoted in the literature."""
    return aav_complex_weak_value(a, s, f).real


def weak_value_closed_form(setup: WeakSetup) -> float:
    """Analytic eps -> 0 limit of E_eps(B|f)/eps, no simulation involved.

    Equals 2 Im[ (<f, As>/<f, s>) * <m, BGm> ]. For a calibrated meter
    with <m, BGm> = rho + i/2 this is Re(ratio) + 2 rho Im(ratio): the
    meter-independent traditional term plus a meter-tunable one.
    """
    ratio = aav_complex_weak_value(setup.A, setup.s, setup.f)
    return 2.0 * (ratio * coupling_moment(setup.meter)).imag


def projective_tables(a: Observable, s: StateVector, f: StateVector):
    """Per-eigenspace tables of a projective A measurement on s.

    Returns the eigenvalue of each eigenspace, its Born probability
    |P_i s|^2, and the joint probability |<f, P_i s>|^2 of collapsing
    onto it and then passing the postselection. In A's eigenbasis both
    are group sums over the coordinates V^dagger s and V^dagger f.
    """
    if a.dim != s.dim or a.dim != f.dim:
        raise DimensionMismatchError(
            f"dims disagree: A={a.dim}, s={s.dim}, f={f.dim}"
        )
    dec = eig_hermitian(a)
    vh = dec.eigenvectors.conj().T
    cs = vh @ s.amps
    cf = vh @ f.amps
    marginal = dec.group_sum(np.abs(cs) ** 2)
    joint = np.abs(dec.group_sum(cf.conj() * cs)) ** 2
    return dec.group_values, marginal, joint


def projective_conditional_expectation(a: Observable, s: StateVector,
                                       f: StateVector) -> float:
    """Conditional mean of a projective A measurement given postselection.

    Measure A on s (collapse onto an eigenspace), then postselect on f.
    The joint weight of eigenspace i is |<f, P_i s>|^2, so the result is
    a convex combination of A's eigenvalues: it always lies inside the
    spectrum, unlike the weak values above.
    """
    values, _, joint = projective_tables(a, s, f)
    total = float(joint.sum())
    if total <= EMPTY_PROB:
        raise EmptyPostselectionError(
            f"total postselection probability {total:.3e} is numerically zero"
        )
    return float((values * joint).sum()) / total


def disturbance(setup: WeakSetup, eps: float) -> float:
    """How far one full meter readout kicks the system away from s.

    Reading out I (x) B and mixing the branches with their Born weights
    leaves the system in sum_Q tr_M[(I (x) P_Q) r r^dagger (I (x) P_Q)].
    The eigenspace projectors P_Q of B resolve the identity, so this is
    tr_M |r><r| whatever B is: the readout basis drops out. Returns the
    trace distance between that state and P_s.
    """
    r = coupled_state(setup, eps)
    blocks = r.amps.reshape(setup.dim_s, setup.meter.dim_m)
    post = DensityMatrix(blocks @ blocks.conj().T)
    return trace_distance(post, DensityMatrix.from_state(setup.s))


def weak_value_report(setup: WeakSetup,
                      sched: EpsSchedule = None) -> WeakValueReport:
    """Evaluate every weak-value notion on one setup, side by side."""
    ex = weak_value_extrapolation(setup, sched)
    ratio = aav_complex_weak_value(setup.A, setup.s, setup.f)
    return WeakValueReport(
        numeric=ex.limit,
        numeric_error=ex.error_estimate,
        closed_form=weak_value_closed_form(setup),
        traditional=ratio.real,
        aav_complex=ratio,
        projective_conditional=projective_conditional_expectation(
            setup.A, setup.s, setup.f),
        rho_effective=coupling_moment(setup.meter).real,
    )
