"""The weak measurement protocol.

A system observable A is coupled to a meter through the composite
Hamiltonian A (x) G for a short time eps, after which the meter
observable I (x) B is read out. The unconditional average and the
postselected weak value are two readings of one coupled state r(eps):
:func:`eps_sweep` prepares it once per scheduled eps, and the eps -> 0
limits, the disturbance and :func:`weak_value_report` all read that
record. The closed-form weak values need no simulation. The projective
A measurement they are contrasted with is an :class:`OutcomeTable`, the
table type that also describes the meter readout (oracle module), so
both measurements share one conditional mean and one emptiness check.

All composite-space arithmetic is done on the (dim_S, dim_M) amplitude
array of the coupled state, so no operator on the full product space is
ever materialized. A meter is the five calls that MeterSpec's docstring
lists, and nothing else is asked of it, so a meter with structure,
such as the Fourier-grid meter, never forms a dim_M x dim_M matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (
    DimensionMismatchError,
    Observable,
    StateVector,
    eig_hermitian,
    evolve_coupling,
    real_part,
    trace_distance,
)

# Numerical contracts, shared by the test suite.
CAL_READ_TOL = 1e-10      # |<m, Bm>|: the meter must initially read zero
WV_RTOL = 1e-4            # a weak value: within 1e-4 max(1, |closed form|)
LIMIT_RTOL = 1e-6         # an eps -> 0 limit: within 1e-6 max(1, |<s, As>|)
CAL_GAIN_TOL = 1e-8       # |2 Im<m, BGm> - 1|: unit gain
EMPTY_PROB = 1e-20        # postselection probability below this is empty

#: Geometric eps schedule used when none is given. Successive halvings so
#: each extrapolation step is an exact two-point Richardson update.
DEFAULT_EPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)


class CalibrationError(ValueError):
    """A meter failed one of the two calibration conditions."""


class UndefinedWeakValueError(ValueError):
    """|<f, s>|^2 is below EMPTY_PROB: the weak value is undefined."""


class EmptyPostselectionError(ValueError):
    """Postselection succeeds with numerically zero probability."""


def _check_postselection(prob: float, what: str,
                         error=EmptyPostselectionError) -> None:
    """The one emptiness rule: a probability below EMPTY_PROB is empty."""
    if prob < EMPTY_PROB:
        raise error(f"{what} {prob:.3e} is numerically zero")


@dataclass(frozen=True, eq=False)
class MeterSpec:
    """The dense meter: its initial state m, readout observable B, and
    coupling operator G as matrices.

    Construction checks dimensional consistency only. Calibration is a
    separate, explicit check (:func:`verify_calibration`) because
    deliberately mis-calibrated meters are legitimate probes of the
    general readout formula.

    The meter contract is five calls: ``m``, ``apply_B``, ``apply_G``,
    ``couple`` and ``readout``. They are everything the protocol and the
    oracles ask of a meter. Here they use the dense matrices;
    meters.GridMeter implements the same five without n x n matrices.
    """

    m: StateVector
    B: Observable
    G: Observable

    def __post_init__(self):
        if not (self.m.dim == self.B.dim == self.G.dim):
            raise DimensionMismatchError(
                f"meter dims disagree: m={self.m.dim}, B={self.B.dim}, "
                f"G={self.G.dim}"
            )

    def apply_B(self, x: np.ndarray) -> np.ndarray:
        """B along the last axis of x: a meter vector, or a coupled
        state's (dim_S, dim_M) array."""
        return x @ self.B.entries.T

    def apply_G(self, x: np.ndarray) -> np.ndarray:
        """G applied to a meter vector."""
        return self.G.entries @ x

    def couple(self, a: Observable, s: StateVector, eps: float) -> np.ndarray:
        """exp(-i eps (A (x) G)) (s (x) m) as a (dim_S, dim_M) array."""
        # np.outer's own product, without its wrapper
        return evolve_coupling(a, self.G, eps, s.amps[:, None] * self.m.amps)

    def readout(self, r: np.ndarray):
        """The readout branches of a coupled state r.

        Returns the eigenvalue of each eigenspace of B, r's amplitudes
        along B's eigenvectors (its last axis), and the function that sums
        such a last axis over each eigenspace.
        """
        dec = eig_hermitian(self.B)
        # conjugate the small state, not the n x n eigenvector matrix
        c = (r.conj() @ dec.eigenvectors).conj()
        return dec.group_values, c, dec.group_sum


@dataclass(frozen=True, eq=False)
class WeakSetup:
    """One full experiment: system observable A, preselected state s,
    postselected state f, and the meter."""

    A: Observable
    s: StateVector
    f: StateVector
    meter: MeterSpec

    def __post_init__(self):
        check_system(self.A, self.s, self.f)


def check_system(a: Observable, s: StateVector, f: StateVector) -> None:
    """Raise DimensionMismatchError unless A, s and f share one space."""
    if not (a.dim == s.dim == f.dim):
        raise DimensionMismatchError(
            f"system dims disagree: A is {a.dim}x{a.dim}, s has {s.dim}, "
            f"f has {f.dim}"
        )


@dataclass(frozen=True)
class EpsSchedule:
    """One or more strictly descending eps in (0, 0.5], the largest first;
    the eps -> 0 limits need two, and richardson_limit says so."""

    eps_values: tuple

    def __post_init__(self):
        if len(self.eps_values) == 0:
            raise ValueError("schedule needs at least one eps value")
        for e in self.eps_values:
            # float() would take a string or a bool silently
            if not isinstance(e, numbers.Real) or isinstance(e, bool):
                raise ValueError(f"eps value {e!r} is not a number")
            if not 0.0 < e <= 0.5:
                raise ValueError(f"eps value {e!r} outside (0, 0.5]")
        vals = tuple(map(float, self.eps_values))
        object.__setattr__(self, "eps_values", vals)
        if any(later >= earlier for later, earlier in zip(vals[1:], vals)):
            raise ValueError("eps values must be strictly descending")

    @classmethod
    def default(cls) -> "EpsSchedule":
        return cls(DEFAULT_EPS)


@dataclass(frozen=True)
class ExtrapolationResult:
    """Outcome of a Richardson extrapolation to eps = 0.

    ``error_estimate`` is the difference of the last two extrapolants;
    ``converged`` is False when that difference grew instead of shrinking.
    """

    limit: float
    error_estimate: float
    converged: bool


@dataclass(frozen=True)
class WeakValueReport:
    """All weak-value readings of one setup, side by side.

    ``numeric`` carries the extrapolated protocol simulation; the
    remaining fields are closed-form. When |<f, s>|^2 is below EMPTY_PROB
    the weak value is undefined and the four weak-value fields,
    ``numeric`` to ``aav_complex``, are None.
    ``projective_conditional`` is None when a projective A measurement
    passes the postselection with numerically zero probability.
    """

    numeric: float | None
    closed_form: float | None
    traditional: float | None
    aav_complex: complex | None
    projective_conditional: float | None
    coupling_moment: complex


class OutcomeTable(NamedTuple):
    """One measurement followed by the postselection on f.

    Each field has one entry per eigenspace of the measured observable:
    its eigenvalue, the Born probability of reading it, and the joint
    probability of reading it and then passing the postselection, so
    the failure cells are ``marginal - joint``.
    """

    values: np.ndarray
    marginal: np.ndarray
    joint: np.ndarray

    @property
    def total_success_prob(self) -> float:
        return float(self.joint.sum())

    @property
    def conditional_mean(self) -> float:
        """Mean eigenvalue given success; raises EmptyPostselectionError
        when the postselection passes with numerically zero probability."""
        total = self.total_success_prob
        _check_postselection(total, "total success probability")
        return float((self.values * self.joint).sum()) / total


def coupling_moment(meter: MeterSpec) -> complex:
    """The moment <m, BGm> that controls both gain and weak values."""
    return complex(np.vdot(meter.m.amps,
                           meter.apply_B(meter.apply_G(meter.m.amps))))


def verify_calibration(meter: MeterSpec) -> None:
    """Check both calibration conditions, raising CalibrationError if not.

    Condition 1: <m, Bm> = 0 (the meter initially reads zero).
    Condition 2: 2 Im<m, BGm> = 1 (unit gain).
    """
    read = complex(np.vdot(meter.m.amps, meter.apply_B(meter.m.amps)))
    # written as "not within" so that a NaN residual fails too
    if not abs(read) <= CAL_READ_TOL:
        raise CalibrationError(
            f"meter does not read zero initially: <m,Bm> = {read:.3e}"
        )
    gain = 2.0 * coupling_moment(meter).imag
    if not abs(gain - 1.0) <= CAL_GAIN_TOL:
        raise CalibrationError(
            f"meter gain 2 Im<m,BGm> = {gain!r} is not 1"
        )


def coupled_state(setup: WeakSetup, eps: float) -> np.ndarray:
    """Prepare r(eps) = exp(-i eps (A (x) G)) (s (x) m).

    Returned as the (dim_S, dim_M) array r[i, k] of amplitudes on
    system basis state i and meter basis state k; at eps = 0 it is the
    outer product of s and m.
    """
    if eps < 0:
        raise ValueError("coupling strength eps must be nonnegative")
    return setup.meter.couple(setup.A, setup.s, eps)


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
        raise ValueError("extrapolation needs at least two eps values")
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


def _check_overlap(a: Observable, s: StateVector, f: StateVector) -> None:
    """Raise UndefinedWeakValueError where |<f, s>|^2, the probability
    that s passes f, is empty by the one emptiness rule."""
    check_system(a, s, f)
    _check_postselection(abs(np.vdot(f.amps, s.amps)) ** 2,
                         "weak value undefined: |<f, s>|^2",
                         UndefinedWeakValueError)


@dataclass(frozen=True, eq=False)
class EpsSweep:
    """The coupled readout r(eps) of one setup, reduced per scheduled eps.

    ``readings`` are the normalized average meter readings
    <r, (I (x) B) r> / eps; ``moments`` and ``probabilities`` are
    N = <w, Bw> and D = <w, w> of the postselected meter vector
    w = <f| r, and ``moment_bounds`` the Cauchy-Schwarz bounds
    |N| <= |w| |Bw|, the scale of N's roundoff; ``system_states`` are
    tr_M |r><r| = r r^dagger.
    """

    setup: WeakSetup
    eps_values: tuple
    readings: tuple
    moments: tuple
    moment_bounds: tuple
    probabilities: tuple
    system_states: tuple

    def conditional_expectations(self) -> list:
        """E_eps(B | f) = N / D at each eps, not yet divided by eps.

        Raises UndefinedWeakValueError when <f, s> vanishes and
        EmptyPostselectionError when some D is numerically zero.
        """
        _check_overlap(self.setup.A, self.setup.s, self.setup.f)
        out = []
        for num, bound, den in zip(self.moments, self.moment_bounds,
                                   self.probabilities):
            _check_postselection(den, "postselection probability")
            out.append(real_part(num, "conditional reading", bound) / den)
        return out


def eps_sweep(setup: WeakSetup, sched: EpsSchedule = None) -> EpsSweep:
    """Prepare r(eps) once per scheduled eps and record its readout.

    One coupled state is alive at a time. An undefined or empty
    postselection is not an error here; the readers that need the
    conditional value raise.
    """
    apply_B = setup.meter.apply_B
    f_bra = setup.f.amps.conj()
    eps_values = (sched or EpsSchedule.default()).eps_values
    readings, moments, bounds, probabilities, states = [], [], [], [], []
    for eps in eps_values:
        r = coupled_state(setup, eps)
        # (P_f (x) I) r = f (x) w, so postselected moments of I (x) B
        # are moments of B in the meter vector w
        w = f_bra @ r
        br, bw = apply_B(r), apply_B(w)
        d = float(np.vdot(w, w).real)
        # |<v, Bv>| <= |v| |Bv| scales each inner product's roundoff
        bounds.append(math.sqrt(d) * _norm(bw))
        readings.append(real_part(complex(np.vdot(r, br)), "meter reading",
                                  _norm(r) * _norm(br)) / eps)
        moments.append(complex(np.vdot(w, bw)))
        probabilities.append(d)
        states.append(r @ r.conj().T)
    return EpsSweep(setup, eps_values, tuple(readings), tuple(moments),
                    tuple(bounds), tuple(probabilities), tuple(states))


def _norm(v: np.ndarray) -> float:
    # BLAS vdot: an overflow reads inf without a warning
    return math.sqrt(float(np.vdot(v, v).real))


def unconditional_limit(sweep: EpsSweep) -> float:
    """Extrapolated eps -> 0 limit of the normalized meter reading.

    For a calibrated meter this equals <s, As>; in general it equals
    2 Im<m, BGm> * <s, As>.
    """
    return richardson_limit(sweep.eps_values, sweep.readings).limit


def weak_value_extrapolation(sweep: EpsSweep) -> ExtrapolationResult:
    """Extrapolate E_eps(B|f)/eps to eps = 0, with an error estimate: the
    weak value as the protocol actually produces it."""
    samples = [c / eps for c, eps in zip(sweep.conditional_expectations(),
                                          sweep.eps_values)]
    return richardson_limit(sweep.eps_values, samples)


def aav_complex_weak_value(a: Observable, s: StateVector,
                           f: StateVector) -> complex:
    """The complex ratio <f, As> / <f, s>; a ratio past the float range
    overflows to inf or NaN parts without a warning."""
    _check_overlap(a, s, f)
    with np.errstate(over="ignore", invalid="ignore"):
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
    return _closed_form(aav_complex_weak_value(setup.A, setup.s, setup.f),
                        coupling_moment(setup.meter))


def _closed_form(ratio: complex, mom: complex) -> float:
    return 2.0 * (ratio * mom).imag


def projective_tables(a: Observable, s: StateVector,
                      f: StateVector) -> OutcomeTable:
    """The outcome table of a projective A measurement on s.

    Returns the eigenvalue of each eigenspace, its Born probability
    |P_i s|^2, and the joint probability |<f, P_i s>|^2 of collapsing
    onto it and then passing the postselection. In A's eigenbasis both
    are group sums over the coordinates V^dagger s and V^dagger f.
    """
    check_system(a, s, f)
    dec = eig_hermitian(a)
    vh = dec.eigenvectors.conj().T
    cs = vh @ s.amps
    cf = vh @ f.amps
    marginal = dec.group_sum(np.abs(cs) ** 2)
    joint = np.abs(dec.group_sum(cf.conj() * cs)) ** 2
    return OutcomeTable(dec.group_values, marginal, joint)


def projective_conditional_expectation(a: Observable, s: StateVector,
                                       f: StateVector) -> float:
    """Conditional mean of a projective A measurement given postselection.

    Measure A on s (collapse onto an eigenspace), then postselect on f.
    The joint weight of eigenspace i is |<f, P_i s>|^2, so the result is
    a convex combination of A's eigenvalues: it always lies inside the
    spectrum, unlike the weak values above.
    """
    return projective_tables(a, s, f).conditional_mean


def disturbance(sweep: EpsSweep) -> list:
    """How far one full meter readout kicks the system away from s, at
    each eps of the sweep.

    Reading out I (x) B and mixing the branches with their Born weights
    leaves the system in sum_Q tr_M[(I (x) P_Q) r r^dagger (I (x) P_Q)].
    The eigenspace projectors P_Q of B resolve the identity, so this is
    tr_M |r><r| whatever B is: the readout basis drops out. Returns the
    trace distance between that state and P_s.
    """
    s = sweep.setup.s.amps / np.linalg.norm(sweep.setup.s.amps)
    initial = np.outer(s, s.conj())
    # both states symmetrized, so eigvalsh sees exact Hermitian input
    initial = (initial + initial.conj().T) / 2.0
    return [trace_distance((post + post.conj().T) / 2.0, initial)
            for post in sweep.system_states]


def weak_value_report(sweep: EpsSweep) -> WeakValueReport:
    """Every weak-value notion of the sweep's setup, side by side; an
    undefined weak value leaves its four fields None instead of raising."""
    setup = sweep.setup
    try:
        projective = projective_conditional_expectation(setup.A, setup.s,
                                                        setup.f)
    except EmptyPostselectionError:
        projective = None
    mom = coupling_moment(setup.meter)
    try:
        ratio = aav_complex_weak_value(setup.A, setup.s, setup.f)
    except UndefinedWeakValueError:
        return WeakValueReport(None, None, None, None, projective, mom)
    return WeakValueReport(weak_value_extrapolation(sweep).limit,
                           _closed_form(ratio, mom), ratio.real, ratio,
                           projective, mom)
