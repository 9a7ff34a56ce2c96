import numpy as np
import pytest

from weakmeas.hilbert import (
    DensityMatrix,
    DimensionMismatchError,
    Observable,
    StateVector,
    eig_hermitian,
    expectation,
    partial_trace_meter,
    projector,
    tensor_op,
    tensor_state,
    trace_distance,
)
from weakmeas.meters import GridSpec, gaussian_grid_meter, qubit_meter
from weakmeas.protocol import (
    DEFAULT_EPS,
    CalibrationError,
    EmptyPostselectionError,
    EpsSchedule,
    ExtrapolationResult,
    MeterSpec,
    UndefinedWeakValueError,
    WeakSetup,
    aav_complex_weak_value,
    conditional_expectation,
    coupled_state,
    coupling_moment,
    disturbance,
    meter_reading,
    postselection_probability,
    projective_conditional_expectation,
    richardson_limit,
    traditional_weak_value,
    unconditional_limit,
    verify_calibration,
    weak_value_closed_form,
    weak_value_extrapolation,
    weak_value_numeric,
    weak_value_report,
)

import reference

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

E1 = StateVector([1, 0])
CIRC = StateVector([1, 1j])          # <CIRC, sx CIRC> = 0, AAV ratio vs E1 = i


def canonical_setup(rho):
    """sx system, circular preselection, e1 postselection."""
    return WeakSetup(Observable(SX), CIRC, E1, qubit_meter(rho))


def random_state(rng, n):
    return StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Observable((m + m.conj().T) / 2)


def random_setup(rng, dim, rho=None):
    if rho is None:
        rho = rng.uniform(-5, 5)
    return WeakSetup(random_hermitian(rng, dim), random_state(rng, dim),
                     random_state(rng, dim), qubit_meter(rho))


class TestEpsSchedule:
    def test_default_is_geometric_halving(self):
        sched = EpsSchedule.default()
        assert sched.eps_values == DEFAULT_EPS
        for a, b in zip(sched.eps_values, sched.eps_values[1:]):
            assert b == pytest.approx(a / 2)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            EpsSchedule((1e-2,))

    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            EpsSchedule((1e-3, 1e-2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EpsSchedule((0.9, 0.45))
        with pytest.raises(ValueError):
            EpsSchedule((1e-2, 0.0))


class TestRichardson:
    def test_two_points_is_classic_update(self):
        res = richardson_limit((1e-2, 5e-3), (3.0, 2.0))
        assert res.limit == pytest.approx(2 * 2.0 - 3.0, abs=1e-14)
        assert res.converged

    def test_recovers_polynomial_exactly(self):
        eps = DEFAULT_EPS
        samples = [3.0 - 2 * e + 7 * e ** 2 - 4 * e ** 3 for e in eps]
        res = richardson_limit(eps, samples)
        assert res.limit == pytest.approx(3.0, abs=1e-12)
        assert res.error_estimate < 1e-10
        assert res.converged

    def test_flags_divergent_sequence(self):
        eps = DEFAULT_EPS
        res = richardson_limit(eps, [1.0 / e for e in eps])
        assert not res.converged

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            richardson_limit((1e-2, 5e-3), (1.0,))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            richardson_limit((1e-2,), (1.0,))


class TestCalibration:
    def test_qubit_meter_passes(self):
        verify_calibration(qubit_meter(17.3))

    def test_nonzero_initial_reading_rejected(self):
        bad = MeterSpec(2, StateVector([1, 0]),
                        Observable([[1.0, 0.5j], [-0.5j, 0.0]]),
                        Observable(SX))
        with pytest.raises(CalibrationError):
            verify_calibration(bad)

    def test_wrong_gain_rejected(self):
        # 2 Im<m, BGm> = 0.5 instead of 1
        bad = MeterSpec(2, StateVector([1, 0]),
                        Observable([[0, 0.25j], [-0.25j, 0]]),
                        Observable(SX))
        with pytest.raises(CalibrationError):
            verify_calibration(bad)

    def test_coupling_moment_of_qubit_meter(self):
        assert coupling_moment(qubit_meter(50.0)) == 50.0 + 0.5j


class TestWeakSetup:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            WeakSetup(Observable(np.eye(3)), E1, E1, qubit_meter(0.0))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            WeakSetup(Observable(SX), StateVector.raw([2, 0]), E1,
                      qubit_meter(0.0))

    def test_meter_dims_must_agree(self):
        with pytest.raises(DimensionMismatchError):
            MeterSpec(3, StateVector([1, 0]), Observable(SX), Observable(SX))


class TestCoupledState:
    def test_zero_coupling_is_product_state(self):
        setup = canonical_setup(0.0)
        got = coupled_state(setup, 0.0)
        want = tensor_state(setup.s, setup.meter.m)
        np.testing.assert_allclose(got.amps, want.amps, atol=1e-15)

    def test_normalized(self):
        setup = canonical_setup(50.0)
        assert abs(coupled_state(setup, 1e-2).norm - 1.0) <= 1e-12

    def test_first_order_expansion(self):
        rng = np.random.default_rng(101)
        setup = random_setup(rng, 3)
        a_s = setup.A.apply(setup.s)
        g_m = setup.meter.G.apply(setup.meter.m)

        def residual(eps):
            lin = (tensor_state(setup.s, setup.meter.m).amps
                   - 1j * eps * tensor_state(a_s, g_m).amps)
            return np.linalg.norm(coupled_state(setup, eps).amps - lin)

        r1, r2 = residual(1e-2), residual(5e-3)
        # remainder is second order: halving eps quarters it
        assert r2 / r1 == pytest.approx(0.25, abs=0.05)

    def test_identity_system_evolves_meter_only(self):
        rng = np.random.default_rng(102)
        meter = qubit_meter(2.5)
        setup = WeakSetup(Observable.identity(2), random_state(rng, 2),
                          random_state(rng, 2), meter)
        got = coupled_state(setup, 0.3)
        blocks = got.amps.reshape(2, 2)
        # each system amplitude carries the same evolved meter state
        from weakmeas.hilbert import evolve
        want_m = evolve(meter.G, 0.3, meter.m)
        for i in range(2):
            np.testing.assert_allclose(blocks[i], setup.s.amps[i] * want_m.amps,
                                       atol=1e-12)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            coupled_state(canonical_setup(0.0), -0.1)


class TestMeterReading:
    def test_basis_state_reads_eigenvalue(self):
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        assert meter_reading(setup, 1e-3) == pytest.approx(1.0, abs=5e-3)

    def test_balanced_state_reads_zero(self):
        setup = WeakSetup(Observable(SZ), StateVector([1, 1]),
                          StateVector([1, 1]), qubit_meter(0.0))
        assert abs(meter_reading(setup, 1e-3)) < 5e-3

    def test_error_shrinks_under_halving(self):
        # at least linearly; for this meter the odd error terms cancel,
        # so the observed shrink factor is the quadratic 1/4
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        errs = [abs(meter_reading(setup, e) - 1.0)
                for e in (1e-2, 5e-3, 2.5e-3)]
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            meter_reading(canonical_setup(0.0), 0.0)


class TestUnconditionalLimit:
    def test_basis_state(self):
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        assert abs(unconditional_limit(setup) - 1.0) <= 1e-6

    def test_null_average(self):
        setup = WeakSetup(Observable(SX), CIRC, CIRC, qubit_meter(0.0))
        assert abs(unconditional_limit(setup)) <= 1e-6

    def test_matches_analytic_average_randomized(self):
        rng = np.random.default_rng(111)
        for _ in range(10):
            setup = random_setup(rng, int(rng.integers(2, 9)))
            want = expectation(setup.A, setup.s)
            assert abs(unconditional_limit(setup) - want) <= 1e-6

    def test_miscalibrated_gain_scales_limit(self):
        # 2 Im<m, BGm> = c: the limit must be c <s, As>, not <s, As>
        rng = np.random.default_rng(112)
        for c in (0.5, 2.0, -1.0):
            meter = MeterSpec(2, StateVector([1, 0]),
                              Observable([[0, 0.5j * c], [-0.5j * c, 0]]),
                              Observable(SX))
            setup = WeakSetup(random_hermitian(rng, 2), random_state(rng, 2),
                              random_state(rng, 2), meter)
            want = c * expectation(setup.A, setup.s)
            assert abs(unconditional_limit(setup) - want) <= 1e-6


class TestConditionalExpectation:
    def test_tends_to_initial_reading(self):
        setup = canonical_setup(50.0)
        # E_eps(B|f) -> <m, Bm> = 0 as eps -> 0
        assert abs(conditional_expectation(setup, 1e-6)) < 1e-3

    def test_trivial_postselection_recovers_average(self):
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        assert conditional_expectation(setup, 1e-3) / 1e-3 == pytest.approx(
            1.0, abs=5e-3)

    def test_orthogonal_postselection_undefined(self):
        setup = WeakSetup(Observable(SZ), E1, StateVector([0, 1]),
                          qubit_meter(0.0))
        with pytest.raises(UndefinedWeakValueError):
            conditional_expectation(setup, 1e-3)

    def test_numerically_empty_postselection(self):
        # overlap 1e-11 passes the orthogonality cutoff but the success
        # probability ~1e-22 is below the empty-condition floor
        f = StateVector([1e-11, 1.0])
        setup = WeakSetup(Observable(SZ), E1, f, qubit_meter(0.0))
        with pytest.raises(EmptyPostselectionError):
            conditional_expectation(setup, 1e-3)

    def test_postselection_probability_limit_canonical(self):
        # stays within O(eps) of |<f,s>|^2; for this setup it is constant
        setup = canonical_setup(50.0)
        target = abs(np.vdot(setup.f.amps, setup.s.amps)) ** 2
        for e in (1e-2, 5e-3, 2.5e-3):
            assert abs(postselection_probability(setup, e) - target) <= e

    def test_postselection_probability_limit_generic(self):
        rng = np.random.default_rng(107)
        setup = random_setup(rng, 3)
        target = abs(np.vdot(setup.f.amps, setup.s.amps)) ** 2
        diffs = [abs(postselection_probability(setup, e) - target)
                 for e in (1e-2, 5e-3, 2.5e-3)]
        assert diffs[0] <= 1e-2
        assert diffs[1] <= 0.3 * diffs[0] + 1e-12
        assert diffs[2] <= 0.3 * diffs[1] + 1e-12


class TestWeakValues:
    def test_canonical_aav_ratio_is_i(self):
        assert aav_complex_weak_value(Observable(SX), CIRC, E1) == 1j

    def test_canonical_closed_form_is_2rho(self):
        for rho in (-50.0, 0.0, 50.0):
            setup = canonical_setup(rho)
            assert weak_value_closed_form(setup) == 2.0 * rho

    def test_canonical_numeric(self):
        got = weak_value_numeric(canonical_setup(50.0))
        assert abs(got - 100.0) <= 1e-4

    def test_numeric_zero_at_zero_rho(self):
        assert abs(weak_value_numeric(canonical_setup(0.0))) <= 1e-6

    def test_trivial_postselection_gives_average(self):
        setup = WeakSetup(Observable(SX), CIRC, CIRC, qubit_meter(3.0))
        want = expectation(setup.A, setup.s)
        assert abs(weak_value_numeric(setup) - want) <= 1e-6
        assert weak_value_closed_form(setup) == pytest.approx(want, abs=1e-12)

    def test_zero_rho_reduces_to_traditional(self):
        rng = np.random.default_rng(121)
        for _ in range(5):
            setup = random_setup(rng, 3, rho=0.0)
            want = traditional_weak_value(setup.A, setup.s, setup.f)
            assert weak_value_closed_form(setup) == pytest.approx(
                want, abs=1e-12)

    def test_numeric_matches_closed_form_randomized(self):
        rng = np.random.default_rng(122)
        done = 0
        while done < 10:
            setup = random_setup(rng, int(rng.integers(2, 5)))
            if abs(np.vdot(setup.f.amps, setup.s.amps)) < 0.1:
                continue
            done += 1
            got = weak_value_numeric(setup)
            want = weak_value_closed_form(setup)
            assert abs(got - want) <= 1e-5

    def test_affine_in_rho(self):
        rng = np.random.default_rng(123)
        a = random_hermitian(rng, 3)
        s, f = random_state(rng, 3), random_state(rng, 3)
        ratio = aav_complex_weak_value(a, s, f)
        w1 = weak_value_closed_form(WeakSetup(a, s, f, qubit_meter(4.0)))
        w2 = weak_value_closed_form(WeakSetup(a, s, f, qubit_meter(-2.0)))
        assert w1 - w2 == pytest.approx(2 * 6.0 * ratio.imag, abs=1e-12)

    def test_extrapolation_reports_small_error(self):
        res = weak_value_extrapolation(canonical_setup(50.0))
        assert isinstance(res, ExtrapolationResult)
        assert res.converged
        assert res.error_estimate < 1e-6
        assert abs(res.limit - 100.0) <= 10 * max(res.error_estimate, 1e-9)

    def test_orthogonal_pair_undefined(self):
        setup = WeakSetup(Observable(SX), E1, StateVector([0, 1]),
                          qubit_meter(0.0))
        with pytest.raises(UndefinedWeakValueError):
            weak_value_closed_form(setup)
        with pytest.raises(UndefinedWeakValueError):
            traditional_weak_value(setup.A, setup.s, setup.f)
        with pytest.raises(UndefinedWeakValueError):
            aav_complex_weak_value(setup.A, setup.s, setup.f)


class TestTraditionalWeakValue:
    def test_strange_value_100(self):
        delta = 2.0 / 101.0
        s = StateVector([1, 1])
        f = StateVector([1, -1 + delta])
        got = traditional_weak_value(Observable(SZ), s, f)
        assert abs(got - 100.0) <= 1e-9

    def test_trivial_postselection(self):
        rng = np.random.default_rng(131)
        a = random_hermitian(rng, 4)
        s = random_state(rng, 4)
        assert traditional_weak_value(a, s, s) == pytest.approx(
            expectation(a, s), abs=1e-12)

    def test_eigenvector_postselection(self):
        rng = np.random.default_rng(132)
        a = random_hermitian(rng, 3)
        dec = eig_hermitian(a)
        s = random_state(rng, 3)
        f = StateVector(dec.eigenvectors[:, 1])
        got = traditional_weak_value(a, s, f)
        assert got == pytest.approx(dec.eigenvalues[1], abs=1e-10)

    def test_real_part_of_complex_ratio(self):
        rng = np.random.default_rng(133)
        a = random_hermitian(rng, 3)
        s, f = random_state(rng, 3), random_state(rng, 3)
        assert traditional_weak_value(a, s, f) == aav_complex_weak_value(
            a, s, f).real


class TestProjectiveConditional:
    def test_eigenvector_postselection(self):
        dec = eig_hermitian(Observable(SX))
        f = StateVector(dec.eigenvectors[:, 1])
        got = projective_conditional_expectation(Observable(SX), CIRC, f)
        assert got == pytest.approx(dec.eigenvalues[1], abs=1e-12)

    def test_canonical_is_zero(self):
        got = projective_conditional_expectation(Observable(SX), CIRC, E1)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_strange_value_pair_stays_convex(self):
        delta = 2.0 / 101.0
        s = StateVector([1, 1])
        f = StateVector([1, -1 + delta])
        got = projective_conditional_expectation(Observable(SZ), s, f)
        assert -1.0 <= got <= 1.0

    def test_convexity_randomized(self):
        rng = np.random.default_rng(141)
        for _ in range(20):
            a = random_hermitian(rng, int(rng.integers(2, 6)))
            s, f = random_state(rng, a.dim), random_state(rng, a.dim)
            dec = eig_hermitian(a)
            got = projective_conditional_expectation(a, s, f)
            assert dec.eigenvalues[0] - 1e-10 <= got
            assert got <= dec.eigenvalues[-1] + 1e-10

    def test_degenerate_spectrum_uses_eigenspace_collapse(self):
        rng = np.random.default_rng(142)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        a = Observable(q @ np.diag([2.0, 2.0, 5.0]) @ q.conj().T)
        s, f = random_state(rng, 3), random_state(rng, 3)
        # oracle from the known construction basis: collapse onto the
        # whole eigenspace, then overlap with f
        p2 = q[:, :2] @ q[:, :2].conj().T
        p5 = q[:, 2:] @ q[:, 2:].conj().T
        w2 = abs(np.vdot(f.amps, p2 @ s.amps)) ** 2
        w5 = abs(np.vdot(f.amps, p5 @ s.amps)) ** 2
        want = (2.0 * w2 + 5.0 * w5) / (w2 + w5)
        got = projective_conditional_expectation(a, s, f)
        assert got == pytest.approx(want, abs=1e-10)

    def test_zero_probability_rejected(self):
        with pytest.raises(EmptyPostselectionError):
            projective_conditional_expectation(Observable(SZ), E1,
                                               StateVector([0, 1]))


class TestDisturbance:
    def test_no_coupling_no_disturbance(self):
        assert disturbance(canonical_setup(50.0), 0.0) <= 1e-12

    def test_identity_observable_does_not_disturb(self):
        rng = np.random.default_rng(151)
        setup = WeakSetup(Observable.identity(2), random_state(rng, 2),
                          random_state(rng, 2), qubit_meter(1.0))
        assert disturbance(setup, 0.3) <= 1e-12

    def test_slope_bounded_under_halving(self):
        rng = np.random.default_rng(152)
        for _ in range(5):
            setup = random_setup(rng, 3)
            slopes = [disturbance(setup, e) / e
                      for e in (1e-2, 5e-3, 2.5e-3)]
            assert 0.3 <= slopes[1] / slopes[0] <= 3.0
            assert 0.3 <= slopes[2] / slopes[1] <= 3.0

    def test_small_coupling_small_kick(self):
        rng = np.random.default_rng(153)
        setup = random_setup(rng, 4)
        assert disturbance(setup, 1e-4) <= 1e-3

    def test_matches_partial_trace_of_readout(self):
        # measuring the meter and discarding the record is, after the
        # partial trace, the same as never looking: the branch mixture
        # must reproduce tr_M of the coupled state exactly
        rng = np.random.default_rng(154)
        setup = random_setup(rng, 3)
        eps = 0.05
        r = coupled_state(setup, eps)
        rho_s = partial_trace_meter(DensityMatrix.from_state(r), 3, 2)
        want = trace_distance(rho_s, DensityMatrix.from_state(setup.s))
        assert disturbance(setup, eps) == pytest.approx(want, abs=1e-12)

    # Both forms carry about 1e-16 of absolute roundoff, so they are
    # compared where the disturbance is at least about 1e-6.
    AGREE_EPS = (1e-2, 5e-3, 2.5e-3)

    def test_matches_branch_by_branch_readout_on_qubits(self):
        rng = np.random.default_rng(155)
        for _ in range(20):
            setup = random_setup(rng, int(rng.integers(2, 5)),
                                 rho=rng.uniform(-50, 50))
            for eps in self.AGREE_EPS:
                want = reference.branch_disturbance(setup, eps)
                assert disturbance(setup, eps) == pytest.approx(want,
                                                                rel=1e-9)

    def test_matches_branch_by_branch_readout_on_grid(self):
        rng = np.random.default_rng(156)
        grid = GridSpec(256, 12.0)
        for rho in (-20.0, 3.0):
            setup = WeakSetup(random_hermitian(rng, 2), random_state(rng, 2),
                              random_state(rng, 2),
                              gaussian_grid_meter(grid, rho))
            for eps in self.AGREE_EPS:
                want = reference.branch_disturbance(setup, eps)
                assert disturbance(setup, eps) == pytest.approx(want,
                                                                rel=1e-9)


class TestWeakValueReport:
    def test_canonical_report(self):
        rep = weak_value_report(canonical_setup(50.0))
        assert rep.closed_form == 100.0
        assert abs(rep.numeric - 100.0) <= 1e-4
        assert rep.traditional == 0.0
        assert rep.aav_complex == 1j
        assert rep.projective_conditional == pytest.approx(0.0, abs=1e-12)
        assert rep.rho_effective == 50.0
        assert abs(rep.numeric - rep.closed_form) <= 10 * max(
            rep.numeric_error, 1e-9)
