from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakmeas.hilbert import (
    DimensionMismatchError,
    Observable,
    StateVector,
    eig_hermitian,
    expectation,
    trace_distance,
)
from weakmeas.meters import GridSpec, gaussian_grid_meter, qubit_meter
from weakmeas.oracle import projective_A_oracle
from weakmeas.protocol import (
    DEFAULT_EPS,
    EMPTY_PROB,
    LIMIT_RTOL,
    CalibrationError,
    EmptyPostselectionError,
    EpsSchedule,
    EpsSweep,
    ExtrapolationResult,
    MeterSpec,
    OutcomeTable,
    UndefinedWeakValueError,
    WeakSetup,
    aav_complex_weak_value,
    coupled_state,
    coupling_moment,
    disturbance,
    eps_sweep,
    projective_conditional_expectation,
    richardson_limit,
    traditional_weak_value,
    unconditional_limit,
    verify_calibration,
    weak_value_closed_form,
    weak_value_extrapolation,
    weak_value_report,
)

import reference
from reference import (
    DensityMatrix,
    evolve,
    partial_trace_meter,
    projector,
    tensor_op,
    tensor_state,
)

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


def sweep(setup, *eps_values):
    return eps_sweep(setup, EpsSchedule(eps_values))


def weak_value_numeric(setup):
    return weak_value_extrapolation(eps_sweep(setup)).limit


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
        # one value is a schedule; the extrapolation asks for two
        assert EpsSchedule((1e-2,)).eps_values == (1e-2,)
        with pytest.raises(ValueError, match="at least one"):
            EpsSchedule(())
        with pytest.raises(ValueError, match="at least two eps values"):
            richardson_limit((1e-2,), (1.0,))

    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            EpsSchedule((1e-3, 1e-2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EpsSchedule((0.9, 0.45))
        with pytest.raises(ValueError):
            EpsSchedule((1e-2, 0.0))

    def test_range_message_names_the_value(self):
        with pytest.raises(ValueError) as exc:
            EpsSchedule((0.7, 0.1))
        assert str(exc.value) == "eps value 0.7 outside (0, 0.5]"

    @pytest.mark.parametrize("bad", [("0.01", "0.005"), (True,),
                                     (0.01, False)])
    def test_rejects_strings_and_bools(self, bad):
        # float() would turn each into an eps without a word
        with pytest.raises(ValueError, match="is not a number"):
            EpsSchedule(bad)


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
        bad = MeterSpec(StateVector([1, 0]),
                        Observable([[1.0, 0.5j], [-0.5j, 0.0]]),
                        Observable(SX))
        with pytest.raises(CalibrationError):
            verify_calibration(bad)

    def test_wrong_gain_rejected(self):
        # 2 Im<m, BGm> = 0.5 instead of 1
        bad = MeterSpec(StateVector([1, 0]),
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

    def test_meter_dims_must_agree(self):
        with pytest.raises(DimensionMismatchError):
            MeterSpec(StateVector([1, 0, 0]), Observable(SX), Observable(SX))


class TestCoupledState:
    def test_zero_coupling_is_product_state(self):
        setup = canonical_setup(0.0)
        got = coupled_state(setup, 0.0)
        want = tensor_state(setup.s, setup.meter.m).reshape(2, 2)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_normalized(self):
        setup = canonical_setup(50.0)
        assert abs(np.linalg.norm(coupled_state(setup, 1e-2)) - 1.0) <= 1e-12

    def test_first_order_expansion(self):
        rng = np.random.default_rng(101)
        setup = random_setup(rng, 3)
        a_s = setup.A.entries @ setup.s.amps
        g_m = setup.meter.G.entries @ setup.meter.m.amps

        def residual(eps):
            lin = (tensor_state(setup.s, setup.meter.m)
                   - 1j * eps * tensor_state(a_s, g_m))
            return np.linalg.norm(coupled_state(setup, eps).reshape(-1) - lin)

        r1, r2 = residual(1e-2), residual(5e-3)
        # remainder is second order: halving eps quarters it
        assert r2 / r1 == pytest.approx(0.25, abs=0.05)

    def test_identity_system_evolves_meter_only(self):
        rng = np.random.default_rng(102)
        meter = qubit_meter(2.5)
        setup = WeakSetup(Observable(np.eye(2)), random_state(rng, 2),
                          random_state(rng, 2), meter)
        blocks = coupled_state(setup, 0.3)
        # each system amplitude carries the same evolved meter state
        want_m = evolve(meter.G, 0.3, meter.m)
        for i in range(2):
            np.testing.assert_allclose(blocks[i], setup.s.amps[i] * want_m,
                                       atol=1e-12)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            coupled_state(canonical_setup(0.0), -0.1)


class TestMeterReading:
    def test_basis_state_reads_eigenvalue(self):
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        assert sweep(setup, 1e-3, 5e-4).readings[0] == pytest.approx(
            1.0, abs=5e-3)

    def test_balanced_state_reads_zero(self):
        setup = WeakSetup(Observable(SZ), StateVector([1, 1]),
                          StateVector([1, 1]), qubit_meter(0.0))
        assert abs(sweep(setup, 1e-3, 5e-4).readings[0]) < 5e-3

    def test_error_shrinks_under_halving(self):
        # at least linearly; for this meter the odd error terms cancel,
        # so the observed shrink factor is the quadratic 1/4
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        errs = [abs(x - 1.0)
                for x in sweep(setup, 1e-2, 5e-3, 2.5e-3).readings]
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            sweep(canonical_setup(0.0), 1e-2, 0.0)


class TestUnconditionalLimit:
    def test_basis_state(self):
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        assert abs(unconditional_limit(eps_sweep(setup)) - 1.0) <= 1e-6

    def test_null_average(self):
        setup = WeakSetup(Observable(SX), CIRC, CIRC, qubit_meter(0.0))
        assert abs(unconditional_limit(eps_sweep(setup))) <= 1e-6

    def test_matches_analytic_average_randomized(self):
        rng = np.random.default_rng(111)
        for _ in range(10):
            setup = random_setup(rng, int(rng.integers(2, 9)))
            want = expectation(setup.A, setup.s)
            assert abs(unconditional_limit(eps_sweep(setup)) - want) <= 1e-6

    def test_miscalibrated_gain_scales_limit(self):
        # 2 Im<m, BGm> = c: the limit must be c <s, As>, not <s, As>
        rng = np.random.default_rng(112)
        for c in (0.5, 2.0, -1.0):
            meter = MeterSpec(StateVector([1, 0]),
                              Observable([[0, 0.5j * c], [-0.5j * c, 0]]),
                              Observable(SX))
            setup = WeakSetup(random_hermitian(rng, 2), random_state(rng, 2),
                              random_state(rng, 2), meter)
            want = c * expectation(setup.A, setup.s)
            assert abs(unconditional_limit(eps_sweep(setup)) - want) <= 1e-6


class TestConditionalExpectation:
    def test_tends_to_initial_reading(self):
        setup = canonical_setup(50.0)
        # E_eps(B|f) -> <m, Bm> = 0 as eps -> 0
        got = sweep(setup, 1e-6, 5e-7).conditional_expectations()[0]
        assert abs(got) < 1e-3

    def test_trivial_postselection_recovers_average(self):
        setup = WeakSetup(Observable(SZ), E1, E1, qubit_meter(0.0))
        got = sweep(setup, 1e-3, 5e-4).conditional_expectations()[0]
        assert got / 1e-3 == pytest.approx(1.0, abs=5e-3)

    def test_orthogonal_postselection_undefined(self):
        setup = WeakSetup(Observable(SZ), E1, StateVector([0, 1]),
                          qubit_meter(0.0))
        record = sweep(setup, 1e-3, 5e-4)      # the sweep does not raise
        with pytest.raises(UndefinedWeakValueError):
            record.conditional_expectations()

    def test_numerically_empty_postselection(self):
        # overlap 1e-11: |<f,s>|^2 ~ 1e-22 is below the one postselection
        # floor, so the weak value is undefined, not an empty division
        f = StateVector([1e-11, 1.0])
        setup = WeakSetup(Observable(SZ), E1, f, qubit_meter(0.0))
        record = sweep(setup, 1e-3, 5e-4)
        with pytest.raises(UndefinedWeakValueError):
            record.conditional_expectations()

    @pytest.mark.parametrize("delta, undefined", [(1e-9, False),
                                                  (1e-11, True),
                                                  (1e-13, True)])
    def test_overlap_judged_by_the_postselection_floor(self, delta,
                                                       undefined):
        # |<f,s>|^2 ~ delta^2 meets the one floor EMPTY_PROB = 1e-20, with
        # no second cutoff on |<f,s>| that would leave a band between them
        f = StateVector([delta, 1.0])
        a = Observable(SZ)
        record = sweep(WeakSetup(a, E1, f, qubit_meter(0.0)), 1e-3, 5e-4)
        if undefined:
            with pytest.raises(UndefinedWeakValueError, match=r"\|<f, s>\|"):
                aav_complex_weak_value(a, E1, f)
            with pytest.raises(UndefinedWeakValueError):
                record.conditional_expectations()
        else:
            assert aav_complex_weak_value(a, E1, f) == pytest.approx(1.0)
            record.conditional_expectations()

    def test_one_emptiness_rule_for_tables_and_sweeps(self):
        # a probability of exactly EMPTY_PROB is not empty, one ulp below
        # it is, for the outcome table and the eps sweep alike
        record = sweep(canonical_setup(50.0), 1e-3, 5e-4)
        for prob, empty in ((EMPTY_PROB, False),
                            (np.nextafter(EMPTY_PROB, 0), True)):
            table = OutcomeTable(np.array([1.0]), np.array([1.0]),
                                 np.array([prob]))
            floor = replace(record, moments=(prob, prob),
                            probabilities=(prob, prob))
            if empty:
                with pytest.raises(EmptyPostselectionError):
                    table.conditional_mean
                with pytest.raises(EmptyPostselectionError):
                    floor.conditional_expectations()
            else:
                assert table.conditional_mean == 1.0
                assert floor.conditional_expectations() == [1.0, 1.0]

    def test_postselection_probability_limit_canonical(self):
        # stays within O(eps) of |<f,s>|^2; for this setup it is constant
        setup = canonical_setup(50.0)
        target = abs(np.vdot(setup.f.amps, setup.s.amps)) ** 2
        record = sweep(setup, 1e-2, 5e-3, 2.5e-3)
        for e, p in zip(record.eps_values, record.probabilities):
            assert abs(p - target) <= e

    def test_postselection_probability_limit_generic(self):
        rng = np.random.default_rng(107)
        setup = random_setup(rng, 3)
        target = abs(np.vdot(setup.f.amps, setup.s.amps)) ** 2
        diffs = [abs(p - target)
                 for p in sweep(setup, 1e-2, 5e-3, 2.5e-3).probabilities]
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
        res = weak_value_extrapolation(eps_sweep(canonical_setup(50.0)))
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
        # A = 0 switches the coupling A (x) G off at every eps
        setup = WeakSetup(Observable(np.zeros((2, 2))), CIRC, E1,
                          qubit_meter(50.0))
        assert max(disturbance(eps_sweep(setup))) <= 1e-12

    def test_identity_observable_does_not_disturb(self):
        rng = np.random.default_rng(151)
        setup = WeakSetup(Observable(np.eye(2)), random_state(rng, 2),
                          random_state(rng, 2), qubit_meter(1.0))
        assert max(disturbance(sweep(setup, 0.3, 0.15))) <= 1e-12

    def test_slope_bounded_under_halving(self):
        rng = np.random.default_rng(152)
        for _ in range(5):
            setup = random_setup(rng, 3)
            record = sweep(setup, 1e-2, 5e-3, 2.5e-3)
            slopes = [d / e for d, e in zip(disturbance(record),
                                            record.eps_values)]
            assert 0.3 <= slopes[1] / slopes[0] <= 3.0
            assert 0.3 <= slopes[2] / slopes[1] <= 3.0

    def test_small_coupling_small_kick(self):
        rng = np.random.default_rng(153)
        setup = random_setup(rng, 4)
        assert disturbance(sweep(setup, 1e-4, 5e-5))[0] <= 1e-3

    def test_matches_partial_trace_of_readout(self):
        # measuring the meter and discarding the record is, after the
        # partial trace, the same as never looking: the branch mixture
        # must reproduce tr_M of the coupled state exactly
        rng = np.random.default_rng(154)
        setup = random_setup(rng, 3)
        eps = 0.05
        r = coupled_state(setup, eps)
        rho_s = partial_trace_meter(DensityMatrix.from_state(StateVector(r)),
                                    3, 2)
        want = trace_distance(rho_s.entries,
                              DensityMatrix.from_state(setup.s).entries)
        got = disturbance(sweep(setup, eps, eps / 2))[0]
        assert got == pytest.approx(want, abs=1e-12)

    # Both forms carry about 1e-16 of absolute roundoff, so they are
    # compared where the disturbance is at least about 1e-6.
    AGREE_EPS = (1e-2, 5e-3, 2.5e-3)

    def test_matches_branch_by_branch_readout_on_qubits(self):
        rng = np.random.default_rng(155)
        for _ in range(20):
            setup = random_setup(rng, int(rng.integers(2, 5)),
                                 rho=rng.uniform(-50, 50))
            got = disturbance(sweep(setup, *self.AGREE_EPS))
            for eps, d in zip(self.AGREE_EPS, got):
                want = reference.branch_disturbance(setup, eps)
                assert d == pytest.approx(want, rel=1e-9)

    def test_matches_branch_by_branch_readout_on_grid(self):
        rng = np.random.default_rng(156)
        grid = GridSpec(256, 12.0)
        for rho in (-20.0, 3.0):
            setup = WeakSetup(random_hermitian(rng, 2), random_state(rng, 2),
                              random_state(rng, 2),
                              gaussian_grid_meter(grid, rho))
            readout = Observable(setup.meter.B.entries)
            got = disturbance(sweep(setup, *self.AGREE_EPS))
            for eps, d in zip(self.AGREE_EPS, got):
                want = reference.branch_disturbance(setup, eps, readout)
                assert d == pytest.approx(want, rel=1e-9)


class TestWeakValueReport:
    def test_canonical_report(self):
        rep = weak_value_report(eps_sweep(canonical_setup(50.0)))
        assert rep.closed_form == 100.0
        assert abs(rep.numeric - 100.0) <= 1e-4
        assert rep.traditional == 0.0
        assert rep.aav_complex == 1j
        assert rep.projective_conditional == pytest.approx(0.0, abs=1e-12)
        assert rep.coupling_moment.real == 50.0
        assert abs(rep.numeric - rep.closed_form) <= 10 * max(
            rep.numeric_error, 1e-9)

    def test_each_quantity_computed_once(self, monkeypatch):
        # on the grid meter each coupling moment is an FFT pair
        import weakmeas.protocol as protocol
        record = eps_sweep(canonical_setup(50.0))
        calls = []
        for name in ("coupling_moment", "aav_complex_weak_value"):
            real = getattr(protocol, name)

            def counting(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(protocol, name, counting)
        weak_value_report(record)
        assert sorted(calls) == ["aav_complex_weak_value", "coupling_moment"]

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("a, f", [
        # sx, e1 -> e2: the weak value is undefined, the projective
        # conditional is not
        (SX, [0, 1]),
        # |<f, s>|^2 ~ 1e-22, below the floor: both are undefined
        (SZ, [1e-11, 1.0])])
    def test_undefined_weak_value_is_reported(self, a, f, grid):
        meter = (gaussian_grid_meter(GridSpec(256, 12.0), 3.0) if grid
                 else qubit_meter(3.0))
        setup = WeakSetup(Observable(a), E1, StateVector(f), meter)
        rep = weak_value_report(eps_sweep(setup))
        assert (rep.numeric, rep.numeric_error, rep.closed_form,
                rep.traditional, rep.aav_complex) == (None,) * 5
        try:
            want = projective_conditional_expectation(setup.A, setup.s,
                                                      setup.f)
        except EmptyPostselectionError:
            want = None
        assert rep.projective_conditional == want
        assert rep.coupling_moment == coupling_moment(meter)

    def test_other_errors_propagate(self):
        with pytest.raises(ValueError, match="at least two eps values"):
            weak_value_report(sweep(canonical_setup(1.0), 1e-2))


class TestEpsSweep:
    """The record against the single-eps formulas in tests/reference.py,
    which prepare a fresh coupled state per eps; they must agree to the
    bit."""

    def check_against_reference(self, setup, sched):
        record = eps_sweep(setup, sched)
        assert isinstance(record, EpsSweep)
        assert record.eps_values == sched.eps_values
        conditional = record.conditional_expectations()
        kicks = disturbance(record)
        for i, eps in enumerate(sched.eps_values):
            assert record.readings[i] == reference.meter_reading(setup, eps)
            assert conditional[i] == reference.conditional_expectation(
                setup, eps)
            assert kicks[i] == reference.disturbance(setup, eps)
        samples = [c / e for c, e in zip(conditional, sched.eps_values)]
        assert weak_value_extrapolation(record) == richardson_limit(
            sched.eps_values, samples)

    def test_matches_single_eps_formulas_on_qubit(self):
        rng = np.random.default_rng(161)
        for _ in range(5):
            setup = random_setup(rng, int(rng.integers(2, 6)),
                                 rho=rng.uniform(-50, 50))
            self.check_against_reference(setup, EpsSchedule.default())

    def test_matches_single_eps_formulas_on_grid(self):
        rng = np.random.default_rng(162)
        grid = GridSpec(256, 12.0)
        for rho in (-20.0, 3.0):
            setup = WeakSetup(random_hermitian(rng, 2), random_state(rng, 2),
                              random_state(rng, 2),
                              gaussian_grid_meter(grid, rho))
            self.check_against_reference(setup, EpsSchedule.default())

    def test_one_coupled_state_per_eps(self, monkeypatch):
        import weakmeas.protocol as protocol
        calls = []
        real = protocol.coupled_state

        def counting(setup, eps):
            calls.append(eps)
            return real(setup, eps)

        monkeypatch.setattr(protocol, "coupled_state", counting)
        record = eps_sweep(canonical_setup(50.0))
        weak_value_report(record)
        unconditional_limit(record)
        disturbance(record)
        assert calls == list(DEFAULT_EPS)

    def test_undefined_and_empty_postselection_do_not_raise(self):
        for f in (StateVector([0, 1]), StateVector([1e-11, 1.0])):
            record = eps_sweep(WeakSetup(Observable(SZ), E1, f,
                                         qubit_meter(0.0)))
            assert all(p < 1e-20 for p in record.probabilities)
            assert unconditional_limit(record) == pytest.approx(1.0,
                                                                abs=1e-6)


@st.composite
def random_setups(draw, kinds=("qubit", "grid")):
    """A random Hermitian A (dimension 2-8 on the qubit meter, 2 on the
    default grid), random s and f, and rho in [-50, 50]."""
    kind = draw(st.sampled_from(kinds))
    dim = 2 if kind == "grid" else draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = draw(st.floats(-50.0, 50.0))
    meter = (gaussian_grid_meter(GridSpec.default(), rho) if kind == "grid"
             else qubit_meter(rho))
    return WeakSetup(random_hermitian(rng, dim), random_state(rng, dim),
                     random_state(rng, dim), meter)


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)


class TestPaperClaims:
    """The abstract's quantified claims, on random inputs and both
    meters."""

    @PROPERTY
    @given(random_setups(), st.sampled_from([1.0, 0.5, 2.0, -1.0]))
    def test_unconditional_limit_is_meter_independent(self, setup, c):
        target = expectation(setup.A, setup.s)
        if isinstance(setup.meter, MeterSpec):
            # a qubit meter whose readout is scaled by c has gain c
            m = setup.meter
            setup = replace(setup, meter=MeterSpec(
                m.m, Observable(c * m.B.entries), m.G))
            target *= c
        limit = unconditional_limit(eps_sweep(setup))
        assert abs(limit - target) <= LIMIT_RTOL * max(1.0, abs(target))

    @PROPERTY
    @given(random_setups())
    def test_disturbance_falls_off_quadratically(self, setup):
        kicks = disturbance(sweep(setup, 1e-3, 5e-4, 2.5e-4))
        assume(kicks[0] > 1e-12)
        for d, half in zip(kicks, kicks[1:]):
            assert 0.2 <= half / d <= 0.3

    @PROPERTY
    @given(random_setups(("qubit",)), st.integers(0, 2 ** 63 - 1))
    def test_projective_conditional_is_convex(self, setup, seed):
        a, s, f = setup.A, setup.s, setup.f
        spectrum = eig_hermitian(a).eigenvalues
        try:
            value = projective_conditional_expectation(a, s, f)
        except EmptyPostselectionError:
            return
        slack = 1e-10 * max(1.0, np.abs(spectrum).max())
        assert spectrum[0] - slack <= value <= spectrum[-1] + slack
        est = projective_A_oracle(a, s, f, 20_000, seed)
        if est.n_success >= 2 and est.std_error > 0:
            assert abs(est.mean - value) <= 5.0 * est.std_error
