import math

import numpy as np
import pytest
import scipy.stats

from weakmeas.hilbert import Observable, StateVector, eig_hermitian, evolve
from weakmeas.meters import qubit_meter
from weakmeas.oracle import (
    EstimateWithError,
    MonteCarloRun,
    Outcome,
    exact_outcome_distribution,
    monte_carlo_conditional_mean,
    monte_carlo_run,
    projective_A_oracle,
    sample_run,
)
from weakmeas.oracle import _branch_tables, _philox_generator
from weakmeas.protocol import (
    EmptyPostselectionError,
    MeterSpec,
    WeakSetup,
    conditional_expectation,
    projective_conditional_expectation,
    projective_tables,
)

import reference

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

E1 = StateVector([1, 0])
E2 = StateVector([0, 1])
CIRC = StateVector([1, 1j])


def canonical_setup(rho):
    return WeakSetup(Observable(SX), CIRC, E1, qubit_meter(rho))


def random_state(rng, n):
    return StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Observable((m + m.conj().T) / 2)


def random_setup(rng, dim):
    return WeakSetup(random_hermitian(rng, dim), random_state(rng, dim),
                     random_state(rng, dim), qubit_meter(rng.uniform(-5, 5)))


class TestExactDistribution:
    def test_probabilities_well_formed(self):
        table = exact_outcome_distribution(canonical_setup(50.0), 1e-2)
        assert all(p >= 0 for _, p in table.entries)
        assert table.total_success_prob <= 1 + 1e-10
        assert sum(table.branch_probs) == pytest.approx(1.0, abs=1e-12)
        for (_, joint), marg in zip(table.entries, table.branch_probs):
            assert joint <= marg + 1e-15

    def test_conditional_mean_matches_second_code_path(self):
        rng = np.random.default_rng(301)
        for _ in range(20):
            setup = random_setup(rng, int(rng.integers(2, 5)))
            eps = rng.uniform(1e-3, 1e-1)
            table = exact_outcome_distribution(setup, eps)
            want = conditional_expectation(setup, eps)
            assert abs(table.conditional_mean - want) <= 1e-12

    def test_success_prob_tends_to_overlap(self):
        setup = canonical_setup(0.0)
        table = exact_outcome_distribution(setup, 1e-8)
        overlap = abs(np.vdot(setup.f.amps, setup.s.amps)) ** 2
        assert table.total_success_prob == pytest.approx(overlap, abs=1e-8)

    def test_identity_system_ignores_postselection(self):
        rng = np.random.default_rng(302)
        meter = qubit_meter(1.5)
        s = random_state(rng, 2)
        eps = 0.2
        means = []
        for f in (random_state(rng, 2), random_state(rng, 2)):
            setup = WeakSetup(Observable.identity(2), s, f, meter)
            means.append(exact_outcome_distribution(setup, eps).conditional_mean)
        assert means[0] == pytest.approx(means[1], abs=1e-12)
        # and both equal the evolved meter's reading
        m_eps = evolve(meter.G, eps, meter.m)
        want = np.vdot(m_eps.amps, meter.B.entries @ m_eps.amps).real
        assert means[0] == pytest.approx(want, abs=1e-12)

    def test_zero_success_probability_rejected(self):
        # eigenstate preselection never leaks into an orthogonal f
        setup = WeakSetup(Observable(SZ), E1, E2, qubit_meter(0.0))
        with pytest.raises(EmptyPostselectionError):
            exact_outcome_distribution(setup, 1e-2)


def degenerate_observable(rng, spectrum):
    n = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Observable(q @ np.diag(spectrum) @ q.conj().T)


class TestBranchTables:
    """Group sums against the eigenspace-by-eigenspace loop; they add the
    same terms in another order, so they agree to a few ulps."""

    def test_degenerate_meter_readout(self):
        rng = np.random.default_rng(321)
        for _ in range(5):
            meter = MeterSpec(dim_m=4, m=random_state(rng, 4),
                              B=degenerate_observable(rng, [-1, -1, 2, 2]),
                              G=random_hermitian(rng, 4))
            setup = WeakSetup(random_hermitian(rng, 3), random_state(rng, 3),
                              random_state(rng, 3), meter)
            got = _branch_tables(setup, 0.05)
            want = reference.branch_tables(setup, 0.05)
            assert len(got[0]) == 2
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)

    def test_degenerate_projective_measurement(self):
        rng = np.random.default_rng(322)
        for _ in range(5):
            a = degenerate_observable(rng, [2.0, 2.0, 5.0, 7.0, 7.0])
            s, f = random_state(rng, 5), random_state(rng, 5)
            got = projective_tables(a, s, f)
            want = reference.projective_tables(a, s, f)
            assert len(got[0]) == 3
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)


class TestSampleRun:
    def test_deterministic_given_seed(self):
        setup = canonical_setup(0.0)
        runs = []
        for _ in range(2):
            rng = _philox_generator(424242, 0)
            runs.append([sample_run(setup, 1e-2, rng) for _ in range(20)])
        assert runs[0] == runs[1]

    def test_outcomes_in_spectrum(self):
        setup = canonical_setup(3.0)
        spectrum = eig_hermitian(setup.meter.B).eigenvalues
        rng = _philox_generator(5, 0)
        for _ in range(50):
            out = sample_run(setup, 1e-2, rng)
            assert isinstance(out, Outcome)
            assert any(abs(out.b_value - b) < 1e-9 for b in spectrum)

    def test_success_rate_at_tiny_eps(self):
        setup = canonical_setup(0.0)
        rng = _philox_generator(6, 0)
        n = 2000
        hits = sum(sample_run(setup, 1e-8, rng).postselected
                   for _ in range(n))
        overlap = abs(np.vdot(setup.f.amps, setup.s.amps)) ** 2
        sigma = math.sqrt(overlap * (1 - overlap) / n)
        assert abs(hits / n - overlap) <= 4 * sigma

    def test_trial_blocks_match_vectorized_sampler(self):
        # trial i of the vectorized run and a lone sample_run on the i-th
        # counter block must see the same uniforms
        setup = canonical_setup(2.0)
        eps, seed, n = 1e-2, 909, 64
        run = monte_carlo_run(setup, eps, n, seed)
        counts = np.zeros_like(run.counts)
        b_index = {b: i for i, b in enumerate(run.b_values)}
        for trial in range(n):
            out = sample_run(setup, eps, _philox_generator(seed, trial))
            counts[b_index[out.b_value], 0 if out.postselected else 1] += 1
        np.testing.assert_array_equal(counts, run.counts)


class TestMonteCarlo:
    def test_within_four_sigma_of_exact(self):
        setup = canonical_setup(50.0)
        eps = 1e-2
        table = exact_outcome_distribution(setup, eps)
        est = monte_carlo_conditional_mean(setup, eps, 100_000, seed=1234)
        assert not est.is_empty
        assert abs(est.mean - table.conditional_mean) <= 4 * est.std_error

    def test_single_trial_sentinel(self):
        setup = WeakSetup(Observable(SX), CIRC, CIRC, qubit_meter(0.0))
        est = monte_carlo_conditional_mean(setup, 1e-2, 1, seed=77)
        assert est.n_trials == 1
        assert est.n_success == 1
        assert math.isnan(est.std_error)
        assert not math.isnan(est.mean)

    def test_zero_successes_yield_empty_estimate(self):
        setup = WeakSetup(Observable(SZ), E1, E2, qubit_meter(0.0))
        est = monte_carlo_conditional_mean(setup, 1e-2, 1000, seed=88)
        assert est.is_empty
        assert est.n_success == 0
        assert math.isnan(est.mean)
        assert math.isnan(est.std_error)

    def test_error_shrinks_with_sample_size(self):
        setup = canonical_setup(0.0)
        small = monte_carlo_conditional_mean(setup, 1e-2, 10_000, seed=99)
        large = monte_carlo_conditional_mean(setup, 1e-2, 160_000, seed=99)
        # 16x the trials: standard error should drop about 4x
        assert small.std_error / large.std_error == pytest.approx(4.0,
                                                                  rel=0.25)

    def test_seed_recorded(self):
        est = monte_carlo_conditional_mean(canonical_setup(0.0), 1e-2, 100,
                                           seed=31337)
        assert est.seed == 31337
        assert est.n_trials == 100

    def test_shards_reproduce_serial_run(self):
        setup = canonical_setup(1.0)
        eps, seed, n = 1e-2, 2024, 1000
        full = monte_carlo_run(setup, eps, n, seed)
        merged = np.zeros_like(full.counts)
        for start, count in ((0, 350), (350, 450), (800, 200)):
            shard = monte_carlo_run(setup, eps, count, seed,
                                    trial_offset=start)
            merged += shard.counts
        np.testing.assert_array_equal(merged, full.counts)
        assert full.counts.sum() == n

    def test_chi_square_against_exact_table(self):
        setup = canonical_setup(0.0)
        eps, n = 1e-2, 100_000
        table = exact_outcome_distribution(setup, eps)
        run = monte_carlo_run(setup, eps, n, seed=5150)
        probs = []
        for (_, joint), marg in zip(table.entries, table.branch_probs):
            probs.extend([joint, marg - joint])
        observed = run.counts.reshape(-1)
        expected = n * np.asarray(probs)
        keep = expected > 0
        stat = float(((observed[keep] - expected[keep]) ** 2
                      / expected[keep]).sum())
        pvalue = scipy.stats.chi2.sf(stat, df=int(keep.sum()) - 1)
        assert pvalue > 1e-4


class TestProjectiveOracle:
    def test_eigenvector_postselection_pins_value(self):
        rng = np.random.default_rng(311)
        a = random_hermitian(rng, 3)
        dec = eig_hermitian(a)
        s = random_state(rng, 3)
        f = StateVector(dec.eigenvectors[:, 2])
        est = projective_A_oracle(a, s, f, 5000, seed=404)
        assert est.n_success > 0
        assert est.mean == pytest.approx(dec.eigenvalues[2], abs=1e-9)

    def test_canonical_mean_is_zero(self):
        est = projective_A_oracle(Observable(SX), CIRC, E1, 1_000_000,
                                  seed=2718)
        assert abs(est.mean) <= 4 * est.std_error

    def test_estimate_stays_in_spectrum(self):
        rng = np.random.default_rng(312)
        a = random_hermitian(rng, 4)
        dec = eig_hermitian(a)
        est = projective_A_oracle(a, random_state(rng, 4),
                                  random_state(rng, 4), 20_000, seed=13)
        assert dec.eigenvalues[0] - 1e-12 <= est.mean
        assert est.mean <= dec.eigenvalues[-1] + 1e-12

    def test_converges_to_analytic_conditional(self):
        rng = np.random.default_rng(313)
        a = random_hermitian(rng, 3)
        s, f = random_state(rng, 3), random_state(rng, 3)
        want = projective_conditional_expectation(a, s, f)
        est = projective_A_oracle(a, s, f, 200_000, seed=161803)
        assert abs(est.mean - want) <= 4 * est.std_error

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(314)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        a = Observable(q @ np.diag([2.0, 2.0, 5.0]) @ q.conj().T)
        s, f = random_state(rng, 3), random_state(rng, 3)
        want = projective_conditional_expectation(a, s, f)
        est = projective_A_oracle(a, s, f, 200_000, seed=271828)
        assert abs(est.mean - want) <= 4 * est.std_error

    def test_shard_offsets(self):
        a = Observable(SX)
        full = projective_A_oracle(a, CIRC, E1, 400, seed=55)
        parts = [projective_A_oracle(a, CIRC, E1, 200, seed=55),
                 projective_A_oracle(a, CIRC, E1, 200, seed=55,
                                     trial_offset=200)]
        assert full.n_success == sum(p.n_success for p in parts)
