import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmeas.hilbert import Observable, StateVector, eig_hermitian
from weakmeas.meters import GridSpec, gaussian_grid_meter, qubit_meter
from weakmeas.oracle import (
    EstimateWithError,
    MonteCarloRun,
    exact_outcome_distribution,
    monte_carlo_pair,
    monte_carlo_run,
    projective_A_oracle,
)
from weakmeas.oracle import (
    CHUNK_TRIALS,
    SCAN_MAX_BRANCHES,
    _branch_tables,
    _guide_table,
    _philox_generator,
    _pick_branch,
    _sample,
    _Tally,
)
from weakmeas.protocol import (
    EmptyPostselectionError,
    MeterSpec,
    OutcomeTable,
    WeakSetup,
    projective_conditional_expectation,
    projective_tables,
)

import reference
from reference import Outcome, conditional_expectation, evolve, sample_run

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
        assert all(p >= 0 for p in table.joint)
        assert table.total_success_prob <= 1 + 1e-10
        assert sum(table.marginal) == pytest.approx(1.0, abs=1e-12)
        for joint, marg in zip(table.joint, table.marginal):
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
            setup = WeakSetup(Observable(np.eye(2)), s, f, meter)
            means.append(exact_outcome_distribution(setup, eps).conditional_mean)
        assert means[0] == pytest.approx(means[1], abs=1e-12)
        # and both equal the evolved meter's reading
        m_eps = evolve(meter.G, eps, meter.m)
        want = np.vdot(m_eps, meter.B.entries @ m_eps).real
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
            meter = MeterSpec(m=random_state(rng, 4),
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
        b_index = {b: i for i, b in enumerate(run.table.values)}
        for trial in range(n):
            out = sample_run(setup, eps, _philox_generator(seed, trial))
            counts[b_index[out.b_value], 0 if out.postselected else 1] += 1
        np.testing.assert_array_equal(counts, run.counts)


class TestMonteCarlo:
    def test_within_four_sigma_of_exact(self):
        setup = canonical_setup(50.0)
        eps = 1e-2
        table = exact_outcome_distribution(setup, eps)
        est = monte_carlo_run(setup, eps, 100_000, seed=1234).estimate
        assert est.n_success != 0
        assert abs(est.mean - table.conditional_mean) <= 4 * est.std_error

    def test_single_trial_sentinel(self):
        setup = WeakSetup(Observable(SX), CIRC, CIRC, qubit_meter(0.0))
        est = monte_carlo_run(setup, 1e-2, 1, seed=77).estimate
        assert est.n_trials == 1
        assert est.n_success == 1
        assert math.isnan(est.std_error)
        assert not math.isnan(est.mean)

    def test_zero_successes_yield_empty_estimate(self):
        setup = WeakSetup(Observable(SZ), E1, E2, qubit_meter(0.0))
        est = monte_carlo_run(setup, 1e-2, 1000, seed=88).estimate
        assert est.n_success == 0
        assert math.isnan(est.mean)
        assert math.isnan(est.std_error)

    def test_error_shrinks_with_sample_size(self):
        setup = canonical_setup(0.0)
        small = monte_carlo_run(setup, 1e-2, 10_000, seed=99).estimate
        large = monte_carlo_run(setup, 1e-2, 160_000, seed=99).estimate
        # 16x the trials: standard error should drop about 4x
        assert small.std_error / large.std_error == pytest.approx(4.0,
                                                                  rel=0.25)

    def test_seed_recorded(self):
        est = monte_carlo_run(canonical_setup(0.0), 1e-2, 100,
                              seed=31337).estimate
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

    @pytest.mark.parametrize("grid", [False, True])
    def test_run_carries_the_exact_table(self, grid):
        meter = (gaussian_grid_meter(GridSpec(256, 12.0), 3.0) if grid
                 else qubit_meter(3.0))
        setup = WeakSetup(Observable(SX), CIRC, E1, meter)
        run = monte_carlo_run(setup, 1e-2, 1000, seed=8)
        table = exact_outcome_distribution(setup, 1e-2)
        assert type(run.table) is type(table) is OutcomeTable
        for got, want in zip(run.table, table):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert run.counts.shape == (len(table.values), 2)

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError,
                           match="outcome statistics require eps > 0"):
            monte_carlo_run(canonical_setup(1.0), 0.0, 10, 1)

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            monte_carlo_run(canonical_setup(1.0), 1e-2, 0, 1)

    @pytest.mark.parametrize("name, value", [
        ("seed", 7.9), ("seed", 7.0), ("seed", True), ("seed", "7"),
        ("trial_offset", True), ("trial_offset", 1.0),
        ("trial_offset", "1")])
    def test_seed_and_offset_must_be_integers(self, name, value):
        # Philox would truncate 7.9 to seed 7's stream and take True as 1
        with pytest.raises(ValueError) as exc:
            monte_carlo_run(canonical_setup(1.0), 1e-2, 1000,
                            **{"seed": 7, name: value})
        assert str(exc.value) == (f"{name} must be a nonnegative integer, "
                                  f"got {value!r}")

    def test_numpy_integers_draw_the_python_integer_stream(self):
        setup = canonical_setup(1.0)
        want = monte_carlo_run(setup, 1e-2, 1000, 7, trial_offset=3).counts
        for seed, offset in ((np.int64(7), np.int64(3)),
                             (np.uint64(7), np.uint32(3))):
            got = monte_carlo_run(setup, 1e-2, 1000, seed,
                                  trial_offset=offset).counts
            np.testing.assert_array_equal(got, want)

    def test_negative_trial_offset_rejected(self):
        # Philox.advance wraps a negative offset around the 256-bit
        # counter, which would silently draw from its far end
        with pytest.raises(ValueError, match="trial_offset"):
            monte_carlo_run(canonical_setup(1.0), 1e-2, 10, 1,
                            trial_offset=-1)
        with pytest.raises(ValueError, match="trial_offset"):
            projective_A_oracle(Observable(SX), CIRC, E1, 10, 1,
                                trial_offset=-1)

    def test_chi_square_against_exact_table(self):
        setup = canonical_setup(0.0)
        eps, n = 1e-2, 100_000
        table = exact_outcome_distribution(setup, eps)
        run = monte_carlo_run(setup, eps, n, seed=5150)
        probs = []
        for joint, marg in zip(table.joint, table.marginal):
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


# the chunk-edge tests' seed: the first trial after the chunk edges at
# CHUNK_TRIALS and RUN_TRIALS passes the postselection in the qubit and
# projective tables (test_seed_merges_one_hit_chunks)
SEED = 2735
RUN_TRIALS = 2 ** 18          # a multiple of CHUNK_TRIALS


def tie_table(n_edges):
    """A table whose cumulative marginals are the first trials' own
    u[:, 0] draws at SEED, so those trials land exactly on an edge.

    The draws are multiples of 2^-53 below 1, so every difference and
    partial sum is exact and the cumsum gives the edges back. Every third
    edge is repeated and the last is 1 twice: those branches have zero
    marginal, one of them last.
    """
    u0 = _philox_generator(SEED, 0).random((n_edges, 4))[:, 0]
    edges = np.sort(np.concatenate([u0, u0[::3], [1.0, 1.0]]))
    marginal = np.diff(edges, prepend=0.0)
    assert np.array_equal(np.cumsum(marginal), edges)
    return OutcomeTable(np.arange(edges.size, dtype=float), marginal,
                        marginal / 2)


def chunk_test_table(kind):
    """Tables on both sides of SCAN_MAX_BRANCHES: the qubit readout (2
    branches), a projective one (3), two with ties and zero-marginal
    branches (9 and 70), and the n = 1024 grid readout."""
    if kind == "qubit":
        return _branch_tables(canonical_setup(50.0), 1e-2)
    if kind == "grid":
        meter = gaussian_grid_meter(GridSpec(1024, 12.0), 3.0)
        return _branch_tables(WeakSetup(Observable(SX), CIRC, E1, meter),
                              1e-2)
    if kind.startswith("ties"):
        return tie_table(int(kind[4:]))
    rng = np.random.default_rng(331)
    return projective_tables(random_hermitian(rng, 3), random_state(rng, 3),
                             random_state(rng, 3))


KINDS = ["qubit", "projective", "ties5", "ties51", "grid"]


def pick_test_marginal(kind):
    """Marginals for the guide-table pick: K = 70 with ties and K = 1024
    from chunk_test_table, 64 branches of 1/64 whose edges sit on the
    left ends of the 256 guide cells, and runs of zero-marginal branches
    at the start, in the middle and at the end."""
    if kind == "on-cells":
        return np.full(64, 1 / 64)
    if kind == "zero-runs":
        mass = np.random.default_rng(17).uniform(0.1, 1.0, size=20)
        zeros = np.zeros(5)
        return np.concatenate([zeros, mass[:10], zeros, mass[10:], zeros])
    return chunk_test_table(kind).marginal


PICK_KINDS = ["ties51", "grid", "on-cells", "zero-runs"]


def edges_and_total(marginal):
    cum = np.cumsum(marginal)
    return cum[:-1], cum[-1]


def assert_same_run(got, want, n):
    """The chunked run has the reference's counts, the count estimator's
    bits on those counts, and the whole-array estimate to 1e-12."""
    assert got.counts.dtype == want.counts.dtype
    np.testing.assert_array_equal(got.counts, want.counts)
    from_counts = EstimateWithError.from_counts(
        want.table.values, want.counts[:, 0], n, want.estimate.seed)
    got, want = got.estimate, want.estimate
    assert got == from_counts
    assert got.n_success == want.n_success
    assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0)
    assert got.std_error == pytest.approx(want.std_error, rel=1e-12, abs=0)


class TestChunkedSampler:
    """The chunked sampler against the single-array reference on both
    sides of chunk edges: the first, and the last of a run of RUN_TRIALS.
    SEED makes the first trial after each of those edges pass the
    postselection in the qubit and projective tables, so a one-hit chunk
    is merged."""

    @pytest.mark.parametrize("kind", ["qubit", "projective"])
    def test_seed_merges_one_hit_chunks(self, kind):
        assert RUN_TRIALS % CHUNK_TRIALS == 0
        for first in (CHUNK_TRIALS, RUN_TRIALS):
            run, = _sample([chunk_test_table(kind)], 1, SEED, first)
            assert run.estimate.n_success == 1

    def test_kinds_straddle_the_scan_limit(self):
        sizes = [len(chunk_test_table(kind).values) for kind in KINDS]
        assert sizes == [2, 3, 9, 70, 1024]
        assert SCAN_MAX_BRANCHES in range(10, 70)
        # the first three are scanned, the last two use a guide table
        guided = [_guide_table(*edges_and_total(chunk_test_table(kind)
                                                .marginal)) is not None
                  for kind in KINDS]
        assert guided == [False, False, False, True, True]
        for kind in ("ties5", "ties51"):
            table = chunk_test_table(kind)
            assert (table.marginal == 0).sum() >= 2
            assert table.marginal[-1] == 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [CHUNK_TRIALS + 1, RUN_TRIALS - 1,
                                   RUN_TRIALS, RUN_TRIALS + 1,
                                   2 * RUN_TRIALS + 7])
    def test_matches_single_array_reference(self, kind, n):
        table = chunk_test_table(kind)
        got, = _sample([table], n, SEED, 0)
        assert_same_run(got, reference.sample_table(table, n, SEED), n)

    @pytest.mark.parametrize("kind", PICK_KINDS)
    def test_pick_matches_searchsorted(self, kind):
        # uniforms, 0, every edge and its predecessor, and total itself:
        # an x * scale that rounds up to nb must still find a cell
        edges, total = edges_and_total(pick_test_marginal(kind))
        guide = _guide_table(edges, total)
        assert guide is not None
        u = _philox_generator(5, 0).random(2 ** 14)
        x = np.concatenate([u * total, [0.0, total, np.nextafter(total, 0)],
                            edges, np.nextafter(edges, 0)])
        want = np.searchsorted(edges, x, side="right")
        np.testing.assert_array_equal(_pick_branch(edges, x, guide), want)
        # a wrong start, below or above the branch, costs time, never
        # the result
        for wrong in (0, edges.size):
            lost = guide._replace(start=np.full_like(guide.start, wrong))
            np.testing.assert_array_equal(_pick_branch(edges, x, lost), want)

    @pytest.mark.parametrize("n, offset", [(RUN_TRIALS, 0),
                                           (RUN_TRIALS + 1, 0),
                                           (1000, 12_345)])
    def test_shared_pass_matches_one_table_runs(self, n, offset):
        tables = [chunk_test_table(kind) for kind in KINDS]
        shared = _sample(tables, n, SEED, offset)
        assert len(shared) == len(tables)
        for table, got in zip(tables, shared):
            assert got.table is table
            alone, = _sample([table], n, SEED, offset)
            np.testing.assert_array_equal(got.counts, alone.counts)
            assert got.estimate == alone.estimate
            assert_same_run(got, reference.sample_table(table, n, SEED,
                                                        offset), n)

    def test_pair_matches_public_one_table_runs(self):
        setup = random_setup(np.random.default_rng(12), 4)
        eps, n, seed = 1e-1, 5000, 91
        meter, proj = monte_carlo_pair(setup, eps, n, seed, trial_offset=7)
        alone = monte_carlo_run(setup, eps, n, seed, trial_offset=7)
        np.testing.assert_array_equal(meter.counts, alone.counts)
        assert meter.estimate == alone.estimate
        assert proj.estimate == projective_A_oracle(
            setup.A, setup.s, setup.f, n, seed, trial_offset=7)

    def test_shards_split_inside_and_on_chunk_edges(self):
        # the middle shard spans a chunk edge of its own at 12_345 +
        # CHUNK_TRIALS; the last starts on an edge of the serial run
        setup = canonical_setup(50.0)
        eps, seed, n = 1e-2, 606, 2 * CHUNK_TRIALS + 7
        full = monte_carlo_run(setup, eps, n, seed)
        merged = np.zeros_like(full.counts)
        bounds = (0, 12_345, 2 * CHUNK_TRIALS, n)
        for lo, hi in zip(bounds, bounds[1:]):
            merged += monte_carlo_run(setup, eps, hi - lo, seed,
                                      trial_offset=lo).counts
        np.testing.assert_array_equal(merged, full.counts)
        assert EstimateWithError.from_counts(
            full.table.values, merged[:, 0], n, seed) == full.estimate


@st.composite
def scanned_tables(draw):
    """A table of 1 to SCAN_MAX_BRANCHES branches, so it is scanned. Some
    marginals are zero, at any place, so edges repeat; one marginal at
    least is not. Acceptance probabilities include exactly 0 and 1."""
    k = draw(st.integers(1, SCAN_MAX_BRANCHES))
    marginal = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k,
                                      max_size=k)))
    zero_at = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    marginal[list(zero_at)] = 0.0
    cond = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                         min_size=k, max_size=k))
    return OutcomeTable(np.arange(k, dtype=float), marginal,
                        marginal * np.array(cond))


class TestMaskTally:
    """Scanned tables count branches from nested masks x >= edge; the
    counts must be searchsorted's, trial by trial."""

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(scanned_tables(), scanned_tables(),
           st.builds(lambda m, d: max(m * CHUNK_TRIALS + d, 1),
                     st.integers(0, 2), st.integers(-3, 3)),
           st.integers(0, 10 ** 6), st.integers(0, 2 ** 20))
    def test_matches_reference_and_shared_pass(self, table, other, n, seed,
                                               offset):
        for t in (table, other):
            assert _guide_table(*edges_and_total(t.marginal)) is None
        alone = [_sample([t], n, seed, offset)[0] for t in (table, other)]
        np.testing.assert_array_equal(
            alone[0].counts,
            reference.sample_table(table, n, seed, offset).counts)
        shared = _sample([table, other], n, seed, offset)
        for got, want in zip(shared, alone):
            np.testing.assert_array_equal(got.counts, want.counts)

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(scanned_tables())
    def test_x_on_edges_and_at_total(self, table):
        # x on every edge and just below it, 0, and x = total itself,
        # which falls in the last branch; every other trial's acceptance
        # uniform equals its branch's acceptance probability, and fails
        edges, total = edges_and_total(table.marginal)
        u0 = np.concatenate([[0.0, 1.0], edges / total,
                             np.nextafter(edges / total, 0)])
        tally = _Tally(table)
        gi = np.searchsorted(edges, u0 * total, side="right")
        u1 = _philox_generator(3, 0).random(u0.size)
        u1[::2] = tally.cond[gi[::2]]
        tally.add(u0, u1)
        ok = u1 < tally.cond[gi]
        want = np.bincount(2 * gi + ~ok, minlength=2 * len(table.values))
        np.testing.assert_array_equal(tally.counts, want)


@st.composite
def sharded_counts(draw):
    """Distinct branch values, small per-branch success counts, and the
    counts split into one to four shards at random."""
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8,
                           unique=True))
    counts = draw(st.lists(st.integers(0, 20), min_size=len(values),
                           max_size=len(values)))
    n_shards = draw(st.integers(1, 4))
    shards = np.zeros((n_shards, len(values)), dtype=np.intp)
    for i, c in enumerate(counts):
        cuts = draw(st.lists(st.integers(0, c), min_size=n_shards - 1,
                             max_size=n_shards - 1))
        shards[:, i] = np.diff([0, *sorted(cuts), c])
    return np.array(values), np.array(counts, dtype=np.intp), shards


class TestEstimateFromCounts:
    @settings(derandomize=True, database=None, max_examples=300)
    @given(sharded_counts())
    def test_shards_and_whole_array(self, drawn):
        values, counts, shards = drawn
        serial = EstimateWithError.from_counts(values, counts, 99, 5)
        merged = EstimateWithError.from_counts(values, shards.sum(axis=0),
                                               99, 5)
        assert merged == serial
        assert type(serial.n_success) is int
        hits = np.repeat(values, counts)
        n = hits.size
        assert serial.n_success == n
        # 1e-12 relative, or of the values' scale where the mean or the
        # spread cancels (a lone branch repeated has a spread of zero)
        close = dict(rel=1e-12, abs=1e-12 * np.abs(values).max())
        if n == 0:
            assert math.isnan(serial.mean)
        else:
            assert serial.mean == pytest.approx(hits.mean(), **close)
        if n < 2:
            assert math.isnan(serial.std_error)
        else:
            want = hits.std(ddof=1) / math.sqrt(n)
            assert serial.std_error == pytest.approx(want, **close)


MIB = 2 ** 20


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """A single (n_trials, 4) block of uniforms would be 92 MiB at 3e6
    trials; the chunked sampler holds O(CHUNK_TRIALS) whatever n_trials."""

    def test_peak_below_2_mib_at_3e6_trials(self):
        setup = canonical_setup(50.0)
        assert traced_peak(monte_carlo_run, setup, 1e-2, 3_000_000, 1) \
            < 2 * MIB
        assert traced_peak(projective_A_oracle, Observable(SX), CIRC, E1,
                           3_000_000, 1) < 2 * MIB
        assert traced_peak(monte_carlo_pair, setup, 1e-2, 3_000_000, 1) \
            < 2 * MIB

    def test_peak_does_not_grow_with_trial_count(self):
        setup = canonical_setup(50.0)
        four, sixteen = (traced_peak(monte_carlo_run, setup, 1e-2,
                                     chunks * CHUNK_TRIALS, 1)
                         for chunks in (4, 16))
        assert sixteen <= four + MIB
