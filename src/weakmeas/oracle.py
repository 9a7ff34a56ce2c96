"""Ground-truth machinery for the measurement statistics.

Both measurements the paper contrasts, the weak meter readout of B and
an ordinary projective measurement of the system observable A, are
followed by the postselection on f, and both are described by one
:class:`OutcomeTable`: exact enumeration yields it, and one seeded
two-stage sampler draws numbered trials from it. A sampling run carries
the table it sampled.

Reproducibility contract: trials are numbered, and trial i draws its
uniforms from the i-th counter block of a Philox stream keyed by the
seed (one block is four doubles; a trial consumes the first two). A run
sharded as [0, k) + [k, n) therefore reproduces the serial run [0, n)
bit for bit, for any split points. Trials are drawn CHUNK_TRIALS at a
time from that stream, so memory is O(CHUNK_TRIALS) for any trial count,
and a run of at most 2^18 trials keeps the estimate bits of one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Observable, StateVector
from .protocol import OutcomeTable, WeakSetup, coupled_state, projective_tables

CHUNK_TRIALS = 2 ** 18        # trials per pass: 8 MiB of uniforms


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate with its standard error.

    ``mean`` is NaN when no trial survived postselection and
    ``std_error`` is NaN when fewer than two did; both sentinels keep
    rare-postselection runs representable without special-casing callers.
    """

    mean: float
    std_error: float
    n_success: int
    n_trials: int
    seed: int

    @property
    def is_empty(self) -> bool:
        return self.n_success == 0


@dataclass(frozen=True, eq=False)
class MonteCarloRun:
    """Aggregated counts of a sampling run of ``table``.

    ``counts[i]`` is (successes, failures) for the i-th eigenspace of the
    table. Runs over disjoint trial ranges with the same seed can be
    merged by adding counts.
    """

    table: OutcomeTable
    counts: np.ndarray            # shape (len(table.values), 2)
    estimate: EstimateWithError


def _branch_tables(setup: WeakSetup, eps: float) -> OutcomeTable:
    """The outcome table of the meter readout of r(eps).

    Column j of C holds the branch amplitudes of r(eps) along B's j-th
    eigenvector, one per system index, and f^dagger C their postselected
    components; each probability is a group sum of squared moduli.
    """
    if eps <= 0:
        raise ValueError("outcome statistics require eps > 0")
    values, c, group_sum = setup.meter.readout(coupled_state(setup, eps))
    w = setup.f.amps.conj() @ c
    marginal = group_sum((np.abs(c) ** 2).sum(axis=0))
    joint = group_sum(np.abs(w) ** 2)
    return OutcomeTable(values, marginal, joint)


def exact_outcome_distribution(setup: WeakSetup, eps: float) -> OutcomeTable:
    """Enumerate the joint (eigenvalue, success) distribution exactly.

    The meter readout and the postselection commute, so the joint
    probability of eigenspace Q and success is |(P_f (x) P_Q) r|^2.
    Raises EmptyPostselectionError when the postselection is empty.
    """
    table = _branch_tables(setup, eps)
    table.conditional_mean        # raises on an empty postselection
    return table


def _philox_generator(seed: int, trial_offset: int) -> np.random.Generator:
    # advance() takes the offset modulo 2^256, so a negative one would
    # silently draw from the far end of the counter space
    if trial_offset < 0:
        raise ValueError(f"trial_offset must be nonnegative, "
                         f"got {trial_offset}")
    bits = np.random.Philox(key=seed)
    if trial_offset:
        bits.advance(trial_offset)
    return np.random.Generator(bits)


def _sample(table: OutcomeTable, n_trials: int, seed: int,
            trial_offset: int) -> MonteCarloRun:
    """Draw numbered trials from a table, CHUNK_TRIALS at a time: each
    trial picks an eigenspace with its Born probability, then passes the
    postselection with the conditional probability joint / marginal."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    values, marginal, joint = table
    rng = _philox_generator(seed, trial_offset)
    cum = np.cumsum(marginal)
    cond = np.where(marginal > 0, joint / np.maximum(marginal, 1e-300), 0.0)
    buf = np.empty((min(CHUNK_TRIALS, n_trials), 4))
    counts, n, mean, m2 = 0, 0, math.nan, 0.0
    for start in range(0, n_trials, CHUNK_TRIALS):
        u = rng.random(out=buf[:min(CHUNK_TRIALS, n_trials - start)])
        gi = np.searchsorted(cum, u[:, 0] * cum[-1], side="right")
        np.clip(gi, 0, len(values) - 1, out=gi)
        ok = u[:, 1] < cond[gi]
        # cell 2 * gi holds the successes of branch gi, the next its failures
        counts += np.bincount(2 * gi + ~ok, minlength=2 * len(values))
        hits = values[gi[ok]]
        k = hits.size
        if k:
            # hits.mean() and hits.var(ddof=1) per chunk; Chan et al. merge
            mean_k = float(hits.sum() / k)
            m2_k = float(((hits - mean_k) ** 2).sum())
            if n:
                m2_k += (mean_k - mean) ** 2 * n * k / (n + k)
                mean_k = mean + (mean_k - mean) * k / (n + k)
            n, mean, m2 = n + k, mean_k, m2 + m2_k
    err = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
    return MonteCarloRun(table, counts.reshape(-1, 2),
                         EstimateWithError(mean, err, n, n_trials, seed))


def monte_carlo_run(setup: WeakSetup, eps: float, n_trials: int, seed: int,
                    trial_offset: int = 0) -> MonteCarloRun:
    """Run n_trials numbered trials of the meter readout at eps.

    ``trial_offset`` names the first trial, so shards of one logical run
    reproduce the serial result exactly when their counts are merged.
    """
    return _sample(_branch_tables(setup, eps), n_trials, seed, trial_offset)


def projective_A_oracle(a: Observable, s: StateVector, f: StateVector,
                        n_trials: int, seed: int,
                        trial_offset: int = 0) -> EstimateWithError:
    """Sample an ordinary projective measurement of A with postselection.

    Collapse s onto an eigenspace of A with Born probability, then accept
    with the collapsed state's overlap probability on f. The accepted
    eigenvalues average to the projective conditional expectation, which
    stays inside A's spectrum no matter how the weak values misbehave.
    """
    return _sample(projective_tables(a, s, f), n_trials, seed,
                   trial_offset).estimate
