"""Ground-truth machinery for the measurement statistics.

Two independent roads to the same numbers: exact enumeration of the
joint (meter outcome, postselection) distribution, and a seeded Monte
Carlo sampler that simulates the physical procedure event by event.
A third oracle samples an ordinary projective measurement of the system
observable, which is the thing weak values are so often confused with.

Reproducibility contract: trials are numbered, and trial i draws its
uniforms from the i-th counter block of a Philox stream keyed by the
seed (one block is four doubles; a trial consumes the first two). A run
sharded as [0, k) + [k, n) therefore reproduces the serial run [0, n)
bit for bit, for any split points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Observable, StateVector
from .protocol import (
    EMPTY_PROB,
    EmptyPostselectionError,
    WeakSetup,
    coupled_state,
    projective_tables,
)


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Exact joint distribution over (meter eigenvalue, success).

    ``entries`` pairs each eigenvalue of B with the probability of
    reading it AND postselecting successfully; ``branch_probs`` carries
    the unconditional probability of each eigenvalue, so failure cells
    are branch_probs[i] - entries[i][1].
    """

    entries: tuple                # of (b_eigenvalue, joint_prob_success)
    branch_probs: tuple
    total_success_prob: float
    conditional_mean: float


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
    """Aggregated counts of a sampling run.

    ``counts[i]`` is (successes, failures) for the i-th eigenvalue in
    ``b_values``. Runs over disjoint trial ranges with the same seed can
    be merged by adding counts.
    """

    b_values: tuple
    counts: np.ndarray            # shape (len(b_values), 2)
    estimate: EstimateWithError


def _branch_tables(setup: WeakSetup, eps: float):
    """Per-eigenspace tables: eigenvalue, marginal prob, joint success prob.

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
    return values, marginal, joint


def exact_outcome_distribution(setup: WeakSetup, eps: float) -> OutcomeTable:
    """Enumerate the joint (eigenvalue, success) distribution exactly.

    The meter readout and the postselection commute, so the joint
    probability of eigenspace Q and success is |(P_f (x) P_Q) r|^2.
    """
    b_vals, marginal, joint = _branch_tables(setup, eps)
    total = float(joint.sum())
    if total <= EMPTY_PROB:
        raise EmptyPostselectionError(
            f"total success probability {total:.3e} is numerically zero"
        )
    mean = float((b_vals * joint).sum() / total)
    return OutcomeTable(
        entries=tuple((float(b), float(p)) for b, p in zip(b_vals, joint)),
        branch_probs=tuple(float(p) for p in marginal),
        total_success_prob=total,
        conditional_mean=mean,
    )


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


def _two_stage_counts(b_vals, marginal, joint, n_trials, seed, trial_offset):
    """Vectorized two-stage sampling; returns the (successes, failures)
    count matrix and the array of successful eigenvalues."""
    rng = _philox_generator(seed, trial_offset)
    u = rng.random((n_trials, 4))
    cum = np.cumsum(marginal)
    gi = np.searchsorted(cum, u[:, 0] * cum[-1], side="right")
    np.clip(gi, 0, len(b_vals) - 1, out=gi)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(marginal > 0, joint / np.maximum(marginal, 1e-300), 0.0)
    ok = u[:, 1] < cond[gi]
    # cell 2 * gi holds the successes of branch gi, the next its failures
    counts = np.bincount(2 * gi + ~ok, minlength=2 * len(b_vals))
    return counts.reshape(-1, 2), b_vals[gi[ok]]


def _estimate(values: np.ndarray, n_trials: int, seed: int) -> EstimateWithError:
    n = values.size
    if n == 0:
        return EstimateWithError(math.nan, math.nan, 0, n_trials, seed)
    mean = float(values.mean())
    if n == 1:
        return EstimateWithError(mean, math.nan, 1, n_trials, seed)
    err = float(values.std(ddof=1) / math.sqrt(n))
    return EstimateWithError(mean, err, n, n_trials, seed)


def monte_carlo_run(setup: WeakSetup, eps: float, n_trials: int, seed: int,
                    trial_offset: int = 0) -> MonteCarloRun:
    """Run n_trials numbered trials and aggregate the outcome counts.

    ``trial_offset`` names the first trial, so shards of one logical run
    reproduce the serial result exactly when their counts are merged.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    b_vals, marginal, joint = _branch_tables(setup, eps)
    counts, successes = _two_stage_counts(
        b_vals, marginal, joint, n_trials, seed, trial_offset)
    return MonteCarloRun(
        b_values=tuple(float(b) for b in b_vals),
        counts=counts,
        estimate=_estimate(successes, n_trials, seed),
    )


def projective_A_oracle(a: Observable, s: StateVector, f: StateVector,
                        n_trials: int, seed: int,
                        trial_offset: int = 0) -> EstimateWithError:
    """Sample an ordinary projective measurement of A with postselection.

    Collapse s onto an eigenspace of A with Born probability, then accept
    with the collapsed state's overlap probability on f. The accepted
    eigenvalues average to the projective conditional expectation, which
    stays inside A's spectrum no matter how the weak values misbehave.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    _, successes = _two_stage_counts(
        *projective_tables(a, s, f), n_trials, seed, trial_offset)
    return _estimate(successes, n_trials, seed)
