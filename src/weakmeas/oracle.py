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
bit for bit, for any split points: the shards' counts add up to the
serial counts, and an estimate is a function of those counts alone.
Trials are drawn CHUNK_TRIALS at a time, a block that fits a typical L2
cache, so memory is O(CHUNK_TRIALS) for any trial count. One pass may
sample several tables: each reads the same uniforms, so each run equals
its one-table run on the same seed and offset bit for bit, and runs of
one pass use common random numbers and are correlated
(``monte_carlo_pair``, which ``compare`` uses, is such a pass).

A trial's branch is the number of cumulative marginals at or below its
scaled uniform. Up to SCAN_MAX_BRANCHES branches no trial's branch is
stored: the masks "at or above edge j" nest, so each branch's successes
and failures are differences of mask counts. Larger tables start each
uniform at a guide table's entry for its cell of [0, total) (Chen &
Asau's indexed search; Devroye, *Non-Uniform Random Variate Generation*,
1986, §III.2.4). A check against the start's own branch bounds marks the
few starts that are wrong, and those are found again by binary search.
Both ways give the counts ``searchsorted(edges, x, "right")`` does, so
the table size never changes a run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import Observable, StateVector
from .protocol import OutcomeTable, WeakSetup, coupled_state, projective_tables

CHUNK_TRIALS = 2 ** 14        # trials per pass: 512 KiB of uniforms
SCAN_MAX_BRANCHES = 12        # larger tables pick branches by guide table


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate and standard error, from a run's counts alone.

    ``mean`` is NaN when no trial survived postselection and
    ``std_error`` is NaN when fewer than two did; both sentinels keep
    rare-postselection runs representable without special-casing callers.
    """

    mean: float
    std_error: float
    n_success: int
    n_trials: int
    seed: int

    @classmethod
    def from_counts(cls, values: np.ndarray, successes: np.ndarray,
                    n_trials: int, seed: int) -> EstimateWithError:
        """The estimate of a run in which successes[i] trials read
        values[i]: with c = successes and v = values, n = sum c, mean =
        sum v c / n, M2 = sum c (v - mean)^2 and std_error =
        sqrt(M2 / (n - 1)) / sqrt(n). Shards whose counts add up to a run's
        therefore give its estimate bit for bit."""
        n = int(successes.sum())
        # values near the float limit overflow to inf or NaN: empty cells
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float((values * successes).sum() / n) if n else math.nan
            m2 = float((successes * (values - mean) ** 2).sum())
        err = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
        return cls(mean, err, n, n_trials, seed)


@dataclass(frozen=True, eq=False)
class MonteCarloRun:
    """Aggregated counts of a sampling run of ``table``.

    ``counts[i]`` is (successes, failures) for the i-th eigenspace of the
    table. Runs over disjoint trial ranges with the same seed merge by
    adding counts, whose successes give the serial ``estimate`` exactly.
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
    # Philox truncates a float and takes a bool as 0 or 1, and advance()
    # takes the offset modulo 2^256: each would draw another run's trials
    for name, x in (("seed", seed), ("trial_offset", trial_offset)):
        if type(x) is bool or not isinstance(x, numbers.Integral) or x < 0:
            raise ValueError(f"{name} must be a nonnegative integer, "
                             f"got {x!r}")
    # advance() overflows on a numpy integer, so both go in as Python ints
    bits = np.random.Philox(key=int(seed))
    if trial_offset:
        bits.advance(int(trial_offset))
    return np.random.Generator(bits)


class _Tally:
    """One table's share of a sampling pass: its per-branch counts."""

    def __init__(self, table: OutcomeTable):
        values, marginal, joint = table
        cum = np.cumsum(marginal)
        self.table, self.total, self.edges = table, cum[-1], cum[:-1]
        self.guide = _guide_table(self.edges, self.total)
        self.cond = np.where(marginal > 0,
                             joint / np.maximum(marginal, 1e-300), 0.0)
        self.counts = np.zeros(2 * len(values), dtype=np.intp)

    def add(self, u0: np.ndarray, u1: np.ndarray) -> None:
        """Tally a chunk: branch uniforms u0, acceptance uniforms u1."""
        x = u0 * self.total
        if self.guide is None:
            # masks x >= edge nest: branch j is the trials at or above its
            # lower edge (all for j = 0) less those at or above its upper one
            lower, n_lower = None, x.size
            for j, cond in enumerate(self.cond):
                ok = u1 < cond
                hits = np.count_nonzero(ok if lower is None else lower & ok)
                upper, n_upper = None, 0
                if j < self.edges.size:
                    upper = x >= self.edges[j]
                    n_upper = np.count_nonzero(upper)
                    hits -= np.count_nonzero(upper & ok)
                self.counts[2 * j:2 * j + 2] += hits, n_lower - n_upper - hits
                lower, n_lower = upper, n_upper
        else:
            gi = _pick_branch(self.edges, x, self.guide)
            # cell 2 * gi holds branch gi's successes, the next its failures
            cell = 2 * gi + (u1 >= self.cond[gi])
            self.counts += np.bincount(cell, minlength=self.counts.size)

    def run(self, n_trials: int, seed: int) -> MonteCarloRun:
        counts = self.counts.reshape(-1, 2)
        return MonteCarloRun(self.table, counts, EstimateWithError.from_counts(
            self.table.values, counts[:, 0], n_trials, seed))


class _Guide(NamedTuple):
    """A guide table over [0, total): ``nb`` equal cells, the branch each
    cell's left end falls in, and each branch's bounds."""

    scale: float           # nb / total: cells per unit of x
    start: np.ndarray      # nb + 1 entries; x = total lands in the last
    lo: np.ndarray         # [-inf, *edges]
    hi: np.ndarray         # [*edges, inf]


def _guide_table(edges: np.ndarray, total: float) -> _Guide | None:
    """The guide table of a table with more than SCAN_MAX_BRANCHES
    branches, or None for a table small enough to scan. nb is the
    smallest power of two at least four times the branch count."""
    if edges.size < SCAN_MAX_BRANCHES:
        return None
    nb = 1 << (4 * (edges.size + 1) - 1).bit_length()
    left = np.arange(nb + 1) * (total / nb)
    inf = np.array([np.inf])
    return _Guide(nb / total, np.searchsorted(edges, left, side="right"),
                  np.concatenate((-inf, edges)), np.concatenate((edges, inf)))


def _pick_branch(edges: np.ndarray, x: np.ndarray,
                 guide: _Guide) -> np.ndarray:
    """The branch each x in [0, total] falls in: the number of edges (the
    cumulative marginals but the last) at or below it, which is what
    searchsorted(edges, x, "right") gives.

    Each x starts at its cell's entry, and the start is kept where
    lo <= x < hi holds for its branch; only one branch passes, even across
    repeated edges of zero-mass branches. The rest (about 2% on the
    n = 1024 grid) are found by searchsorted. There is no correction loop,
    so the work is bounded whatever the rounding of x * scale.
    """
    gi = guide.start[(x * guide.scale).astype(np.intp)]
    miss = np.flatnonzero((x < guide.lo[gi]) | (x >= guide.hi[gi]))
    gi[miss] = np.searchsorted(edges, x[miss], side="right")
    return gi


def _sample(tables: list[OutcomeTable], n_trials: int, seed: int,
            trial_offset: int) -> list[MonteCarloRun]:
    """Draw numbered trials from each table, CHUNK_TRIALS at a time: each
    trial picks an eigenspace with its Born probability, then passes the
    postselection with the conditional probability joint / marginal.
    Every table reads the same uniforms, the acceptance column from one
    contiguous copy, so each run equals its one-table run bit for bit."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = _philox_generator(seed, trial_offset)
    tallies = [_Tally(table) for table in tables]
    buf = np.empty((min(CHUNK_TRIALS, n_trials), 4))
    for start in range(0, n_trials, CHUNK_TRIALS):
        u = rng.random(out=buf[:min(CHUNK_TRIALS, n_trials - start)])
        u1 = u[:, 1].copy()
        for tally in tallies:
            tally.add(u[:, 0], u1)
    return [tally.run(n_trials, seed) for tally in tallies]


def monte_carlo_run(setup: WeakSetup, eps: float, n_trials: int, seed: int,
                    trial_offset: int = 0) -> MonteCarloRun:
    """Run n_trials numbered trials of the meter readout at eps.

    ``trial_offset`` names the first trial, so shards of one logical run
    reproduce the serial result exactly when their counts are merged.
    Raises EmptyPostselectionError, before any trial is drawn, when the
    postselection is empty.
    """
    run, = _sample([exact_outcome_distribution(setup, eps)], n_trials, seed,
                   trial_offset)
    return run


def projective_A_oracle(a: Observable, s: StateVector, f: StateVector,
                        n_trials: int, seed: int,
                        trial_offset: int = 0) -> EstimateWithError:
    """Sample an ordinary projective measurement of A with postselection.

    Collapse s onto an eigenspace of A with Born probability, then accept
    with the collapsed state's overlap probability on f. The accepted
    eigenvalues average to the projective conditional expectation, which
    stays inside A's spectrum no matter how the weak values misbehave.
    """
    run, = _sample([projective_tables(a, s, f)], n_trials, seed,
                   trial_offset)
    return run.estimate


def monte_carlo_pair(setup: WeakSetup, eps: float, n_trials: int, seed: int,
                     trial_offset: int = 0) -> tuple[MonteCarloRun,
                                                     MonteCarloRun]:
    """The meter readout at eps and a projective A measurement, both with
    the postselection, sampled in one pass over the same numbered trials.

    Each run equals its one-table run (``monte_carlo_run`` and
    ``projective_A_oracle`` with the same seed and offset) bit for bit.
    The two read common random numbers, so their estimates are
    correlated. Neither raises on an empty postselection.
    """
    return tuple(_sample([_branch_tables(setup, eps),
                          projective_tables(setup.A, setup.s, setup.f)],
                         n_trials, seed, trial_offset))
