"""Ground-truth machinery for the measurement statistics.

Both measurements the paper contrasts, the weak meter readout of B and
an ordinary projective measurement of the system observable A, are
followed by the postselection on f, and both are described by one
:class:`OutcomeTable`: exact enumeration yields it, and one seeded
two-stage sampler draws numbered trials from it. A sampling run carries
the table it sampled.

Reproducibility contract: trials are numbered, and trial i draws from
the i-th counter block of a Philox stream keyed by the seed (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011). A block is
four 64-bit words; the trial reads the top 53 bits k of words 0 and 1,
whose uniforms k 2^-53 are the values ``Generator.random`` gives. A run
sharded as [0, k) + [k, n) therefore reproduces the serial run [0, n)
bit for bit, for any split points: the shards' counts add up to the
serial counts, and an estimate is a function of those counts alone.
The counter numbers 2^256 trials, 0 to 2^256 - 1: a run whose trials
would pass its end is refused, since Philox would wrap them around to
trial 0.
Trials are drawn CHUNK_TRIALS at a time, 512 KiB of raw words that fit a
typical L2 cache. A run of 2^20 trials or more, when two CPUs are usable,
is drawn as two such shards on two threads, each from its own Philox.
Shards only draw: one tally per table counts every chunk, one chunk at a
time under the run's lock, so by the same contract the counts and
estimates do not depend on the worker count. Memory is O(CHUNK_TRIALS)
per worker for any trial count, with at most two chunks in flight. One
pass may sample several tables: each reads the same draws, so each run
equals its one-table run on the same seed and offset bit for bit, and
runs of one pass use common random numbers and are correlated
(``monte_carlo_pair``, which ``compare`` uses, is such a pass).

A trial's branch is the number of cumulative marginals at or below its
scaled uniform x = fl(k0 2^-53 total), and it passes the postselection
when its second uniform is below the branch's acceptance probability.
Both tests are made on the draws themselves: once per table, each edge
becomes the least k0 whose x reaches it and each probability c becomes
ceil(c 2^53), so no uniform is formed. Up to SCAN_MAX_BRANCHES branches
no trial's branch is stored: the masks "at or above threshold j" nest,
so each branch's successes and failures are differences of mask counts.
Larger tables start each draw at a guide table's entry for its cell,
the draw's top bits (Chen & Asau's indexed search; Devroye,
*Non-Uniform Random Variate Generation*, 1986, §III.2.4). A check
against the start's own branch bounds marks the few starts that are
wrong, and those are found again by binary search. Both ways give the
counts ``searchsorted(edges, x, "right")`` does on the uniforms, so the
table size never changes a run.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import Observable, StateVector
from .protocol import OutcomeTable, WeakSetup, coupled_state, projective_tables

CHUNK_TRIALS = 2 ** 14        # trials per pass: 512 KiB of Philox words
SCAN_MAX_BRANCHES = 12        # larger tables pick branches by guide table
# Threads draw a run's shards. At most two: each holds a chunk, and four
# (CI runners have four CPUs) trace 2.3 MiB at 3e6 trials, past the
# 2 MiB that TestBoundedMemory allows. Only runs of 2^20 trials or more:
# threads on the grid meter's 1e5-trial samples slowed the ops around
# them (ROADMAP, Measured and dropped).
MAX_WORKERS = 2
THREAD_MIN_CHUNKS = 64
_K_END = 2 ** 53              # every draw k is below it


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
    """One table's share of a sampling pass: its per-branch counts, from
    each trial's draws against the table's integer thresholds."""

    def __init__(self, table: OutcomeTable):
        values, marginal, joint = table
        cum = np.cumsum(marginal)
        self.table = table
        self.thresholds = _thresholds(cum[:-1], cum[-1])
        self.guide = _guide_table(self.thresholds)
        cond = np.where(marginal > 0,
                        joint / np.maximum(marginal, 1e-300), 0.0)
        # u1 = k1 2^-53 < c exactly when k1 < ceil(c 2^53), an exact
        # scaling; a NaN or negative c accepts no draw, one of 1 or more
        # every draw
        self.accept = np.ceil(np.where(cond > 0, np.minimum(cond, 1.0), 0.0)
                              * 2.0 ** 53).astype(np.int64)
        self.counts = np.zeros(2 * len(values), dtype=np.intp)

    def add(self, k0: np.ndarray, k1: np.ndarray) -> None:
        """Tally a chunk: branch draws k0, acceptance draws k1."""
        if self.guide is None:
            # masks k0 >= K_j nest: branch j is the trials at or above its
            # lower threshold (all for j = 0) less those at or above its
            # upper one
            lower, n_lower = None, k0.size
            for j, accept in enumerate(self.accept):
                ok = k1 < accept
                hits = np.count_nonzero(ok if lower is None else lower & ok)
                upper, n_upper = None, 0
                if j < self.thresholds.size:
                    upper = k0 >= self.thresholds[j]
                    n_upper = np.count_nonzero(upper)
                    hits -= np.count_nonzero(upper & ok)
                self.counts[2 * j:2 * j + 2] += hits, n_lower - n_upper - hits
                lower, n_lower = upper, n_upper
        else:
            gi = _pick_branch(self.thresholds, k0, self.guide)
            # cell 2 * gi holds branch gi's successes, the next its failures
            cell = 2 * gi + (k1 >= self.accept[gi])
            self.counts += np.bincount(cell, minlength=self.counts.size)

    def run(self, n_trials: int, seed: int) -> MonteCarloRun:
        counts = self.counts.reshape(-1, 2)
        return MonteCarloRun(self.table, counts, EstimateWithError.from_counts(
            self.table.values, counts[:, 0], n_trials, seed))


def _thresholds(edges: np.ndarray, total: float) -> np.ndarray:
    """K_j, the least draw k in [0, 2^53] whose scaled uniform
    fl(k 2^-53 total) is at or above edges[j], with 2^53 where no draw's
    is: x >= edges[j] holds exactly when k >= K_j, since x does not
    decrease as k grows.

    Each K_j is read off a window of six draws around
    ceil(edges[j] / total 2^53). An edge whose window does not hold its
    K_j, as in a NaN or an infinite table, is found by a bisection of
    [0, 2^53] in 54 steps, so the work is bounded whatever the table
    holds.
    """
    def passes(k, e):
        return k * 2.0 ** -53 * total >= e

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # fmax and fmin take a NaN guess to 2
        guess = np.fmin(np.fmax(np.ceil(edges / total * 2.0 ** 53), 2.0),
                        _K_END - 2.0)
        window = guess.astype(np.int64) + np.arange(-3, 3)[:, None]
        below = ~passes(window, edges)
        k = window[0] + below.sum(axis=0)
        bad = np.flatnonzero(~below[0] | below[-1])
        if bad.size:
            e, lo = edges[bad], np.zeros(bad.size, np.int64)
            hi = np.full(bad.size, _K_END)
            for _ in range(54):
                mid = (lo + hi) >> 1
                p = passes(mid, e)
                hi = np.where(p, mid, hi)
                lo = np.where(p, lo, np.minimum(mid + 1, hi))
            k[bad] = lo
    return k


class _Guide(NamedTuple):
    """A guide table over the draws [0, 2^53): ``nb`` equal cells, the
    branch each cell's first draw falls in, and each branch's bounds."""

    shift: int             # 53 - log2 nb: a draw's cell is k >> shift
    start: np.ndarray      # nb entries
    lo: np.ndarray         # [0, *K]
    hi: np.ndarray         # [*K, 2^53 + 1]


def _guide_table(thresholds: np.ndarray) -> _Guide | None:
    """The guide table of a table with more than SCAN_MAX_BRANCHES
    branches, or None for a table small enough to scan. nb is the
    smallest power of two at least four times the branch count."""
    if thresholds.size < SCAN_MAX_BRANCHES:
        return None
    nb = 1 << (4 * (thresholds.size + 1) - 1).bit_length()
    shift = 53 - (nb.bit_length() - 1)
    # cell c starts at the branch that counts the thresholds at or below
    # its first draw c 2^shift: those whose cell, rounded up, is at most c
    up = (thresholds + (1 << shift) - 1) >> shift
    return _Guide(shift, np.cumsum(np.bincount(up, minlength=nb + 1))[:nb],
                  np.concatenate(([0], thresholds)),
                  np.concatenate((thresholds, [_K_END + 1])))


def _pick_branch(thresholds: np.ndarray, k: np.ndarray,
                 guide: _Guide) -> np.ndarray:
    """The branch of each draw k in [0, 2^53): the number of thresholds
    at or below it, which is what searchsorted(thresholds, k, "right")
    gives, and so searchsorted(edges, x, "right") on its scaled uniform.

    Each k starts at its cell's entry, and the start is kept where
    lo <= k < hi holds for its branch; only one branch passes, even across
    repeated thresholds of zero-mass branches. The rest (about 2% on the
    n = 1024 grid) are found by searchsorted.
    """
    gi = guide.start[k >> guide.shift]
    miss = np.flatnonzero((k < guide.lo[gi]) | (k >= guide.hi[gi]))
    gi[miss] = np.searchsorted(thresholds, k[miss], side="right")
    return gi


def _workers(n_trials: int) -> int:
    """How many threads draw a run of n_trials: 2 for a run of at least
    THREAD_MIN_CHUNKS full chunks when two CPUs are usable, else 1."""
    if n_trials < THREAD_MIN_CHUNKS * CHUNK_TRIALS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:        # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _sample(tables: list[OutcomeTable], n_trials: int, seed: int,
            trial_offset: int) -> list[MonteCarloRun]:
    """Draw numbered trials from each table, CHUNK_TRIALS at a time: each
    trial picks an eigenspace with its Born probability, then passes the
    postselection with the conditional probability joint / marginal.
    Every table reads the same draws, so each run equals its one-table
    run bit for bit.

    A long run is split into contiguous shards of whole chunks, one per
    worker, each from its own Philox advanced to its first trial. The
    caller's shard is one more shard, drawn by the code that draws each
    thread's. Shards only draw. One tally per table counts every chunk
    under the run's lock, and integer counts add the same in any order,
    so the run does not depend on the worker count. Only the draw runs
    outside the lock: a tally is many short numpy calls, each of which
    lets go of the GIL, and two threads' tallies interleaved took about
    3x as long. No thread outlives the call: a shard that raises appends
    to the run's error list, which stops every shard at its next chunk,
    and the first error is raised once all threads are joined.
    """
    # a float count would reach the shard bounds, and True would run one
    if type(n_trials) is bool or not isinstance(n_trials, numbers.Integral):
        raise ValueError(f"n_trials must be an integer, got {n_trials!r}")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    # the seed and offset are refused before any thread starts
    _philox_generator(seed, trial_offset)
    # trial i reads counter block i, and the counter has 2^256
    if int(trial_offset) + int(n_trials) > 2 ** 256:
        raise ValueError("trial_offset + n_trials must be at most 2^256, "
                         "the Philox counter's range")
    chunks = -(-n_trials // CHUNK_TRIALS)
    workers = _workers(n_trials)
    bounds = [min(w * chunks // workers * CHUNK_TRIALS, n_trials)
              for w in range(workers + 1)]
    tallies = [_Tally(table) for table in tables]
    lock, errors = threading.Lock(), []

    # every shard, the caller's too, runs draw; the error list is the
    # stop signal, read before each chunk
    def draw(lo, hi):
        try:
            bits = _philox_generator(seed,
                                     int(trial_offset) + lo).bit_generator
            for start in range(lo, hi, CHUNK_TRIALS):
                if errors:
                    return
                m = min(CHUNK_TRIALS, hi - start)
                words = bits.random_raw(4 * m).reshape(m, 4)
                with lock:
                    # a word's top 53 bits: Generator.random's u is k 2^-53
                    k0, k1 = ((words[:, i] >> np.uint64(11)).view(np.int64)
                              for i in (0, 1))
                    # each chunk is freed before the next is drawn, so a
                    # worker holds one chunk's words or draws, never two
                    del words
                    for tally in tallies:
                        tally.add(k0, k1)
                    del k0, k1
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=draw, args=shard)
               for shard in zip(bounds[1:], bounds[2:])]
    for thread in threads:
        thread.start()
    draw(bounds[0], bounds[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
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
