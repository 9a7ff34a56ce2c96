"""Acceptance checklist.

Each test covers one headline guarantee at its stated tolerance and prints
a single pass/fail line (run with -s to see them). Randomized criteria use
fixed seeds so the suite is reproducible.
"""

import time

import numpy as np
import pytest
from scipy import stats

from weakmeas.cli import ExperimentConfig, preset, run_scenario
from weakmeas.hilbert import Observable, StateVector, expectation
from weakmeas.meters import (
    GridSpec,
    chirped_gaussian_state,
    gaussian_grid_meter,
    momentum_operator,
    position_operator,
    qubit_meter,
)
from weakmeas.oracle import exact_outcome_distribution, monte_carlo_run
from weakmeas.protocol import (
    EpsSchedule,
    MeterSpec,
    WeakSetup,
    disturbance,
    eps_sweep,
    unconditional_limit,
    weak_value_closed_form,
    weak_value_extrapolation,
)

from reference import conditional_expectation, inner


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {marker} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Observable((m + m.conj().T) / 2)


def random_state(rng, n):
    return StateVector(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_setup(rng, min_overlap=0.0):
    dim = int(rng.integers(2, 9))
    a = random_hermitian(rng, dim)
    s = random_state(rng, dim)
    f = random_state(rng, dim)
    while abs(inner(f, s)) < min_overlap:
        f = random_state(rng, dim)
    meter = qubit_meter(float(rng.uniform(-5.0, 5.0)))
    return WeakSetup(a, s, f, meter)


def test_criterion_1_unconditional_limit_matches_average():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        setup = random_setup(rng)
        limit = unconditional_limit(eps_sweep(setup))
        target = expectation(setup.A, setup.s)
        worst = max(worst, abs(limit - target))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-6 and elapsed < 10.0,
           f"max |limit - <s,As>| = {worst:.3e} <= 1e-06, {elapsed:.2f}s")


def test_criterion_2_numeric_weak_value_matches_closed_form():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        setup = random_setup(rng, min_overlap=0.1)
        ex = weak_value_extrapolation(eps_sweep(setup, EpsSchedule.default()))
        closed = weak_value_closed_form(setup)
        worst = max(worst, abs(ex.limit - closed))
    elapsed = time.monotonic() - start
    report(2, worst <= 1e-5 and elapsed < 20.0,
           f"max |numeric - closed| = {worst:.3e} <= 1e-05, {elapsed:.2f}s")


def test_criterion_3_rho_sweep_hits_plus_minus_100():
    cfg = preset("nonunique-rho50")
    cfg = ExperimentConfig.from_dict({**cfg.to_dict(),
                                      "scenario": "sweep-rho"})
    rows, summary = run_scenario(cfg)
    closed = [r.wv_closed for r in rows]
    numeric_err = max(abs(r.wv_numeric - r.wv_closed) for r in rows)
    slope_err = abs(summary["slope_residual"])
    ok = (closed == [-100.0, 0.0, 100.0]
          and numeric_err <= 1e-4 and slope_err <= 1e-10)
    report(3, ok, f"closed = {closed} exactly, numeric err {numeric_err:.3e} "
                  f"<= 1e-04, slope err {slope_err:.3e} <= 1e-10")


def test_criterion_4_traditional_100_with_bounded_projective():
    rows, _ = run_scenario(preset("aav100"))
    row = rows[0]
    trad_err = abs(row.wv_traditional - 100.0)
    ok = trad_err <= 1e-9 and -1.0 <= row.projective_cond <= 1.0
    report(4, ok, f"|traditional - 100| = {trad_err:.3e} <= 1e-09, "
                  f"projective = {row.projective_cond:.6f} in [-1, 1]")


def test_criterion_5_sampler_agrees_with_exact_distribution():
    rng = np.random.default_rng(505)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        setup = random_setup(rng, min_overlap=0.05)
        eps = float(rng.uniform(0.005, 0.05))
        table = exact_outcome_distribution(setup, eps)
        direct = conditional_expectation(setup, eps)
        worst = max(worst, abs(table.conditional_mean - direct))

    setup = random_setup(rng, min_overlap=0.1)
    eps = 0.02
    n = 1_000_000
    run = monte_carlo_run(setup, eps, n, seed=20260816)
    table = exact_outcome_distribution(setup, eps)
    est = run.estimate
    z = abs(est.mean - table.conditional_mean) / est.std_error

    # chi-square over (branch, success/fail) cells with expected count >= 5
    probs = []
    for joint, marginal in zip(table.joint, table.marginal):
        probs.extend([joint, marginal - joint])
    expected = n * np.asarray(probs)
    observed = run.counts.reshape(-1)
    mask = expected >= 5.0
    chi2 = float(((observed[mask] - expected[mask]) ** 2
                  / expected[mask]).sum())
    p_value = float(stats.chi2.sf(chi2, df=int(mask.sum()) - 1))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and z <= 4.0 and p_value > 1e-4 and elapsed < 60.0
    report(5, ok, f"max exact-vs-direct = {worst:.3e} <= 1e-12, "
                  f"MC z = {z:.2f} <= 4, chi2 p = {p_value:.4f} > 1e-4, "
                  f"{elapsed:.1f}s")


def test_criterion_6_disturbance_scales_away():
    rng = np.random.default_rng(606)
    eps_values = (1e-2, 5e-3, 2.5e-3)
    ok = True
    worst_ratio = None
    for _ in range(10):
        setup = random_setup(rng)
        kicks = disturbance(eps_sweep(setup, EpsSchedule(eps_values)))
        slopes = [d / e for d, e in zip(kicks, eps_values)]
        for a, b in zip(slopes, slopes[1:]):
            ratio = b / a
            if not 0.3 <= ratio <= 3.0:
                ok = False
            if worst_ratio is None or abs(ratio - 1) > abs(worst_ratio - 1):
                worst_ratio = ratio
    tiny = disturbance(eps_sweep(random_setup(rng),
                                 EpsSchedule((1e-4, 5e-5))))[0]
    ok = ok and tiny <= 1e-3
    report(6, ok, f"slope ratios within [0.3, 3] (farthest {worst_ratio:.3f}),"
                  f" d(1e-4) = {tiny:.3e} <= 1e-03")


def test_criterion_7_grid_meter_calibrates_and_reproduces_qubit():
    grid = GridSpec.default()
    worst_moment = 0.0
    worst_chirp = 0.0
    q = position_operator(grid).entries
    p = momentum_operator(grid).entries
    for rho in (0.0, 1.0, 3.0):
        meter = gaussian_grid_meter(grid, rho)
        m = meter.m.amps
        moment = complex(np.vdot(m, meter.B.entries @ (meter.G.entries @ m)))
        worst_moment = max(worst_moment, abs(moment - complex(rho, 0.5)))
        conj = chirped_gaussian_state(grid, -rho).amps
        chirp_moment = complex(np.vdot(conj, q @ (p @ conj)))
        worst_chirp = max(worst_chirp, abs(chirp_moment - moment))

    a = Observable(np.array([[0, 1], [1, 0]], dtype=complex))
    s = StateVector(np.array([1, 1j]))
    f = StateVector(np.array([1, 0], dtype=complex))
    rho = 3.0
    grid_closed = weak_value_closed_form(
        WeakSetup(a, s, f, gaussian_grid_meter(grid, rho)))
    qubit_closed = weak_value_closed_form(
        WeakSetup(a, s, f, qubit_meter(rho)))
    agreement = abs(grid_closed - qubit_closed)
    ok = worst_moment <= 1e-8 and worst_chirp <= 1e-8 and agreement <= 1e-6
    report(7, ok, f"max moment err = {worst_moment:.3e} <= 1e-08, "
                  f"max chirp residual = {worst_chirp:.3e} <= 1e-08, "
                  f"grid-vs-qubit = {agreement:.3e} <= 1e-06")


def test_criterion_8_miscalibrated_gain_scales_the_limit():
    rng = np.random.default_rng(808)
    worst = 0.0
    for c in (0.5, 2.0):
        base = qubit_meter(1.5)
        meter = MeterSpec(base.m, Observable(c * base.B.entries), base.G)
        for _ in range(5):
            dim = int(rng.integers(2, 6))
            a = random_hermitian(rng, dim)
            s = random_state(rng, dim)
            setup = WeakSetup(a, s, random_state(rng, dim), meter)
            limit = unconditional_limit(eps_sweep(setup))
            target = c * expectation(a, s)
            worst = max(worst, abs(limit - target))
    report(8, worst <= 1e-6,
           f"max |limit - c * <s,As>| = {worst:.3e} <= 1e-06")
