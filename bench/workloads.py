"""Seeded inputs for each benchmark workload, and the per-op checks.

A workload is a cycle of CLI scenarios. Its inputs are drawn from the
workload seed alone and written as JSON config files in the CLI's own
schema; the program sees only those files and the argv. The expected
values the checks need are computed here from the drawn inputs, with
plain numpy, and never shown to the program.

Tolerances are the ones tests/test_acceptance.py states.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

WV_RTOL = 1e-4            # |numeric - closed| <= WV_RTOL * max(1, |closed|)
CLOSED_RTOL = 1e-6        # report's closed form against the one drawn here
LIMIT_TOL = 1e-6          # limit-check extrapolant against <s, As>
SLOPE_RATIO = (0.3, 3.0)  # successive disturbance slope ratios
CAL_READ_TOL = 1e-10      # grid: |<m, Bm>|
CAL_MOMENT_TOL = 1e-8     # grid: |<m, BGm> - (rho + i/2)|
GRID_QUBIT_TOL = 1e-6     # grid closed form against the qubit meter's
Z_MAX = 5.0               # Monte Carlo mean against the exact value

RHO_RANGE = 50.0
MIN_OVERLAP = 0.1

@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple              # scenarios of one cycle, run in this order
    meter: str                # "qubit" or "grid"
    pool: int                 # configs drawn per scenario
    # op_s.tail reads, in each block of tail_ops consecutive ops, the
    # percentile that leaves TAIL_SAMPLES of them above it; fixed so that
    # every commit reads the same one. The grid and Monte Carlo workloads
    # made about tail_ops ops in a run of BENCHMARK.json's run_seconds
    # when the benchmark was defined, so their block is the whole run
    tail_ops: int
    n_trials: dict = field(default_factory=dict)
    check_shards: bool = False  # check the Philox shard contract once


WORKLOADS = {
    w.name: w for w in (
        # The paper's grid workflow. With the default eps schedule the
        # library misses the weak-value tolerance on about one grid setup
        # in five at |rho| <= 50, so this workload reports failures until
        # that is fixed, and BENCHMARK.json does not list it yet.
        Workload("grid-scenarios",
                 ("aav-grid", "weak-value", "sweep-rho", "limit-check",
                  "disturbance", "sample"),
                 meter="grid", pool=8, tail_ops=18,
                 n_trials={"sample": 100_000}),
        # the grid-scenarios ops that do not extrapolate a weak value
        Workload("grid-meter", ("limit-check", "disturbance", "sample"),
                 meter="grid", pool=8, tail_ops=15,
                 n_trials={"sample": 100_000}),
        Workload("qubit-scenarios",
                 ("weak-value", "sweep-rho", "limit-check", "disturbance"),
                 meter="qubit", pool=32, tail_ops=1200),
        # two samples per compare: a compare op samples three times, so
        # each scenario gets a similar share of the op time
        Workload("mc-sampling", ("sample", "compare", "sample"),
                 meter="qubit", pool=8, tail_ops=60,
                 n_trials={"sample": 3_000_000, "compare": 3_000_000},
                 check_shards=True),
    )
}


@dataclass(frozen=True)
class OpSpec:
    scenario: str
    index: int                # position in the scenario's pool
    path: str                 # config file the CLI reads
    config: dict
    expected: dict            # values the checks compare against


def _random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _encode(z):
    return [float(z.real), float(z.imag)]


def _draw_system(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = (m + m.conj().T) / 2.0
    s = _random_state(rng, dim)
    f = _random_state(rng, dim)
    while abs(np.vdot(f, s)) < MIN_OVERLAP:
        f = _random_state(rng, dim)
    return a, s, f


def _closed_form(ratio: complex, rho: float) -> float:
    # 2 Im[ratio * (rho + i/2)] for a calibrated meter
    return ratio.real + 2.0 * rho * ratio.imag


def _draw_op(rng, work: Workload, scenario: str, index: int, path: str):
    dim = 2 if work.meter == "grid" else int(rng.integers(2, 9))
    a, s, f = _draw_system(rng, dim)
    rho = float(rng.uniform(-RHO_RANGE, RHO_RANGE))
    config = {
        "schema_version": 1,
        "scenario": scenario,
        "system": {"A": [[_encode(x) for x in row] for row in a],
                   "s": [_encode(x) for x in s],
                   "f": [_encode(x) for x in f]},
        "meter": {"kind": work.meter, "rho": rho},
    }
    if scenario == "sweep-rho":
        config["rho_values"] = [float(r) for r in
                                rng.uniform(-RHO_RANGE, RHO_RANGE, 3)]
    if scenario in work.n_trials:
        config["mc"] = {"n_trials": work.n_trials[scenario],
                        "seed": int(rng.integers(0, 2 ** 63))}
    ratio = complex(np.vdot(f, a @ s) / np.vdot(f, s))
    expected = {"average": float(np.vdot(s, a @ s).real), "ratio": ratio}
    return OpSpec(scenario, index, path, config, expected)


def prepare(work: Workload, seed: int, config_dir: str) -> list:
    """Draw the workload's pool from the seed and write the config files.

    Returns the pool as one list of OpSpecs per cycle position.
    """
    os.makedirs(config_dir, exist_ok=True)
    rng = np.random.default_rng([seed, *work.name.encode()])
    pool = []
    for pos, scenario in enumerate(work.cycle):
        specs = []
        for i in range(work.pool):
            path = os.path.join(config_dir, f"{pos}-{scenario}-{i}.json")
            spec = _draw_op(rng, work, scenario, i, path)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec.config, fh)
            specs.append(spec)
        pool.append(specs)
    return pool


def op_sequence(pool: list):
    """Endless ops; op k of cycle c uses pool entry c mod pool size."""
    for c in itertools.count():
        for specs in pool:
            yield specs[c % len(specs)]


# ---------------------------------------------------------------------------
# checks: each returns a list of (check, value, limit) that failed


def _rel(value, target):
    return abs(value - target) / max(1.0, abs(target))


def _check_weak_rows(spec, rows, out):
    cfg_rho = spec.config["meter"]["rho"]
    for row in rows:
        if row["status"] != "ok":
            out.append(("status", row["status"], "ok"))
            continue
        num, closed = row["wv_numeric"], row["wv_closed"]
        if num is None or closed is None:
            out.append(("wv_present", None, "finite"))
            continue
        err = _rel(num, closed)
        if not err <= WV_RTOL:
            out.append(("wv_numeric_vs_closed", err, WV_RTOL))
        rho = cfg_rho if row["rho"] is None else row["rho"]
        err = _rel(closed, _closed_form(spec.expected["ratio"], rho))
        if not err <= CLOSED_RTOL:
            out.append(("wv_closed_vs_drawn", err, CLOSED_RTOL))


def _check_abs(name, value, limit, out):
    """Fail unless ``value`` is present and ``|value| <= limit``."""
    if value is None or not abs(value) <= limit:
        out.append((name, value, limit))


def _check_z(name, mean, stderr, target, out):
    if mean is None or not stderr:
        out.append((name, None, Z_MAX))
        return
    z = (mean - target) / stderr
    if not abs(z) <= Z_MAX:
        out.append((name, z, Z_MAX))


def check_report(spec: OpSpec, report: dict, exact) -> list:
    """Check one JSON report. ``exact(spec)`` gives the exact conditional
    mean of the meter reading at the sampled eps (compare only)."""
    rows, summary = report["rows"], report["summary"]
    out = []
    scen = spec.scenario
    if scen in ("weak-value", "aav-grid", "compare"):
        _check_weak_rows(spec, rows, out)
    elif scen == "sweep-rho":
        want = sorted(spec.config["rho_values"])
        if [r["rho"] for r in rows] != want:
            out.append(("sweep_rho_values", [r["rho"] for r in rows], want))
        _check_weak_rows(spec, rows, out)
    elif scen == "limit-check":
        limit = rows[-1]["wv_numeric"]
        _check_abs("limit_vs_average", None if limit is None
                   else limit - spec.expected["average"], LIMIT_TOL, out)
    elif scen == "disturbance":
        ratios = summary["successive_slope_ratios"]
        lo, hi = SLOPE_RATIO
        bad = [r for r in ratios if r is None or not lo <= r <= hi]
        if bad or not ratios:
            out.append(("disturbance_slope_ratio", bad or ratios,
                        list(SLOPE_RATIO)))
    elif scen == "sample":
        _check_abs("mc_z_vs_exact", summary["z_score"], Z_MAX, out)
    if scen == "aav-grid":
        for key, tol in (("initial_reading_abs", CAL_READ_TOL),
                         ("coupling_moment_error", CAL_MOMENT_TOL)):
            _check_abs(key, summary[key], tol, out)
        _check_abs("grid_vs_qubit_closed",
                   summary["grid_minus_qubit_closed_form"], GRID_QUBIT_TOL,
                   out)
    if scen == "compare":
        eps = rows[0]["eps"]
        cond = summary["conditional"]
        _check_z("mc_weak_z_vs_exact", cond["mc_weak_mean_over_eps"],
                 cond["mc_weak_stderr_over_eps"], exact(spec) / eps, out)
        _check_z("mc_projective_z_vs_exact", cond["mc_projective_mean"],
                 cond["mc_projective_stderr"],
                 cond["projective_conditional"], out)
        _check_abs("unconditional_limit_vs_average",
                   summary["unconditional"]["abs_difference"], LIMIT_TOL, out)
    return out


def mc_trials(spec: OpSpec) -> int:
    """Monte Carlo trials one op draws: compare samples three times."""
    n = spec.config.get("mc", {}).get("n_trials", 0)
    return 3 * n if spec.scenario == "compare" else n
