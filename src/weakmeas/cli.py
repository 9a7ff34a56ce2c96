"""Experiment runner.

Config-driven scenarios covering every claim the library makes:
side-by-side weak values, rho sweeps, eps -> 0 limit checks, Monte Carlo
sampling, disturbance scaling, the grid meter, and the
unconditional-vs-conditional comparison. Results go to CSV (one row per
parameter point) or JSON (rows plus a scenario summary).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .hilbert import (
    DimensionMismatchError,
    HermiticityError,
    Observable,
    StateVector,
    expectation,
)
from .meters import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_N_POINTS,
    GridSpec,
    gaussian_grid_meter,
    qubit_meter,
)
from .oracle import EstimateWithError, monte_carlo_pair, monte_carlo_run
from .protocol import (
    DEFAULT_EPS,
    LIMIT_RTOL,
    WV_RTOL,
    EpsSchedule,
    WeakSetup,
    _closed_form,
    check_system,
    disturbance,
    eps_sweep,
    unconditional_limit,
    weak_value_report,
)

SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined (<f,s> ~ 0)"
STATUS_UNCONVERGED = "unconverged"


class ConfigError(ValueError):
    """The experiment configuration cannot be used."""


# ---------------------------------------------------------------------------
# configuration


def _is_number(x) -> bool:
    # a JSON true loads as a Python int, but it is not a number; an int
    # too large for a float is not one either, so float(x) cannot overflow
    return isinstance(x, float) or (isinstance(x, int)
                                    and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max)


def _number(x, key: str, kind=float):
    """A finite config number, converted to ``kind``; booleans, strings,
    JSON's Infinity/NaN, ints past the float range and fractions where an
    int is due are refused rather than coerced. A whole float such as
    JSON's 1e6 is an int."""
    if not _is_number(x) or (isinstance(x, float) and not math.isfinite(x)):
        raise ConfigError(f"{key} must be a finite number, got {x!r}")
    if kind is int and x != int(x):
        raise ConfigError(f"{key} must be a whole number, got {x!r}")
    return kind(x)


def _numbers(x, key: str) -> tuple:
    if not isinstance(x, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {x!r}")
    return tuple(_number(e, key) for e in x)


def _object(x, key: str) -> dict:
    if not isinstance(x, dict):
        raise ConfigError(f"{key} must be a JSON object, got {x!r}")
    return x


def _decode_pair(x) -> tuple:
    """A config number is either a plain real or an [re, im] pair;
    returns the (re, im) floats."""
    if _is_number(x):
        return (float(x), 0.0)
    if (isinstance(x, (list, tuple)) and len(x) == 2
            and _is_number(x[0]) and _is_number(x[1])):
        return (float(x[0]), float(x[1]))
    raise ConfigError(f"expected a number or [re, im] pair, got {x!r}")


def _canonical_vector(raw) -> tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("state literal must be a nonempty list")
    return tuple(_decode_pair(x) for x in raw)


def _canonical_matrix(raw) -> tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("matrix literal must be a nonempty list of rows")
    rows = []
    for row in raw:
        if not isinstance(row, (list, tuple)) or len(row) != len(raw):
            raise ConfigError("matrix literal must be square, row-major")
        rows.append(tuple(_decode_pair(x) for x in row))
    return tuple(rows)


def _complex_array(pairs) -> np.ndarray:
    """The complex array of a canonical (re, im) vector or matrix."""
    return np.array(pairs, dtype=float).view(np.complex128)[..., 0]


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _only(data, keys, where: str) -> dict:
    """A JSON object whose keys are all among ``keys``."""
    for key in _object(data, where):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}; expected "
                              f"one of {', '.join(keys)}")
    return data


def _store(obj, **values) -> None:
    """Set checked values on a frozen dataclass from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class MeterConfig:
    kind: str = "qubit"
    rho: float = 0.0
    n_points: int = DEFAULT_N_POINTS
    half_width: float = DEFAULT_HALF_WIDTH

    def __post_init__(self):
        _store(self, rho=_number(self.rho, "meter.rho"),
               n_points=_number(self.n_points, "meter.n_points", int),
               half_width=_number(self.half_width, "meter.half_width"))
        if self.kind not in ("qubit", "grid"):
            raise ConfigError(f"meter kind must be qubit or grid, "
                              f"got {self.kind!r}")


@dataclass(frozen=True)
class MonteCarloConfig:
    n_trials: int = 100_000
    seed: int = 1

    def __post_init__(self):
        _store(self, n_trials=_number(self.n_trials, "mc.n_trials", int),
               seed=_number(self.seed, "mc.seed", int))
        if self.n_trials < 1:
            raise ConfigError("mc.n_trials must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("mc.seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class OutputConfig:
    path: str = None              # None means stdout
    format: str = "csv"

    def __post_init__(self):
        # an integer path would reach open() as a file descriptor, and an
        # empty one must not fall through to stdout
        if self.path is not None and not (isinstance(self.path, str)
                                          and self.path):
            raise ConfigError(f"output path must be a nonempty string or "
                              f"null, got {self.path!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, "
                              f"got {self.format!r}")


_SECTIONS = {"meter": MeterConfig, "mc": MonteCarloConfig,
             "output": OutputConfig}
# each section's keys, in field order
_KEYS = {cls: tuple(f.name for f in fields(cls)) for cls in _SECTIONS.values()}


def _section_dict(section) -> dict:
    # a section's fields are flat scalars, so asdict's deep copy is not due
    return {key: getattr(section, key) for key in _KEYS[type(section)]}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one scenario run needs, in a canonical, serializable form.

    Complex entries are (re, im) float pairs, matrices row-major; JSON-style
    lists are brought to that form. Construction checks every field,
    Hermiticity and dimensional consistency, and keeps what it built: ``A``,
    ``s``, ``f``, the ``schedule`` and the meter section's ``grid`` (for any
    kind). So a config that exists is one that runs, but for the meter's
    calibration, which a run checks as it builds the meter for each rho.
    """

    scenario: str
    a_entries: tuple
    s_amps: tuple
    f_amps: tuple
    meter: MeterConfig = MeterConfig()
    eps_values: tuple = DEFAULT_EPS
    rho_values: tuple = ()
    mc: MonteCarloConfig = MonteCarloConfig()
    output: OutputConfig = OutputConfig()
    A: Observable = field(init=False, repr=False, compare=False)
    s: StateVector = field(init=False, repr=False, compare=False)
    f: StateVector = field(init=False, repr=False, compare=False)
    schedule: EpsSchedule = field(init=False, repr=False, compare=False)
    grid: GridSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose one of {', '.join(SCENARIOS)}")
        for name, cls in _SECTIONS.items():
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be a {cls.__name__}")
        _store(self, a_entries=_canonical_matrix(self.a_entries),
               s_amps=_canonical_vector(self.s_amps),
               f_amps=_canonical_vector(self.f_amps),
               eps_values=_numbers(self.eps_values, "eps_schedule"),
               rho_values=_numbers(self.rho_values, "rho_values"))
        if self.scenario == "sweep-rho" and not self.rho_values:
            raise ConfigError("sweep-rho needs a nonempty rho_values list")
        try:
            a = Observable(_complex_array(self.a_entries))
        except HermiticityError as exc:
            raise ConfigError(f"system observable: {exc}") from exc
        s = StateVector(_complex_array(self.s_amps))
        f = StateVector(_complex_array(self.f_amps))
        try:
            check_system(a, s, f)
        except DimensionMismatchError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            schedule = EpsSchedule(self.eps_values)
        except ValueError as exc:
            raise ConfigError(f"eps schedule: {exc}") from exc
        try:
            grid = GridSpec(self.meter.n_points, self.meter.half_width)
        except ValueError as exc:
            raise ConfigError(f"meter: {exc}") from exc
        _store(self, A=a, s=s, f=f, schedule=schedule, grid=grid)

    def setup(self, rho: float = None) -> WeakSetup:
        """The system with the config's meter at ``rho``, by default at
        the meter section's own rho."""
        rho = self.meter.rho if rho is None else rho
        meter = (qubit_meter(rho) if self.meter.kind == "qubit"
                 else gaussian_grid_meter(self.grid, rho))
        return WeakSetup(self.A, self.s, self.f, meter)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "system": {"A": [[list(z) for z in row] for row in self.a_entries],
                       "s": [list(z) for z in self.s_amps],
                       "f": [list(z) for z in self.f_amps]},
            "meter": _section_dict(self.meter),
            "eps_schedule": list(self.eps_values),
            "rho_values": list(self.rho_values),
            "mc": _section_dict(self.mc),
            "output": _section_dict(self.output),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = _only(data, ("schema_version", "scenario", "system", "meter",
                            "eps_schedule", "rho_values", "mc", "output"),
                     "config root")
        try:
            system = _only(data["system"], ("A", "s", "f"), "system")
            kw = dict(scenario=data["scenario"], a_entries=system["A"],
                      s_amps=system["s"], f_amps=system["f"])
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from exc
        if "rho_values" in data:
            kw["rho_values"] = data["rho_values"]
        if "eps_schedule" in data:
            kw["eps_values"] = data["eps_schedule"]
        # a section key must name a field; an absent one takes its default
        for key, section in _SECTIONS.items():
            if key in data:
                kw[key] = section(**_only(data[key], _KEYS[section], key))
        version = _number(data.get("schema_version", SCHEMA_VERSION),
                          "schema_version", int)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}; "
                              f"this build reads version {SCHEMA_VERSION}")
        return cls(**kw)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# presets: config data, read as a config file is read

# Nearly-orthogonal postselection against sigma_z: the traditional weak
# value is 100 while both eigenvalues are +-1.
_AAV100 = {
    "scenario": "weak-value",
    "system": {"A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
               "s": [[1.0, 0.0], [1.0, 0.0]],
               "f": [[1.0, 0.0], [-1.0 + 2.0 / 101.0, 0.0]]},
    "meter": {"kind": "qubit", "rho": 0.0},
    "mc": {"n_trials": 200_000, "seed": 7},
}

_PRESETS = {
    # Circular preselection against sigma_x: the complex ratio is i, so
    # the qubit meter at rho = 50 reads a weak value of 100 where the
    # traditional and projective conditionals both read 0.
    "nonunique-rho50": {
        "scenario": "weak-value",
        "system": {"A": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                   "s": [[1.0, 0.0], [0.0, 1.0]],
                   "f": [[1.0, 0.0], [0.0, 0.0]]},
        "meter": {"kind": "qubit", "rho": 50.0},
        "rho_values": [-50.0, 0.0, 50.0],
        "mc": {"n_trials": 200_000, "seed": 7},
    },
    "aav100": _AAV100,
    # The aav100 triple wired for the compare scenario: unconditional
    # readings agree with <s, As> while the two conditionals disagree.
    "convexity-contrast": {**_AAV100, "scenario": "compare"},
}


def _preset_data(name: str) -> dict:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(sorted(_PRESETS))}") from None


def preset(name: str) -> ExperimentConfig:
    """Look up a built-in named configuration."""
    return ExperimentConfig.from_dict(_preset_data(name))


# ---------------------------------------------------------------------------
# result rows


@dataclass(frozen=True)
class ResultRow:
    """One line of scenario output; its fields, in order, are the CSV
    columns. A float field holds a finite float or None: a value the run
    could not produce, such as the mean of no accepted trial, is an empty
    CSV cell and a JSON null."""

    scenario: str
    rho: float = None
    eps: float = None
    wv_numeric: float = None
    wv_closed: float = None
    wv_traditional: float = None
    wv_aav_re: float = None
    wv_aav_im: float = None
    projective_cond: float = None
    mc_mean: float = None
    mc_stderr: float = None
    mc_n_success: int = None
    disturbance: float = None
    status: str = STATUS_OK

    def __post_init__(self):
        for name in _FLOAT_COLUMNS:
            x = getattr(self, name)
            if x is not None:
                x = float(x)
                object.__setattr__(self, name,
                                   x if math.isfinite(x) else None)


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))
_FLOAT_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.type == "float")


def _status(value: float, ref: float, rtol: float) -> str:
    """A row's status: ok exactly when ``value`` is within
    ``rtol`` max(1, |ref|) of ``ref`` and that tolerance is finite. A NaN
    is not within, and an infinite reference leaves nothing to check
    against."""
    tol = rtol * max(1.0, abs(ref))
    if tol < math.inf and abs(value - ref) <= tol:
        return STATUS_OK
    return STATUS_UNCONVERGED


# ---------------------------------------------------------------------------
# scenarios: each builds its setup once, sweeps the eps schedule at most
# once per setup, and returns (rows, summary); the summary goes into JSON
# reports only


def _clean(obj):
    """Replace non-finite floats with None so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _weak_value_row(scenario: str, config: ExperimentConfig,
                    setup: WeakSetup, rho: float):
    """The weak-value row of ``setup``, whose meter sits at ``rho``, read
    off one sweep of the config's schedule; returns (row, report, sweep).
    An undefined weak value leaves its columns empty, and a defined one
    must be within WV_RTOL max(1, |closed form|)."""
    sweep = eps_sweep(setup, config.schedule)
    report = weak_value_report(sweep)
    if report.aav_complex is None:
        row = ResultRow(scenario, rho=rho,
                        projective_cond=report.projective_conditional,
                        status=STATUS_UNDEFINED)
    else:
        row = ResultRow(
            scenario, rho=rho, wv_numeric=report.numeric,
            wv_closed=report.closed_form, wv_traditional=report.traditional,
            wv_aav_re=report.aav_complex.real,
            wv_aav_im=report.aav_complex.imag,
            projective_cond=report.projective_conditional,
            status=_status(report.numeric, report.closed_form, WV_RTOL))
    return row, report, sweep


def run_weak_value(config: ExperimentConfig):
    """Every weak-value notion for one setup, side by side."""
    row, report, _ = _weak_value_row("weak-value", config, config.setup(),
                                     config.meter.rho)
    return [row], {"rho_effective": report.coupling_moment.real}


def run_sweep_rho(config: ExperimentConfig):
    """One weak-value row per rho; the measured weak value must move
    affinely in rho, with slope 2 Im<f,As>/<f,s>. The summary's line runs
    through the measured values at the least and the greatest rho."""
    rows = [_weak_value_row("sweep-rho", config, config.setup(rho), rho)[0]
            for rho in sorted(config.rho_values)]
    # None when the weak value is undefined; then no row has wv_closed
    aav_imag = rows[0].wv_aav_im
    summary = {"aav_imag": aav_imag,
               "expected_slope": None if aav_imag is None else 2.0 * aav_imag}
    lo, hi = rows[0], rows[-1]
    # a line through one distinct rho is not determined; Python floats
    # overflow to inf without a warning, which the report prints as null
    if (lo.rho < hi.rho and aav_imag is not None
            and None not in (lo.wv_numeric, hi.wv_numeric)):
        slope = (hi.wv_numeric - lo.wv_numeric) / (hi.rho - lo.rho)
        summary.update(fitted_slope=slope,
                       fitted_intercept=lo.wv_numeric - slope * lo.rho,
                       slope_residual=slope - 2.0 * aav_imag)
    return rows, summary


def run_limit_check(config: ExperimentConfig):
    """Unconditional meter readings per eps, then the extrapolated limit."""
    setup = config.setup()
    sweep = eps_sweep(setup, config.schedule)
    eps_values = sweep.eps_values
    target = expectation(setup.A, setup.s)
    limit = unconditional_limit(sweep)
    rows = [
        ResultRow(scenario="limit-check", rho=config.meter.rho, eps=e,
                  wv_numeric=r, wv_closed=target)
        for e, r in zip(eps_values, sweep.readings)
    ]
    # the per-eps rows are finite-eps readings; the limit is the claim
    rows.append(ResultRow(scenario="limit-check", rho=config.meter.rho,
                          wv_numeric=limit, wv_closed=target,
                          status=_status(limit, target, LIMIT_RTOL)))
    errs = [abs(r - target) for r in sweep.readings]
    orders = [math.log(d1 / d2) / math.log(e1 / e2)
              for e1, e2, d1, d2 in zip(eps_values, eps_values[1:],
                                        errs, errs[1:])
              if d1 > 1e-13 and d2 > 1e-13]
    return rows, {
        "analytic_average": target,
        "abs_error": abs(limit - target),
        "empirical_order": (sum(orders) / len(orders)) if orders else None,
    }


def run_sample(config: ExperimentConfig):
    """Monte Carlo conditional mean at the largest scheduled eps, against
    the exact conditional mean."""
    setup = config.setup()
    eps = config.eps_values[0]
    run = monte_carlo_run(setup, eps, config.mc.n_trials, config.mc.seed)
    est, table = run.estimate, run.table
    row = ResultRow(
        scenario="sample",
        rho=config.meter.rho,
        eps=eps,
        mc_mean=est.mean,
        mc_stderr=est.std_error,
        mc_n_success=est.n_success,
    )
    z = None
    if row.mc_mean is not None and row.mc_stderr not in (None, 0.0):
        z = (row.mc_mean - table.conditional_mean) / row.mc_stderr
    return [row], {
        "exact_conditional_mean": table.conditional_mean,
        "exact_success_prob": table.total_success_prob,
        "z_score": z,
        "n_trials": config.mc.n_trials,
        "seed": config.mc.seed,
    }


def run_disturbance(config: ExperimentConfig):
    """How hard the readout kicks the system, across the eps schedule."""
    sweep = eps_sweep(config.setup(), config.schedule)
    kicks = list(zip(sweep.eps_values, disturbance(sweep)))
    rows = [ResultRow(scenario="disturbance", rho=config.meter.rho, eps=e,
                      disturbance=d) for e, d in kicks]
    slopes = [d / e for e, d in kicks]
    ratios = [b / a for a, b in zip(slopes, slopes[1:]) if a > 0]
    return rows, {"slopes": slopes, "successive_slope_ratios": ratios}


def run_aav_grid(config: ExperimentConfig):
    """Weak-value row measured with the Fourier-grid Gaussian meter, with
    the meter's calibration and its agreement with the qubit meter, whose
    closed form is read off the row's complex weak value. The grid meter
    is used whatever the config's meter kind."""
    rho = config.meter.rho
    meter = gaussian_grid_meter(config.grid, rho)
    row, report, _ = _weak_value_row(
        "aav-grid", config, WeakSetup(config.A, config.s, config.f, meter), rho)
    mom = report.coupling_moment
    m = meter.m.amps
    read = complex(np.vdot(m, meter.apply_B(m)))      # B = Q
    # qubit_meter(rho)'s <m,BGm> to the bit: it sums rho with a zero
    qubit_closed = (None if report.aav_complex is None else
                    _closed_form(report.aav_complex, complex(rho + 0.0, 0.5)))
    return [row], {
        "initial_reading_abs": abs(read),
        "coupling_moment": [mom.real, mom.imag],
        "coupling_moment_error": abs(mom - complex(rho, 0.5)),
        "qubit_meter_closed_form": qubit_closed,
        "grid_minus_qubit_closed_form": None if qubit_closed is None
        else report.closed_form - qubit_closed,
    }


def run_compare(config: ExperimentConfig):
    """One row contrasting the weak value with the projective conditional.

    The row carries the conditional quantities (weak value columns,
    projective_cond, and the sampled conditional mean divided by eps).
    The summary adds the unconditional agreement check, read off the same
    Monte Carlo run, and a sampled projective measurement. Both samples
    come from one pass over the same numbered trials, so the weak-meter
    and projective estimates use common random numbers and are
    correlated; each equals its own run with the same seed bit for bit.
    """
    setup = config.setup()
    # both limits first, so a schedule they cannot use draws no trial
    row, _, sweep = _weak_value_row("compare", config, setup, config.meter.rho)
    uncond = unconditional_limit(sweep)
    eps = config.eps_values[0]
    run, proj_run = monte_carlo_pair(setup, eps, config.mc.n_trials,
                                     config.mc.seed)
    est = run.estimate
    row = replace(row, eps=eps, mc_mean=est.mean / eps,
                  mc_stderr=est.std_error / eps, mc_n_success=est.n_success)
    analytic = expectation(setup.A, setup.s)
    # unconditional: every trial, passed or failed, reads the meter
    mc_uncond = EstimateWithError.from_counts(
        run.table.values, run.counts.sum(axis=1), est.n_trials, est.seed)
    proj = proj_run.estimate
    return [row], {
        "unconditional": {
            "meter_limit": uncond,
            "analytic_average": analytic,
            "abs_difference": abs(uncond - analytic),
            "mc_mean_over_eps": mc_uncond.mean / eps,
            "mc_stderr_over_eps": mc_uncond.std_error / eps,
        },
        "conditional": {
            "weak_value_numeric": row.wv_numeric,
            "weak_value_closed_form": row.wv_closed,
            "projective_conditional": row.projective_cond,
            "mc_weak_mean_over_eps": row.mc_mean,
            "mc_weak_stderr_over_eps": row.mc_stderr,
            "mc_projective_mean": proj.mean,
            "mc_projective_stderr": proj.std_error,
        },
    }


_RUNNERS = {
    "weak-value": run_weak_value,
    "sweep-rho": run_sweep_rho,
    "limit-check": run_limit_check,
    "sample": run_sample,
    "disturbance": run_disturbance,
    "aav-grid": run_aav_grid,
    "compare": run_compare,
}

SCENARIOS = tuple(_RUNNERS)


def run_scenario(config: ExperimentConfig):
    """Run the config's scenario; returns (rows, summary)."""
    rows, summary = _RUNNERS[config.scenario](config)
    return rows, _clean(summary)


# ---------------------------------------------------------------------------
# emission


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(getattr(row, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def render_json(config, rows, summary) -> str:
    """The report as one line of compact, strict JSON plus a newline: the
    schema version, the config that ran, the rows and the summary. A
    non-finite float raises ValueError."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "rows": [{c: getattr(row, c) for c in CSV_COLUMNS} for row in rows],
        "summary": summary,
    }
    # no indent, so that json's C encoder writes it
    return json.dumps(report, allow_nan=False, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _number_flag(text: str):
    """A numeric flag as a config file would hold it: an integer literal
    is an int, exact at any size, other numbers are floats, and the rest
    stays text. The config's checks then take it as they take the file's
    value."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


# the flags that override one config key: flag -> (section, key, options)
_FLAGS = {
    "--rho": ("meter", "rho", {"type": _number_flag}),
    "--trials": ("mc", "n_trials", {"type": _number_flag}),
    "--seed": ("mc", "seed", {"type": _number_flag}),
    "--out": ("output", "path", {"metavar": "PATH"}),
    "--format": ("output", "format", {"choices": ("csv", "json")}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused, since
    building one costs 0.25-0.5 ms, a tenth of a small scenario's op."""
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Weak measurement experiment runner.",
    )
    parser.add_argument("scenario", choices=SCENARIOS,
                        help="experiment scenario to run")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH",
                        help="JSON experiment configuration")
    source.add_argument("--preset", metavar="NAME",
                        help=f"built-in configuration: "
                             f"{', '.join(sorted(_PRESETS))}")
    parser.add_argument("--eps", metavar="LIST",
                        help="override the eps schedule, comma-separated "
                             "descending values")
    for flag, (section, key, options) in _FLAGS.items():
        parser.add_argument(flag, help=f"override {section}.{key}", **options)
    return parser


def _apply_overrides(data, args) -> dict:
    """Fold the command-line overrides into a config dict, so that flags
    and files reach the same checks in ExperimentConfig.from_dict."""
    data = {**_object(data, "config root"), "scenario": args.scenario}
    if args.eps is not None:
        try:
            data["eps_schedule"] = ([float(tok) for tok in args.eps.split(",")]
                                    if args.eps else [])
        except ValueError:
            raise ConfigError(f"--eps expects comma-separated numbers, "
                              f"got {args.eps!r}") from None
    for flag, (section, key, _) in _FLAGS.items():
        value = getattr(args, flag[2:])
        if value is not None:
            data[section] = {**_object(data.get(section, {}), section),
                             key: value}
    return data


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = (_preset_data(args.preset) if args.preset
                else _read_json(args.config))
        config = ExperimentConfig.from_dict(_apply_overrides(data, args))
        rows, summary = run_scenario(config)
        if config.output.format == "json":
            text = render_json(config, rows, summary)
        else:
            text = render_csv(rows)
        if config.output.path is not None:
            with open(config.output.path, "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    # every error the library raises on bad input is a ValueError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
