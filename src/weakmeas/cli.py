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
import io
import json
import math
import sys
from dataclasses import dataclass, replace

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
    chirped_gaussian_state,
    gaussian_grid_meter,
    qubit_meter,
)
from .oracle import exact_outcome_distribution, monte_carlo_run, projective_A_oracle
from .protocol import (
    DEFAULT_EPS,
    CalibrationError,
    EmptyPostselectionError,
    EpsSchedule,
    MeterSpec,
    UndefinedWeakValueError,
    WeakSetup,
    aav_complex_weak_value,
    coupling_moment,
    disturbance,
    meter_reading,
    projective_conditional_expectation,
    richardson_limit,
    unconditional_limit,
    weak_value_closed_form,
    weak_value_extrapolation,
)

SCENARIOS = ("weak-value", "sweep-rho", "limit-check", "sample",
             "disturbance", "aav-grid", "compare")

SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined (<f,s> ~ 0)"

CSV_COLUMNS = ("scenario", "rho", "eps", "wv_numeric", "wv_closed",
               "wv_traditional", "wv_aav_re", "wv_aav_im", "projective_cond",
               "mc_mean", "mc_stderr", "mc_n_success", "disturbance",
               "status")


class ConfigError(ValueError):
    """The experiment configuration cannot be used."""


# ---------------------------------------------------------------------------
# configuration


def _is_number(x) -> bool:
    # a JSON true loads as a Python int, but it is not a number
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, key: str, kind=float):
    """A finite config number, converted to ``kind``; booleans, strings
    and JSON's Infinity/NaN are refused rather than coerced."""
    if not _is_number(x) or (isinstance(x, float) and not math.isfinite(x)):
        raise ConfigError(f"{key} must be a finite number, got {x!r}")
    return kind(x)


def _decode_scalar(x) -> complex:
    """A config number is either a plain real or an [re, im] pair."""
    if _is_number(x):
        return complex(float(x), 0.0)
    if (isinstance(x, (list, tuple)) and len(x) == 2
            and all(_is_number(p) for p in x)):
        return complex(float(x[0]), float(x[1]))
    raise ConfigError(f"expected a number or [re, im] pair, got {x!r}")


def _encode_scalar(z: complex):
    return [z.real, z.imag]


def _canonical_vector(raw) -> tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("state literal must be a nonempty list")
    return tuple((_decode_scalar(x).real, _decode_scalar(x).imag)
                 for x in raw)


def _canonical_matrix(raw) -> tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("matrix literal must be a nonempty list of rows")
    rows = []
    for row in raw:
        if not isinstance(row, (list, tuple)) or len(row) != len(raw):
            raise ConfigError("matrix literal must be square, row-major")
        rows.append(tuple((_decode_scalar(x).real, _decode_scalar(x).imag)
                          for x in row))
    return tuple(rows)


def _vector_amps(canonical) -> np.ndarray:
    return np.array([complex(re, im) for re, im in canonical])


def _matrix_entries(canonical) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row]
                     for row in canonical])


@dataclass(frozen=True)
class MeterConfig:
    kind: str = "qubit"
    rho: float = 0.0
    n_points: int = DEFAULT_N_POINTS
    half_width: float = DEFAULT_HALF_WIDTH

    def __post_init__(self):
        if self.kind not in ("qubit", "grid"):
            raise ConfigError(f"meter kind must be qubit or grid, "
                              f"got {self.kind!r}")
        for name in ("rho", "half_width"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"meter {name} must be finite, "
                                  f"got {getattr(self, name)!r}")


@dataclass(frozen=True)
class MonteCarloConfig:
    n_trials: int = 100_000
    seed: int = 1

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError("mc.n_trials must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("mc.seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class OutputConfig:
    path: str = None              # None means stdout
    format: str = "csv"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, "
                              f"got {self.format!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one scenario run needs, in a canonical, serializable form.

    Complex entries are stored as (re, im) float pairs; matrices are
    row-major. Loading validates Hermiticity and dimensional consistency
    immediately, so a config that parses is a config that runs.
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
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version!r}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose one of {', '.join(SCENARIOS)}")
        a = self.system_observable()        # Hermiticity check at load
        s, f = self.pre_state(), self.post_state()
        if not (a.dim == s.dim == f.dim):
            raise ConfigError(
                f"system dims disagree: A is {a.dim}x{a.dim}, "
                f"s has {s.dim}, f has {f.dim}"
            )
        if not self.eps_values:
            raise ConfigError("eps_values must not be empty")
        for e in self.eps_values:
            if not (0.0 < float(e) <= 0.5):
                raise ConfigError(f"eps value {e!r} outside (0, 0.5]")

    def system_observable(self) -> Observable:
        try:
            return Observable(_matrix_entries(self.a_entries))
        except HermiticityError as exc:
            raise ConfigError(f"system observable: {exc}") from exc

    def pre_state(self) -> StateVector:
        return StateVector(_vector_amps(self.s_amps))

    def post_state(self) -> StateVector:
        return StateVector(_vector_amps(self.f_amps))

    def grid_spec(self) -> GridSpec:
        return GridSpec(self.meter.n_points, self.meter.half_width)

    def meter_spec(self, rho: float = None) -> MeterSpec:
        rho = self.meter.rho if rho is None else rho
        if self.meter.kind == "qubit":
            return qubit_meter(rho)
        return gaussian_grid_meter(self.grid_spec(), rho)

    def setup(self, rho: float = None) -> WeakSetup:
        return WeakSetup(self.system_observable(), self.pre_state(),
                         self.post_state(), self.meter_spec(rho))

    def schedule(self) -> EpsSchedule:
        try:
            return EpsSchedule(self.eps_values)
        except ValueError as exc:
            raise ConfigError(f"eps schedule: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "system": {
                "A": [[_encode_scalar(complex(re, im)) for re, im in row]
                      for row in self.a_entries],
                "s": [_encode_scalar(complex(re, im))
                      for re, im in self.s_amps],
                "f": [_encode_scalar(complex(re, im))
                      for re, im in self.f_amps],
            },
            "meter": {
                "kind": self.meter.kind,
                "rho": self.meter.rho,
                "n_points": self.meter.n_points,
                "half_width": self.meter.half_width,
            },
            "eps_schedule": list(self.eps_values),
            "rho_values": list(self.rho_values),
            "mc": {"n_trials": self.mc.n_trials, "seed": self.mc.seed},
            "output": {"path": self.output.path,
                       "format": self.output.format},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        try:
            system = data["system"]
            meter_d = data.get("meter", {})
            mc_d = data.get("mc", {})
            out_d = data.get("output", {})
            return cls(
                scenario=data["scenario"],
                a_entries=_canonical_matrix(system["A"]),
                s_amps=_canonical_vector(system["s"]),
                f_amps=_canonical_vector(system["f"]),
                meter=MeterConfig(
                    kind=meter_d.get("kind", "qubit"),
                    rho=_number(meter_d.get("rho", 0.0), "meter.rho"),
                    n_points=_number(meter_d.get("n_points",
                                                 DEFAULT_N_POINTS),
                                     "meter.n_points", int),
                    half_width=_number(meter_d.get("half_width",
                                                   DEFAULT_HALF_WIDTH),
                                       "meter.half_width"),
                ),
                eps_values=tuple(_number(e, "eps_schedule") for e in
                                 data.get("eps_schedule", DEFAULT_EPS)),
                rho_values=tuple(_number(r, "rho_values") for r in
                                 data.get("rho_values", ())),
                mc=MonteCarloConfig(
                    n_trials=_number(mc_d.get("n_trials", 100_000),
                                     "mc.n_trials", int),
                    seed=_number(mc_d.get("seed", 1), "mc.seed", int),
                ),
                output=OutputConfig(
                    path=out_d.get("path"),
                    format=out_d.get("format", "csv"),
                ),
                schema_version=_number(data.get("schema_version",
                                                SCHEMA_VERSION),
                                       "schema_version", int),
            )
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# presets

_SX = (((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 0.0)))
_SZ = (((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (-1.0, 0.0)))
_DELTA = 2.0 / 101.0


def _preset_nonunique_rho50() -> ExperimentConfig:
    """Circular preselection against sigma_x: the complex ratio is i, so
    the qubit meter at rho = 50 reads a weak value of 100 where the
    traditional and projective conditionals both read 0."""
    return ExperimentConfig(
        scenario="weak-value",
        a_entries=_SX,
        s_amps=((1.0, 0.0), (0.0, 1.0)),
        f_amps=((1.0, 0.0), (0.0, 0.0)),
        meter=MeterConfig(kind="qubit", rho=50.0),
        rho_values=(-50.0, 0.0, 50.0),
        mc=MonteCarloConfig(n_trials=200_000, seed=7),
    )


def _preset_aav100() -> ExperimentConfig:
    """Nearly-orthogonal postselection against sigma_z: the traditional
    weak value is 100 while both eigenvalues are +-1."""
    return ExperimentConfig(
        scenario="weak-value",
        a_entries=_SZ,
        s_amps=((1.0, 0.0), (1.0, 0.0)),
        f_amps=((1.0, 0.0), (-1.0 + _DELTA, 0.0)),
        meter=MeterConfig(kind="qubit", rho=0.0),
        mc=MonteCarloConfig(n_trials=200_000, seed=7),
    )


def _preset_convexity_contrast() -> ExperimentConfig:
    """The aav100 triple wired for the compare scenario: unconditional
    readings agree with <s, As> while the two conditionals disagree."""
    return replace(_preset_aav100(), scenario="compare")


_PRESETS = {
    "nonunique-rho50": _preset_nonunique_rho50,
    "aav100": _preset_aav100,
    "convexity-contrast": _preset_convexity_contrast,
}


def preset(name: str) -> ExperimentConfig:
    """Look up a built-in named configuration."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(sorted(_PRESETS))}") from None


# ---------------------------------------------------------------------------
# result rows


@dataclass(frozen=True)
class ResultRow:
    """One line of scenario output; mirrors the CSV columns exactly."""

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

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _safe_projective(a, s, f):
    try:
        return projective_conditional_expectation(a, s, f)
    except EmptyPostselectionError:
        return None


def _weak_value_fields(setup: WeakSetup, sched: EpsSchedule) -> dict:
    """The weak-value column family for one setup, undefined-safe."""
    a, s, f = setup.A, setup.s, setup.f
    fields = {"projective_cond": _safe_projective(a, s, f)}
    try:
        ratio = aav_complex_weak_value(a, s, f)
    except UndefinedWeakValueError:
        fields["status"] = STATUS_UNDEFINED
        return fields
    ex = weak_value_extrapolation(setup, sched)
    fields.update(
        wv_numeric=ex.limit,
        wv_closed=weak_value_closed_form(setup),
        wv_traditional=ratio.real,
        wv_aav_re=ratio.real,
        wv_aav_im=ratio.imag,
        status=STATUS_OK,
    )
    return fields


# ---------------------------------------------------------------------------
# scenarios: each builds its setup once and returns (rows, summary); the
# summary goes into JSON reports only


def _clean(obj):
    """Replace non-finite floats with None so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def run_weak_value(config: ExperimentConfig):
    """Every weak-value notion for one setup, side by side."""
    setup = config.setup()
    row = ResultRow(scenario="weak-value", rho=config.meter.rho,
                    **_weak_value_fields(setup, config.schedule()))
    return [row], {
        "closed_minus_numeric": None
        if row.wv_numeric is None or row.wv_closed is None
        else row.wv_closed - row.wv_numeric,
        "rho_effective": coupling_moment(setup.meter).real,
    }


def run_sweep_rho(config: ExperimentConfig):
    """One weak-value row per rho; the closed form must move affinely."""
    if not config.rho_values:
        raise ConfigError("sweep-rho needs a nonempty rho_values list")
    rhos = sorted(config.rho_values)
    sched = config.schedule()
    base = config.setup(rho=rhos[0])
    setups = [base] + [replace(base, meter=config.meter_spec(rho))
                       for rho in rhos[1:]]
    rows = [ResultRow(scenario="sweep-rho", rho=rho,
                      **_weak_value_fields(setup, sched))
            for rho, setup in zip(rhos, setups)]
    ratio = aav_complex_weak_value(base.A, base.s, base.f)
    summary = {"aav_imag": ratio.imag, "expected_slope": 2.0 * ratio.imag}
    pairs = [(r.rho, r.wv_closed) for r in rows if r.wv_closed is not None]
    if len(pairs) >= 2:
        slope, intercept = np.polyfit([p[0] for p in pairs],
                                      [p[1] for p in pairs], 1)
        summary.update(fitted_slope=float(slope),
                       fitted_intercept=float(intercept),
                       slope_residual=float(slope - 2.0 * ratio.imag))
    return rows, summary


def run_limit_check(config: ExperimentConfig):
    """Unconditional meter readings per eps, then the extrapolated limit."""
    setup = config.setup()
    eps_values = config.schedule().eps_values
    target = expectation(setup.A, setup.s)
    readings = [meter_reading(setup, e) for e in eps_values]
    limit = richardson_limit(eps_values, readings).limit
    rows = [
        ResultRow(scenario="limit-check", rho=config.meter.rho, eps=e,
                  wv_numeric=r, wv_closed=target)
        for e, r in zip(eps_values, readings)
    ]
    rows.append(ResultRow(scenario="limit-check", rho=config.meter.rho,
                          wv_numeric=limit, wv_closed=target))
    errs = [abs(r - target) for r in readings]
    orders = [math.log(d1 / d2) / math.log(e1 / e2)
              for e1, e2, d1, d2 in zip(eps_values, eps_values[1:],
                                        errs, errs[1:])
              if d1 > 1e-13 and d2 > 1e-13]
    return rows, {
        "analytic_average": target,
        "extrapolated_limit": limit,
        "abs_error": abs(limit - target),
        "per_eps_abs_error": errs,
        "empirical_order": (sum(orders) / len(orders)) if orders else None,
    }


def run_sample(config: ExperimentConfig):
    """Monte Carlo conditional mean at the largest scheduled eps, against
    the exact conditional mean."""
    setup = config.setup()
    eps = config.eps_values[0]
    est = monte_carlo_run(setup, eps, config.mc.n_trials,
                          config.mc.seed).estimate
    table = exact_outcome_distribution(setup, eps)
    row = ResultRow(
        scenario="sample",
        rho=config.meter.rho,
        eps=eps,
        mc_mean=_finite_or_none(est.mean),
        mc_stderr=_finite_or_none(est.std_error),
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
    setup = config.setup()
    rows = [
        ResultRow(scenario="disturbance", rho=config.meter.rho, eps=e,
                  disturbance=disturbance(setup, e))
        for e in config.schedule().eps_values
    ]
    slopes = [r.disturbance / r.eps for r in rows]
    ratios = [b / a for a, b in zip(slopes, slopes[1:]) if a > 0]
    return rows, {
        "slopes": slopes,
        "successive_slope_ratios": ratios,
        "max_slope": max(slopes),
    }


def run_aav_grid(config: ExperimentConfig):
    """Weak-value row measured with the Fourier-grid Gaussian meter, with
    the meter's calibration and its agreement with the qubit meter."""
    grid = config.grid_spec()
    rho = config.meter.rho
    meter = gaussian_grid_meter(grid, rho)
    setup = WeakSetup(config.system_observable(), config.pre_state(),
                      config.post_state(), meter)
    row = ResultRow(scenario="aav-grid", rho=rho,
                    **_weak_value_fields(setup, config.schedule()))
    m = meter.m.amps
    q = meter.B.entries                  # B = Q, G = P + rho Q
    p = meter.G.entries - rho * q
    read = complex(np.vdot(m, q @ m))
    mom = coupling_moment(meter)
    conj_chirp = chirped_gaussian_state(grid, -rho).amps
    chirp_mom = complex(np.vdot(conj_chirp, q @ (p @ conj_chirp)))
    try:
        qubit_closed = weak_value_closed_form(
            replace(setup, meter=qubit_meter(rho)))
    except UndefinedWeakValueError:
        qubit_closed = None
    return [row], {
        "initial_reading_abs": abs(read),
        "coupling_moment": [mom.real, mom.imag],
        "coupling_moment_error": abs(mom - complex(rho, 0.5)),
        "chirp_equivalence_residual": abs(chirp_mom - mom),
        "qubit_meter_closed_form": qubit_closed,
        "grid_minus_qubit_closed_form": None
        if qubit_closed is None or row.wv_closed is None
        else row.wv_closed - qubit_closed,
    }


def run_compare(config: ExperimentConfig):
    """One row contrasting the weak value with the projective conditional.

    The row carries the conditional quantities (weak value columns,
    projective_cond, and the sampled conditional mean divided by eps).
    The summary adds the unconditional agreement check, read off the same
    Monte Carlo run, and a sampled projective measurement.
    """
    setup = config.setup()
    sched = config.schedule()
    fields = _weak_value_fields(setup, sched)
    eps = config.eps_values[0]
    run = monte_carlo_run(setup, eps, config.mc.n_trials, config.mc.seed)
    est = run.estimate
    mc_mean = _finite_or_none(est.mean)
    mc_err = _finite_or_none(est.std_error)
    row = ResultRow(
        scenario="compare",
        rho=config.meter.rho,
        eps=eps,
        mc_mean=None if mc_mean is None else mc_mean / eps,
        mc_stderr=None if mc_err is None else mc_err / eps,
        mc_n_success=est.n_success,
        **fields,
    )
    analytic = expectation(setup.A, setup.s)
    uncond = unconditional_limit(setup, sched)
    counts = run.counts.sum(axis=1)
    n = counts.sum()
    b = np.asarray(run.b_values)
    mc_uncond_mean = float((b * counts).sum() / n)
    var = float((b * b * counts).sum() / n - mc_uncond_mean ** 2)
    mc_uncond_err = math.sqrt(max(var, 0.0) * n / max(n - 1, 1)) / math.sqrt(n)
    proj = projective_A_oracle(setup.A, setup.s, setup.f,
                               config.mc.n_trials, config.mc.seed)
    return [row], {
        "unconditional": {
            "meter_limit": uncond,
            "analytic_average": analytic,
            "abs_difference": abs(uncond - analytic),
            "mc_mean_over_eps": mc_uncond_mean / eps,
            "mc_stderr_over_eps": mc_uncond_err / eps,
        },
        "conditional": {
            "weak_value_numeric": row.wv_numeric,
            "weak_value_closed_form": row.wv_closed,
            "projective_conditional": row.projective_cond,
            "mc_weak_mean_over_eps": row.mc_mean,
            "mc_weak_stderr_over_eps": row.mc_stderr,
            "mc_projective_mean": _finite_or_none(proj.mean),
            "mc_projective_stderr": _finite_or_none(proj.std_error),
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
        writer.writerow([_csv_cell(row.as_dict()[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def render_json(config, rows, summary) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "rows": [_clean(row.as_dict()) for row in rows],
        "summary": summary,
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _parse_args(argv):
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
    parser.add_argument("--rho", type=float,
                        help="override the meter rho")
    parser.add_argument("--eps", metavar="LIST",
                        help="override the eps schedule, comma-separated "
                             "descending values")
    parser.add_argument("--trials", type=int,
                        help="override the Monte Carlo trial count")
    parser.add_argument("--seed", type=int,
                        help="override the Monte Carlo seed")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default from config, else csv)")
    return parser.parse_args(argv)


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    config = replace(config, scenario=args.scenario)
    if args.rho is not None:
        config = replace(config, meter=replace(config.meter, rho=args.rho))
    if args.eps is not None:
        try:
            eps = tuple(float(tok) for tok in args.eps.split(",") if tok)
        except ValueError:
            raise ConfigError(f"--eps expects comma-separated numbers, "
                              f"got {args.eps!r}") from None
        config = replace(config, eps_values=eps)
    mc = config.mc
    if args.trials is not None:
        mc = replace(mc, n_trials=args.trials)
    if args.seed is not None:
        mc = replace(mc, seed=args.seed)
    if mc is not config.mc:
        config = replace(config, mc=mc)
    out = config.output
    if args.out is not None:
        out = replace(out, path=args.out)
    if args.format is not None:
        out = replace(out, format=args.format)
    if out is not config.output:
        config = replace(config, output=out)
    return config


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        base = (preset(args.preset) if args.preset
                else ExperimentConfig.load(args.config))
        config = _apply_overrides(base, args)
        rows, summary = run_scenario(config)
        if config.output.format == "json":
            text = render_json(config, rows, summary)
        else:
            text = render_csv(rows)
        if config.output.path:
            with open(config.output.path, "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, CalibrationError, UndefinedWeakValueError,
            EmptyPostselectionError, DimensionMismatchError,
            HermiticityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
