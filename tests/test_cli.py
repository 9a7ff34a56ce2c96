"""Tests for the experiment runner: configs, scenarios, and the CLI."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dataclasses import asdict, replace

from weakmeas import cli
from weakmeas.hilbert import DimensionMismatchError, Observable, StateVector
from weakmeas.meters import GridSpec, qubit_meter
from weakmeas.protocol import (
    WV_RTOL,
    EpsSchedule,
    UndefinedWeakValueError,
    WeakSetup,
    aav_complex_weak_value,
    projective_tables,
    weak_value_closed_form,
)
from weakmeas.cli import (
    CSV_COLUMNS,
    SCENARIOS,
    STATUS_OK,
    STATUS_UNCONVERGED,
    STATUS_UNDEFINED,
    ConfigError,
    ExperimentConfig,
    MeterConfig,
    MonteCarloConfig,
    OutputConfig,
    ResultRow,
    main,
    preset,
    render_csv,
    render_json,
    run_scenario,
)

from reference import large_zero_mean_system

SX = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]

GOLDEN = pathlib.Path(__file__).parent / "golden"


def generic_config(scenario="weak-value", **kw):
    """Small qubit-system config with a nonzero system average."""
    base = dict(
        scenario=scenario,
        a_entries=(((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 0.0))),
        s_amps=((2.0, 0.0), (1.0, 0.0)),
        f_amps=((1.0, 0.0), (0.0, 0.0)),
        meter=MeterConfig(kind="qubit", rho=3.0),
        mc=MonteCarloConfig(n_trials=20_000, seed=11),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def row_dicts(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ["nonunique-rho50", "aav100",
                                      "convexity-contrast"])
    def test_dict_round_trip_is_equal(self, name):
        cfg = preset(name)
        back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_file_round_trip_is_equal(self, tmp_path):
        cfg = generic_config()
        path = tmp_path / "cfg.json"
        cfg.save(str(path))
        assert ExperimentConfig.load(str(path)) == cfg

    def test_bare_numbers_parse_as_real(self):
        data = preset("aav100").to_dict()
        data["system"]["s"] = [1, 1]
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.s_amps == ((1.0, 0.0), (1.0, 0.0))

    def test_complex_entries_survive(self):
        cfg = generic_config(s_amps=((1.0, 0.0), (0.0, 1.0)))
        back = ExperimentConfig.from_dict(cfg.to_dict())
        amps = back.s.amps
        assert amps[1] == pytest.approx(1j / math.sqrt(2))


class TestConfigValidation:
    def test_unknown_schema_version(self):
        data = preset("aav100").to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_dict(data)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            generic_config(scenario="frobnicate")

    def test_non_hermitian_observable(self):
        with pytest.raises(ConfigError, match="Hermitian"):
            generic_config(a_entries=(((0.0, 0.0), (1.0, 0.0)),
                                      ((2.0, 0.0), (0.0, 0.0))))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="dims"):
            generic_config(s_amps=((1.0, 0.0), (0.0, 0.0), (0.0, 0.0)))

    def test_one_dimension_rule_and_message(self):
        # the library raises DimensionMismatchError, the config its
        # ConfigError, and every caller words it the same
        a, s = Observable(np.eye(2)), StateVector([1, 0])
        f3 = StateVector([1, 0, 0])
        messages = set()
        for build in (lambda: WeakSetup(a, s, f3, qubit_meter(0.0)),
                      lambda: projective_tables(a, s, f3),
                      lambda: aav_complex_weak_value(a, s, f3)):
            with pytest.raises(DimensionMismatchError) as exc:
                build()
            messages.add(str(exc.value))
        with pytest.raises(ConfigError) as exc:
            generic_config(f_amps=((1.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
        messages.add(str(exc.value))
        assert messages == {"system dims disagree: A is 2x2, s has 2, "
                            "f has 3"}

    def test_empty_eps(self):
        with pytest.raises(ConfigError, match="eps"):
            generic_config(eps_values=())

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_schedule_must_descend_for_every_scenario(self, scenario):
        # sweep-rho needs rho values; the other scenarios ignore them
        rho = {"rho_values": (1.0,)}
        for eps in ((1e-3, 1e-2), (1e-2, 1e-2), (1e-2, 5e-3, 6e-3)):
            with pytest.raises(ConfigError, match="strictly descending"):
                generic_config(scenario=scenario, eps_values=eps, **rho)
        # one eps is a schedule: sample reads only the first
        assert generic_config(scenario=scenario, eps_values=(1e-2,),
                              **rho).eps_values == (1e-2,)

    def test_eps_out_of_range(self):
        with pytest.raises(ConfigError, match="eps"):
            generic_config(eps_values=(0.9, 0.45))

    def test_keeps_the_schedule_and_grid_it_checked(self):
        cfg = generic_config(eps_values=(1e-2, 5e-3),
                             meter=MeterConfig(n_points=256, half_width=12.0))
        assert cfg.schedule == EpsSchedule((1e-2, 5e-3))
        assert cfg.grid == GridSpec(256, 12.0)
        # fields, not methods that rebuild them on every call
        assert not hasattr(ExperimentConfig, "grid_spec")
        assert not callable(getattr(ExperimentConfig, "schedule", None))

    def test_runners_build_no_schedule_or_grid(self, monkeypatch):
        configs = [generic_config(
            scenario=scenario, rho_values=(0.0, 1.0),
            meter=MeterConfig(rho=3.0, n_points=256, half_width=12.0),
            mc=MonteCarloConfig(n_trials=100, seed=1))
            for scenario in SCENARIOS]

        def refuse(*args):
            raise AssertionError("built again at run time")

        monkeypatch.setattr(cli, "EpsSchedule", refuse)
        monkeypatch.setattr(cli, "GridSpec", refuse)
        for cfg in configs:
            run_scenario(cfg)

    @pytest.mark.parametrize("kind", ["qubit", "grid"])
    @pytest.mark.parametrize("key, value, message", [
        ("n_points", 3, "n_points must be a power of two, got 3"),
        ("half_width", -1.0, "half_width must be positive and finite, "
                             "got -1.0")])
    def test_meter_grid_checked_for_every_kind(self, kind, key, value,
                                               message):
        # aav-grid runs the grid whatever the kind, so every config's
        # grid must be one that GridSpec accepts
        with pytest.raises(ConfigError) as exc:
            generic_config(meter=MeterConfig(kind=kind, **{key: value}))
        assert str(exc.value) == f"meter: {message}"

    @pytest.mark.parametrize("key, value, message", [
        ("s", [], "state literal must be a nonempty list"),
        ("A", [], "matrix literal must be a nonempty list of rows"),
        ("A", [[1, 0]], "matrix literal must be square, row-major")])
    def test_malformed_system_literals(self, key, value, message):
        data = preset("aav100").to_dict()
        data["system"][key] = value
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(ConfigError) as exc:
            MonteCarloConfig(seed=seed)
        assert str(exc.value) == "mc.seed must be an unsigned 64-bit integer"

    def test_section_must_be_its_config_class(self):
        with pytest.raises(ConfigError) as exc:
            generic_config(meter={"kind": "qubit"})
        assert str(exc.value) == "meter must be a MeterConfig"

    def test_bad_meter_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            MeterConfig(kind="dial")

    def test_bad_trial_count(self):
        with pytest.raises(ConfigError, match="n_trials"):
            MonteCarloConfig(n_trials=0)

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_dict({"scenario": "weak-value"})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            preset("nope")

    @pytest.mark.parametrize("field", ["rho", "half_width"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_meter_values(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            MeterConfig(**{field: bad})

    def test_json_infinity_rejected(self):
        # json.load accepts the non-standard Infinity and NaN tokens
        data = json.loads(json.dumps(preset("aav100").to_dict())
                          .replace('"rho": 0.0', '"rho": Infinity'))
        with pytest.raises(ConfigError, match="rho"):
            ExperimentConfig.from_dict(data)

    def test_non_finite_system_entry_rejected(self):
        data = preset("aav100").to_dict()
        data["system"]["A"][0][0] = [math.nan, 0.0]
        with pytest.raises(ValueError, match="non-finite"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("section, key", [("mc", "n_trials"),
                                              ("mc", "seed"),
                                              ("meter", "rho"),
                                              ("meter", "n_points")])
    def test_boolean_numbers_rejected(self, section, key):
        data = preset("aav100").to_dict()
        data[section][key] = True
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(data)

    def test_boolean_state_rejected(self):
        data = preset("aav100").to_dict()
        data["system"]["s"] = [True, False]
        with pytest.raises(ConfigError, match="number"):
            ExperimentConfig.from_dict(data)
        data["system"]["s"] = [[1, 0], [True, 0]]
        with pytest.raises(ConfigError, match="number"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("pair", [[0, True], [1, "0"], [1, 0, 0],
                                      [[1, 0], 0], [1, None], [], [1]])
    def test_malformed_pair_rejected(self, pair):
        data = preset("aav100").to_dict()
        data["system"]["s"] = [[1, 0], pair]
        with pytest.raises(ConfigError, match="number or \\[re, im\\] pair"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("build", [
        lambda: MeterConfig(n_points=2.5),
        lambda: MeterConfig(rho="1"),
        lambda: MonteCarloConfig(seed=True),
        lambda: MonteCarloConfig(n_trials="5"),
        lambda: replace(preset("aav100"), schema_version=True),
    ], ids=["n_points", "rho", "seed", "n_trials", "schema_version"])
    def test_direct_construction_runs_the_json_checks(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_json_style_lists_construct_the_parsed_config(self):
        data = json.loads("""{
            "scenario": "sweep-rho",
            "system": {"A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                       "s": [1, [0, 1]], "f": [1, 0]},
            "meter": {"kind": "grid", "rho": 3, "n_points": 256.0},
            "eps_schedule": [0.01, 0.005], "rho_values": [-5, 0, 5],
            "mc": {"n_trials": 1e4, "seed": 4}}""")
        system = data["system"]
        direct = ExperimentConfig(
            scenario=data["scenario"], a_entries=system["A"],
            s_amps=system["s"], f_amps=system["f"],
            meter=MeterConfig(**data["meter"]),
            eps_values=data["eps_schedule"], rho_values=data["rho_values"],
            mc=MonteCarloConfig(**data["mc"]))
        parsed = ExperimentConfig.from_dict(data)
        assert direct == parsed
        # the same canonical values, down to the JSON they write
        assert json.dumps(direct.to_dict()) == json.dumps(parsed.to_dict())
        assert direct.s_amps == ((1.0, 0.0), (0.0, 1.0))
        assert direct.mc.n_trials == 10_000
        assert isinstance(direct.mc.n_trials, int)


class TestPresets:
    def test_nonunique_rho50_shape(self):
        cfg = preset("nonunique-rho50")
        assert cfg.scenario == "weak-value"
        assert cfg.meter.rho == 50.0
        assert cfg.rho_values == (-50.0, 0.0, 50.0)
        assert np.allclose(cfg.A.entries, [[0, 1], [1, 0]])

    def test_aav100_traditional_is_exactly_100(self):
        from weakmeas.protocol import traditional_weak_value

        cfg = preset("aav100")
        wv = traditional_weak_value(cfg.A, cfg.s, cfg.f)
        assert abs(wv - 100.0) <= 1e-9

    def test_convexity_contrast_scenario(self):
        assert preset("convexity-contrast").scenario == "compare"

    def test_configs_match_golden(self):
        # the config each preset expands to, as a JSON report embeds it
        want = json.loads((GOLDEN / "presets.json").read_text())
        assert {name: preset(name).to_dict() for name in want} == want
        assert sorted(want) == sorted(cli._PRESETS)


class TestWeakValueScenario:
    def test_canonical_row(self):
        rows, summary = run_scenario(preset("nonunique-rho50"))
        row = rows[0]
        assert row.wv_closed == 100.0
        assert abs(row.wv_numeric - 100.0) <= 1e-4
        assert row.wv_traditional == 0.0
        assert row.wv_aav_im == pytest.approx(1.0)
        assert row.projective_cond == pytest.approx(0.0, abs=1e-12)
        assert row.status == STATUS_OK
        assert summary["rho_effective"] == pytest.approx(50.0)

    def test_orthogonal_postselection_marks_undefined(self):
        cfg = generic_config(s_amps=((1.0, 0.0), (0.0, 0.0)),
                             f_amps=((0.0, 0.0), (1.0, 0.0)))
        rows, _ = run_scenario(cfg)
        row = rows[0]
        assert row.status == STATUS_UNDEFINED
        assert row.wv_numeric is None and row.wv_closed is None
        # projective conditional survives: Lueders branches can still hit f
        assert row.projective_cond is not None

    def test_f_equals_s_recovers_the_average(self):
        # postselecting on the preselected state conditions on nothing,
        # so every notion collapses to <s, As>, whatever rho is
        cfg = generic_config(f_amps=((2.0, 0.0), (1.0, 0.0)),
                             meter=MeterConfig(kind="qubit", rho=17.0))
        rows, _ = run_scenario(cfg)
        row = rows[0]
        assert row.wv_closed == pytest.approx(0.8, abs=1e-12)
        assert row.wv_traditional == pytest.approx(0.8, abs=1e-12)
        assert row.wv_numeric == pytest.approx(0.8, abs=1e-6)


class TestSweepRhoScenario:
    def test_rows_sorted_and_exact(self):
        cfg = preset("nonunique-rho50")
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(),
                                          "scenario": "sweep-rho"})
        rows, summary = run_scenario(cfg)
        assert [r.rho for r in rows] == [-50.0, 0.0, 50.0]
        assert [r.wv_closed for r in rows] == [-100.0, 0.0, 100.0]
        assert summary["fitted_slope"] == pytest.approx(2.0, abs=1e-10)
        assert summary["slope_residual"] == pytest.approx(0.0, abs=1e-10)

    def test_empty_rho_values_rejected(self):
        # refused when the config is built, so no config exists to run
        with pytest.raises(ConfigError, match="rho_values"):
            generic_config(scenario="sweep-rho")

    def test_real_ratio_makes_the_sweep_flat(self):
        # Im<f,As>/<f,s> = 0 pins the closed form at the traditional
        # value for every rho: this triple is meter-independent
        cfg = generic_config(scenario="sweep-rho",
                             rho_values=(-10.0, 0.0, 10.0))
        rows, summary = run_scenario(cfg)
        assert summary["aav_imag"] == pytest.approx(0.0, abs=1e-12)
        closed = [r.wv_closed for r in rows]
        assert closed == pytest.approx([closed[0]] * 3, abs=1e-12)
        assert closed[0] == pytest.approx(rows[0].wv_traditional)
        assert abs(summary["fitted_slope"]) <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [1e154, 1e300])
    def test_fit_survives_rho_near_the_float_range(self, big):
        # polyfit squares its columns, which overflowed at |rho| ~ 1e154
        # and printed a slope of 0.0 beside rows that all read ok
        cfg = replace(preset("nonunique-rho50"), scenario="sweep-rho",
                      rho_values=(-big, 0.0, big))
        rows, summary = run_scenario(cfg)
        assert [r.status for r in rows] == [STATUS_OK] * 3
        assert summary["fitted_slope"] == pytest.approx(2.0, rel=1e-12)
        assert abs(summary["slope_residual"]) <= 1e-12

    def test_one_distinct_rho_fits_no_line(self):
        cfg = generic_config(scenario="sweep-rho", rho_values=(5.0, 5.0, 5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, summary = run_scenario(cfg)
        assert [r.rho for r in rows] == [5.0] * 3
        assert summary["expected_slope"] == 2.0 * rows[0].wv_aav_im
        assert not {"fitted_slope", "fitted_intercept",
                    "slope_residual"} & set(summary)


class TestLimitCheckScenario:
    def test_rows_and_extrapolant(self):
        cfg = generic_config(scenario="limit-check")
        rows, summary = run_scenario(cfg)
        assert len(rows) == len(cfg.eps_values) + 1
        assert rows[-1].eps is None
        assert all(r.eps == e for r, e in zip(rows, cfg.eps_values))
        assert summary["abs_error"] <= 1e-10
        assert summary["analytic_average"] == pytest.approx(0.8)
        # readings converge quadratically for this meter family
        assert summary["empirical_order"] == pytest.approx(2.0, abs=0.05)


class TestSampleScenario:
    def test_estimate_consistent_with_exact(self):
        cfg = generic_config(scenario="sample",
                             mc=MonteCarloConfig(n_trials=50_000, seed=3))
        rows, summary = run_scenario(cfg)
        row = rows[0]
        assert row.eps == cfg.eps_values[0]
        assert row.mc_n_success > 0
        assert abs(summary["z_score"]) < 5.0

    def test_repeat_run_is_identical(self):
        cfg = generic_config(scenario="sample")
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert first[0][0] == second[0][0]
        assert first[1] == second[1]

    def test_no_accepted_trial_leaves_the_mean_empty(self):
        # <f, s> = 0: the weak meter passes about one trial in 1e4
        cfg = generic_config(scenario="sample",
                             s_amps=((1.0, 0.0), (0.0, 0.0)),
                             f_amps=((0.0, 0.0), (1.0, 0.0)),
                             mc=MonteCarloConfig(n_trials=100, seed=11))
        rows, summary = run_scenario(cfg)
        assert rows[0].mc_n_success == 0
        assert rows[0].mc_mean is None and rows[0].mc_stderr is None
        assert summary["z_score"] is None


class TestDisturbanceScenario:
    def test_quadratic_falloff(self):
        cfg = generic_config(scenario="disturbance",
                             eps_values=(1e-2, 5e-3, 2.5e-3))
        rows, summary = run_scenario(cfg)
        assert len(rows) == 3
        for a, b in zip(rows, rows[1:]):
            assert b.disturbance < a.disturbance
        for ratio in summary["successive_slope_ratios"]:
            assert 0.3 <= ratio <= 3.0

    def test_nan_kick_leaves_an_empty_cell(self, monkeypatch):
        # the summary divides the kicks, not the cells a NaN empties
        real = cli.disturbance
        monkeypatch.setattr(cli, "disturbance",
                            lambda sweep: [math.nan, *real(sweep)[1:]])
        rows, summary = run_scenario(generic_config(scenario="disturbance"))
        assert rows[0].disturbance is None
        assert None not in [r.disturbance for r in rows[1:]]
        assert summary["slopes"][0] is None
        assert None not in summary["slopes"][1:]


class TestAavGridScenario:
    def test_grid_row_matches_qubit_closed_form(self):
        cfg = generic_config(
            scenario="aav-grid",
            s_amps=((1.0, 0.0), (0.0, 1.0)),
            meter=MeterConfig(kind="grid", rho=3.0, n_points=256,
                              half_width=12.0),
        )
        rows, summary = run_scenario(cfg)
        row = rows[0]
        assert summary["coupling_moment_error"] <= 1e-8
        assert summary["chirp_equivalence_residual"] <= 1e-8
        assert summary["initial_reading_abs"] <= 1e-10
        assert abs(summary["grid_minus_qubit_closed_form"]) <= 1e-6
        assert abs(row.wv_numeric - row.wv_closed) <= 1e-4

    def test_qubit_config_is_measured_with_the_grid_meter(self, capsys):
        # the scenario builds its grid meter from the config's grid fields
        # whatever the meter kind, so the qubit presets run it too
        assert main(["aav-grid", "--preset", "nonunique-rho50",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        summary = report["summary"]
        assert summary["coupling_moment_error"] <= 1e-8
        assert abs(summary["grid_minus_qubit_closed_form"]) <= 1e-6
        row = report["rows"][0]
        assert row["wv_closed"] == pytest.approx(100.0, abs=1e-6)
        assert abs(row["wv_numeric"] - row["wv_closed"]) <= 1e-4 * 100.0

    def test_builds_no_qubit_meter(self, monkeypatch):
        built = []

        def counting(rho):
            built.append(rho)
            return qubit_meter(rho)

        monkeypatch.setattr(cli, "qubit_meter", counting)
        _, summary = run_scenario(replace(preset("nonunique-rho50"),
                                          scenario="aav-grid"))
        assert summary["qubit_meter_closed_form"] == 100.0
        assert built == []

    @staticmethod
    def systems():
        """(A, s, f) of dimension 2-4 as config entries: random draws,
        sigma x with a circular preselection at both global signs (AAV
        ratios 0 + i and -0 + i), and one orthogonal pair."""
        def pairs(z):
            return tuple((float(x.real), float(x.imag)) for x in z)

        rng = np.random.default_rng(23)
        out = []
        for dim in (2, 3, 4, 2, 3, 4):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = (h + h.conj().T) / 2.0
            s, f = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
            out.append((tuple(pairs(r) for r in a), pairs(s), pairs(f)))
        sx = (((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 0.0)))
        e1, e2 = ((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))
        for sign in (1.0, -1.0):
            out.append((sx, ((sign, 0.0), (0.0, sign)), e1))
        out.append((sx, e1, e2))
        return out

    @pytest.mark.parametrize("rho", [0.0, -0.0, 3.0, -3.0, 37.5, -37.5,
                                     1e3, -1e3])
    def test_qubit_closed_form_is_the_qubit_meters_bit_for_bit(self, rho):
        for a, s, f in self.systems():
            cfg = generic_config(
                scenario="aav-grid", a_entries=a, s_amps=s, f_amps=f,
                meter=MeterConfig(kind="grid", rho=rho, n_points=256,
                                  half_width=12.0))
            _, summary = run_scenario(cfg)
            got = summary["qubit_meter_closed_form"]
            setup = WeakSetup(cfg.A, cfg.s, cfg.f, qubit_meter(rho))
            try:
                want = weak_value_closed_form(setup)
            except UndefinedWeakValueError:
                assert got is None
                continue
            # repr tells -0.0 from 0.0 and round-trips every other float
            assert repr(got) == repr(want)


class TestGridScenariosStayMatrixFree:
    @pytest.mark.parametrize("scenario", ["weak-value", "sweep-rho",
                                          "limit-check", "sample",
                                          "disturbance", "aav-grid",
                                          "compare"])
    def test_dense_views_are_never_built(self, scenario, tmp_path,
                                         monkeypatch):
        from weakmeas import cli
        built = []

        def recording(grid, rho):
            meter = real(grid, rho)
            built.append(meter)
            return meter

        real = cli.gaussian_grid_meter
        monkeypatch.setattr(cli, "gaussian_grid_meter", recording)
        data = {**preset("nonunique-rho50").to_dict(),
                "meter": {"kind": "grid", "rho": -37.5},
                "mc": {"n_trials": 20_000, "seed": 3}}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        assert main([scenario, "--config", str(path), "--out", str(out),
                     "--format", "json"]) == 0
        assert built
        for meter in built:
            # the views cache their matrix in the instance dict once read
            assert "entries" not in vars(meter.B)
            assert "entries" not in vars(meter.G)


class TestCompareScenario:
    def test_summary_structure(self):
        cfg = generic_config(scenario="compare",
                             mc=MonteCarloConfig(n_trials=40_000, seed=5))
        rows, summary = run_scenario(cfg)
        uncond = summary["unconditional"]
        cond = summary["conditional"]
        assert uncond["abs_difference"] <= 1e-8
        assert uncond["analytic_average"] == pytest.approx(0.8)
        # MC unconditional mean over eps estimates the analytic average
        assert abs(uncond["mc_mean_over_eps"] - 0.8) \
            <= 5 * uncond["mc_stderr_over_eps"]
        assert cond["weak_value_closed_form"] == pytest.approx(
            cond["weak_value_numeric"], abs=1e-4)
        assert cond["mc_projective_mean"] == pytest.approx(
            cond["projective_conditional"],
            abs=5 * cond["mc_projective_stderr"])
        assert rows[0].mc_n_success > 0

    def test_identity_observable_reads_one_everywhere(self):
        cfg = generic_config(
            scenario="compare",
            a_entries=(((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))),
            f_amps=((1.0, 0.0), (1.0, 0.0)),
            meter=MeterConfig(kind="qubit", rho=4.0),
            mc=MonteCarloConfig(n_trials=30_000, seed=9),
        )
        rows, summary = run_scenario(cfg)
        row = rows[0]
        for value in (row.wv_numeric, row.wv_closed, row.wv_traditional,
                      row.projective_cond,
                      summary["unconditional"]["meter_limit"],
                      summary["unconditional"]["analytic_average"]):
            assert value == pytest.approx(1.0, abs=1e-6)
        # per-event noise is the B eigenvalue scale, so the sampled
        # weak signal is honest only to a few stderr
        assert row.mc_mean == pytest.approx(1.0, abs=5 * row.mc_stderr)

    def test_one_trial_leaves_no_error_bar(self, capsys):
        # one trial has no spread, so both standard errors are NaN, which
        # a strict JSON report can only hold as null
        assert main(["compare", "--preset", "convexity-contrast",
                     "--trials", "1", "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["unconditional"]["mc_stderr_over_eps"] is None
        assert summary["conditional"]["mc_projective_stderr"] is None

    def test_one_coupled_state_per_eps_plus_one_for_sampling(self,
                                                              monkeypatch):
        from weakmeas import oracle, protocol
        calls = []
        real = protocol.coupled_state

        def counting(setup, eps):
            calls.append(eps)
            return real(setup, eps)

        monkeypatch.setattr(protocol, "coupled_state", counting)
        monkeypatch.setattr(oracle, "coupled_state", counting)
        cfg = preset("convexity-contrast")
        run_scenario(cfg)
        assert len(calls) == len(cfg.schedule.eps_values) + 1 == 6
        # sample reads the exact mean off the table it sampled
        calls.clear()
        run_scenario(replace(cfg, scenario="sample"))
        assert len(calls) == 1

    @pytest.mark.parametrize("scenario, orthogonal, n_calls", [
        ("weak-value", False, 2), ("aav-grid", False, 2),
        # an undefined weak value's report carries the moment too
        ("weak-value", True, 2)])
    def test_coupling_moment_read_off_the_report(self, scenario, orthogonal,
                                                  n_calls, monkeypatch):
        # one call calibrates the meter and one is the report's; the
        # summaries reuse the report's moment, and aav-grid reads the
        # qubit meter's closed form off its row without building one
        from weakmeas import protocol
        calls = []
        real = protocol.coupling_moment

        def counting(meter):
            calls.append(meter)
            return real(meter)

        monkeypatch.setattr(protocol, "coupling_moment", counting)
        cfg = replace(preset("aav100"), scenario=scenario)
        if orthogonal:
            cfg = replace(cfg, s_amps=((1.0, 0.0), (0.0, 0.0)),
                          f_amps=((0.0, 0.0), (1.0, 0.0)))
        _, summary = run_scenario(cfg)
        assert len(calls) == n_calls
        moment = real(calls[0])
        if scenario == "weak-value":
            assert summary["rho_effective"] == moment.real
        else:
            assert summary["coupling_moment"] == [moment.real, moment.imag]


class TestLargeEntryObservable:
    """Hermitian A with entries of about 1e7: the imaginary roundoff of
    <s, As> is about 1e-9, far below the real part, so no scenario may
    call A non-Hermitian."""

    @pytest.mark.parametrize("scenario", ["weak-value", "limit-check",
                                          "compare"])
    def test_scenarios_accept_it(self, scenario, tmp_path, capsys):
        rng = np.random.default_rng(17)
        m = 1e7 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a = (m + m.conj().T) / 2
        data = {"scenario": scenario,
                "system": {"A": [[[z.real, z.imag] for z in row]
                                 for row in a],
                           "s": [1.0, 2.0, [0.0, 1.0], -1.0],
                           "f": [1.0, 0.5, 0.0, [0.0, -1.0]]},
                "mc": {"n_trials": 2000, "seed": 1}}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(data))
        assert main([scenario, "--config", str(path)]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["limit-check", "compare"])
    def test_zero_mean_state_is_accepted(self, scenario, tmp_path, capsys):
        # <s, As> = 0, so the roundoff of about 1e-9 must be measured
        # against A's entries, not against the value
        rng = np.random.default_rng(0)
        for _ in range(4):
            a, s = large_zero_mean_system(rng)
            data = {"scenario": scenario,
                    "system": {"A": [[[z.real, z.imag] for z in row]
                                     for row in a.entries],
                               "s": [[z.real, z.imag] for z in s.amps],
                               "f": [1.0, 0.5, 0.0, [0.0, -1.0]]},
                    "mc": {"n_trials": 2000, "seed": 1}}
            path = tmp_path / "zero_mean.json"
            path.write_text(json.dumps(data))
            assert main([scenario, "--config", str(path)]) == 0
            assert "error" not in capsys.readouterr().err


class TestRendering:
    def test_rows_hold_finite_floats_or_none(self):
        assert ResultRow("sample", mc_mean=float("nan")).mc_mean is None
        row = ResultRow("compare", rho=math.inf, eps=np.float64(0.01),
                        mc_stderr=-math.inf, disturbance=np.float64(0.5),
                        mc_n_success=3)
        assert row.rho is None and row.mc_stderr is None
        assert type(row.eps) is float and type(row.disturbance) is float
        assert row.mc_n_success == 3
        assert render_csv([row]).splitlines()[1] \
            == "compare,,0.01,,,,,,,,,3,0.5,ok"

    def test_csv_header_and_blank_cells(self):
        rows = [ResultRow(scenario="weak-value", rho=1.5, wv_closed=3.0)]
        text = render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        record = row_dicts(text)[0]
        assert record["rho"] == "1.5"
        assert record["wv_closed"] == "3.0"
        assert record["eps"] == "" and record["mc_mean"] == ""

    def test_csv_floats_round_trip(self):
        value = 100.00000000000827
        rows = [ResultRow(scenario="weak-value", wv_numeric=value)]
        record = row_dicts(render_csv(rows))[0]
        assert float(record["wv_numeric"]) == value

    def test_json_report_is_strict_and_reloadable(self):
        cfg = generic_config(scenario="sweep-rho", rho_values=(-2.0, 5.0))
        rows, summary = run_scenario(cfg)
        text = render_json(cfg, rows, summary)
        # one compact line of JSON, closed by a newline
        assert text.endswith("\n") and "\n" not in text[:-1]
        report = json.loads(text)
        assert list(report) == ["schema_version", "config", "rows",
                                "summary"]
        assert report["schema_version"] == 1
        assert report["config"] == cfg.to_dict()
        assert ExperimentConfig.from_dict(report["config"]) == cfg
        assert report["rows"] == [{c: getattr(r, c) for c in CSV_COLUMNS}
                                  for r in rows]
        assert report["summary"] == summary

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_report_refuses_non_finite_summary(self, bad):
        cfg = generic_config()
        rows, _ = run_scenario(cfg)
        with pytest.raises(ValueError, match="JSON compliant"):
            render_json(cfg, rows, {"nested": {"value": [1.0, bad]}})

    def test_config_sections_serialize_as_asdict(self):
        cfg = generic_config(output=OutputConfig(path="r.json",
                                                 format="json"))
        data = cfg.to_dict()
        for key in ("meter", "mc", "output"):
            section = getattr(cfg, key)
            assert list(data[key].items()) == list(asdict(section).items())


class TestMainEntry:
    def test_preset_csv_to_stdout(self, capsys):
        assert main(["weak-value", "--preset", "nonunique-rho50"]) == 0
        out = capsys.readouterr().out
        record = row_dicts(out)[0]
        assert record["wv_closed"] == "100.0"
        assert record["status"] == STATUS_OK

    def test_config_file_and_out_path(self, tmp_path, capsys):
        cfg = generic_config(scenario="limit-check")
        cfg_path = tmp_path / "cfg.json"
        cfg.save(str(cfg_path))
        out_path = tmp_path / "report.csv"
        assert main(["limit-check", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        records = row_dicts(out_path.read_text())
        assert len(records) == len(cfg.eps_values) + 1

    def test_scenario_argument_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        preset("nonunique-rho50").save(str(cfg_path))
        out_path = tmp_path / "r.csv"
        assert main(["sweep-rho", "--config", str(cfg_path),
                     "--out", str(out_path)]) == 0
        records = row_dicts(out_path.read_text())
        assert [r["scenario"] for r in records] == ["sweep-rho"] * 3

    def test_rho_and_eps_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        generic_config(scenario="disturbance").save(str(cfg_path))
        out_path = tmp_path / "r.csv"
        assert main(["disturbance", "--config", str(cfg_path),
                     "--rho", "7.0", "--eps", "0.02,0.01",
                     "--out", str(out_path)]) == 0
        records = row_dicts(out_path.read_text())
        assert [r["rho"] for r in records] == ["7.0", "7.0"]
        assert [r["eps"] for r in records] == ["0.02", "0.01"]
        # sample reads only the first eps, so one value is a valid schedule
        assert main(["sample", "--preset", "aav100", "--eps", "0.01",
                     "--out", str(out_path)]) == 0
        records = row_dicts(out_path.read_text())
        assert [r["eps"] for r in records] == ["0.01"]

    def test_trials_and_seed_overrides_change_sampling(self, tmp_path,
                                                       capsys):
        cfg_path = tmp_path / "cfg.json"
        generic_config(scenario="sample").save(str(cfg_path))
        runs = {}
        for seed in ("3", "4"):
            assert main(["sample", "--config", str(cfg_path),
                         "--trials", "5000", "--seed", seed]) == 0
            runs[seed] = row_dicts(capsys.readouterr().out)[0]
        assert runs["3"]["mc_mean"] != runs["4"]["mc_mean"]

    def test_json_format_round_trips_config(self, capsys, tmp_path):
        assert main(["weak-value", "--preset", "aav100",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        again = ExperimentConfig.from_dict(report["config"])
        # the format override is folded into the persisted config
        assert again == replace(preset("aav100"),
                                output=OutputConfig(format="json"))
        # rerunning from the persisted config reproduces the rows
        cfg_path = tmp_path / "replay.json"
        with open(cfg_path, "w") as fh:
            json.dump(report["config"], fh)
        assert main(["weak-value", "--config", str(cfg_path)]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["rows"][0]["wv_numeric"] \
            == report["rows"][0]["wv_numeric"]

    def test_identical_invocations_are_bit_identical(self, capsys):
        for fmt in ("csv", "json"):
            outs = []
            for _ in range(2):
                assert main(["compare", "--preset", "convexity-contrast",
                             "--format", fmt]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], fmt

    def test_one_parser_serves_every_call(self, capsys):
        argv = ["weak-value", "--preset", "aav100"]
        cli._parser.cache_clear()
        outs = []
        for extra in ([], ["--bogus"], ["--help"], []):
            try:
                outs.append(main(argv + extra))
            except SystemExit as exc:
                outs.append(exc.code)
            outs.append(capsys.readouterr())
        first, bogus, help_, again = outs[1::2]
        assert outs[::2] == [0, 2, 0, 0]
        assert "error: unrecognized arguments: --bogus" in bogus.err
        assert help_.out.startswith("usage: weakmeas")
        assert again.out == first.out
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_exit_2_on_bad_inputs(self, tmp_path, capsys):
        cases = []
        cfg_path = tmp_path / "cfg.json"
        generic_config().save(str(cfg_path))
        cases.append(["sweep-rho", "--config", str(cfg_path)])
        cases.append(["weak-value", "--config", str(tmp_path / "none.json")])
        cases.append(["limit-check", "--preset", "aav100", "--eps", "0.01"])
        # sample runs at the first eps, so it must be the largest
        ascending = ["sample", "--preset", "aav100", "--eps", "0.001,0.01"]
        cases.append(ascending)
        # an empty token is not skipped, wherever it stands
        malformed = ["0.1,,0.05", ",0.1,0.05,"]
        for eps in malformed:
            cases.append(["weak-value", "--preset", "aav100", "--eps", eps])
        cases.append(["weak-value", "--preset", "nope"])
        cases.append(["weak-value", "--preset", "aav100", "--rho", "inf"])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cases.append(["weak-value", "--config", str(bad)])
        system = generic_config().to_dict()["system"]
        # wrong JSON types: sections that are not objects, a path that is
        # not a string (an int would reach open() as a file descriptor)
        wrong_types = [[1, 2], {"system": [1, 2]}, {"output": None},
                       {"meter": None}, {"mc": None}, {"mc": [1]},
                       {"output": {"path": 2}}, {"output": {"path": True}},
                       # only null means stdout
                       {"output": {"path": ""}},
                       {"output": {"format": 5}}, {"meter": {"kind": 5}},
                       {"eps_schedule": 0.01}, {"rho_values": None},
                       # fractions where an int is due are not truncated
                       {"mc": {"n_trials": 2500.9}}, {"mc": {"seed": 1.5}},
                       {"schema_version": 1.7},
                       {"meter": {"n_points": 256.5}},
                       # an integer too large for a float is not finite
                       {"meter": {"rho": 10 ** 400}},
                       {"meter": {"half_width": 10 ** 400}},
                       {"eps_schedule": [0.01, 10 ** 400]},
                       {"rho_values": [0, -10 ** 400]},
                       {"system": {**system, "s": [[1, 10 ** 400], 0]}}]
        # finite entries whose norm or symmetrization overflows float64
        overflow = {"norm": {"system": {"A": SX, "f": [1, 0],
                                        "s": [[1e308, 0], [1e308, 0]]}},
                    "symmetrized": {"system": {
                        "A": [[[1e308, 0], [0, 0]], [[0, 0], [-1e308, 0]]],
                        "s": [1, 1], "f": [1, 0]}}}
        wrong_types += overflow.values()
        # a key that names no field is refused at every level, by name
        unknown = {"eps": {"eps": [0.01]},
                   "g": {"system": {**system, "g": [1, 0]}},
                   "npoints": {"meter": {"kind": "grid", "npoints": 256}},
                   "trails": {"mc": {"trails": 5}},
                   "fromat": {"output": {"fromat": "json"}}}
        wrong_types += unknown.values()
        for i, patch in enumerate(wrong_types):
            data = patch if isinstance(patch, list) \
                else {**generic_config().to_dict(), **patch}
            path = tmp_path / f"wrong{i}.json"
            path.write_text(json.dumps(data))
            cases.append(["weak-value", "--config", str(path)])
        # a grid too large to allocate is refused before anything is built
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({**generic_config().to_dict(),
                                    "meter": {"kind": "grid",
                                              "n_points": 2 ** 40}}))
        cases.append(["weak-value", "--config", str(huge)])
        # an empty schedule is refused by the schedule itself
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({**generic_config().to_dict(),
                                     "eps_schedule": []}))
        cases.append(["weak-value", "--config", str(empty)])
        empty_out = ["weak-value", "--preset", "aav100", "--out", ""]
        cases.append(empty_out)
        errors = {}
        for argv in cases:
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error:")
            errors[argv[-1]] = captured.err
        first = wrong_types.index(overflow["norm"])
        for i in range(first, first + len(overflow)):
            assert "overflow" in errors[str(tmp_path / f"wrong{i}.json")]
        assert errors[""] == ("error: output path must be a nonempty string "
                              "or null, got ''\n")
        for i, key in enumerate(unknown, len(wrong_types) - len(unknown)):
            assert repr(key) in errors[str(tmp_path / f"wrong{i}.json")]
        assert errors[str(empty)] == ("error: eps schedule: schedule needs "
                                      "at least one eps value\n")
        assert errors[ascending[-1]] == ("error: eps schedule: eps values "
                                         "must be strictly descending\n")
        for eps in malformed:
            assert errors[eps] == (f"error: --eps expects comma-separated "
                                   f"numbers, got {eps!r}\n")
        # an empty --eps is an empty schedule, not a malformed list
        assert main(["weak-value", "--preset", "aav100", "--eps", ""]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: eps schedule: schedule needs at least one eps "
                "value\n")
        # a whole float is an int: JSON 1e6 loads as 1000000.0
        path = tmp_path / "whole.json"
        path.write_text(json.dumps({**generic_config().to_dict(),
                                    "mc": {"n_trials": 1e6}}))
        assert main(["weak-value", "--config", str(path)]) == 0

    def test_exit_2_on_uncalibrated_grid(self, tmp_path, capsys):
        cfg = generic_config(
            scenario="aav-grid",
            meter=MeterConfig(kind="grid", rho=1.0, n_points=16,
                              half_width=2.0),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg.save(str(cfg_path))
        assert main(["aav-grid", "--config", str(cfg_path)]) == 2
        assert "calibration" in capsys.readouterr().err


class TestGoldenReports:
    @pytest.mark.parametrize("scenario", ["weak-value", "sweep-rho",
                                          "limit-check", "sample",
                                          "disturbance", "compare"])
    @pytest.mark.parametrize("name", ["nonunique-rho50", "aav100",
                                      "convexity-contrast"])
    def test_qubit_preset_csv_is_byte_identical(self, name, scenario,
                                                capsys):
        # tests/golden holds stdout + stderr of each run; the runs that
        # exit 2 (a sweep without rho_values) pin their error line instead.
        # A change that alters these bytes on purpose regenerates a file
        # with: python -m weakmeas.cli SCENARIO --preset NAME
        #       > tests/golden/NAME.SCENARIO.csv 2>&1
        code = main([scenario, "--preset", name])
        out, err = capsys.readouterr()
        want = (GOLDEN / f"{name}.{scenario}.csv").read_bytes()
        assert (out + err).encode() == want
        assert code == (2 if err else 0)

    def test_module_entry_point_matches_golden(self):
        import weakmeas
        src = str(pathlib.Path(weakmeas.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "weakmeas.cli", "weak-value",
             "--preset", "nonunique-rho50"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        want = (GOLDEN / "nonunique-rho50.weak-value.csv").read_bytes()
        assert proc.stdout == want
        assert proc.returncode == 0


class TestUndefinedRowThroughCli:
    def test_status_column_set_and_exit_zero(self, tmp_path, capsys):
        cfg = generic_config(s_amps=((1.0, 0.0), (0.0, 0.0)),
                             f_amps=((0.0, 0.0), (1.0, 0.0)))
        cfg_path = tmp_path / "cfg.json"
        cfg.save(str(cfg_path))
        assert main(["weak-value", "--config", str(cfg_path)]) == 0
        record = row_dicts(capsys.readouterr().out)[0]
        assert record["status"] == STATUS_UNDEFINED
        assert record["wv_numeric"] == ""
        assert record["projective_cond"] != ""

    def test_sweep_rho_rows_all_undefined(self, tmp_path, capsys):
        cfg = generic_config(scenario="sweep-rho",
                             s_amps=((1.0, 0.0), (0.0, 0.0)),
                             f_amps=((0.0, 0.0), (1.0, 0.0)),
                             rho_values=(-10.0, 0.0, 10.0))
        cfg_path = tmp_path / "cfg.json"
        cfg.save(str(cfg_path))
        assert main(["sweep-rho", "--config", str(cfg_path),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in report["rows"]] == [STATUS_UNDEFINED] * 3
        assert report["summary"]["aav_imag"] is None
        assert report["summary"]["expected_slope"] is None
        assert "fitted_slope" not in report["summary"]

    def test_compare_samples_an_empty_postselection(self, tmp_path, capsys):
        # the weak meter still passes a few trials at eps > 0; the
        # sampled meter table must not refuse the run
        cfg = generic_config(scenario="compare",
                             s_amps=((1.0, 0.0), (0.0, 0.0)),
                             f_amps=((0.0, 0.0), (1.0, 0.0)))
        cfg_path = tmp_path / "cfg.json"
        cfg.save(str(cfg_path))
        assert main(["compare", "--config", str(cfg_path),
                     "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["status"] == STATUS_UNDEFINED
        assert row["mc_n_success"] == 4
        assert math.isfinite(row["mc_stderr"])


class TestOneStatementPerInputRule:
    """The overlap, the eps schedule and the meter grid are each judged
    by one rule, in the object that owns it."""

    @staticmethod
    def band_config(tmp_path, delta):
        # <f, s> = delta against A = sigma_z and s = e1
        path = tmp_path / f"band{delta}.json"
        path.write_text(json.dumps({
            "scenario": "weak-value",
            "system": {"A": [[1, 0], [0, -1]], "s": [1, 0],
                       "f": [delta, 1]}}))
        return str(path)

    @pytest.mark.parametrize("delta", [1e-11, 1e-13])
    @pytest.mark.parametrize("scenario", ["weak-value", "compare",
                                          "aav-grid"])
    def test_overlap_below_the_floor_is_undefined(self, tmp_path, capsys,
                                                  scenario, delta):
        path = self.band_config(tmp_path, delta)
        assert main([scenario, "--config", path, "--trials", "1000"]) == 0
        rows = row_dicts(capsys.readouterr().out)
        assert [r["status"] for r in rows] == [STATUS_UNDEFINED]
        assert rows[0]["wv_numeric"] == rows[0]["wv_closed"] == ""

    def test_sample_on_the_band_still_exits_2(self, tmp_path, capsys):
        path = self.band_config(tmp_path, 1e-11)
        assert main(["sample", "--config", path, "--trials", "1000"]) == 2
        assert capsys.readouterr() == ("", "error: total success probability "
                                           "1.000e-22 is numerically zero\n")

    def test_one_eps_is_a_schedule(self, capsys):
        assert main(["disturbance", "--preset", "aav100",
                     "--eps", "0.01"]) == 0
        assert [r["eps"] for r in row_dicts(capsys.readouterr().out)] \
            == ["0.01"]

    @pytest.mark.parametrize("scenario", ["limit-check", "weak-value",
                                          "compare"])
    def test_extrapolation_needs_two_eps(self, scenario, capsys,
                                         monkeypatch):
        drawn = []
        monkeypatch.setattr(cli, "monte_carlo_pair",
                            lambda *args: drawn.append(args))
        assert main([scenario, "--preset", "aav100", "--eps", "0.01"]) == 2
        assert capsys.readouterr() == (
            "", "error: extrapolation needs at least two eps values\n")
        # compare finds out before it draws a trial
        assert drawn == []

    def test_bad_grid_exits_2_before_any_run(self, tmp_path, capsys,
                                             monkeypatch):
        path = tmp_path / "grid3.json"
        path.write_text(json.dumps({**generic_config().to_dict(),
                                    "meter": {"kind": "qubit", "rho": 3.0,
                                              "n_points": 3}}))
        monkeypatch.setattr(cli, "run_scenario",
                            lambda config: pytest.fail("the config ran"))
        assert main(["weak-value", "--config", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: meter: n_points must be a power of two, got 3\n")


@st.composite
def weak_value_configs(draw, kinds, log_overlap):
    """A weak-value config: a random Hermitian A, a random unit s, and a
    unit f with |<f, s>| = 10 ** x for x drawn from ``log_overlap``."""
    kind = draw(st.sampled_from(kinds))
    dim = 2 if kind == "grid" else draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = (x + x.conj().T) / 2.0
    s, u = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    s /= np.linalg.norm(s)
    u -= np.vdot(s, u) * s
    u /= np.linalg.norm(u)
    c = 10.0 ** draw(st.floats(*log_overlap))
    f = c * s + math.sqrt(1.0 - c * c) * np.exp(2j * np.pi * rng.random()) * u

    def pairs(v):
        return tuple((z.real, z.imag) for z in v.tolist())

    return ExperimentConfig(
        scenario="weak-value", a_entries=tuple(map(pairs, a)),
        s_amps=pairs(s), f_amps=pairs(f),
        meter=MeterConfig(kind=kind, rho=draw(st.floats(-50.0, 50.0))))


class TestUnconvergedStatus:
    """A weak-value row matches its closed form within 1e-4 max(1, |closed
    form|), or its status is not ok."""

    @staticmethod
    def assert_close_or_flagged(cfg):
        (row,), _ = run_scenario(cfg)
        if row.status == STATUS_OK:
            tol = 1e-4 * max(1.0, abs(row.wv_closed))
            assert abs(row.wv_numeric - row.wv_closed) <= tol

    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(weak_value_configs(("qubit", "grid"), (-1.0, 0.0)))
    def test_both_meters_at_overlap_above_a_tenth(self, cfg):
        self.assert_close_or_flagged(cfg)

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(weak_value_configs(("qubit",), (-6.0, 0.0)))
    def test_qubit_meter_down_to_overlap_1e_6(self, cfg):
        # the default schedule misses by a relative 0.27 at |<f,s>| = 1e-3
        self.assert_close_or_flagged(cfg)

    @pytest.mark.parametrize("a, rho", [
        # the nonunique-rho50 states far outside the weak regime: 1627.5
        # beside a closed form of 2e300
        ([[0, 1e300], [1e300, 0]], 1.0),
        # a closed form that overflows leaves an empty cell to match
        ([[8e307, 8e307], [8e307, 8e307]], 2.0),
    ])
    def test_out_of_regime_row_prints_unconverged(self, tmp_path, capsys,
                                                  a, rho):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "scenario": "weak-value",
            "system": {"A": a, "s": [1, [0, 1]], "f": [1, 0]},
            "meter": {"kind": "qubit", "rho": rho}}))
        assert main(["weak-value", "--config", str(path)]) == 0
        (record,) = row_dicts(capsys.readouterr().out)
        assert record["status"] == STATUS_UNCONVERGED
        assert record["wv_numeric"] != ""


class TestHeadlineClaims:
    """The paper's two headline claims, as properties of the runner."""

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(weak_value_configs(("qubit",), (-1.0, 0.0)),
           st.floats(-1e3, 1e3))
    def test_any_weak_value_from_a_two_level_meter(self, cfg, w):
        # the closed form Re(ratio) + 2 rho Im(ratio) reaches any w at
        # rho* = (w - Re ratio) / (2 Im ratio)
        ratio = aav_complex_weak_value(cfg.A, cfg.s, cfg.f)
        assume(abs(ratio.imag) >= 0.1)
        rho = (w - ratio.real) / (2.0 * ratio.imag)
        cfg = replace(cfg, meter=MeterConfig(kind="qubit", rho=rho))
        (row,), _ = run_scenario(cfg)
        scale = max(1.0, abs(w))
        assert abs(row.wv_closed - w) <= 1e-9 * scale
        assert (row.status != STATUS_OK
                or abs(row.wv_numeric - w) <= WV_RTOL * scale)

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(weak_value_configs(("grid",), (-1.0, 0.0)))
    def test_grid_and_qubit_meters_agree(self, cfg):
        # the default grid's closed form against the qubit meter's
        qubit = weak_value_closed_form(WeakSetup(
            cfg.A, cfg.s, cfg.f, qubit_meter(cfg.meter.rho)))
        grid = weak_value_closed_form(cfg.setup())
        assert abs(grid - qubit) <= 1e-6 * max(1.0, abs(qubit))


# every off-diagonal entry 8e307: A is finite, its spectrum spans more
# than the float range, and <s, As> = 0
WIDE_SPECTRUM = {
    "system": {"A": [[0, 8e307, 8e307], [8e307, 0, 8e307],
                     [8e307, 8e307, 0]],
               "s": [1, 0, [0, 1]], "f": [1, 1, 0]},
    "mc": {"n_trials": 1000, "seed": 1}}


class TestWideSpectrum:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(WIDE_SPECTRUM))
        return str(path)

    @pytest.mark.parametrize("scenario", ["weak-value", "limit-check",
                                          "sample", "disturbance"])
    def test_runs_without_a_warning(self, path, scenario, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([scenario, "--config", path]) == 0
        assert capsys.readouterr().err == ""

    def test_limit_check_flags_a_missed_limit(self, path, capsys):
        assert main(["limit-check", "--config", path]) == 0
        rows = row_dicts(capsys.readouterr().out)
        # the per-eps rows are finite-eps readings, not claims of the limit
        assert [r["status"] for r in rows[:-1]] == [STATUS_OK] * 5
        assert rows[-1]["wv_closed"] == "0.0"
        assert rows[-1]["status"] == STATUS_UNCONVERGED


# couplings whose eps |A| is far outside the weak regime: 1e300 sigma_x,
# and an A whose closed form overflows
OUT_OF_REGIME = {
    "sigma-x-1e300": ({"A": [[0, 1e300], [1e300, 0]], "s": [1, [0, 1]],
                       "f": [1, 0]}, 1.0),
    "8e307": ({"A": [[8e307, 8e307], [8e307, 8e307]], "s": [1, [0, 1]],
               "f": [1, 0]}, 2.0),
}


def out_of_regime_path(tmp_path, system, kind):
    a_system, rho = OUT_OF_REGIME[system]
    path = tmp_path / f"{system}-{kind}.json"
    path.write_text(json.dumps({
        "system": a_system, "meter": {"kind": kind, "rho": rho},
        "rho_values": [rho, rho + 1.0], "mc": {"n_trials": 2000, "seed": 1}}))
    return str(path)


class TestOutOfRegimeCoupling:
    @pytest.mark.parametrize("system", OUT_OF_REGIME)
    @pytest.mark.parametrize("kind, scenario", [
        *(("grid", sc) for sc in SCENARIOS), ("qubit", "aav-grid")])
    def test_grid_meter_refuses_overflowing_phases(self, tmp_path, capsys,
                                                   system, kind, scenario):
        path = out_of_regime_path(tmp_path, system, kind)
        assert main([scenario, "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("system", OUT_OF_REGIME)
    def test_qubit_compare_runs_without_a_warning(self, tmp_path, capsys,
                                                  system, fmt):
        # the sampled estimates of values near the float limit overflow
        # to empty cells, silently
        path = out_of_regime_path(tmp_path, system, "qubit")
        assert main(["compare", "--config", path, "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out
