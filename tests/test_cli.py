"""Tests for the experiment runner: configs, scenarios, and the CLI."""

import csv
import io
import json
import math

import numpy as np
import pytest

from dataclasses import replace

from weakmeas.cli import (
    CSV_COLUMNS,
    STATUS_OK,
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

SX = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


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
        amps = back.pre_state().amps
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

    def test_empty_eps(self):
        with pytest.raises(ConfigError, match="eps"):
            generic_config(eps_values=())

    def test_eps_out_of_range(self):
        with pytest.raises(ConfigError, match="eps"):
            generic_config(eps_values=(0.9, 0.45))

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


class TestPresets:
    def test_nonunique_rho50_shape(self):
        cfg = preset("nonunique-rho50")
        assert cfg.scenario == "weak-value"
        assert cfg.meter.rho == 50.0
        assert cfg.rho_values == (-50.0, 0.0, 50.0)
        assert np.allclose(cfg.system_observable().entries,
                           [[0, 1], [1, 0]])

    def test_aav100_traditional_is_exactly_100(self):
        from weakmeas.protocol import traditional_weak_value

        cfg = preset("aav100")
        wv = traditional_weak_value(cfg.system_observable(),
                                    cfg.pre_state(), cfg.post_state())
        assert abs(wv - 100.0) <= 1e-9

    def test_convexity_contrast_scenario(self):
        assert preset("convexity-contrast").scenario == "compare"


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
        cfg = generic_config(scenario="sweep-rho")
        with pytest.raises(ConfigError, match="rho_values"):
            run_scenario(cfg)

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


class TestRendering:
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
        cfg = generic_config()
        rows, summary = run_scenario(cfg)
        report = json.loads(render_json(cfg, rows, summary))
        assert report["schema_version"] == 1
        assert ExperimentConfig.from_dict(report["config"]) == cfg
        assert report["rows"][0]["wv_closed"] == rows[0].wv_closed


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
        json.dump(report["config"], open(cfg_path, "w"))
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

    def test_exit_2_on_bad_inputs(self, tmp_path, capsys):
        cases = []
        cfg_path = tmp_path / "cfg.json"
        generic_config().save(str(cfg_path))
        cases.append(["sweep-rho", "--config", str(cfg_path)])
        cases.append(["weak-value", "--config", str(tmp_path / "none.json")])
        cases.append(["limit-check", "--preset", "aav100", "--eps", "0.01"])
        cases.append(["weak-value", "--preset", "nope"])
        cases.append(["weak-value", "--preset", "aav100", "--rho", "inf"])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cases.append(["weak-value", "--config", str(bad)])
        for argv in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:")

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
