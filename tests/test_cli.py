import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from ldpmin import analysis, cli, harness
from ldpmin.net import MinServer, format_real, run_client
from ldpmin.protocol import ProtocolConfig

# 2^59 float64 values are 4 EiB, an allocation any 64-bit host refuses at once
UNALLOCATABLE_N = "576460752303423488"


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_single_datum_noise_free_hand_trace(self, capsys):
        code, out, _ = run_main(capsys, [
            "simulate", "--data", "0.5", "--epsilon", "inf",
            "--depth", "3", "--gamma", "0.5", "--seed", "0",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        final = json.loads(lines[-1])
        assert final["estimate"] == 0.375
        assert final["epsilon"] == "inf"
        rounds = [json.loads(line) for line in lines[:-1]]
        assert [r["tau"] for r in rounds] == [0.0, 0.5, 0.25]

    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate", "--model", "uniform", "--n", "12", "--epsilon", "1",
                "--param-mode", "lower_alpha", "--setting", "iid", "--seed", "99"]
        _, out1, _ = run_main(capsys, argv)
        _, out2, _ = run_main(capsys, argv)
        assert out1 == out2

    def test_missing_cohort_specification_is_usage_error(self, capsys):
        code, _, err = run_main(capsys, [
            "simulate", "--epsilon", "1", "--depth", "2", "--gamma", "0.1",
        ])
        assert code == 2
        assert "--n" in err or "--data" in err

    def test_gamma_conflicts_with_param_mode(self, capsys):
        code, _, err = run_main(capsys, [
            "simulate", "--data", "0.5", "--epsilon", "1",
            "--depth", "2", "--gamma", "0.1", "--param-mode", "lower_alpha",
        ])
        assert code == 2

    def test_param_mode_sets_depth(self, capsys):
        code, out, _ = run_main(capsys, [
            "simulate", "--model", "uniform", "--n", "1000", "--epsilon", "2",
            "--param-mode", "lower_alpha", "--seed", "1",
        ])
        assert code == 0
        final = json.loads(out.strip().splitlines()[-1])
        assert final["depth"] == 5  # ceil(log2(1000)/2)

    def test_model_help_names_every_model_kind(self, capsys, monkeypatch):
        # cli spells the kinds out, so that --help imports no harness
        monkeypatch.setenv("COLUMNS", "200")  # no wrapping
        with pytest.raises(SystemExit) as done:
            cli.main(["simulate", "--help"])
        assert done.value.code == 0
        (line,) = [s for s in capsys.readouterr().out.splitlines()
                   if s.strip().startswith("--model KIND")]
        assert tuple(line.split(None, 2)[2].split(" | ")) == harness.MODEL_KINDS

    def test_invalid_model_parameters(self, capsys):
        code, _, err = run_main(capsys, [
            "simulate", "--model", "beta", "--model-alpha", "-1", "--n", "5",
            "--epsilon", "1", "--depth", "2", "--gamma", "0.1",
        ])
        assert code == 2
        for model_args in (["--model", "gauss"],
                           ["--model", "uniform", "--x-min", "0.5", "--delta", "1"],
                           ["--model", "truncnorm", "--sigma", "0.01", "--x-min", "0.5",
                            "--delta", "0.5"]):
            code, _, err = run_main(capsys, [
                "simulate", *model_args, "--n", "5",
                "--epsilon", "1", "--depth", "2", "--gamma", "0.1",
            ])
            assert code == 2, model_args
            assert err.startswith("error:")
        code, _, err = run_main(capsys, [
            "simulate", "--data", "0.5", "--model", "gauss",
            "--epsilon", "1", "--depth", "2", "--gamma", "0.1",
        ])
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("flag, value", [
        ("--model", "uniform"), ("--model", "gauss"), ("--model-alpha", "2"),
        ("--model-beta", "2"), ("--delta", "1"), ("--mu", "3"), ("--sigma", "0.5"),
        ("--x-min", "0.4"), ("--x-min", "-1"), ("--setting", "iid"), ("--setting", "fixed"),
    ])
    def test_data_takes_no_model_flag(self, capsys, flag, value):
        # --data gives the users' values, so a model flag would be ignored
        code, out, err = run_main(capsys, [
            "simulate", "--data", "0.5", flag, value, "--epsilon", "inf",
            "--depth", "3", "--gamma", "0.5",
        ])
        assert code == 2
        assert out == "" and err == f"error: --data takes no model flag ({flag})\n"

    @pytest.mark.parametrize("model_args, message", [
        (["--model-alpha", "2"], "model 'uniform' does not read alpha"),
        (["--model", "uniform", "--sigma", "0.5"], "model 'uniform' does not read sigma"),
        (["--model", "beta", "--mu", "0.2"], "model 'beta' does not read mu"),
        (["--model", "truncnorm", "--model-beta", "3"], "model 'truncnorm' does not read beta"),
    ])
    def test_model_parameter_the_kind_never_reads_is_usage_error(self, capsys, model_args,
                                                                 message):
        code, out, err = run_main(capsys, [
            "simulate", "--n", "4096", *model_args, "--delta", "0.3", "--epsilon", "1",
            "--param-mode", "lower_alpha", "--seed", "7",
        ])
        assert code == 2
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("data", ["nan,0.5", "1.5,0.5"])
    def test_data_outside_the_domain_is_usage_error(self, capsys, data):
        code, out, err = run_main(capsys, [
            "simulate", "--data", data, "--epsilon", "inf", "--depth", "3",
            "--gamma", "0.25", "--seed", "1",
        ])
        assert code == 2
        assert out == "" and err.startswith("error:") and "[-1, 1]" in err

    def test_nan_placement_is_usage_error(self, capsys):
        code, _, err = run_main(capsys, ["simulate", "--n", "10", "--x-min", "nan",
                                         "--epsilon", "1", "--depth", "3", "--gamma", "0.3"])
        assert code == 2
        assert "infeasible placement x_min=nan" in err

    @pytest.mark.parametrize("model", ["uniform", "truncnorm"])
    def test_delta_below_float_resolution_is_usage_error(self, capsys, model):
        # x_min + delta rounds back to x_min: the refusal names the delta, the
        # placement and the cause, not a zero-width support
        code, out, err = run_main(capsys, ["simulate", "--n", "10", "--model", model,
                                           "--delta", "1e-300", "--epsilon", "1",
                                           "--depth", "3", "--gamma", "0.3"])
        assert code == 2
        assert out == "" and "delta=1e-300" in err and "x_min=-1.0" in err
        assert "float64 resolution" in err

    def test_depth_past_float_resolution_rejected(self, capsys):
        code, out, err = run_main(capsys, [
            "simulate", "--data", "-1", "--epsilon", "1", "--depth", "55", "--gamma", "0.1",
        ])
        assert code == 3
        assert out == "" and "54" in err

    @pytest.mark.parametrize("argv", [
        ["--epsilon", "1e-300", "--param-mode", "lower_alpha"],
        ["--epsilon", "1e-320", "--depth", "3", "--gamma", "0.3"],
    ], ids=["schedule", "explicit"])
    def test_epsilon_below_float_resolution_exits_3(self, capsys, argv):
        code, out, err = run_main(capsys, ["simulate", "--data", "0.5,0.1,-0.2", *argv])
        assert code == 3
        assert out == "" and err.startswith("error:")

    def test_infinite_alpha0_exits_3(self, capsys):
        # it used to be refused as a nonpositive h
        code, out, err = run_main(capsys, ["simulate", "--data", "0.5,0.1,-0.2", "--epsilon", "1",
                                           "--param-mode", "known_alpha:inf"])
        assert code == 3
        assert out == "" and "alpha0 must be finite and positive" in err

    def test_phi_that_would_overflow_exits_3(self, capsys):
        # eps/L = 2.2e-308 still debiases, but coth(eps/2) * sum_z overflows
        # past n = 1, so the run used to print "phi": "inf"
        code, out, err = run_main(capsys, [
            "simulate", "--data", "0.5,0.1,-0.2", "--epsilon", "2.2e-308", "--depth", "1",
            "--gamma", "0.3", "--seed", "1",
        ])
        assert code == 3
        assert out == "" and err.startswith("error:") and "overflows" in err

    @pytest.mark.parametrize("epsilon", ["abc", "", "1,5"])
    def test_non_numeric_epsilon_is_usage_error(self, capsys, epsilon):
        code, out, err = run_main(capsys, [
            "simulate", "--data", "0.5", "--epsilon", epsilon, "--depth", "3", "--gamma", "0.5",
        ])
        assert code == 2
        assert out == "" and err == f"error: --epsilon must be positive (or 'inf'), got {epsilon!r}\n"

    def test_gamma_nan_exits_nonzero(self, capsys):
        code, out, err = run_main(capsys, [
            "simulate", "--data", "0.5", "--epsilon", "1", "--depth", "3", "--gamma", "nan",
        ])
        assert code != 0
        assert out == "" and "gamma" in err

    def test_gamma_inf_is_strict_json(self, capsys):
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        code, out, _ = run_main(capsys, [
            "simulate", "--data", "0.5,-0.25", "--epsilon", "inf", "--depth", "3",
            "--gamma", "inf",
        ])
        assert code == 0
        lines = [json.loads(line, parse_constant=refuse) for line in out.splitlines()]
        assert lines[-1]["gamma"] == "inf" and lines[-1]["degenerate_gamma"] is True
        assert [r["branch"] for r in lines[:-1]] == ["right"] * 3

    def test_simulate_runs_a_walk_that_always_goes_left(self, capsys):
        # gamma 0 at eps = inf: every sum reaches the threshold; a simulation
        # spends no one's budget, so it runs, and its summary keeps its keys
        code, out, _ = run_main(capsys, [
            "simulate", "--data", "0.5,-0.25", "--epsilon", "inf", "--depth", "4",
            "--gamma", "0",
        ])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [r["branch"] for r in lines[:-1]] == ["left"] * 4
        assert lines[-1]["estimate"] == -0.9375 and lines[-1]["degenerate_gamma"] is False

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "transcript.jsonl"
        code, out, _ = run_main(capsys, [
            "simulate", "--data", "0.5", "--epsilon", "inf", "--depth", "3",
            "--gamma", "0.5", "--out", str(out_path),
        ])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text().strip().splitlines()[-1])["estimate"] == 0.375

    @pytest.mark.parametrize("setting", ["fixed", "iid"])
    def test_cohort_too_large_to_allocate_runs(self, capsys, setting):
        # a search reads counts, not values: a fixed cohort counts from the
        # model and an iid one draws its counts (measured 0.6 s in a fresh
        # process, most of it imports)
        start = time.perf_counter()
        code, out, err = run_main(capsys, ["simulate", "--n", UNALLOCATABLE_N, "--epsilon", "4",
                                           "--param-mode", "lower_alpha", "--setting", setting])
        assert time.perf_counter() - start < 10.0
        assert code == 0 and err == ""
        assert json.loads(out.splitlines()[-1])["n"] == int(UNALLOCATABLE_N)

    @pytest.mark.parametrize("n,message", [
        ("0", "n >= "),
        # numpy draws a binomial count as an int64
        ("9223372036854775808", "2**63 - 1"), ("1180591620717411303424", "2**63 - 1"),
    ])
    @pytest.mark.parametrize("setting", ["fixed", "iid"])
    def test_cohort_size_out_of_range_is_usage_error(self, capsys, setting, n, message):
        code, out, err = run_main(capsys, ["simulate", "--n", n, "--epsilon", "4",
                                           "--param-mode", "lower_alpha", "--setting", setting])
        assert code == 2
        assert out == "" and err.startswith("error:") and message in err

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    def test_iid_transcript_replays_from_the_counts(self, capsys, seed):
        # an iid simulate is run_private_min on IidCounts, both fed from one
        # SeedSequence(seed) stream, bit for bit
        from ldpmin.datagen import IidCounts
        from ldpmin.params import choose_params
        from ldpmin.protocol import run_private_min

        code, out, _ = run_main(capsys, [
            "simulate", "--model", "beta", "--model-alpha", "2", "--model-beta", "1",
            "--x-min", "-1", "--delta", "0.3", "--n", "4096", "--epsilon", "1",
            "--param-mode", "lower_alpha", "--setting", "iid", "--seed", str(seed)])
        assert code == 0
        model = harness.ModelTemplate("beta", alpha=2.0, beta=1.0, delta=0.3).place(-1.0)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        config = choose_params("lower_alpha", 4096, 1.0)
        expected = run_private_min(IidCounts(model, 4096, rng), config, rng)
        assert out == cli.transcript_json_lines(expected)


TINY_CFG = """
model = uniform
delta = 0.3
setting = fixed
n_grid = 64, 128, 256
epsilon_grid = 2
param_mode = lower_alpha
reps = 4
xmin_grid = auto
seed = 5
mechanisms = binary_search, nonprivate
"""


class TestExperiment:
    def test_csv_outputs_and_shape(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG, encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, _ = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 0
        rows = (out_dir / "results.csv").read_text().strip().splitlines()
        assert rows[0] == ",".join(harness.RESULT_COLUMNS)
        assert len(rows) - 1 == 3 * 1 * 2  # |n_grid| * |eps_grid| * |mechanisms|
        guideline = (out_dir / "guideline_eps2.csv").read_text().strip().splitlines()
        assert guideline[0] == "n,guideline_value"
        assert len(guideline) - 1 == 3
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert "worst x_min" in meta["quantiles"]

    def test_byte_stable_across_runs(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG, encoding="utf-8")
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])[0] == 0
            outs.append((out_dir / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_reports_line(self, capsys, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("n_grid = \nepsilon_grid = 1\n", encoding="utf-8")
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        assert "line 1" in err

    def test_model_parameter_the_kind_never_reads_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(TINY_CFG + "alpha = 2\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert err == f"error: {cfg}: model 'uniform' does not read alpha\n"
        assert not out_dir.exists()

    def test_empty_mechanisms_exits_3_with_line(self, capsys, tmp_path):
        cfg = tmp_path / "none.cfg"
        cfg.write_text("n_grid = 64\nepsilon_grid = 1\nmechanisms =\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert "line 3" in err
        assert not out_dir.exists()

    def test_nan_placement_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(TINY_CFG.replace("xmin_grid = auto", "xmin_grid = nan"), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert "infeasible placement x_min=nan" in err
        assert not out_dir.exists()
        with pytest.raises(harness.ConfigError):
            harness.parse_experiment_config(cfg)

    def test_repeated_epsilon_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(TINY_CFG.replace("epsilon_grid = 2", "epsilon_grid = 2, 2.0"),
                       encoding="utf-8")
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "epsilon_grid" in err

    def test_epsilon_below_float_resolution_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "tiny_eps.cfg"
        cfg.write_text(TINY_CFG.replace("epsilon_grid = 2", "epsilon_grid = 1e-300"),
                       encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert err.startswith("error:") and "resolution" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("line, bad, key", [("seed = 5", "seed = -1", "seed"),
                                                ("reps = 4", "reps = 4294967297", "reps")])
    def test_key_word_out_of_range_exits_3_before_any_schedule(self, capsys, tmp_path,
                                                               monkeypatch, line, bad, key):
        def no_schedule(*args):
            raise AssertionError("a schedule ran")

        monkeypatch.setattr(harness, "choose_params", no_schedule)
        cfg = tmp_path / "key.cfg"
        cfg.write_text(TINY_CFG.replace(line, bad), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert err.startswith("error:") and f"{key} must" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("edits, epsilon", [
        ({}, "inf"),  # the rate curve is 0, so it has no slope to anchor
        ({}, "1e+200"),  # epsilon**2 overflows
        ({"model = uniform": "model = beta\nalpha = 0.005"}, "0.01"),  # the power overflows
    ], ids=["zero", "epsilon_squared", "power"])
    def test_unrepresentable_guideline_is_not_written(self, capsys, tmp_path, edits, epsilon):
        text = TINY_CFG.replace("epsilon_grid = 2", f"epsilon_grid = 2, {epsilon}")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "guideline.cfg"
        cfg.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 0 and err == ""
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "bounds.csv", "guideline_eps2.csv", "results.csv", "run_meta.json"]
        rows = (out_dir / "results.csv").read_text().strip().splitlines()
        assert sum(f",{epsilon}," in row for row in rows) == 3 * 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("setting", ["fixed", "iid"])
    @pytest.mark.parametrize("edits", [
        # C = 0: the density at x_min = -1 lies 50 sigma below mu, past float64
        {"model = uniform": "model = truncnorm\nmu = 0\nsigma = 0.02",
         "xmin_grid = auto": "xmin_grid = -1"},
        # (2 gamma / C)^(1/alpha) leaves float64
        {"model = uniform": "model = beta\nalpha = 0.005", "epsilon_grid = 2": "epsilon_grid = 0.01"},
    ], ids=["zero_c", "overflow"])
    def test_unbounded_cells_are_written_as_inf(self, capsys, tmp_path, edits, setting):
        text = TINY_CFG.replace("setting = fixed", f"setting = {setting}")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "unbounded.cfg"
        cfg.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 0 and err == ""
        rows = read_csv(out_dir / "bounds.csv")
        assert [int(row["n"]) for row in rows] == [64, 128, 256]
        for row in rows:
            assert float(row["quantile_term"]) == float(row["bound"]) == math.inf
            assert float(row["err_over_bound"]) == 0.0
            assert row["applicable"] == "False"

    def test_cohort_too_large_to_allocate_exits_3(self, capsys, tmp_path):
        # of a fixed sweep, only the Laplace baseline allocates per user: one
        # noise draw each
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY_CFG.replace("n_grid = 64, 128, 256", f"n_grid = {UNALLOCATABLE_N}")
                       .replace("binary_search, nonprivate", "laplace"), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert err.startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("setting", ["fixed", "iid"])
    def test_cohort_past_int64_exits_3(self, capsys, tmp_path, setting):
        # numpy draws a binomial count as an int64: the sweep stops before any run
        cfg = tmp_path / "int64.cfg"
        cfg.write_text(TINY_CFG.replace("n_grid = 64, 128, 256", "n_grid = 9223372036854775808")
                       .replace("setting = fixed", f"setting = {setting}"), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert err.startswith("error:") and "2**63 - 1" in err
        assert not out_dir.exists()

    def test_wide_fixed_sweep_builds_no_cohort(self, capsys, tmp_path):
        # 2^30 users: a materialized cohort would take 8 GiB; the searches
        # count from the model instead (measured 0.01 s in-process)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(TINY_CFG.replace("n_grid = 64, 128, 256", "n_grid = 1073741824")
                       .replace("reps = 4", "reps = 5").replace("xmin_grid = auto", "xmin_grid = -1"),
                       encoding="utf-8")
        out_dir = tmp_path / "out"
        start = time.perf_counter()
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert time.perf_counter() - start < 10.0
        assert code == 0 and err == ""
        results = read_csv(out_dir / "results.csv")
        assert [(r["n"], r["mechanism"]) for r in results] == [
            ("1073741824", "binary_search"), ("1073741824", "nonprivate")]
        [bound] = read_csv(out_dir / "bounds.csv")
        assert bound["applicable"] == "True"
        assert float(results[0]["mean_abs_err"]) <= float(bound["bound"])

    def test_unknown_alpha_base_is_an_unknown_mode(self, capsys, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(TINY_CFG.replace("lower_alpha", "unknown_alpha:50"), encoding="utf-8")
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        assert "unknown parameter mode 'unknown_alpha:50'" in err

    def test_bad_schedule_token_names_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "gauss.cfg"
        cfg.write_text(TINY_CFG.replace("lower_alpha", "gauss"), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert err == f"error: {cfg}: unknown parameter mode 'gauss'\n"
        assert not out_dir.exists()

    def test_close_epsilons_get_their_own_guideline_files(self, capsys, tmp_path):
        cfg = tmp_path / "close.cfg"
        cfg.write_text(TINY_CFG.replace("epsilon_grid = 2", "epsilon_grid = 4, 4.0000001"),
                       encoding="utf-8")
        out_dir = tmp_path / "out"
        assert run_main(capsys, ["experiment", str(cfg), "--out-dir", str(out_dir)])[0] == 0
        names = sorted(p.name for p in out_dir.glob("guideline_eps*.csv"))
        assert names == ["guideline_eps4.0000001.csv", "guideline_eps4.csv"]


# results.csv of each bundled config; a digest pins every stream and rounding
# on the way, so it holds only for the versions that recorded it
STOCK_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1", "python": "3.11.7"}
STOCK_DIGESTS = {
    "uniform_fixed": "c06f483243d90914c896dca23c231158724c3a425524e8404174d550e3769fa9",
    "beta_alpha2_fixed": "ce37beae52735ec44b5a0205085a8aea91bc28bfad26ccaed06f2ab1204d3fe6",
    "baseline_eps1": "090ea98e1adab444c06f54b821262bd772aeac24de9f1bb4d9142c2017c210ba",
}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def stock_run(tmp_path_factory):
    """Runs a bundled config's sweep once per module: name -> (exit code, stderr, out dir)."""
    runs = {}

    def run(name):
        if name not in runs:
            out_dir, err = tmp_path_factory.mktemp(name), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["experiment", str(CONFIG_DIR / f"{name}.cfg"),
                                 "--out-dir", str(out_dir)])
            runs[name] = code, err.getvalue(), out_dir
        return runs[name]

    return run


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(STOCK_DIGESTS))
def test_stock_results_are_unchanged(stock_run, name):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__,
                "python": platform.python_version()}
    if versions != STOCK_VERSIONS:
        pytest.skip(f"digests recorded with {STOCK_VERSIONS}, running {versions}")
    code, err, out_dir = stock_run(name)
    assert code == 0 and err == ""
    digest = hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest()
    assert digest == STOCK_DIGESTS[name]


# max/min of err/bound over a config's applicable cells, fixed before any run
# (measured: 1.058 uniform, 1.058 beta(2,1), 1.008 baseline_eps1)
BOUND_RATIO_WINDOW = 1.25

# The only sweep shape whose Laplace baseline reads an i.i.d. cohort (the
# bench's sweep_iid, smaller); no bundled config does.  Its digest was taken
# before the baseline gained its float path.
IID_BASELINE_CFG = """\
model = beta
alpha = 2
beta = 1
delta = 0.3
setting = iid
n_grid = 256, 512, 1024
epsilon_grid = 1
param_mode = lower_alpha
reps = 5
xmin_grid = auto
seed = 20240817
mechanisms = binary_search, laplace
"""
IID_BASELINE_DIGEST = "2e70ce36d8a7a58bf7a26c1756ef879d457e66a3708419f63d2deda81e2cedea"


@pytest.mark.parametrize("name", sorted(STOCK_DIGESTS))
def test_stock_errors_lie_within_their_bounds(stock_run, name):
    code, err, out_dir = stock_run(name)
    assert code == 0 and err == ""
    errs = {(row["n"], row["epsilon"], row["x_min"]): float(row["mean_abs_err"])
            for row in read_csv(out_dir / "results.csv")
            if row["mechanism"] == harness.MECH_BINARY_SEARCH}
    rows = read_csv(out_dir / "bounds.csv")
    assert [(row["n"], row["epsilon"], row["x_min"]) for row in rows] == list(errs)
    ratios = []
    for row in rows:
        key = (row["n"], row["epsilon"], row["x_min"])
        # plain floats: numpy 2 would print an np.float64 as "np.float64(...)"
        assert all(math.isfinite(float(row[col])) for col in cli.BOUND_COLUMNS
                   if col != "applicable"), row
        assert float(row["err_over_bound"]) == errs[key] / float(row["bound"])
        assert row["applicable"] in ("True", "False")
        if row["applicable"] == "True":
            assert errs[key] <= float(row["bound"]), row
            ratios.append(float(row["err_over_bound"]))
    assert len(ratios) >= 2
    assert max(ratios) / min(ratios) <= BOUND_RATIO_WINDOW


def test_iid_baseline_results_are_unchanged(capsys, tmp_path):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__,
                "python": platform.python_version()}
    if versions != STOCK_VERSIONS:
        pytest.skip(f"digest recorded with {STOCK_VERSIONS}, running {versions}")
    cfg = tmp_path / "iid_baseline.cfg"
    cfg.write_text(IID_BASELINE_CFG, encoding="utf-8")
    code, _, err = run_main(capsys, ["experiment", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 0 and err == ""
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == IID_BASELINE_DIGEST


class TestFit:
    def write_curve(self, tmp_path, errs_by_n):
        path = tmp_path / "curve.csv"
        lines = ["n,mean_abs_err,extra"]
        lines += [f"{n},{e},ignored" for n, e in errs_by_n]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def write_sweep(self, path, curves):
        """A results.csv-like file: one row per (curve, N), rows interleaved by N."""
        lines = ["n,epsilon,mechanism,mean_abs_err"]
        for rows in zip(*curves.values()):
            for (mechanism, epsilon), (n, err) in zip(curves, rows):
                lines.append(f"{n},{epsilon},{mechanism},{err}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_fits_each_curve_of_a_sweep(self, capsys, tmp_path):
        ns = [2**k for k in range(8, 14)]
        curves = {("binary_search", "1.0"): [(n, n ** -0.5) for n in ns],
                  ("laplace", "1.0"): [(n, 3 * n ** -0.25) for n in ns],
                  ("binary_search", "4.0"): [(n, 0.5 * n ** -0.5) for n in ns],
                  ("laplace", "4.0"): [(n, n ** -0.3) for n in ns]}
        blocks = []
        for i, (key, points) in enumerate(curves.items()):
            # a one-curve file prints the five lines alone, as it always has
            alone = self.write_sweep(tmp_path / f"curve{i}.csv", {key: points})
            code, out, _ = run_main(capsys, ["fit", str(alone)])
            assert code == 0
            fit = analysis.fit_rate(points)
            assert out == (f"A = {fit.A!r}\nB = {fit.B!r}\nC = {fit.C!r}\n"
                           f"alpha_hat = {fit.alpha_hat!r}\nresidual = {fit.residual!r}\n")
            blocks.append(f"# mechanism {key[0]}, epsilon {key[1]}\n" + out)
        sweep = self.write_sweep(tmp_path / "all.csv", curves)
        code, out, _ = run_main(capsys, ["fit", str(sweep)])
        assert code == 0
        assert out == "".join(blocks)

    def test_growing_curve_of_a_sweep_is_named(self, capsys, tmp_path):
        ns = [2**k for k in range(8, 12)]
        curves = {("binary_search", "1.0"): [(n, n ** -0.5) for n in ns],
                  ("laplace", "1.0"): [(n, n / 100.0) for n in ns]}
        sweep = self.write_sweep(tmp_path / "all.csv", curves)
        code, out, err = run_main(capsys, ["fit", str(sweep)])
        assert code == 3
        assert out.count("A = ") == 2
        assert "not decaying" in err
        assert "mechanism laplace, epsilon 1.0" in err
        assert "binary_search" not in err

    def test_recovers_square_root_law(self, capsys, tmp_path):
        path = self.write_curve(tmp_path, [(2**k, (2**k) ** -0.5) for k in range(8, 14)])
        code, out, _ = run_main(capsys, ["fit", str(path)])
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["alpha_hat"]) - 1.0) < 1e-6
        assert abs(float(values["A"]) - 0.5) < 1e-9

    def test_growing_errors_exit_nonzero(self, capsys, tmp_path):
        path = self.write_curve(tmp_path, [(2**k, 2**k / 100.0) for k in range(8, 12)])
        code, out, err = run_main(capsys, ["fit", str(path)])
        assert code == 3
        assert "not decaying" in err

    def test_malformed_row_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,mean_abs_err\n64,0.5\n128,oops\n", encoding="utf-8")
        code, _, err = run_main(capsys, ["fit", str(path)])
        assert code == 3
        assert "line 3" in err

    def test_too_few_rows(self, capsys, tmp_path):
        path = self.write_curve(tmp_path, [(64, 0.5), (128, 0.4)])
        code, _, err = run_main(capsys, ["fit", str(path)])
        assert code == 3

    @pytest.mark.parametrize("row", [(128, "nan"), (128, "inf"), (128, "-inf"),
                                     ("1" + "0" * 400, 0.4)],
                             ids=["nan-err", "inf-err", "minus-inf-err", "n-beyond-float"])
    def test_non_finite_row_exits_3(self, capsys, tmp_path, row):
        # a NaN error once printed A = nan and exited 0; a 401-digit n raised a traceback
        path = self.write_curve(tmp_path, [(64, 0.5), row, (256, 0.3), (512, 0.2)])
        code, out, err = run_main(capsys, ["fit", str(path)])
        assert code == 3
        assert out == "" and err.startswith("error: ")


class TestServeAndClient:
    def test_client_value_domain_checked_before_connect(self, capsys):
        code, _, err = run_main(capsys, [
            "client", "--connect", "127.0.0.1:1", "--value", "1.5", "--seed", "0",
        ])
        assert code == 2
        assert "[-1, 1]" in err

    def test_loopback_via_cli_serve(self, capsys, tmp_path):
        # drive the server through the CLI entry point on a fixed port,
        # clients through the library (they print nothing to capsys)
        out_path = tmp_path / "transcript.jsonl"
        port = 42873
        holder = {}

        def serve_main():
            holder["code"] = cli.main([
                "serve", "--bind", f"127.0.0.1:{port}", "--clients", "2",
                "--epsilon", "inf", "--depth", "3", "--gamma", "0.5",
                "--timeout", "10", "--out", str(out_path),
            ])

        thread = threading.Thread(target=serve_main)
        thread.start()

        def connect(i, x):
            for _ in range(200):  # wait for the listener
                try:
                    holder[i] = run_client(("127.0.0.1", port), x, seed=i)
                    return
                except ConnectionRefusedError:
                    import time

                    time.sleep(0.05)

        c1 = threading.Thread(target=connect, args=(1, 0.5))
        c2 = threading.Thread(target=connect, args=(2, 0.75))
        c1.start(); c2.start()
        c1.join(); c2.join()
        thread.join()
        out = capsys.readouterr().out
        assert holder["code"] == 0
        assert "RESULT 0.375" in out  # noise-free min of {0.5, 0.75} to depth 3
        assert holder[1] == holder[2] == 0.375
        final = json.loads(out_path.read_text().strip().splitlines()[-1])
        assert final["estimate"] == 0.375

    def test_client_without_seed_completes_a_session(self, capsys):
        # no --seed: each client's randomized response is seeded from OS entropy
        server = MinServer(ProtocolConfig(epsilon=1.0, depth=4, gamma=0.3, n=2), 2,
                           round_timeout=10.0)
        host, port = server.address
        holder = {}
        serve = threading.Thread(target=lambda: holder.setdefault("transcript", server.run()))
        serve.start()

        def client(i, value):
            holder[i] = cli.main(["client", "--connect", f"{host}:{port}",
                                  "--value", value, "--timeout", "10"])

        clients = [threading.Thread(target=client, args=(i, v))
                   for i, v in enumerate(["0.25", "-0.5"])]
        for t in clients:
            t.start()
        for t in clients + [serve]:
            t.join(timeout=30.0)
            assert not t.is_alive()
        estimate = holder["transcript"].estimate
        assert holder[0] == holder[1] == 0
        assert capsys.readouterr().out.split() == [format_real(estimate)] * 2

    def test_serve_depth_past_float_resolution_rejected_before_binding(self, capsys):
        code, out, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "1",
            "--epsilon", "1", "--depth", "60", "--gamma", "0.1",
        ])
        assert code == 3
        assert "LISTENING" not in out and "54" in err

    @pytest.mark.parametrize("epsilon, gamma, side", [("1", "5", "right"), ("inf", "0", "left")],
                             ids=["all-right", "all-left"])
    def test_serve_refuses_a_constant_walk_before_binding(self, capsys, epsilon, gamma, side):
        # the threshold is 3 > n (gamma 5) or -2 = -n (gamma 0 at eps = inf):
        # the estimate would be fixed before any answer, at every user's cost
        code, out, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "2",
            "--epsilon", epsilon, "--depth", "4", "--gamma", gamma, "--timeout", "1",
        ])
        assert code == 3
        assert "LISTENING" not in out and f"every branch {side}" in err

    def test_serve_gamma_nan_exits_nonzero_before_binding(self, capsys):
        code, out, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "1",
            "--epsilon", "1", "--depth", "3", "--gamma", "nan", "--timeout", "1",
        ])
        assert code != 0
        assert "LISTENING" not in out and "gamma" in err

    @pytest.mark.parametrize("epsilon", ["abc", "", "1,5"])
    def test_serve_non_numeric_epsilon_is_usage_error_before_binding(self, capsys, monkeypatch,
                                                                     epsilon):
        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(cli.net, "MinServer", no_socket)
        code, out, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "2",
            "--epsilon", epsilon, "--depth", "4", "--gamma", "0.1",
        ])
        assert code == 2
        assert "LISTENING" not in out and err.startswith("error: --epsilon")

    def test_server_timeout_exits_nonzero(self, capsys):
        code, _, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "2",
            "--epsilon", "1", "--depth", "1", "--gamma", "0.2", "--timeout", "0.5",
        ])
        assert code == 3
        assert "timeout" in err

    def test_backlog_past_the_socket_limit_is_capped(self, capsys):
        # listen() takes a C int: the backlog is capped at SOMAXCONN, as the kernel does
        code, out, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "2147483648",
            "--epsilon", "1", "--depth", "1", "--gamma", "0.2", "--timeout", "0.2",
        ])
        assert code == 3
        assert out.startswith("LISTENING") and err == "error: session aborted: timeout\n"

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_serve_port_out_of_range_is_usage_error(self, capsys, port):
        code, out, err = run_main(capsys, [
            "serve", "--bind", f"127.0.0.1:{port}", "--clients", "1",
            "--epsilon", "1", "--depth", "1", "--gamma", "0.1",
        ])
        assert code == 2
        assert "LISTENING" not in out and "0-65535" in err

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1", "1e10", "soon"])
    @pytest.mark.parametrize("command", [
        ["serve", "--bind", "127.0.0.1:0", "--clients", "1",
         "--epsilon", "1", "--depth", "1", "--gamma", "0.1"],
        ["client", "--connect", "127.0.0.1:1", "--value", "0.5", "--seed", "0"],
    ], ids=["serve", "client"])
    def test_bad_timeout_is_usage_error_before_any_socket(self, capsys, monkeypatch,
                                                          command, timeout):
        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(cli.net, "MinServer", no_socket)
        monkeypatch.setattr(cli.net, "run_client", no_socket)
        code, out, err = run_main(capsys, [*command, "--timeout", timeout])
        assert code == 2
        assert out == "" and err.startswith("error: --timeout")
