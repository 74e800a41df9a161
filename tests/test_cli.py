import json
import threading

from ldpmin import cli
from ldpmin.net import run_client


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

    def test_depth_past_float_resolution_rejected(self, capsys):
        code, out, err = run_main(capsys, [
            "simulate", "--data", "-1", "--epsilon", "1", "--depth", "55", "--gamma", "0.1",
        ])
        assert code == 3
        assert out == "" and "54" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "transcript.jsonl"
        code, out, _ = run_main(capsys, [
            "simulate", "--data", "0.5", "--epsilon", "inf", "--depth", "3",
            "--gamma", "0.5", "--out", str(out_path),
        ])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text().strip().splitlines()[-1])["estimate"] == 0.375


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
        assert rows[0] == ",".join(cli.RESULT_COLUMNS)
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


class TestFit:
    def write_curve(self, tmp_path, errs_by_n):
        path = tmp_path / "curve.csv"
        lines = ["n,mean_abs_err,extra"]
        lines += [f"{n},{e},ignored" for n, e in errs_by_n]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

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

    def test_serve_depth_past_float_resolution_rejected_before_binding(self, capsys):
        code, out, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "1",
            "--epsilon", "1", "--depth", "60", "--gamma", "0.1",
        ])
        assert code == 3
        assert "LISTENING" not in out and "54" in err

    def test_server_timeout_exits_nonzero(self, capsys):
        code, _, err = run_main(capsys, [
            "serve", "--bind", "127.0.0.1:0", "--clients", "2",
            "--epsilon", "1", "--depth", "1", "--gamma", "0.2", "--timeout", "0.5",
        ])
        assert code == 3
        assert "timeout" in err
