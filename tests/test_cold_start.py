"""scipy loads only when a beta with beta != 1 or a truncated normal is evaluated.

Each check runs in a new interpreter on the package under src/, since this
test process has scipy loaded already.  A script prints ``"scipy" in
sys.modules`` last.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLOCK_SCIPY = 'sys.modules["scipy"] = None  # any import of scipy now fails\n'
SIMULATE_DATA = ["simulate", "--data", "0.5,-0.25", "--epsilon", "1", "--depth", "3",
                 "--gamma", "0.5"]


def fresh(script: str, *, block_scipy: bool = False) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter, after ``import sys``."""
    code = "import sys\n" + (BLOCK_SCIPY if block_scipy else "") + textwrap.dedent(script)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)


def scipy_loaded(script: str) -> bool:
    done = fresh(textwrap.dedent(script) + '\nprint("scipy" in sys.modules)\n')
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


@pytest.fixture
def rates_csv(tmp_path):
    path = tmp_path / "results.csv"
    rows = "".join(f"{2**k},{2.0 ** (-k / 2)}\n" for k in range(10, 17))
    path.write_text("n,mean_abs_err\n" + rows, encoding="utf-8")
    return path


@pytest.mark.parametrize("module", ["ldpmin.cli", "ldpmin.net"])
def test_import_loads_no_scipy(module):
    assert not scipy_loaded(f"import {module}")


def test_fit_and_simulate_data_load_no_scipy(rates_csv):
    assert not scipy_loaded(f"""
        import contextlib, io
        from ldpmin import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fit", {str(rates_csv)!r}]) == 0
            assert cli.main({SIMULATE_DATA!r}) == 0
    """)


def test_loopback_session_loads_no_scipy():
    assert not scipy_loaded("""
        import threading
        from ldpmin.net import MinServer, run_client
        from ldpmin.protocol import ProtocolConfig

        server = MinServer(ProtocolConfig(4.0, 8, 0.3, 2), 2, round_timeout=10.0)
        out = {}
        serve = threading.Thread(target=lambda: out.update(t=server.run()))
        serve.start()
        clients = [threading.Thread(target=run_client, args=(server.address, x, seed))
                   for x, seed in ((0.25, 1), (-0.5, 2))]
        for c in clients:
            c.start()
        for c in clients + [serve]:
            c.join()
        assert -1.0 <= out["t"].estimate <= 1.0
    """)


@pytest.mark.parametrize("model, call, oracle", [
    ("BetaScaled(2.0, 2.0, -1.0, 0.3)", "cdf(-0.9)",
     "special.betainc(2.0, 2.0, (-0.9 - -1.0) / 0.3)"),
    ("BetaScaled(2.0, 2.0, -1.0, 0.3)", "quantile(0.25)",
     "-1.0 + 0.3 * special.betaincinv(2.0, 2.0, 0.25)"),
    ("TruncNormal(0.0, 1.0, -1.0, 1.0)", "cdf(0.0)",
     "(special.ndtr(0.0) - special.ndtr(-1.0)) / (special.ndtr(1.0) - special.ndtr(-1.0))"),
], ids=["beta-cdf", "beta-quantile", "truncnorm-cdf"])
def test_first_evaluation_loads_scipy(model, call, oracle):
    # the value is the scipy function's, bit for bit
    done = fresh(f"""
        from ldpmin.datagen import BetaScaled, TruncNormal
        before = "scipy" in sys.modules
        value = {model}.{call}
        after = "scipy.special" in sys.modules
        from scipy import special
        print(before, after, value == float({oracle}))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "True"]


def test_beta_model_is_built_without_scipy():
    assert not scipy_loaded("""
        from ldpmin.datagen import BetaScaled
        BetaScaled(2.0, 2.0, -1.0, 0.3)
    """)


def test_fatness_constant_loads_scipy():
    assert scipy_loaded("""
        from ldpmin.datagen import BetaScaled
        BetaScaled(2.0, 2.0, -1.0, 0.3).fatness_constant()
    """)


# models evaluated in closed form: simulate's model flags and a config's model keys
CLOSED_FORM_MODELS = {
    "uniform": (["--model", "uniform"], "model = uniform"),
    "beta21": (["--model", "beta", "--model-alpha", "2", "--model-beta", "1"],
               "model = beta\nalpha = 2\nbeta = 1"),
}
CLOSED_FORM_CONFIG = """\
{model}
delta = 0.3
setting = {setting}
n_grid = 64, 256
epsilon_grid = 4
param_mode = lower_alpha
reps = 3
seed = 11
mechanisms = {mechanisms}
"""


def closed_form_run(model, kind, setting, out, tmp_path):
    """argv of a closed-form model's ``experiment`` or ``simulate`` run writing under ``out``."""
    flags, keys = CLOSED_FORM_MODELS[model]
    if kind == "simulate":
        return ["simulate", "--n", "64", *flags, "--setting", setting,
                "--epsilon", "1", "--param-mode", "lower_alpha", "--seed", "5",
                "--out", str(out / "transcript.jsonl")]
    mechanisms = "binary_search, nonprivate" if setting == "fixed" else "binary_search, laplace"
    config = tmp_path / f"{model}_{setting}.cfg"
    config.write_text(CLOSED_FORM_CONFIG.format(model=keys, setting=setting,
                                                mechanisms=mechanisms), encoding="utf-8")
    return ["experiment", str(config), "--out-dir", str(out)]


def run_with_and_without_scipy(model, kind, setting, tmp_path):
    # a closed-form model: nothing of scipy loads, and a run without it writes
    # what the run with it writes, byte for byte
    outputs = {}
    for block in (False, True):
        out = tmp_path / ("blocked" if block else "free")
        out.mkdir()
        argv = closed_form_run(model, kind, setting, out, tmp_path)
        done = fresh(f"""
            from ldpmin import cli
            code = cli.main({argv!r})
            print([m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m]])
            sys.exit(code)
        """, block_scipy=block)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        outputs[block] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs[False] and outputs[True] == outputs[False]


@pytest.mark.parametrize("setting", ["fixed", "iid"])
@pytest.mark.parametrize("kind", ["experiment", "simulate"])
def test_uniform_run_needs_no_scipy(kind, setting, tmp_path):
    run_with_and_without_scipy("uniform", kind, setting, tmp_path)


@pytest.mark.parametrize("setting", ["fixed", "iid"])
@pytest.mark.parametrize("kind", ["experiment", "simulate"])
def test_alpha_family_run_needs_no_scipy(kind, setting, tmp_path):
    # beta(alpha, 1), the paper's alpha family: F(u) = u**alpha in closed form
    run_with_and_without_scipy("beta21", kind, setting, tmp_path)


@pytest.mark.parametrize("model_args", [["--model", "beta", "--model-alpha", "2",
                                         "--model-beta", "2"],
                                        ["--model", "truncnorm", "--delta", "0.5"]],
                         ids=["beta", "truncnorm"])
def test_missing_scipy_ends_a_model_run_in_exit_3(model_args):
    argv = ["simulate", "--n", "8", *model_args, "--epsilon", "1", "--depth", "3",
            "--gamma", "0.5"]
    done = fresh(f"from ldpmin import cli\nsys.exit(cli.main({argv!r}))", block_scipy=True)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: data models need scipy, which could not be imported")


def test_missing_scipy_leaves_fit_and_simulate_data_working(rates_csv):
    for argv in (["fit", str(rates_csv)], SIMULATE_DATA):
        done = fresh(f"from ldpmin import cli\nsys.exit(cli.main({argv!r}))", block_scipy=True)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stdout
