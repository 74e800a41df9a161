"""scipy loads only when a data model is evaluated.

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
    ("BetaScaled(2.0, 1.0, -1.0, 0.3)", "cdf(-0.9)",
     "special.betainc(2.0, 1.0, (-0.9 - -1.0) / 0.3)"),
    ("BetaScaled(2.0, 1.0, -1.0, 0.3)", "quantile(0.25)",
     "-1.0 + 0.3 * special.betaincinv(2.0, 1.0, 0.25)"),
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
        BetaScaled(2.0, 1.0, -1.0, 0.3)
    """)


def test_fatness_constant_loads_scipy():
    assert scipy_loaded("""
        from ldpmin.datagen import BetaScaled, fatness_constant
        fatness_constant(BetaScaled(2.0, 1.0, -1.0, 0.3))
    """)


@pytest.mark.parametrize("model_args", [[], ["--model", "truncnorm", "--delta", "0.5"]],
                         ids=["uniform", "truncnorm"])
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
