"""What a cold start loads: numpy only where arrays are made, scipy only for a model.

numpy loads in ``client``, ``simulate``, ``experiment`` and ``fit``, never in
the aggregator (``ldpmin.net``, a ``serve`` session) or at ``import
ldpmin.cli`` and ``--help``.  scipy loads only when a beta with beta != 1 or a
truncated normal is evaluated.

Each check runs in a new interpreter on the package under src/, since this
test process has numpy and scipy loaded already.  A script prints
``"<module>" in sys.modules`` last.
"""

import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ldpmin.net import format_real, run_client

SRC = Path(__file__).resolve().parent.parent / "src"
BLOCK_SCIPY = 'sys.modules["scipy"] = None  # any import of scipy now fails\n'
SIMULATE_DATA = ["simulate", "--data", "0.5,-0.25", "--epsilon", "1", "--depth", "3",
                 "--gamma", "0.5"]


def interpreter(script: str, *, block_scipy: bool = False) -> dict:
    """``subprocess`` arguments for a new interpreter running ``script`` after ``import sys``."""
    code = "import sys\n" + (BLOCK_SCIPY if block_scipy else "") + textwrap.dedent(script)
    return {"args": [sys.executable, "-c", code], "text": True,
            "env": {**os.environ, "PYTHONPATH": str(SRC)}}


def fresh(script: str, *, block_scipy: bool = False) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter, after ``import sys``."""
    return subprocess.run(**interpreter(script, block_scipy=block_scipy),
                          capture_output=True, timeout=120)


def loaded(module: str, script: str) -> bool:
    """Whether ``module`` is loaded once ``script`` has run in a new interpreter."""
    done = fresh(textwrap.dedent(script) + f'\nprint({module!r} in sys.modules)\n')
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
    assert not loaded("scipy", f"import {module}")


@pytest.mark.parametrize("module", ["ldpmin.cli", "ldpmin.net"])
def test_import_loads_no_numpy(module):
    assert not loaded("numpy", f"import {module}")


def test_serve_help_loads_no_numpy():
    assert not loaded("numpy", """
        import contextlib, io
        from ldpmin import cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                cli.main(["serve", "--help"])
            except SystemExit as done:
                assert done.code == 0
        assert "--clients" in out.getvalue()
    """)


def test_serve_session_loads_no_numpy():
    # the clients run in this process, so the server's interpreter holds only
    # the aggregator
    script = """
        from ldpmin import cli
        code = cli.main(["serve", "--clients", "2", "--epsilon", "4", "--depth", "8",
                         "--gamma", "0.3", "--timeout", "60"])
        print("numpy" in sys.modules, "scipy" in sys.modules)
        sys.exit(code)
    """
    with subprocess.Popen(**interpreter(script), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as server:
        try:
            listening, address = server.stdout.readline().split()
            assert listening == "LISTENING"
            host, _, port = address.rpartition(":")
            with ThreadPoolExecutor(max_workers=2) as pool:
                clients = [pool.submit(run_client, (host, int(port)), x, seed, timeout=60.0)
                           for x, seed in ((0.25, 1), (-0.5, 2))]
                estimates = {c.result(timeout=60.0) for c in clients}
            out, err = server.communicate(timeout=60)
        finally:
            server.kill()
    assert server.returncode == 0, err
    (estimate,) = estimates
    assert out.splitlines() == [f"RESULT {format_real(estimate)}", "False False"]


def test_fit_and_simulate_data_load_no_scipy(rates_csv):
    assert not loaded("scipy", f"""
        import contextlib, io
        from ldpmin import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fit", {str(rates_csv)!r}]) == 0
            assert cli.main({SIMULATE_DATA!r}) == 0
    """)


def test_loopback_session_loads_no_scipy():
    assert not loaded("scipy", """
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
    assert not loaded("scipy", """
        from ldpmin.datagen import BetaScaled
        BetaScaled(2.0, 2.0, -1.0, 0.3)
    """)


def test_fatness_constant_loads_scipy():
    assert loaded("scipy", """
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


CLIENT_SESSION = """
    import threading
    from ldpmin import cli
    from ldpmin.net import MinServer
    from ldpmin.protocol import ProtocolConfig
    server = MinServer(ProtocolConfig(4.0, 8, 0.3, 1), 1, round_timeout=60.0)
    serve = threading.Thread(target=server.run)
    serve.start()
    host, port = server.address
    code = cli.main(["client", "--connect", f"{host}:{port}", "--value", "0.25", "--seed", "1"])
    serve.join(timeout=60.0)
    assert code == 0 and not serve.is_alive()
"""


@pytest.mark.parametrize("command", ["client", "simulate", "simulate-data", "experiment", "fit"])
def test_array_commands_load_numpy_where_they_run(command, rates_csv, tmp_path):
    # one interpreter each, so no command's imports stand in for another's
    if command == "client":
        script = CLIENT_SESSION
    else:
        if command in ("simulate", "experiment"):
            argv = closed_form_run("uniform", command, "iid", tmp_path, tmp_path)
        else:
            argv = {"simulate-data": SIMULATE_DATA, "fit": ["fit", str(rates_csv)]}[command]
        script = f"from ldpmin import cli\nassert cli.main({argv!r}) == 0"
    assert loaded("numpy", script)


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
