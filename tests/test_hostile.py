"""The hostile-input contract: whatever a config file or an argument vector
of ``simulate`` or ``serve`` holds, ``cli.main`` returns 0, 2 (usage) or 3
(runtime), and no exception escapes.  argparse's own refusals end in
``SystemExit(2)``, the same exit code a process sees.

Every single edit of a small valid run (one key set to each of its hostile
values, repeated, or dropped) is tried in turn, so each value reaches past the
parsers into the run where it can; hypothesis then tries pairs of edits.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ldpmin import cli, net

REALS = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "5e-324", "-5e-324", "-0.0", "0",
         "0.3", "1", "-1", "abc", ""]
# rep counts past 2**32 are refused; a valid one stays small, for the sweep's time
INTS = ["0", "-1", "1", "2", str(2**32 + 1), str(2**63), str(2**200), "0x10", "1e3", "abc", ""]
SEEDS = [*INTS, str(2**64), str(2**64 - 1)]
# cohort sizes: a Laplace cell draws one uniform per user, so valid ones stay at
# or below 2**20; 2**63 is refused before anything is drawn
SIZES = ["0", "1", "2", "3", "64, 64", "1024", "1048576", str(2**63), str(2**200), "-64", "",
         "1e3", "64,", "nan"]
EPSILONS = [*REALS, "4, 4", "1, inf", "1e-320", "1.7e308"]
PLACEMENTS = [*REALS, "auto", "-1, -1", "-1, 0.69", "0.7", "-1.0000000000000002"]
PARAM_MODES = ["lower_alpha", "unknown_alpha", "known_alpha:", "gauss",
               *(f"known_alpha:{v}" for v in REALS)]

# a small valid sweep: at most 256 users and 2 reps per cell until edited
BASE_CONFIG = {
    "model": "beta", "alpha": "2", "beta": "1", "delta": "0.3", "setting": "iid",
    "n_grid": "64, 256", "epsilon_grid": "4", "param_mode": "lower_alpha", "reps": "2",
    "seed": "11", "mechanisms": "binary_search, laplace", "xmin_grid": "auto",
}
CONFIG_VALUES = {
    "model": ["uniform", "beta", "truncnorm", "gauss", ""],
    "alpha": REALS, "beta": REALS, "delta": REALS, "mu": REALS, "sigma": REALS,
    "setting": ["fixed", "iid", "both", ""],
    "n_grid": SIZES, "epsilon_grid": EPSILONS, "param_mode": PARAM_MODES, "reps": INTS,
    "seed": SEEDS,
    "mechanisms": ["nonprivate", "laplace", "binary_search, binary_search", "gauss", ""],
    "xmin_grid": PLACEMENTS,
    "x_max": REALS, "n": SIZES,  # unknown keys
}

BASE_ARGVS = [
    {"--n": "64", "--model": "beta", "--model-alpha": "2", "--setting": "iid",
     "--epsilon": "1", "--param-mode": "lower_alpha", "--seed": "5"},
    {"--n": "64", "--model": "truncnorm", "--mu": "0.1", "--sigma": "0.4", "--delta": "1",
     "--epsilon": "2", "--depth": "6", "--gamma": "0.1"},
    {"--data": "0.5,-0.25", "--epsilon": "1", "--depth": "3", "--gamma": "0.5"},
]
# a search reads only counts, so simulate takes any size numpy can draw a count for
ARGV_VALUES = {
    "--n": [*SIZES, str(2**59), str(2**63 - 1)], "--epsilon": EPSILONS,
    "--depth": [*INTS, "54", "55"], "--gamma": REALS, "--param-mode": PARAM_MODES,
    "--model": CONFIG_VALUES["model"], "--model-alpha": REALS, "--model-beta": REALS,
    "--delta": REALS, "--mu": REALS, "--sigma": REALS, "--x-min": REALS,
    "--setting": CONFIG_VALUES["setting"], "--seed": SEEDS,
    "--data": [*REALS, "0.5,0.1", "0.5,nan", "1.5", ",", "0.5,5e-324,-0.0"],
}

# serve up to the bind: its run is stubbed out (see serve_exit_code), and every
# host is numeric or empty, so no value waits on a socket or a name resolver
SERVE_ARGV = {"--clients": "2", "--epsilon": "1", "--depth": "4", "--gamma": "0.1",
              "--timeout": "1", "--bind": "127.0.0.1:0"}
SERVE_VALUES = {
    "--clients": [*SIZES, *INTS], "--epsilon": EPSILONS, "--depth": [*INTS, "54", "55"],
    "--gamma": REALS, "--timeout": [*REALS, "1e9", "1e10"],
    "--bind": ["127.0.0.1:0", ":0", "0.0.0.0:0", "192.0.2.1:0", "127.0.0.1", "127.0.0.1:",
               ":", "", "127.0.0.1:abc", "127.0.0.1:-1", "127.0.0.1:65536",
               f"127.0.0.1:{2**64}", "127.0.0.1:0x10"],
}


def single_edits(base: dict, values: dict):
    """Each of ``base``'s (key, value) pair lists with one key set, repeated or dropped."""
    for key, choices in values.items():
        rest = [(k, v) for k, v in base.items() if k != key]
        yield rest
        for value in choices:
            yield [*rest, (key, value)]
            if key in base:
                yield [*base.items(), (key, value)]


@st.composite
def edited(draw, base: dict, values: dict) -> list:
    """``base``'s (key, value) pairs with one or two keys set, dropped or repeated,
    each new value drawn from the key's list in ``values``."""
    pairs = list(base.items())
    edits = draw(st.dictionaries(st.sampled_from(sorted(values)),
                                 st.sampled_from(["set"] * 4 + ["drop", "repeat"]),
                                 min_size=1, max_size=2))
    for key, edit in edits.items():
        value = draw(st.sampled_from(values[key]))
        if edit == "repeat":
            pairs.append((key, value))
            continue
        pairs = [(k, v) for k, v in pairs if k != key]
        if edit == "set":
            pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
    return pairs


def exit_code(argv) -> int:
    """cli.main's exit code, its output discarded; argparse's refusal counts as its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


CONTRACT = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def experiment_exit_code(out, pairs) -> int:
    (out / "sweep.cfg").write_text("".join(f"{k} = {v}\n" for k, v in pairs), encoding="utf-8")
    return exit_code(["experiment", str(out / "sweep.cfg"), "--out-dir", str(out)])


def simulate_argv(pairs) -> list:
    return ["simulate", *(a for pair in pairs for a in pair)]


def test_every_single_edit_of_a_config(tmp_path):
    codes = set()
    for pairs in single_edits(BASE_CONFIG, CONFIG_VALUES):
        codes.add(experiment_exit_code(tmp_path, pairs))
        assert codes <= {0, 2, 3}, pairs
    assert codes == {0, 3}  # a config's faults are runtime errors


@pytest.mark.parametrize("base", BASE_ARGVS, ids=["model-iid", "truncnorm-fixed", "data"])
def test_every_single_edit_of_a_simulate_argv(base):
    codes = set()
    for pairs in single_edits(base, ARGV_VALUES):
        codes.add(exit_code(simulate_argv(pairs)))
        assert codes <= {0, 2, 3}, pairs
    assert {0, 2} <= codes


def serve_exit_code(pairs) -> int:
    """``serve``'s exit code, its session aborted as soon as the server is bound."""
    def aborted(server):
        server._close()
        raise net.SessionAborted("timeout")

    with mock.patch.object(net.MinServer, "run", aborted):
        return exit_code(["serve", *(a for pair in pairs for a in pair)])


def test_every_single_edit_of_a_serve_argv():
    codes = set()
    for pairs in single_edits(SERVE_ARGV, SERVE_VALUES):
        codes.add(serve_exit_code(pairs))
        assert codes <= {0, 2, 3}, pairs
    assert codes == {2, 3}  # the stubbed session always aborts


@CONTRACT
@given(pairs=edited(BASE_CONFIG, CONFIG_VALUES))
def test_two_edits_of_a_config(tmp_path_factory, pairs):
    assert experiment_exit_code(tmp_path_factory.mktemp("hostile"), pairs) in (0, 2, 3), pairs


@CONTRACT
@given(base=st.sampled_from(BASE_ARGVS), data=st.data())
def test_two_edits_of_a_simulate_argv(base, data):
    argv = simulate_argv(data.draw(edited(base, ARGV_VALUES)))
    assert exit_code(argv) in (0, 2, 3), argv


@CONTRACT
@given(pairs=edited(SERVE_ARGV, SERVE_VALUES))
def test_two_edits_of_a_serve_argv(pairs):
    assert serve_exit_code(pairs) in (0, 2, 3), pairs


@CONTRACT
@given(data=st.sampled_from(ARGV_VALUES["--data"]),
       cohort_flags=st.lists(st.sampled_from(["--x-min", "--setting"]), min_size=1,
                             max_size=2, unique=True),
       value=st.sampled_from([*REALS, "fixed", "iid"]))
def test_data_beside_cohort_flags(data, cohort_flags, value):
    # --data gives the users' values, so a flag placing or drawing a model's cohort is refused
    argv = ["simulate", "--data", data, "--epsilon", "2", "--depth", "4", "--gamma", "0.2",
            *(arg for flag in cohort_flags for arg in (flag, value))]
    assert exit_code(argv) == 2, argv


@CONTRACT
@given(rows=st.lists(st.tuples(st.sampled_from(SIZES), st.sampled_from(REALS)), max_size=5),
       header=st.sampled_from(["n,mean_abs_err", "mean_abs_err,n", "n", ""]))
def test_fit_csv(tmp_path_factory, rows, header):
    path = tmp_path_factory.mktemp("hostile") / "results.csv"
    path.write_text(header + "\n" + "".join(f"{n},{e}\n" for n, e in rows), encoding="utf-8")
    assert exit_code(["fit", str(path)]) in (0, 2, 3), (header, rows)
