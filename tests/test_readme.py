"""The README's CLI tour and sample config must stay runnable as written."""

import json
import re
import shlex
from pathlib import Path

from ldpmin import cli
from ldpmin.harness import parse_experiment_config
from ldpmin.params import choose_params

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def simulate_commands():
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ldpmin simulate"):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_simulate_examples_run(capsys):
    commands = simulate_commands()
    assert len(commands) >= 2
    for argv in commands:
        assert cli.main(argv) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert lines, argv
        assert "estimate" in [json.loads(line) for line in lines][-1]


def test_config_block_parses_and_resolves(tmp_path):
    (block,) = fenced_blocks("ini")
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    spec = parse_experiment_config(path)
    for n in spec.n_grid:
        for epsilon in spec.epsilon_grid:
            config = choose_params(spec.param_mode, n, epsilon)
            assert (config.n, config.epsilon) == (n, epsilon)
