"""The scripts under scripts/ run end to end against the package in src/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

TINY_CONFIG = """\
model = uniform
delta = 0.3
setting = fixed
n_grid = 64, 128, 256
epsilon_grid = 4
param_mode = lower_alpha
reps = 2
seed = 7
mechanisms = {mechanisms}
"""


def run_script(name, *args, cwd=None):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def write_config(tmp_path, mechanisms):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG.format(mechanisms=mechanisms), encoding="utf-8")
    return path


def test_loopback_demo_agrees_exactly():
    assert "agree exactly" in run_script("loopback_demo.py")


def test_baseline_comparison_prints_paired_table(tmp_path):
    config = write_config(tmp_path, "binary_search, laplace")
    lines = run_script("baseline_comparison.py", config).splitlines()
    assert lines[0].split() == ["N", "eps", "bisection", "laplace", "ratio"]
    assert [line.split()[0] for line in lines[1:]] == ["64", "128", "256"]
