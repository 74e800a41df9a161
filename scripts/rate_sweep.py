#!/usr/bin/env python3
"""Run an error-vs-N sweep from a config file and fit its decay exponent.

Writes the same out-dir as `ldpmin experiment` (results.csv, guideline
CSVs, run_meta.json) and prints each row plus the fitted (A, B, C,
alpha_hat) per epsilon.  Equivalent to `ldpmin experiment` followed by
`ldpmin fit`, kept as a script for interactive tinkering.
"""

import argparse
from pathlib import Path

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ldpmin.analysis import fit_rate
from ldpmin.cli import write_experiment
from ldpmin.harness import MECH_BINARY_SEARCH, parse_experiment_config, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "configs" / "uniform_fixed.cfg"))
    parser.add_argument("--out-dir", default="sweep_out")
    args = parser.parse_args()

    spec = parse_experiment_config(args.config)
    cells = run_experiment(spec)
    write_experiment(spec, cells, args.out_dir, args.config)

    for c in cells:
        print(f"N={c.n:7d} eps={c.epsilon:g} {c.mechanism:13s} "
              f"err={c.mean_abs_err:.5f} [{c.q05:.5f}, {c.q95:.5f}] "
              f"worst_xmin={c.x_min:+.3f}")

    for epsilon in spec.epsilon_grid:
        curve = [(c.n, c.mean_abs_err) for c in cells
                 if c.mechanism == MECH_BINARY_SEARCH and c.epsilon == epsilon]
        if len(curve) < 3:
            continue
        fit = fit_rate(curve)
        print(f"eps={epsilon:g}: A={fit.A:.4f} B={fit.B:.4f} C={fit.C:.4f} "
              f"alpha_hat={fit.alpha_hat if fit.alpha_hat is None else round(fit.alpha_hat, 4)} "
              f"residual={fit.residual:.3e}")


if __name__ == "__main__":
    main()
