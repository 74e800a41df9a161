"""Command-line entry point: simulate, experiment, fit, serve, client.

All output is plain text: transcripts as JSON lines, experiment tables as
CSV.  Every command but a client without --seed is deterministic, and numeric
fields use the shortest round-trip decimal so repeated runs are byte-identical.

Exit codes: 0 success, 2 usage error, 3 runtime or protocol failure (an
allocation the host cannot make included).

At module level this imports only the stdlib, ``net``, ``params`` and
``protocol``, so ``serve`` and ``--help`` load neither numpy nor scipy.
``client``, ``simulate``, ``experiment`` and ``fit`` load numpy, importing
``harness``, ``analysis`` and ``datagen`` where they use them; scipy loads
only for a model that needs it (see ``datagen``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import net
from .params import choose_params
from .protocol import ProtocolConfig, Transcript, run_private_min

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

BOUND_COLUMNS = ("n", "epsilon", "x_min", "quantile_term", "noise_term",
                 "discretization_term", "bound", "applicable", "err_over_bound")
# simulate's model flags, by the ModelTemplate field each sets
MODEL_FLAGS = {"kind": "--model", "alpha": "--model-alpha", "beta": "--model-beta",
               "delta": "--delta", "mu": "--mu", "sigma": "--sigma"}
# the flags --data refuses: the model flags and where and how a model's cohort lies
COHORT_FLAGS = {**MODEL_FLAGS, "x_min": "--x-min", "setting": "--setting"}


class UsageError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):  # an np.float64 too, which numpy 2 would repr as np.float64(...)
        return repr(float(value))
    return str(value)


def _jsonable(value):
    # strict JSON has no Infinity literal; 'inf' survives a float() round trip
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def transcript_json_lines(transcript: Transcript) -> str:
    """One JSON object per round, then a summary line with the estimate."""
    lines = [
        json.dumps({"round": r.round, "tau": r.tau, "sum_z": r.sum_z,
                    "phi": _jsonable(r.phi), "branch": r.branch})
        for r in transcript.rounds
    ]
    cfg = transcript.config
    lines.append(json.dumps({
        "estimate": transcript.estimate,
        "degenerate_gamma": cfg.degenerate_gamma,
        "n": cfg.n, "epsilon": _jsonable(cfg.epsilon), "depth": cfg.depth,
        "gamma": _jsonable(cfg.gamma),
    }))
    return "\n".join(lines) + "\n"


def _write_csv(out_path, header, rows) -> None:
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_result_csv(rows, out_path) -> None:
    from .harness import RESULT_COLUMNS

    _write_csv(out_path, RESULT_COLUMNS, ([getattr(r, c) for c in RESULT_COLUMNS] for r in rows))


def _bound_row(spec, cell) -> tuple:
    """A search cell's bounds.csv row: :func:`analysis.error_bound` at its worst placement."""
    from . import analysis

    config = choose_params(spec.param_mode, cell.n, cell.epsilon)
    b = analysis.error_bound(spec.model.place(cell.x_min), config, spec.setting)
    return (cell.n, cell.epsilon, cell.x_min, b.quantile_term, b.noise_term,
            b.discretization_term, b.value, b.applicable, cell.mean_abs_err / b.value)


def _parse_epsilon(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, as 'nan' is
    if math.isnan(value) or value <= 0:
        raise UsageError(f"--epsilon must be positive (or 'inf'), got {text!r}")
    return value


def _simulate_cohort(args, rng):
    """The count source a simulated search reads: a cohort, or a model's fixed or iid counts."""
    import numpy as np

    from .datagen import Cohort, IidCounts, fixed_cohort
    from .harness import ModelTemplate

    given = {k: v for k, v in vars(args).items() if k in COHORT_FLAGS}
    if args.data is not None:
        if given:
            flags = ", ".join(COHORT_FLAGS[k] for k in given)
            raise UsageError(f"--data takes no model flag ({flags})")
        try:
            values = [float(s) for s in args.data.split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"--data must be a comma-separated list of reals") from None
        if not values:
            raise UsageError("--data is empty")
        if args.n is not None and args.n != len(values):
            raise UsageError(f"--n {args.n} does not match {len(values)} --data values")
        return Cohort(np.array(values), "fixed")
    if args.n is None:
        raise UsageError("either --n (with --model) or --data is required")
    model_args = {k: v for k, v in given.items() if k in MODEL_FLAGS}
    model = ModelTemplate(**model_args).place(given.get("x_min", -1.0))
    if given.get("setting", "fixed") == "fixed":
        return fixed_cohort(model, args.n)
    return IidCounts(model, args.n, rng)


def cmd_simulate(args) -> int:
    import numpy as np

    if (args.gamma is None) == (args.param_mode is None):
        raise UsageError("pass exactly one of --gamma or --param-mode")
    if args.gamma is not None and args.depth is None:
        raise UsageError("--gamma requires --depth")
    if args.param_mode is not None and args.depth is not None:
        raise UsageError("--depth conflicts with --param-mode (the schedule sets it)")

    epsilon = _parse_epsilon(args.epsilon)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    try:
        counts = _simulate_cohort(args, rng)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    if args.param_mode is not None:
        config = choose_params(args.param_mode, counts.n, epsilon)
    else:
        config = ProtocolConfig(epsilon, args.depth, args.gamma, counts.n)
    transcript = run_private_min(counts, config, rng)
    text = transcript_json_lines(transcript)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def write_experiment(spec, cells, out_dir, config_path) -> None:
    """Write a sweep's results.csv, bounds.csv, guideline_eps<eps>.csv files and run_meta.json."""
    from . import harness

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_result_csv(cells, out_dir / "results.csv")

    # guidelines anchor on the bisection mechanism's worst-case curve
    fat_alpha = spec.model.place(spec.xmin_grid[0]).fat_alpha
    binary = [c for c in cells if c.mechanism == harness.MECH_BINARY_SEARCH]
    _write_csv(out_dir / "bounds.csv", BOUND_COLUMNS, (_bound_row(spec, c) for c in binary))
    for epsilon in spec.epsilon_grid:
        curve_cells = sorted((c for c in binary if c.epsilon == epsilon), key=lambda c: c.n)
        if not curve_cells:
            continue
        points = harness.guideline_curve(spec.param_mode, fat_alpha,
                                         [c.n for c in curve_cells], epsilon,
                                         anchor=curve_cells[-1].mean_abs_err)
        if not points:
            continue
        # shortest round-trip decimal, so no two epsilons share a file
        name = repr(float(epsilon)).removesuffix(".0")
        _write_csv(out_dir / f"guideline_eps{name}.csv", ("n", "guideline_value"), points)

    meta = {
        "config": str(config_path),
        "quantiles": "q05/q95 taken at the worst x_min placement, not pooled",
        "worst_rule": "per cell, max over xmin_grid of the per-placement mean error",
        "seed": spec.seed,
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                           encoding="utf-8")


def cmd_experiment(args) -> int:
    from . import harness

    spec = harness.parse_experiment_config(args.config)
    write_experiment(spec, harness.run_experiment(spec), args.out_dir, args.config)
    return EXIT_OK


def cmd_fit(args) -> int:
    from .analysis import fit_rate

    curves = {}  # (mechanism, epsilon) -> points, in file order
    with open(args.csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"n", "mean_abs_err"} <= set(reader.fieldnames):
            raise RuntimeError(f"{args.csv}: need columns n and mean_abs_err")
        for lineno, row in enumerate(reader, start=2):
            try:
                point = (int(row["n"]), float(row["mean_abs_err"]))
            except (TypeError, ValueError):
                raise RuntimeError(f"{args.csv}: line {lineno}: malformed row") from None
            curves.setdefault((row.get("mechanism"), row.get("epsilon")), []).append(point)
    if not curves:
        raise RuntimeError(f"{args.csv}: no rows to fit")
    code = EXIT_OK
    for (mechanism, epsilon), points in curves.items():
        curve = f"mechanism {mechanism}, epsilon {epsilon}" if len(curves) > 1 else None
        if curve:
            print(f"# {curve}")
        fit = fit_rate(points)
        print(f"A = {fit.A!r}")
        print(f"B = {fit.B!r}")
        print(f"C = {fit.C!r}")
        print(f"alpha_hat = {fit.alpha_hat!r}")
        print(f"residual = {fit.residual!r}")
        if fit.A <= 0:
            named = f" ({curve})" if curve else ""
            print(f"error curve{named} is not decaying (A <= 0); no rate recovered",
                  file=sys.stderr)
            code = EXIT_RUNTIME
    return code


def _parse_bind(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise UsageError(f"address must be host:port, got {text!r}")
    try:
        port = int(port)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise UsageError(f"bad port in address {text!r} (need 0-65535)")
    return host, port


def _parse_timeout(text: str) -> float:
    try:
        return net.check_timeout(float(text))
    except ValueError:
        raise UsageError(f"--timeout must be a positive number of seconds up to 1e9, "
                         f"got {text!r}") from None


def cmd_serve(args) -> int:
    host, port = _parse_bind(args.bind)
    timeout = _parse_timeout(args.timeout)
    epsilon = _parse_epsilon(args.epsilon)
    config = ProtocolConfig(epsilon=epsilon, depth=args.depth, gamma=args.gamma,
                            n=args.clients)
    server = net.MinServer(config, args.clients, host=host,
                           port=port, round_timeout=timeout)
    print(f"LISTENING {server.address[0]}:{server.address[1]}", flush=True)
    transcript = server.run()
    print(f"RESULT {net.format_real(transcript.estimate)}")
    if args.out:
        Path(args.out).write_text(transcript_json_lines(transcript), encoding="utf-8")
    return EXIT_OK


def cmd_client(args) -> int:
    if not -1.0 <= args.value <= 1.0:
        raise UsageError(f"--value must lie in [-1, 1], got {args.value}")
    estimate = net.run_client(_parse_bind(args.connect), args.value, args.seed,
                              timeout=_parse_timeout(args.timeout))
    print(net.format_real(estimate))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpmin",
        description="Locally private minimum finding: simulator, experiments and demo network protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one protocol simulation, dump the transcript")
    sim.add_argument("--n", type=int, default=None, help="cohort size (with --model)")
    sim.add_argument("--epsilon", required=True, help="total privacy budget; 'inf' disables noise")
    sim.add_argument("--depth", type=int, default=None, help="rounds L (with --gamma)")
    sim.add_argument("--gamma", type=float, default=None, help="explicit decision threshold")
    sim.add_argument("--param-mode", default=None,
                     help="schedule that sets depth and gamma: "
                          "lower_alpha | known_alpha:<a0> | unknown_alpha")
    # model flags left out take ModelTemplate's defaults, and --x-min and
    # --setting those of _simulate_cohort; none is set unless given
    sim.add_argument("--model", dest="kind", default=argparse.SUPPRESS,
                     help="uniform | beta | truncnorm")  # harness.MODEL_KINDS
    for field, flag in list(MODEL_FLAGS.items())[1:]:  # the real-valued parameters
        sim.add_argument(flag, dest=field, type=float, default=argparse.SUPPRESS)
    sim.add_argument("--x-min", type=float, default=argparse.SUPPRESS,
                     help="the model's support minimum (default -1.0)")
    sim.add_argument("--setting", default=argparse.SUPPRESS, choices=["fixed", "iid"],
                     help="the model's cohort: fixed quantiles or iid draws (default fixed)")
    sim.add_argument("--data", default=None,
                     help="comma-separated explicit user values "
                          "(no model flag, --x-min or --setting)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help="write the transcript here instead of stdout")
    sim.set_defaults(func=cmd_simulate)

    exp = sub.add_parser("experiment", help="run a sweep from a config file, emit CSV")
    exp.add_argument("config", help="flat key = value config file")
    exp.add_argument("--out-dir", default=".", help="directory for results.csv and guidelines")
    exp.set_defaults(func=cmd_experiment)

    fit = sub.add_parser("fit", help="fit the decay rate of an error curve CSV")
    fit.add_argument("csv", help="CSV with columns n, mean_abs_err (extras ignored)")
    fit.set_defaults(func=cmd_fit)

    srv = sub.add_parser("serve", help="aggregate one networked session")
    srv.add_argument("--bind", default="127.0.0.1:0", help="host:port to listen on")
    srv.add_argument("--clients", type=int, required=True)
    srv.add_argument("--epsilon", required=True)
    srv.add_argument("--depth", type=int, required=True)
    srv.add_argument("--gamma", type=float, required=True)
    srv.add_argument("--timeout", default="30",
                     help="deadline (s) for the connect phase and for each barrier")
    srv.add_argument("--out", default=None, help="write the transcript here")
    srv.set_defaults(func=cmd_serve)

    cli = sub.add_parser("client", help="participate as one user")
    cli.add_argument("--connect", required=True, help="server host:port")
    cli.add_argument("--value", type=float, required=True, help="this user's datum in [-1, 1]")
    cli.add_argument("--seed", type=int, default=None,
                     help="replay seed, which undoes every flip (default: OS entropy)")
    cli.add_argument("--timeout", default="30",
                     help="deadline (s) for the connect and for each line read")
    cli.set_defaults(func=cmd_client)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
