"""Benchmark entry point for ldpmin.

    python3 bench/run.py --workload {sweep_fixed,sweep_iid,loopback} \
        --seed N --seconds S --trace {0,1}

Runs the workload in a fresh interpreter (``bench/worker.py``) against the
package under ``src/`` of this checkout, with the BLAS and OpenMP pools
pinned to one thread.  With ``--trace 0`` it first times the set-up
(interpreter start, imports and, for loopback, the aggregator spawn)
SETUP_SAMPLES times and reports the median as ``setup_s``.

Prints a provenance line, a summary line, and last one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record is
also written to ``bench/out/``.  Exits 1 when any operation failed its
check, 2 when the package or the worker is missing or broken.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep_fixed", "sweep_iid", "loopback")
SETUP_SAMPLES = 5
DEADLINE_S = 175.0  # the whole command, set-up included, ends within this

PIN_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PIN_ONE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], timeout: float) -> str:
    """Run the worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=worker_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}")
    return out


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ldpmin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "ldpmin" / "__init__.py").is_file():
        print(f"error: no ldpmin package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        units = declared_units(args.trace)
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                t0 = time.perf_counter()
                run_worker(["--workload", args.workload, "--probe"], deadline - time.monotonic())
                setup.append(time.perf_counter() - t0)
        out = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                         deadline - time.monotonic())
        record = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = record["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        record["summary"]["setup_samples_s"] = setup
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, result=result)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"summary": record["summary"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
