"""One benchmark workload, run in a fresh interpreter by ``bench/run.py``.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload W --probe     (set-up only, for setup_s)

The workload seed stays here: ldpmin only receives the generated config
files, cohort values and client seeds.  Every operation's output is checked;
a failed check is a failed operation.  The last stdout line is one JSON
object with the operation counts, the metrics, a summary and provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from stats import failed_frac, latency_summary, percentile
from tracing import LayerTotals, Tracer, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("sweep_fixed", "sweep_iid", "loopback")

# Sweep shapes.  sweep_fixed is configs/uniform_fixed.cfg at 100 reps instead
# of 200: enough for run_private_min to outweigh the once-per-placement fixed
# cohorts more than 4 to 1, short enough for three calls in a 30 s run.
# sweep_iid draws a fresh beta(2,1) cohort every repetition, so cohort
# generation dominates it.
SWEEPS = {
    "sweep_fixed": {
        "model": "uniform", "delta": "0.3", "setting": "fixed",
        "n_grid": [2**k for k in range(10, 17)], "epsilon_grid": "4",
        "param_mode": "lower_alpha", "reps": 100, "xmin_grid": "auto",
        "mechanisms": "binary_search",
    },
    "sweep_iid": {
        "model": "beta", "alpha": "2", "beta": "1", "delta": "0.3", "setting": "iid",
        "n_grid": [2**k for k in range(8, 14)], "epsilon_grid": "1",
        "param_mode": "lower_alpha", "reps": 5, "xmin_grid": "auto",
        "mechanisms": "binary_search, laplace",
    },
}
PLACEMENTS = 6  # xmin_grid = auto
FIT_BAND = (0.35, 0.65)  # acceptance check c04's window for the fitted slope A

# Loopback: one generator process, CLIENTS connections and threads, the
# aggregator in a child process.
CLIENTS = 2
DEPTH = 32
EPSILON = 32.0
GAMMA = 0.5
CLIENT_TIMEOUT_S = 10.0
WARMUP_SESSIONS = 20
# op_ms on loopback is this percentile of session latency, not the median.
# A session is 32 rounds of wake-ups across processes and CPUs; when other
# load shares the CPUs, a growing part of the sessions waits for it and the
# median follows that part.  On 2 vCPUs, with a busy loop taking 2-50% of
# each (varied across six runs), the interquartile range of the runs' median
# latency was 0.63 of its median, that of their 10th percentile 0.12; with
# no load (ten runs), 0.09 and 0.14.
SESSION_PERCENTILE = 10.0

SWEEP_LAYERS = (
    "datagen.iid_cohort", "datagen.fixed_cohort", "protocol.run_private_min",
    "mechanisms.rr_respond_many", "protocol.baseline_min",
    "mechanisms.laplace_noise_many", "harness.rep_rng", "harness.run_experiment",
    "harness.parse_experiment_config", "cli.write_result_csv", "params.choose_params",
)


# ---------------------------------------------------------------- provenance

def provenance() -> dict:
    import numpy
    import scipy

    import ldpmin

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "ldpmin": ldpmin.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a source checkout without history; src_sha256 identifies it
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -------------------------------------------------------------------- sweeps

def write_config(path: Path, shape: dict, seed: int, **override) -> None:
    fields = {**shape, **override, "seed": seed}
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reps_per_op(shape: dict) -> int:
    mechanisms = len(shape["mechanisms"].split(","))
    return shape["reps"] * PLACEMENTS * len(shape["n_grid"]) * mechanisms


def read_rows(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_fixed(cli, out_dir: Path, shape: dict) -> tuple[str | None, float | None]:
    """Error decays with N; returns (failure reason or None, fitted slope A).

    ``ldpmin fit`` itself exits nonzero when the fitted slope is not
    positive.  Whether A also lands in check c04's window is reported, not
    gated: across workload seeds A spreads too widely for a per-operation gate.
    """
    rows = sorted(read_rows(out_dir), key=lambda r: int(r["n"]))
    if [int(r["n"]) for r in rows] != shape["n_grid"]:
        return "wrong cells", None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["fit", str(out_dir / "results.csv")])
    fields = dict(line.split(" = ", 1) for line in buf.getvalue().splitlines() if " = " in line)
    a = float(fields["A"]) if "A" in fields else None
    if code != 0:
        return f"fit exited {code}: error not decaying", a
    first, last = float(rows[0]["mean_abs_err"]), float(rows[-1]["mean_abs_err"])
    if not last < first:
        return f"error {last!r} at the largest N not below {first!r} at the smallest", a
    return None, a


def check_iid(out_dir: Path, shape: dict) -> str | None:
    """Laplace error above 1 in every cell, and binary_search below it."""
    errs = {(r["mechanism"], int(r["n"])): float(r["mean_abs_err"]) for r in read_rows(out_dir)}
    for n in shape["n_grid"]:
        lap, bs = errs.get(("laplace", n)), errs.get(("binary_search", n))
        if lap is None or bs is None:
            return f"missing cell n={n}"
        if not lap > 1.0:
            return f"laplace error {lap!r} <= 1 at n={n}"
        if not bs < lap:
            return f"binary_search {bs!r} >= laplace {lap!r} at n={n}"
    return None


def install_sweep_tracing(tracer: Tracer, cli, harness, protocol) -> None:
    """Wrap each layer boundary a sweep crosses, at the name its caller looks up."""
    n_arg = lambda args, kwargs: args[1]  # noqa: E731 - (model, n[, rng])
    tracer.wrap(harness, "parse_experiment_config", "harness.parse_experiment_config")
    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(harness, "choose_params", "params.choose_params")
    tracer.wrap(harness, "rep_rng", "harness.rep_rng", new_group=True)
    tracer.wrap(harness, "fixed_cohort", "datagen.fixed_cohort", size=n_arg)
    tracer.wrap(harness, "iid_cohort", "datagen.iid_cohort", size=n_arg)
    tracer.wrap(harness, "run_private_min", "protocol.run_private_min",
                size=lambda args, kwargs: args[1].depth)
    tracer.wrap(harness, "baseline_min", "protocol.baseline_min")
    tracer.wrap(protocol, "rr_respond_many", "mechanisms.rr_respond_many",
                size=lambda args, kwargs: len(args[0]))
    tracer.wrap(protocol, "laplace_noise_many", "mechanisms.laplace_noise_many",
                size=lambda args, kwargs: args[0])
    tracer.wrap(cli, "write_result_csv", "cli.write_result_csv")


def run_sweep(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from ldpmin import cli, harness, protocol

    shape = SWEEPS[workload]
    work = OUT / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "sweep.cfg"
    rng = random.Random(seed)

    # warm-up: lazy imports and first-call costs stay out of the timed ops
    write_config(cfg, shape, rng.randrange(2**32), n_grid=shape["n_grid"][:3], reps=1)
    if cli.main(["experiment", str(cfg), "--out-dir", str(work)]) != 0:
        raise RuntimeError("warm-up experiment failed")

    tracer = Tracer()
    walls, traced_walls, reasons, slopes = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        traced = trace and attempted % 2 == 0  # alternate, so overhead is paired
        write_config(cfg, shape, rng.randrange(2**32))
        if traced:
            install_sweep_tracing(tracer, cli, harness, protocol)
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.main") if traced else contextlib.nullcontext():
                code = cli.main(["experiment", str(cfg), "--out-dir", str(work)])
        finally:
            tracer.restore()
        wall = time.perf_counter() - t0
        attempted += 1
        if code != 0:
            reason = f"experiment exited {code}"
        elif workload == "sweep_fixed":
            reason, a = check_fixed(cli, work, shape)
            slopes.append(a)
        else:
            reason = check_iid(work, shape)
        if reason is not None:
            failed += 1
            reasons.append(reason)
        (traced_walls if traced else walls).append(wall)

    for path in work.iterdir():
        path.unlink()
    work.rmdir()

    summary = {"ops": latency_summary(walls), "op_s": walls, "reps_per_op": reps_per_op(shape),
               "reps_per_s": reps_per_op(shape) * len(walls) / sum(walls) if walls else None,
               "failed_frac": failed_frac(failed, attempted), "failures": reasons[:5]}
    if slopes:
        summary["fit_A"] = slopes
        summary["fit_A_in_c04_band"] = sum(
            a is not None and FIT_BAND[0] <= a <= FIT_BAND[1] for a in slopes)
    if trace:
        metrics = layer_metrics(tracer, walls, traced_walls)
    else:
        metrics = {
            "op_ms": percentile(walls, 50.0) * 1e3,
            "peak_rss_mb": peak_rss_kb() / 1024.0,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "summary": summary, "tracer": tracer}


# ------------------------------------------------------------------ loopback

class ServerProcess:
    """The aggregator child; every request is one JSON line on its stdin."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        if not self.read().get("ready"):
            raise RuntimeError("server process did not start")

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited ({self.proc.poll()})")
        return json.loads(line)

    def close(self) -> int:
        """Stop the child and wait for it; returns its peak RSS in KB (0 if lost)."""
        rss = 0
        try:
            self.send({"cmd": "quit"})
            rss = self.read()["rss_kb"]
        except (OSError, RuntimeError, ValueError, KeyError):
            pass
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return rss


def run_loopback(seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from ldpmin import net
    from ldpmin.datagen import Cohort
    from ldpmin.protocol import ProtocolConfig, run_private_min

    config = ProtocolConfig(EPSILON, DEPTH, GAMMA, CLIENTS)
    request = {"cmd": "session", "epsilon": EPSILON, "depth": DEPTH,
               "gamma": GAMMA, "n": CLIENTS}
    rng = random.Random(seed)
    tracer = Tracer()
    server = ServerProcess()
    # the main thread runs the last client, so CLIENTS threads in all
    pool = ThreadPoolExecutor(max_workers=CLIENTS - 1)

    def client(address, x, client_seed, parent):
        if parent is None:
            return net.run_client(address, x, client_seed, timeout=CLIENT_TIMEOUT_S)
        with tracer.span("net.run_client", parent=parent):
            return net.run_client(address, x, client_seed, timeout=CLIENT_TIMEOUT_S)

    def session(sid: int, traced: bool):
        """One timed session; returns (seconds, failure reason or None, server reply)."""
        values = [rng.uniform(-1.0, 1.0) for _ in range(CLIENTS)]
        seeds = [rng.randrange(2**32) for _ in range(CLIENTS)]
        tracer.group = sid
        root_cm = tracer.span("loopback.session") if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with root_cm as root:
                server.send({**request, "trace": int(traced)})
                address = tuple(server.read()["address"])
                futures = [pool.submit(client, address, x, s, root)
                           for x, s in zip(values[:-1], seeds[:-1])]
                try:
                    last = client(address, values[-1], seeds[-1], root)
                finally:
                    for f in futures:
                        f.exception()  # waits, so no client outlives its session
                results = [f.result() for f in futures] + [last]
        except (net.SessionAborted, OSError, ValueError) as exc:
            reply = server.read()
            return time.perf_counter() - t0, f"client: {exc}", reply
        elapsed = time.perf_counter() - t0
        reply = server.read()
        if "error" in reply:
            return elapsed, f"server: {reply['error']}", reply
        if traced:
            tracer.adopt(reply["spans"], parent=root, group=sid)
        # the contract of acceptance check c10: the networked session equals
        # the in-process run with the same per-user streams, bit for bit
        streams = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
                   for s in seeds]
        local = run_private_min(Cohort(np.array(values), "fixed"), config, user_rngs=streams)
        if any(r != reply["estimate"] for r in results):
            return elapsed, f"client RESULT {results} != server {reply['estimate']!r}", reply
        if reply["estimate"] != local.estimate or reply["sum_z"] != [r.sum_z for r in local.rounds]:
            return elapsed, "networked session differs from in-process replay", reply
        return elapsed, None, reply

    try:
        for sid in range(1, WARMUP_SESSIONS + 1):
            reason = session(-sid, False)[1]
            if reason is not None:
                raise RuntimeError(f"warm-up session failed: {reason}")
        walls, traced_walls, reasons = [], [], []
        attempted = failed = inbound_lines = 0
        max_threads = threading.active_count()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            traced = trace and attempted % 2 == 0
            if traced:
                tracer.wrap(net, "user_respond", "protocol.user_respond")
            try:
                elapsed, reason, reply = session(attempted + 1, traced)
            finally:
                tracer.restore()
            attempted += 1
            max_threads = max(max_threads, threading.active_count())
            if reason is not None:
                failed += 1
                reasons.append(reason)
                continue
            if traced:
                traced_walls.append(elapsed)
                inbound_lines += reply["lines"]
            else:
                walls.append(elapsed)
    finally:
        pool.shutdown(wait=True)
        server_rss_kb = server.close()

    summary = {"sessions": latency_summary([w * 1e3 for w in walls]),
               "sessions_per_s": len(walls) / sum(walls) if walls else None,
               "failed_frac": failed_frac(failed, attempted), "failures": reasons[:5],
               "clients": CLIENTS, "generator_threads_max": max_threads,
               "server_rss_kb": server_rss_kb}
    if trace:
        metrics = layer_metrics(tracer, walls, traced_walls, inbound_lines)
    else:
        metrics = {
            "op_ms": percentile(walls, SESSION_PERCENTILE) * 1e3,
            "peak_rss_mb": max(peak_rss_kb(), server_rss_kb) / 1024.0,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "summary": summary, "tracer": tracer}


# -------------------------------------------------------------------- common

def layer_metrics(tracer: Tracer, walls: list[float], traced_walls: list[float],
                  inbound_lines: int = 0) -> dict:
    """Every per-layer metric, per traced operation; layers never called read 0.

    Sweep layers are per-``experiment``-call means (``.share``: fraction of
    the traced call's wall time); loopback layers come from traced sessions.
    """
    ops = len(traced_walls)
    totals = layer_totals(tracer.spans)
    zero = LayerTotals(0, 0, 0, 0)

    def get(name: str) -> LayerTotals:
        return totals.get(name, zero)

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    out = {f"{name}.s": per_op(get(name).total_ns / 1e9) for name in SWEEP_LAYERS}
    for name in ("datagen.iid_cohort", "protocol.run_private_min", "harness.rep_rng"):
        out[f"{name}.calls"] = per_op(get(name).calls)
    for name in ("datagen.iid_cohort", "datagen.fixed_cohort", "protocol.run_private_min"):
        out[f"{name}.share"] = get(name).total_ns / 1e9 / sum(traced_walls) if ops else 0.0
    out["protocol.run_private_min.self_s"] = per_op(get("protocol.run_private_min").self_ns / 1e9)
    out["protocol.rounds"] = per_op(get("protocol.run_private_min").size)
    out["mechanisms.sanitized_bits"] = per_op(get("mechanisms.rr_respond_many").size)
    out["datagen.values"] = per_op(get("datagen.iid_cohort").size
                                   + get("datagen.fixed_cohort").size)

    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def p50(samples: list[float]) -> float:
        return percentile(samples, 50.0) if samples else 0.0

    runs = [s.duration / 1e6 for s in by_name.get("net.MinServer.run", [])]
    clients = [s.duration / 1e6 for s in by_name.get("net.run_client", [])]
    phis: dict[int, list] = {}
    for s in by_name.get("mechanisms.unbiased_phi", []):
        phis.setdefault(s.group, []).append(s.start)
    gaps = []
    for starts in phis.values():
        starts.sort()
        gaps.extend((b - a) / 1e3 for a, b in zip(starts, starts[1:]))
    responds = get("protocol.user_respond")
    out.update({
        "net.MinServer.run.ms_p50": p50(runs),
        "net.MinServer.run.n": len(runs),
        "net.run_client.ms_p50": p50(clients),
        "net.run_client.n": len(clients),
        "net.round_barrier_us_p50": p50(gaps),
        "net.round_barrier.n": len(gaps),
        "net.inbound_lines": per_op(inbound_lines),
        "protocol.user_respond.calls": per_op(responds.calls),
        "protocol.user_respond.us_mean": (responds.total_ns / 1e3 / responds.calls
                                          if responds.calls else 0.0),
        "trace.ops": ops,
        "trace.overhead_frac": overhead(traced_walls, walls),
    })
    return out


def overhead(traced: list[float], untraced: list[float]) -> float:
    """Median traced operation wall time over the untraced one, minus 1."""
    if not traced or not untraced:
        return 0.0
    return percentile(traced, 50.0) / percentile(untraced, 50.0) - 1.0


def probe(workload: str) -> None:
    """Set-up only: imports, plus the aggregator spawn for loopback."""
    import ldpmin.cli  # noqa: F401 - the import is the set-up being timed

    if workload == "loopback":
        ServerProcess().close()


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(list(s)) + "\n")
    return path


def check_import() -> None:
    import ldpmin

    origin = Path(ldpmin.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"ldpmin imported from {origin}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    check_import()
    if args.probe:
        probe(args.workload)
        return 0
    if args.workload == "loopback":
        result = run_loopback(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_sweep(args.workload, args.seed, args.seconds, bool(args.trace))
    tracer = result.pop("tracer")
    if args.trace:
        result["summary"]["spans_file"] = str(
            write_spans(tracer, args.workload, args.seed).relative_to(ROOT))
    result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
