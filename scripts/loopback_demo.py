#!/usr/bin/env python3
"""Loopback demo: 8 clients and an aggregator on localhost.

Runs the networked protocol end to end, then replays the identical session
in-process with the same per-client seeds and checks that both produce the
same estimate, bit for bit.
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from ldpmin.datagen import Cohort
from ldpmin.net import MinServer, run_client
from ldpmin.params import params_known_alpha
from ldpmin.protocol import run_private_min

VALUES = [0.52, -0.31, 0.88, -0.94, 0.05, 0.27, -0.63, 0.74]
SEEDS = list(range(4000, 4008))
EPSILON = 2.0


def main():
    n = len(VALUES)
    config = params_known_alpha(n, 1.0, EPSILON)
    print(f"n={n} eps={EPSILON} depth={config.depth} gamma={config.gamma:.4f}")

    server = MinServer(config, n, round_timeout=10.0)
    out = {}
    server_thread = threading.Thread(target=lambda: out.update(t=server.run()))
    server_thread.start()

    clients = [
        threading.Thread(target=run_client, args=(server.address, x, s))
        for x, s in zip(VALUES, SEEDS)
    ]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    server_thread.join()
    networked = out["t"]

    streams = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
               for s in SEEDS]
    local = run_private_min(Cohort(np.array(VALUES), "fixed"), config,
                            user_rngs=streams)

    print(f"networked estimate: {networked.estimate}")
    print(f"in-process estimate: {local.estimate}")
    print(f"true minimum:       {min(VALUES)}")
    assert networked.estimate == local.estimate, "paired runs diverged"
    print("paired runs agree exactly (8 users make a coarse estimate; the "
          "demo is about transport equivalence, not accuracy)")


if __name__ == "__main__":
    main()
