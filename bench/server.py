"""Loopback aggregator process: one ``MinServer`` per session, driven over stdio.

Started by the loopback workload so that the server does not share the
generator's interpreter lock.  Requests and replies are JSON lines:

    -> {"cmd": "session", "epsilon": .., "depth": .., "gamma": .., "n": .., "trace": 0|1}
    <- {"address": [host, port]}          as soon as the server is bound
    <- {"estimate": .., "sum_z": [..], "lines": .., "spans": [..]}   or {"error": ..}
    -> {"cmd": "quit"}
    <- {"rss_kb": ..}

With ``trace`` set, ``MinServer.run`` and the ``unbiased_phi`` calls it makes
(one per round, after the barrier) are recorded as spans and returned with
the result; the generator files them under its own session span.
"""

import json
import resource
import sys

from tracing import Tracer

ROUND_TIMEOUT_S = 10.0


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    from ldpmin import net
    from ldpmin.protocol import ProtocolConfig

    emit({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "quit":
            emit({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        config = ProtocolConfig(msg["epsilon"], msg["depth"], msg["gamma"], msg["n"])
        server = net.MinServer(config, msg["n"], round_timeout=ROUND_TIMEOUT_S)
        emit({"address": list(server.address)})
        tracer = Tracer()
        if msg["trace"]:
            tracer.wrap(net.MinServer, "run", "net.MinServer.run")
            tracer.wrap(net, "unbiased_phi", "mechanisms.unbiased_phi")
        try:
            transcript = server.run()
        except (net.SessionAborted, OSError) as exc:
            emit({"error": str(exc)})
            continue
        finally:
            tracer.restore()
        emit({
            "estimate": transcript.estimate,
            "sum_z": [r.sum_z for r in transcript.rounds],
            "lines": len(server.wire_log),
            "spans": [[s.span_id, s.name, s.start, s.end, s.parent, s.size]
                      for s in tracer.spans],
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
