"""Reference aggregator server and user client speaking a line protocol.

Each round is a full barrier: the server sends the current midpoint to all
clients, waits for every sanitized bit, then halves the interval.  All
sanitization happens client-side; the only value derived from a user's
datum that ever crosses the wire is the randomized-response bit, which the
tests assert by inspecting the raw inbound byte log.

Wire format: UTF-8 lines terminated by a newline, space-separated fields,
first token the message name.  Reals use the shortest round-trip decimal,
so dyadic midpoints survive the trip bit-exactly.

    client -> server:  HELLO <client_id>
                       RESP <round> <bit>          bit in {-1, 1}
    server -> client:  START <session_id> <depth> <epsilon_round>
                       QUERY <round> <tau>
                       RESULT <estimate>
                       ABORT <reason>

A client that answers twice in one round, sends garbage, or goes silent
aborts the whole session; the estimator assumes a fixed cohort size across
rounds, so the server never re-normalizes mid-protocol.  Clients only ever
need the current midpoint, hence QUERY carries nothing else.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
from dataclasses import dataclass

import numpy as np

from .mechanisms import RoundBudget
from .mechanisms import unbiased_phi  # noqa: F401 - bench/server.py traces it here
from .protocol import ProtocolConfig, Transcript, bisect, user_respond

_session_counter = itertools.count(1)


class SessionAborted(RuntimeError):
    """The session ended with an ABORT; ``reason`` is the wire token."""

    def __init__(self, reason: str):
        super().__init__(f"session aborted: {reason}")
        self.reason = reason


def format_real(x: float) -> str:
    return repr(float(x))


@dataclass
class _Client:
    index: int
    client_id: str
    conn: socket.socket

    def send_line(self, line: str) -> None:
        try:
            self.conn.sendall((line + "\n").encode("utf-8"))
        except OSError:
            pass  # a vanished client surfaces as a missing RESP instead


class MinServer:
    """Aggregator for one session of private minimum finding.

    Binds immediately (``address`` is available right after construction);
    :meth:`run` accepts ``expected_clients`` connections, executes the
    rounds and returns the transcript.  ``wire_log`` keeps every raw
    inbound line as (client_index, line) pairs for auditing.
    """

    def __init__(self, config: ProtocolConfig, expected_clients: int,
                 host: str = "127.0.0.1", port: int = 0,
                 round_timeout: float = 30.0):
        if expected_clients != config.n:
            raise ValueError(
                f"expected_clients = {expected_clients} must equal config.n = {config.n}"
            )
        self.config = config
        self.expected_clients = expected_clients
        self.round_timeout = round_timeout
        self.wire_log: list[tuple[int, str]] = []
        self._inbox: queue.Queue = queue.Queue()
        self._clients: list[_Client] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(expected_clients)
        self.address = self._sock.getsockname()

    def _reader(self, client: _Client) -> None:
        fh = client.conn.makefile("r", encoding="utf-8", newline="\n")
        try:
            for line in fh:
                self._inbox.put((client.index, line.rstrip("\n")))
        except OSError:
            pass
        finally:
            self._inbox.put((client.index, None))  # EOF marker

    def _broadcast(self, line: str) -> None:
        for client in self._clients:
            client.send_line(line)

    def _abort(self, reason: str) -> SessionAborted:
        self._broadcast(f"ABORT {reason}")
        self._close()
        return SessionAborted(reason)

    def _abort_client(self, client: _Client, reason: str) -> SessionAborted:
        client.send_line(f"ABORT {reason}")
        # a dropped client leaves the cohort short, which ends the session
        return self._abort(reason)

    def _close(self) -> None:
        for client in self._clients:
            try:
                client.conn.close()
            except OSError:
                pass
        self._sock.close()

    def _accept_clients(self) -> None:
        self._sock.settimeout(self.round_timeout)
        try:
            for index in range(self.expected_clients):
                conn, _ = self._sock.accept()
                client = _Client(index, client_id=f"client-{index}", conn=conn)
                self._clients.append(client)
                threading.Thread(target=self._reader, args=(client,), daemon=True).start()
        except socket.timeout:
            raise self._abort("timeout") from None

    def _expect_hellos(self) -> None:
        greeted = set()
        while len(greeted) < self.expected_clients:
            try:
                index, line = self._inbox.get(timeout=self.round_timeout)
            except queue.Empty:
                raise self._abort("timeout") from None
            if line is None:
                raise self._abort("client-disconnected")
            self.wire_log.append((index, line))
            parts = line.split()
            if len(parts) != 2 or parts[0] != "HELLO" or index in greeted:
                raise self._abort_client(self._clients[index], "protocol-error")
            self._clients[index].client_id = parts[1]
            greeted.add(index)

    def _collect_round(self, round_no: int) -> int:
        """Barrier: gather one RESP per client, return the bit sum."""
        responded: dict[int, int] = {}
        while len(responded) < self.expected_clients:
            try:
                index, line = self._inbox.get(timeout=self.round_timeout)
            except queue.Empty:
                raise self._abort("timeout") from None
            if line is None:
                raise self._abort("client-disconnected")
            self.wire_log.append((index, line))
            client = self._clients[index]
            parts = line.split()
            if len(parts) != 3 or parts[0] != "RESP":
                raise self._abort_client(client, "malformed-message")
            try:
                resp_round, bit = int(parts[1]), int(parts[2])
            except ValueError:
                raise self._abort_client(client, "malformed-message") from None
            if bit not in (-1, 1):
                raise self._abort_client(client, "malformed-message")
            if resp_round < round_no or index in responded:
                # an answer for a round that already closed is a re-answer
                raise self._abort_client(client, "duplicate-response")
            if resp_round > round_no:
                raise self._abort_client(client, "protocol-error")
            responded[index] = bit
        return sum(responded.values())

    def run(self) -> Transcript:
        config = self.config
        session_id = f"s{next(_session_counter):04d}"
        self._accept_clients()
        self._expect_hellos()
        budget = config.round_budget
        self._broadcast(
            f"START {session_id} {config.depth} {format_real(budget.epsilon_round)}"
        )

        transcript = bisect(config, self._query_round)
        self._broadcast(f"RESULT {format_real(transcript.estimate)}")
        self._close()
        return transcript

    def _query_round(self, round_no: int, tau: float) -> int:
        self._broadcast(f"QUERY {round_no} {format_real(tau)}")
        return self._collect_round(round_no)


def run_client(connect_address: tuple[str, int], x: float, seed: int,
               client_id: str | None = None, timeout: float = 30.0) -> float:
    """Participate as one user holding ``x``; returns the final estimate.

    The datum never leaves the process: every answer is sanitized locally
    before transmission.  ``x`` is validated before any connection is made.
    Replaying with the same seed reproduces the exact response sequence.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"value must lie in [-1, 1], got {x!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    name = client_id if client_id is not None else f"u{seed}"

    with socket.create_connection(connect_address, timeout=timeout) as conn:
        conn.settimeout(timeout)
        conn.sendall(f"HELLO {name}\n".encode("utf-8"))
        with conn.makefile("r", encoding="utf-8", newline="\n") as fh:
            budget = None
            for line in fh:
                kind, *fields = line.split() or [""]
                if kind == "ABORT":
                    raise SessionAborted(fields[0] if fields else "unknown")
                try:
                    # a wrong field count fails the unpacking with ValueError
                    if kind == "START":
                        _session_id, _depth, epsilon_round = fields
                        budget = RoundBudget(float(epsilon_round))
                    elif kind == "QUERY":
                        if budget is None:
                            raise SessionAborted("protocol-error")
                        round_no, tau = fields
                        round_no, tau = int(round_no), float(tau)
                        bit = user_respond(x, tau, budget, rng)
                        conn.sendall(f"RESP {round_no} {bit}\n".encode("utf-8"))
                    elif kind == "RESULT":
                        (estimate,) = fields
                        return float(estimate)
                except ValueError:
                    # malformed fields, a bad budget or a tau outside [-1, 1]
                    raise SessionAborted("protocol-error") from None
            raise ConnectionError("server closed the connection before RESULT")
