"""Reference aggregator server and user client speaking a line protocol.

Each round is a full barrier: the server sends the current midpoint to all
clients, reads one sanitized bit from each, then halves the interval.  All
sanitization happens client-side; the only value derived from a user's
datum or seed that ever crosses the wire is the randomized-response bit,
which the tests assert on the raw inbound line log.  The seed drives the
client's randomized response and never leaves the client: anyone who holds
it can undo every flip, so a client draws its seed from OS entropy unless
given one, and a fixed seed is for replay only.

Wire format: UTF-8 lines terminated by a newline, space-separated fields,
first token the message name; a line holds at most ``MAX_LINE`` bytes and
either end aborts on a longer one.  Reals use the shortest round-trip
decimal, so dyadic midpoints survive the trip bit-exactly.

    client -> server:  HELLO                       no field
                       RESP <round> <bit>          bit in {-1, 1}
    server -> client:  START <depth> <epsilon_round>
                       QUERY <round> <tau>         the midpoint, all a client needs
                       RESULT <estimate>
                       ABORT <reason>

The server accepts all clients before one deadline, then reads each
barrier (the HELLOs, then each round's RESPs) as one line per client, in
client order, before one deadline for the barrier.  An extra line is seen
only at that client's next read: a second answer to round t aborts round
t+1 as a duplicate, one after the final RESP goes unread, and a RESP sent
ahead of QUERY t+1 counts for round t+1.  Garbage, a re-answer or silence
aborts the session with one ABORT to each client; the estimator assumes a
fixed cohort size, so the server never re-normalizes mid-protocol.  A
client answers QUERY rounds 1..depth of the one START it accepted (depth in
[1, ``MAX_DEPTH``]), each once and in order, accepts only a finite RESULT in
[-1, 1], and ends any other line (an unknown name, an empty line) as
``protocol-error``.  Its ``timeout`` bounds each line, so a session lasts at
most depth + 2 of them.

The aggregator's whole import chain (this module, ``protocol``,
``mechanisms``) loads neither numpy nor scipy; :func:`run_client` imports
numpy when it builds its stream, numpy's PCG64 seeded by ``SeedSequence``.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

from .mechanisms import RoundBudget
from .mechanisms import unbiased_phi  # noqa: F401 - bench/server.py traces it here
from .protocol import MAX_DEPTH, ProtocolConfig, Transcript, bisect, user_respond

MAX_LINE = 256  # bytes in one line, newline excluded, that either end reads


class SessionAborted(RuntimeError):
    """The session ended with an ABORT; ``reason`` is the wire token."""

    def __init__(self, reason: str):
        super().__init__(f"session aborted: {reason}")
        self.reason = reason


def format_real(x: float) -> str:
    return repr(float(x))


def check_timeout(seconds: float) -> float:
    """``seconds`` if in (0, 1e9]; past about 9.2e9 a socket timeout overflows time_t."""
    if not (isinstance(seconds, (int, float)) and 0 < seconds <= 1e9):
        raise ValueError(f"a timeout must be a number of seconds in (0, 1e9], got {seconds!r}")
    return seconds


def read_line(conn: socket.socket, pending: bytes, deadline: float) -> tuple[str, bytes]:
    """Next line from ``conn`` by ``deadline``, and the bytes received past it.

    ``pending`` holds bytes received earlier and not yet consumed as lines.
    Raises ValueError for a line over ``MAX_LINE`` bytes or not UTF-8,
    TimeoutError once the deadline passes, ConnectionError at end of stream.
    """
    while b"\n" not in pending[:MAX_LINE + 1]:
        if len(pending) > MAX_LINE:
            raise ValueError(f"a line over {MAX_LINE} bytes")
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            raise TimeoutError("no complete line before the deadline")
        conn.settimeout(remaining)  # so trickled bytes cannot stretch it
        chunk = conn.recv(8192)
        if not chunk:
            raise ConnectionError("the peer closed the connection mid-session")
        pending += chunk
    raw, _, pending = pending.partition(b"\n")
    return raw.decode("utf-8"), pending


@dataclass
class _Client:
    index: int
    conn: socket.socket
    pending: bytes = b""  # received bytes not yet consumed as lines

    def send_line(self, line: str) -> None:
        try:
            self.conn.sendall((line + "\n").encode("utf-8"))
        except OSError:
            pass  # a vanished client surfaces as a missing RESP instead


class MinServer:
    """Aggregator for one session of private minimum finding.

    Binds immediately (``address`` is available right after construction);
    :meth:`run` accepts ``config.n`` connections, executes the rounds and
    returns the transcript.  ``wire_log`` keeps every raw inbound line as
    (client_index, line) pairs for auditing, in read order.  A config whose
    every branch goes the same way whatever the answers (``degenerate_gamma``
    or ``always_left``) is refused before binding: its session would spend
    every user's budget on an estimate fixed in advance.
    """

    def __init__(self, config: ProtocolConfig, expected_clients: int,
                 host: str = "127.0.0.1", port: int = 0,
                 round_timeout: float = 30.0):
        if expected_clients != config.n:
            raise ValueError(
                f"expected_clients = {expected_clients} must equal config.n = {config.n}"
            )
        if config.degenerate_gamma or config.always_left:
            side = "right" if config.degenerate_gamma else "left"
            raise ValueError(f"threshold {config.threshold} at n = {config.n} sends every "
                             f"branch {side}: the estimate is fixed before any answer")
        self.config = config
        self.round_timeout = check_timeout(round_timeout)
        self.wire_log: list[tuple[int, str]] = []
        self._clients: list[_Client] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(min(config.n, socket.SOMAXCONN))  # the kernel caps it anyway
        except BaseException:  # OSError, or OverflowError for a port past 65535: close, re-raise
            self._sock.close()
            raise
        self.address = self._sock.getsockname()

    def _broadcast(self, line: str) -> None:
        for client in self._clients:
            client.send_line(line)

    def _abort(self, reason: str) -> SessionAborted:
        self._broadcast(f"ABORT {reason}")
        self._close()
        return SessionAborted(reason)

    def _close(self) -> None:
        for client in self._clients:
            try:
                client.conn.close()
            except OSError:
                pass
        self._sock.close()

    def _accept_clients(self) -> None:
        deadline = time.monotonic() + self.round_timeout  # one deadline, as for a barrier
        try:
            for index in range(self.config.n):
                # at the deadline a timeout of 0 only takes a connection already queued
                self._sock.settimeout(max(deadline - time.monotonic(), 0.0))
                conn, _ = self._sock.accept()
                self._clients.append(_Client(index, conn))
        except (socket.timeout, BlockingIOError):
            raise self._abort("timeout") from None

    def _barrier(self):
        """One logged line from each client, in client order, under one deadline."""
        deadline = time.monotonic() + self.round_timeout
        for client in self._clients:
            try:
                line, client.pending = read_line(client.conn, client.pending, deadline)
            except ValueError:
                raise self._abort("malformed-message") from None
            except TimeoutError:
                raise self._abort("timeout") from None
            except OSError:  # end of stream, or a reset connection
                raise self._abort("client-disconnected") from None
            self.wire_log.append((client.index, line))
            yield line.split()

    def _expect_hellos(self) -> None:
        for parts in self._barrier():
            if parts != ["HELLO"]:
                raise self._abort("protocol-error")

    def _query_round(self, round_no: int, tau: float) -> int:
        """Broadcast QUERY, read one RESP per client, return the bit sum."""
        self._broadcast(f"QUERY {round_no} {format_real(tau)}")
        total = 0
        for parts in self._barrier():
            if len(parts) != 3 or parts[0] != "RESP" or parts[2] not in ("-1", "1"):
                raise self._abort("malformed-message")
            try:
                resp_round = int(parts[1])
            except ValueError:
                raise self._abort("malformed-message") from None
            if resp_round < round_no:
                # an answer for a round that already closed is a re-answer
                raise self._abort("duplicate-response")
            if resp_round > round_no:
                raise self._abort("protocol-error")
            total += int(parts[2])
        return total

    def run(self) -> Transcript:
        self._accept_clients()
        self._expect_hellos()
        epsilon_round = format_real(self.config.round_budget.epsilon_round)
        self._broadcast(f"START {self.config.depth} {epsilon_round}")
        transcript = bisect(self.config, self._query_round)
        self._broadcast(f"RESULT {format_real(transcript.estimate)}")
        self._close()
        return transcript


def run_client(connect_address: tuple[str, int], x: float, seed: int | None,
               timeout: float = 30.0) -> float:
    """Participate as one user holding ``x``; returns the final estimate.

    The datum never leaves the process: every answer is sanitized locally
    before transmission.  ``x`` and ``timeout`` are checked before connecting.
    A ``seed`` of None draws the randomized response's seed from OS entropy;
    replaying with the same int seed reproduces the exact response sequence.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"value must lie in [-1, 1], got {x!r}")
    check_timeout(timeout)
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    with socket.create_connection(connect_address, timeout=timeout) as conn:
        conn.sendall(b"HELLO\n")
        budget, depth, answered, pending = None, 0, 0, b""
        while True:
            try:
                line, pending = read_line(conn, pending, time.monotonic() + timeout)
                kind, *fields = line.split()
                if kind == "ABORT":
                    raise SessionAborted(fields[0] if fields else "unknown")
                if kind == "START":
                    if budget is not None:
                        raise ValueError("a second START")
                    depth, epsilon_round = fields
                    depth, budget = int(depth), RoundBudget(float(epsilon_round))
                    if not 1 <= depth <= MAX_DEPTH:  # as ProtocolConfig holds it
                        raise ValueError("a depth outside [1, MAX_DEPTH]")
                elif kind == "QUERY":
                    round_no, tau = fields
                    if budget is None or answered == depth or int(round_no) != answered + 1:
                        raise ValueError("a query outside rounds 1..depth in order")
                    bit = user_respond(x, float(tau), budget, rng)
                    answered += 1
                    conn.sendall(f"RESP {answered} {bit}\n".encode("utf-8"))
                elif kind == "RESULT":
                    (estimate,) = fields
                    if not -1.0 <= float(estimate) <= 1.0:  # NaN fails too
                        raise ValueError("an estimate outside [-1, 1]")
                    return float(estimate)
                else:
                    raise ValueError("an unknown message")
            except ValueError:
                # an overlong, empty or unknown line, undecodable bytes, a wrong
                # field count, an unparsable number, a bad depth, budget or tau,
                # or a line out of order
                raise SessionAborted("protocol-error") from None
