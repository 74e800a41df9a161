import contextlib
import errno
import math
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldpmin.datagen import Cohort
from ldpmin.net import MinServer, SessionAborted, run_client
from ldpmin.protocol import MAX_DEPTH, ProtocolConfig, run_private_min

from conftest import eager_walk, make_rng, per_user_round_sum


def serve_in_thread(server):
    """Run ``server`` on a thread; ``out`` gets the transcript or abort reason and the end time."""
    out = {}

    def serve_once():
        try:
            out["transcript"] = server.run()
        except SessionAborted as exc:
            out["reason"] = exc.reason
        finally:
            out["finished"] = time.monotonic()

    thread = threading.Thread(target=serve_once)
    thread.start()
    return thread, out


def run_session(config, xs, seeds, round_timeout=10.0, in_order=False):
    """Spin a server plus one thread per client; returns (out, server, results, errors).

    With ``in_order`` each client connects only once the server has accepted
    the one before, so client i is the server's client i.
    """
    server = MinServer(config, len(xs), round_timeout=round_timeout)
    server_thread, out = serve_in_thread(server)
    results = [None] * len(xs)
    errors = [None] * len(xs)

    def client(i):
        try:
            results[i] = run_client(server.address, xs[i], seeds[i])
        except (SessionAborted, ConnectionError, OSError) as exc:
            errors[i] = exc

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(xs))]
    for i, t in enumerate(threads):
        t.start()
        while in_order and len(server._clients) <= i and server_thread.is_alive():
            time.sleep(0.001)
    for t in threads:
        t.join()
    server_thread.join()
    return out, server, results, errors


def fake_session(lines):
    """Run a client against a server that sends ``lines`` after HELLO, then stops.

    Returns (the client's estimate or its SessionAborted/ConnectionError,
    every byte the client sent).
    """
    with socket.create_server(("127.0.0.1", 0)) as listener:
        received = {}

        def fake_server():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as fh:
                hello = fh.readline()
                conn.sendall(b"".join(line + b"\n" for line in lines))
                conn.shutdown(socket.SHUT_WR)
                received["bytes"] = hello + fh.read()

        thread = threading.Thread(target=fake_server)
        thread.start()
        try:
            outcome = run_client(listener.getsockname(), 0.5, 1, timeout=5.0)
        except (SessionAborted, ConnectionError) as exc:
            outcome = exc
        finally:
            thread.join(timeout=10.0)
    assert not thread.is_alive()
    return outcome, received["bytes"]


def received_until_closed(conn):
    """Bytes read from ``conn`` until the peer closed or reset it."""
    data = b""
    try:
        while chunk := conn.recv(65536):
            data += chunk
    except ConnectionResetError:
        pass  # the server closed with bytes of ours still unread
    return data


def serve_raw(config, payloads, round_timeout=2.0):
    """Run a server on this thread against raw connections that sent ``payloads``.

    Returns (the abort reason or None, every byte each connection received).
    """
    server = MinServer(config, len(payloads), round_timeout=round_timeout)
    conns = [socket.create_connection(server.address, timeout=5.0) for _ in payloads]
    try:
        for conn, payload in zip(conns, payloads):
            conn.sendall(payload)
        try:
            server.run()
            reason = None
        except SessionAborted as exc:
            reason = exc.reason
        return reason, [received_until_closed(conn) for conn in conns]
    finally:
        for conn in conns:
            conn.close()


def paired_in_process(config, xs, seeds):
    streams = [make_rng(s) for s in seeds]
    return run_private_min(Cohort(np.array(xs), "fixed"), config, user_rngs=streams)


class TestLoopbackEquivalence:
    def test_networked_result_matches_paired_simulation(self):
        xs = [0.52, -0.31, 0.88, -0.94, 0.05]
        seeds = [900, 901, 902, 903, 904]
        config = ProtocolConfig(epsilon=1.5, depth=4, gamma=0.3, n=5)
        out, server, results, errors = run_session(config, xs, seeds)
        assert errors == [None] * 5
        local = paired_in_process(config, xs, seeds)
        assert out["transcript"].estimate == local.estimate
        assert out["transcript"].rounds == local.rounds
        assert set(results) == {local.estimate}
        # the session's records, built on read, are those of the eager walk
        eager = eager_walk(config, per_user_round_sum(xs, config, [make_rng(s) for s in seeds]))
        assert (out["transcript"].rounds, out["transcript"].estimate) == eager

    def test_noise_free_single_client_hand_trace(self):
        config = ProtocolConfig(epsilon=math.inf, depth=3, gamma=1.0, n=1)
        out, _, results, errors = run_session(config, [0.5], [7])
        assert errors == [None]
        assert results == [0.375]
        assert out["transcript"].estimate == 0.375

    def test_wire_log_shows_only_hello_then_sanitized_bits(self):
        xs = [0.2, -0.8, 0.6]
        config = ProtocolConfig(epsilon=0.9, depth=5, gamma=0.4, n=3)
        _, server, _, errors = run_session(config, xs, [50, 51, 52])
        assert errors == [None] * 3
        per_client = {}
        for idx, line in server.wire_log:
            per_client.setdefault(idx, []).append(line)
        assert len(per_client) == 3
        for lines in per_client.values():
            # nothing derived from the client's seed or value but its bits
            assert lines[0] == "HELLO"
            assert len(lines) == 1 + config.depth
            for t, line in enumerate(lines[1:], start=1):
                assert line in (f"RESP {t} -1", f"RESP {t} 1")

    def test_start_carries_only_the_depth_and_the_round_budget(self):
        # all a client reads from START: no session id or other field
        config = ProtocolConfig(epsilon=2.0, depth=1, gamma=0.1, n=1)
        reason, (received,) = serve_raw(config, [b"HELLO\nRESP 1 1\n"])
        assert reason is None
        start = received.decode().splitlines()[0]
        assert start.split() == ["START", "1", repr(config.round_budget.epsilon_round)]

    def test_same_seed_replays_identical_responses(self):
        # each barrier is read in client order, so the whole log replays
        config = ProtocolConfig(epsilon=1.0, depth=6, gamma=0.3, n=2)
        logs = []
        for _ in range(2):
            _, server, _, errors = run_session(config, [0.1, -0.4], [1234, 1235],
                                               in_order=True)
            assert errors == [None, None]
            logs.append(server.wire_log)
        assert logs[0] == logs[1]
        assert [idx for idx, _ in logs[0]] == [0, 1] * (1 + config.depth)

    def test_different_seeds_usually_diverge(self):
        config = ProtocolConfig(epsilon=0.5, depth=8, gamma=0.3, n=2)
        _, server, _, errors = run_session(config, [0.1, 0.1], [1, 2])
        assert errors == [None, None]
        lines = {}
        for idx, line in server.wire_log:
            lines.setdefault(idx, []).append(line)
        resp0 = [l for l in lines[0] if l.startswith("RESP")]
        resp1 = [l for l in lines[1] if l.startswith("RESP")]
        assert resp0 != resp1  # 2^-8 chance of collision per seed pair, seeds pinned


class TestFailurePaths:
    def test_client_value_validated_before_connecting(self):
        # no server is listening; a domain error must win over any socket error
        with pytest.raises(ValueError, match="value"):
            run_client(("127.0.0.1", 1), 1.5, 0)

    @pytest.mark.parametrize("host, port, error", [
        ("256.1.1.1", 0, socket.gaierror),
        ("127.0.0.1", None, OSError),  # the port of a server still listening
        ("127.0.0.1", 65536, OverflowError),
    ], ids=["bad-host", "port-in-use", "port-out-of-range"])
    def test_failed_bind_closes_its_socket(self, monkeypatch, host, port, error):
        config = ProtocolConfig(epsilon=1.0, depth=2, gamma=0.4, n=2)
        listening = MinServer(config, 2)
        made, closed = [], []

        class Recorded(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(socket, "socket", Recorded)
        try:
            with pytest.raises(error) as raised:
                MinServer(config, 2, host=host,
                          port=listening.address[1] if port is None else port)
        finally:
            listening._close()
        assert len(made) == 1 and closed == made
        assert made[0].fileno() == -1
        if port is None:  # re-raised as bind raised it
            assert raised.value.errno == errno.EADDRINUSE

    def test_round_timeout_aborts_everyone(self):
        config = ProtocolConfig(epsilon=1.0, depth=2, gamma=0.4, n=2)
        server = MinServer(config, 2, round_timeout=1.0)
        thread, out = serve_in_thread(server)
        with pytest.raises(SessionAborted, match="timeout"):
            run_client(server.address, 0.5, 1)  # the second client never comes
        thread.join()
        assert out["reason"] == "timeout"

    def test_duplicate_response_aborts_session(self):
        config = ProtocolConfig(epsilon=1.0, depth=3, gamma=0.4, n=1)
        server = MinServer(config, 1, round_timeout=5.0)
        thread, out = serve_in_thread(server)
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b"HELLO\n")
            fh = conn.makefile("r", encoding="utf-8")
            assert fh.readline().startswith("START")
            assert fh.readline().startswith("QUERY 1")
            conn.sendall(b"RESP 1 1\nRESP 1 -1\n")
            lines = [fh.readline().strip() for _ in range(2)]
        thread.join()
        assert out["reason"] == "duplicate-response"
        assert any(line.startswith("ABORT duplicate-response") for line in lines)

    def test_malformed_message_aborts_session(self):
        config = ProtocolConfig(epsilon=1.0, depth=3, gamma=0.4, n=1)
        server = MinServer(config, 1, round_timeout=5.0)
        thread, out = serve_in_thread(server)
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b"HELLO\n")
            fh = conn.makefile("r", encoding="utf-8")
            fh.readline()  # START
            fh.readline()  # QUERY 1
            conn.sendall(b"RESP 1 7\n")  # 7 is not a bit
            fh.readline()
        thread.join()
        assert out["reason"] == "malformed-message"

    @pytest.mark.parametrize("lines, resps", [
        ([b"START 3"], 0),
        ([b"START 3 0.5", b"QUERY 1"], 0),
        ([b"START 3 0.5", b"RESULT"], 0),
        ([b"START 1 50.0", b"QUERY 1 0.5", b"QUERY 2 0.5", b"QUERY 2 0.5", b"QUERY 7 0.5"], 1),
        ([b"START 3 0.5", b"QUERY 1 0.5", b"QUERY 1 0.5"], 1),
        ([b"START 3 0.5", b"QUERY 2 0.5"], 0),
        ([b"QUERY 1 0.5", b"START 3 0.5"], 0),
        ([b"START 3 0.5", b"QUERY 1 0.5", b"START 3 0.5", b"QUERY 2 0.5"], 1),
        ([b"START 1 0.5", b"QUERY 1 0.5", b"RESULT nan"], 1),
        ([b"START 1 0.5", b"QUERY 1 0.5", b"RESULT 7.5"], 1),
        ([b"START 1 0.5", b"QUERY 1 0.5", b"RESULT -inf"], 1),
        ([b"START 1 0.5", b"\xff\xfe QUERY 1 0.5"], 0),
        ([b"START 1 1.0", b"Q" * 4096], 0),
        ([b"START 1 0.5", b"NOOP"], 0),
        ([b"START 1 0.5", b""], 0),
        ([b"START -1 0.5", b"QUERY 1 0.5"], 0),
        ([b"START 0 0.5", b"QUERY 1 0.5"], 0),
        ([f"START {MAX_DEPTH + 1} 0.5".encode(), b"QUERY 1 0.5"], 0),
        ([b"START s1 1 0.5", b"QUERY 1 0.5"], 0),
    ], ids=["short-start", "short-query", "bare-result", "past-depth", "replay", "skip",
            "query-before-start", "second-start", "nan-result", "result-outside",
            "infinite-result", "undecodable", "overlong", "unknown-token", "empty-line",
            "negative-depth", "zero-depth", "past-max-depth", "long-start"])
    def test_malformed_server_line_is_protocol_error(self, lines, resps):
        # the client answers only rounds 1..depth of the one START it accepted
        outcome, received = fake_session(lines)
        assert isinstance(outcome, SessionAborted)
        assert outcome.reason == "protocol-error"
        assert received.count(b"RESP ") == resps

    def test_trickled_line_times_out_within_the_client_timeout(self):
        # a byte every 0.3 s never leaves a 0.5 s gap, but the line's 0.5 s is up
        with socket.create_server(("127.0.0.1", 0)) as listener:
            stop = threading.Event()

            def trickle():
                conn, _ = listener.accept()
                with conn, contextlib.suppress(OSError):  # the client may be gone
                    conn.sendall(b"START 1 1.0\n")
                    for byte in b"QUERY 1 0.5\n":
                        if stop.wait(0.3):
                            return
                        conn.sendall(bytes([byte]))

            thread = threading.Thread(target=trickle)
            thread.start()
            start = time.monotonic()
            try:
                with pytest.raises(TimeoutError):
                    run_client(listener.getsockname(), 0.5, 1, timeout=0.5)
                elapsed = time.monotonic() - start
            finally:
                stop.set()
                thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert elapsed < 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
        st.sampled_from([b"QUERY 1 0.5", b"QUERY 2 -0.25", b"QUERY 3 0.125",
                         b"RESULT 0.125", b"RESULT nan", b"START 2 1.0",
                         b"ABORT timeout", b""]),
    ), max_size=6))
    def test_client_fuzz_ends_in_estimate_or_clean_abort(self, lines):
        outcome, _ = fake_session([b"START 2 1.0", *lines])
        if isinstance(outcome, float):
            assert -1.0 <= outcome <= 1.0
        else:
            assert isinstance(outcome, (SessionAborted, ConnectionError))

    def test_expected_clients_must_match_config(self):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.1, n=3)
        with pytest.raises(ValueError):
            MinServer(config, 2)

    @pytest.mark.parametrize("config, side", [
        (ProtocolConfig(epsilon=1.0, depth=4, gamma=5.0, n=2), "right"),  # threshold 3 > n
        (ProtocolConfig(epsilon=math.inf, depth=4, gamma=0.0, n=2), "left"),  # threshold -n
    ], ids=["all-right", "all-left"])
    def test_constant_walk_refused_before_any_socket(self, monkeypatch, config, side):
        # every branch is known before any answer: the session would spend
        # every user's budget for nothing
        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket, "socket", no_socket)
        assert config.degenerate_gamma is (side == "right")
        assert config.always_left is (side == "left")
        with pytest.raises(ValueError, match=f"every branch {side}"):
            MinServer(config, 2)

    def test_bench_loopback_config_walks(self):
        # eps 32, depth 32, gamma 0.5 at n = 2: the threshold is 0
        config = ProtocolConfig(epsilon=32.0, depth=32, gamma=0.5, n=2)
        assert config.threshold == 0
        assert not (config.degenerate_gamma or config.always_left)

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, 0, 0.0, -1, 1e10, "5"])
    def test_bad_timeout_refused_before_any_socket(self, monkeypatch, timeout):
        # inf used to bind and then fail in settimeout with OverflowError
        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket, "socket", no_socket)
        monkeypatch.setattr(socket, "create_connection", no_socket)
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.1, n=1)
        with pytest.raises(ValueError, match="timeout"):
            MinServer(config, 1, round_timeout=timeout)
        with pytest.raises(ValueError, match="timeout"):
            run_client(("127.0.0.1", 1), 0.5, 0, timeout=timeout)


class TestBarrier:
    @pytest.mark.parametrize("line", [
        b"R" * 300,
        b"R" * 4096,
        b"RESP 1 1" + b" " * 300 + b"\n",
    ], ids=["300-unterminated", "4k-unterminated", "padded-resp"])
    def test_overlong_line_is_malformed(self, line):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.4, n=1)
        reason, (seen,) = serve_raw(config, [b"HELLO\n" + line])
        assert reason == "malformed-message"
        assert seen.splitlines()[2:] == [b"ABORT malformed-message"]  # one ABORT, not two

    @pytest.mark.parametrize("hello", [b"HELLO u4100\n", b"HELLO anything\n"],
                             ids=["seed-id", "name"])
    def test_hello_with_a_field_is_protocol_error(self, hello):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.4, n=1)
        reason, (seen,) = serve_raw(config, [hello])
        assert reason == "protocol-error"
        assert seen.splitlines() == [b"ABORT protocol-error"]

    def test_invalid_utf8_hello_is_malformed_without_a_thread(self, monkeypatch):
        def no_thread(_self):
            raise AssertionError("the server started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.4, n=2)
        reason, seen = serve_raw(config, [b"HELLO\n", b"HELLO \xff\xfe\n"])
        assert reason == "malformed-message"
        assert [s.splitlines() for s in seen] == [[b"ABORT malformed-message"]] * 2

    def test_one_deadline_for_the_whole_barrier(self):
        # answers 0.7 s apart never leave a 1 s gap, but the barrier's 1 s is up
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.4, n=3)
        server = MinServer(config, 3, round_timeout=1.0)
        thread, out = serve_in_thread(server)
        conns = []
        try:
            for i in range(3):
                conns.append(socket.create_connection(server.address, timeout=5.0))
                while len(server._clients) <= i and thread.is_alive():
                    time.sleep(0.001)  # so connection i is the server's client i
            for conn in conns:
                conn.sendall(b"HELLO\n")
            readers = [conn.makefile("rb") for conn in conns]
            for fh in readers:
                assert fh.readline().startswith(b"START")
                assert fh.readline().startswith(b"QUERY 1 ")
            start = time.monotonic()
            for conn in conns:
                time.sleep(0.7)
                if thread.is_alive():
                    conn.sendall(b"RESP 1 1\n")
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert out.get("reason") == "timeout"
            assert out["finished"] - start < 1.2
            assert [fh.readline() for fh in readers] == [b"ABORT timeout\n"] * 3
        finally:
            for conn in conns:
                conn.close()

    def test_one_deadline_for_the_connect_phase(self):
        # connections 0.7 s apart never leave a 1 s gap, but the phase's 1 s is up
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.4, n=3)
        server = MinServer(config, 3, round_timeout=1.0)
        start = time.monotonic()
        thread, out = serve_in_thread(server)
        conns = []
        try:
            for i in range(3):
                time.sleep(0.7)
                if thread.is_alive():
                    with contextlib.suppress(ConnectionRefusedError):  # closed since the check
                        conns.append(socket.create_connection(server.address, timeout=5.0))
                        conns[-1].sendall(b"HELLO\n")
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert out.get("reason") == "timeout"
            assert out["finished"] - start < 1.2
            assert conns[0].makefile("rb").readline() == b"ABORT timeout\n"
        finally:
            for conn in conns:
                conn.close()

    FUZZ_CONFIG = ProtocolConfig(epsilon=1.0, depth=2, gamma=0.4, n=1)

    def serve_fuzz(self, chunks):
        """One depth-2 session fed HELLO then ``chunks``; the transcript or the abort."""
        server = MinServer(self.FUZZ_CONFIG, 1, round_timeout=2.0)
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b"HELLO\n" + b"".join(chunks))
            conn.shutdown(socket.SHUT_WR)  # then the server sees EOF, not silence
            try:
                return server.run()
            except SessionAborted as exc:
                return exc

    def test_server_fuzz_harness_completes_a_well_formed_session(self):
        # pins the harness: a server refusing every handshake fails here
        transcript = self.serve_fuzz([b"RESP 1 1\n", b"RESP 2 -1\n"])
        assert not isinstance(transcript, SessionAborted), transcript
        assert [r.sum_z for r in transcript.rounds] == [1, -1]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.binary(max_size=300),
        st.sampled_from([b"RESP 1 1\n", b"RESP 1 -1\n", b"RESP 2 1\n", b"RESP 2 -1\n",
                         b"RESP 0 1\n", b"RESP 3 1\n", b"HELLO again\n", b"\n"]),
    ), max_size=6))
    def test_server_fuzz_completes_or_aborts_cleanly(self, chunks):
        outcome = self.serve_fuzz(chunks)
        if not isinstance(outcome, SessionAborted):
            assert len(outcome.rounds) == self.FUZZ_CONFIG.depth
