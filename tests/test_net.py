import contextlib
import math
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldpmin.datagen import Cohort
from ldpmin.net import MinServer, SessionAborted, run_client
from ldpmin.protocol import ProtocolConfig, run_private_min

from conftest import make_rng


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
            assert lines[0].split()[0] == "HELLO"
            assert len(lines) == 1 + config.depth
            for line in lines[1:]:
                kind, round_no, bit = line.split()
                assert kind == "RESP"
                assert 1 <= int(round_no) <= config.depth
                assert bit in ("-1", "1")

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
            conn.sendall(b"HELLO rogue\n")
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
            conn.sendall(b"HELLO rogue\n")
            fh = conn.makefile("r", encoding="utf-8")
            fh.readline()  # START
            fh.readline()  # QUERY 1
            conn.sendall(b"RESP 1 7\n")  # 7 is not a bit
            fh.readline()
        thread.join()
        assert out["reason"] == "malformed-message"

    @pytest.mark.parametrize("lines, resps", [
        ([b"START s1 3"], 0),
        ([b"START s1 3 0.5", b"QUERY 1"], 0),
        ([b"START s1 3 0.5", b"RESULT"], 0),
        ([b"START s1 1 50.0", b"QUERY 1 0.5", b"QUERY 2 0.5", b"QUERY 2 0.5", b"QUERY 7 0.5"], 1),
        ([b"START s1 3 0.5", b"QUERY 1 0.5", b"QUERY 1 0.5"], 1),
        ([b"START s1 3 0.5", b"QUERY 2 0.5"], 0),
        ([b"QUERY 1 0.5", b"START s1 3 0.5"], 0),
        ([b"START s1 3 0.5", b"QUERY 1 0.5", b"START s2 3 0.5", b"QUERY 2 0.5"], 1),
        ([b"START s1 1 0.5", b"QUERY 1 0.5", b"RESULT nan"], 1),
        ([b"START s1 1 0.5", b"QUERY 1 0.5", b"RESULT 7.5"], 1),
        ([b"START s1 1 0.5", b"QUERY 1 0.5", b"RESULT -inf"], 1),
        ([b"START s1 1 0.5", b"\xff\xfe QUERY 1 0.5"], 0),
        ([b"START s1 1 1.0", b"Q" * 4096], 0),
        ([b"START s1 1 0.5", b"NOOP"], 0),
        ([b"START s1 1 0.5", b""], 0),
    ], ids=["short-start", "short-query", "bare-result", "past-depth", "replay", "skip",
            "query-before-start", "second-start", "nan-result", "result-outside",
            "infinite-result", "undecodable", "overlong", "unknown-token", "empty-line"])
    def test_malformed_server_line_is_protocol_error(self, lines, resps):
        # the client answers only rounds 1..depth of the one START it accepted
        outcome, received = fake_session(lines)
        assert isinstance(outcome, SessionAborted)
        assert outcome.reason == "protocol-error"
        assert received.count(b"RESP ") == resps

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
        st.sampled_from([b"QUERY 1 0.5", b"QUERY 2 -0.25", b"QUERY 3 0.125",
                         b"RESULT 0.125", b"RESULT nan", b"START s2 2 1.0",
                         b"ABORT timeout", b""]),
    ), max_size=6))
    def test_client_fuzz_ends_in_estimate_or_clean_abort(self, lines):
        outcome, _ = fake_session([b"START s1 2 1.0", *lines])
        if isinstance(outcome, float):
            assert -1.0 <= outcome <= 1.0
        else:
            assert isinstance(outcome, (SessionAborted, ConnectionError))

    def test_expected_clients_must_match_config(self):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.1, n=3)
        with pytest.raises(ValueError):
            MinServer(config, 2)


class TestBarrier:
    @pytest.mark.parametrize("line", [
        b"R" * 300,
        b"R" * 4096,
        b"RESP 1 1" + b" " * 300 + b"\n",
    ], ids=["300-unterminated", "4k-unterminated", "padded-resp"])
    def test_overlong_line_is_malformed(self, line):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.4, n=1)
        reason, (seen,) = serve_raw(config, [b"HELLO long\n" + line])
        assert reason == "malformed-message"
        assert seen.splitlines()[2:] == [b"ABORT malformed-message"]  # one ABORT, not two

    def test_invalid_utf8_hello_is_malformed_without_a_thread(self, monkeypatch):
        def no_thread(_self):
            raise AssertionError("the server started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.4, n=2)
        reason, seen = serve_raw(config, [b"HELLO ok\n", b"HELLO \xff\xfe\n"])
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
            for i, conn in enumerate(conns):
                conn.sendall(f"HELLO c{i}\n".encode("utf-8"))
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
                        conns[-1].sendall(f"HELLO c{i}\n".encode("utf-8"))
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert out.get("reason") == "timeout"
            assert out["finished"] - start < 1.2
            assert conns[0].makefile("rb").readline() == b"ABORT timeout\n"
        finally:
            for conn in conns:
                conn.close()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.binary(max_size=300),
        st.sampled_from([b"RESP 1 1\n", b"RESP 1 -1\n", b"RESP 2 1\n", b"RESP 2 -1\n",
                         b"RESP 0 1\n", b"RESP 3 1\n", b"HELLO again\n", b"\n"]),
    ), max_size=6))
    def test_server_fuzz_completes_or_aborts_cleanly(self, chunks):
        config = ProtocolConfig(epsilon=1.0, depth=2, gamma=0.4, n=1)
        server = MinServer(config, 1, round_timeout=2.0)
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b"HELLO fuzz\n" + b"".join(chunks))
            conn.shutdown(socket.SHUT_WR)  # then the server sees EOF, not silence
            try:
                transcript = server.run()
            except SessionAborted:
                return
        assert len(transcript.rounds) == config.depth
