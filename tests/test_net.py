import math
import socket
import threading

import numpy as np
import pytest

from ldpmin.datagen import Cohort
from ldpmin.net import MinServer, SessionAborted, run_client
from ldpmin.protocol import ProtocolConfig, run_private_min

from conftest import make_rng


def run_session(config, xs, seeds, round_timeout=10.0):
    """Spin a server plus one thread per client; returns (transcript, server, results)."""
    server = MinServer(config, len(xs), round_timeout=round_timeout)
    out = {}

    def serve_once():
        try:
            out["transcript"] = server.run()
        except SessionAborted as exc:
            out["abort"] = exc.reason

    server_thread = threading.Thread(target=serve_once)
    server_thread.start()
    results = [None] * len(xs)
    errors = [None] * len(xs)

    def client(i):
        try:
            results[i] = run_client(server.address, xs[i], seeds[i])
        except (SessionAborted, ConnectionError, OSError) as exc:
            errors[i] = exc

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(xs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server_thread.join()
    return out, server, results, errors


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
        config = ProtocolConfig(epsilon=1.0, depth=6, gamma=0.3, n=1)
        logs = []
        for _ in range(2):
            _, server, _, errors = run_session(config, [0.1], [1234])
            assert errors == [None]
            logs.append([line for _, line in server.wire_log])
        assert logs[0] == logs[1]

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
        out = {}

        def serve_once():
            try:
                server.run()
            except SessionAborted as exc:
                out["reason"] = exc.reason

        thread = threading.Thread(target=serve_once)
        thread.start()
        with pytest.raises(SessionAborted, match="timeout"):
            run_client(server.address, 0.5, 1)  # the second client never comes
        thread.join()
        assert out["reason"] == "timeout"

    def test_duplicate_response_aborts_session(self):
        config = ProtocolConfig(epsilon=1.0, depth=3, gamma=0.4, n=1)
        server = MinServer(config, 1, round_timeout=5.0)
        out = {}

        def serve_once():
            try:
                server.run()
            except SessionAborted as exc:
                out["reason"] = exc.reason

        thread = threading.Thread(target=serve_once)
        thread.start()
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
        out = {}

        def serve_once():
            try:
                server.run()
            except SessionAborted as exc:
                out["reason"] = exc.reason

        thread = threading.Thread(target=serve_once)
        thread.start()
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b"HELLO rogue\n")
            fh = conn.makefile("r", encoding="utf-8")
            fh.readline()  # START
            fh.readline()  # QUERY 1
            conn.sendall(b"RESP 1 7\n")  # 7 is not a bit
            fh.readline()
        thread.join()
        assert out["reason"] == "malformed-message"

    @pytest.mark.parametrize("lines", [
        ["START s1 3"],
        ["START s1 3 0.5", "QUERY 1"],
        ["START s1 3 0.5", "RESULT"],
    ], ids=["short-start", "short-query", "bare-result"])
    def test_malformed_server_line_is_protocol_error(self, lines):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def fake_server():
                conn, _ = listener.accept()
                with conn:
                    conn.makefile("r", encoding="utf-8").readline()  # HELLO
                    conn.sendall("".join(line + "\n" for line in lines).encode("utf-8"))

            thread = threading.Thread(target=fake_server)
            thread.start()
            with pytest.raises(SessionAborted) as info:
                run_client(listener.getsockname(), 0.5, 1, timeout=5.0)
            thread.join()
        assert info.value.reason == "protocol-error"

    def test_expected_clients_must_match_config(self):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.1, n=3)
        with pytest.raises(ValueError):
            MinServer(config, 2)
