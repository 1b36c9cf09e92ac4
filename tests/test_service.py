from __future__ import annotations

import errno
import json
import logging
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from intentclf import (
    ProviderConfig,
    ValidationError,
    embed_texts,
    finetune,
    offline_generate,
    pretrain,
    save_artifact,
    score_samples,
    TrainConfig,
)
from intentclf import service
from intentclf.cli import main
from intentclf.service import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    WORKER_THREADS,
    classification_body,
    health_body,
    make_server,
)
from intentclf.trainer import ARTIFACT_FORMAT_VERSION
from stubs import Reply, http_get, http_post

# serve_forever in the main thread of a child process, and SIGINT sent to one
# of its workers rather than to the main thread
_SIGINT_TO_A_WORKER = r"""
import os, signal, sys, threading, time
from intentclf.service import make_server
from intentclf.trainer import load_artifact

signal.signal(signal.SIGINT, signal.default_int_handler)  # even if the parent ignores SIGINT
server = make_server(load_artifact(sys.argv[1]), "127.0.0.1", 0)
interrupted = threading.Event()

def interrupt_a_worker():
    while not (workers := [t for t in threading.enumerate() if t.name.startswith("classify-worker-")]):
        time.sleep(0.01)
    time.sleep(0.2)  # the main thread waits in serve_forever by now
    signal.pthread_kill(workers[0].ident, signal.SIGINT)
    if not interrupted.wait(2.0):
        print("still serving 2 s after SIGINT", flush=True)
        os._exit(1)

threading.Thread(target=interrupt_a_worker, daemon=True).start()
try:
    server.serve_forever()
except KeyboardInterrupt:
    interrupted.set()
    print("KeyboardInterrupt", flush=True)
finally:
    server.server_close()
"""


@pytest.fixture(scope="module")
def artifact(small_vocab):
    dataset = offline_generate(small_vocab, per_class=10, combos=[], seed=6)
    provider = ProviderConfig(kind="toy", dim=64, seed=6)
    x, y = embed_texts(dataset.texts, provider), dataset.labels
    config = TrainConfig(
        seed=6, epochs_pretrain=4, epochs_finetune=8, batch_size=16,
        d_hidden=32, d_proj=32,
    )
    head, _ = pretrain(x, y, config)
    art, _ = finetune(x, y, small_vocab, head, config, provider)
    return art


@contextmanager
def _running(artifact):
    """A fresh server on a free port, serving in a background thread."""
    srv = make_server(artifact, host="127.0.0.1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _post(port: int, text: str) -> Reply:
    return http_post(f"http://127.0.0.1:{port}/classify", {"text": text})


@pytest.fixture(scope="module")
def server(artifact):
    with _running(artifact) as srv:
        yield f"http://127.0.0.1:{srv.server_address[1]}"


class TestHealth:
    def test_ok_with_model_version(self, server):
        response = http_get(f"{server}/health")
        assert response.status_code == 200
        assert response.json() == {"status": "ok", "model_version": ARTIFACT_FORMAT_VERSION}

    def test_reply_has_date_and_no_server_header(self, server):
        headers = http_get(f"{server}/health").headers
        assert "Date" in headers and "Server" not in headers
        assert headers["Content-Type"] == "application/json"

    def test_unknown_path_404(self, server):
        assert http_get(f"{server}/nope").status_code == 404


class TestClassify:
    def test_happy_path(self, server, small_vocab):
        response = http_post(f"{server}/classify", {"text": "estimated arrival time please"})
        assert response.status_code == 200
        body = response.json()
        assert body["labels"], "labels must never be empty"
        assert list(body["scores"]) == list(small_vocab.labels)
        assert body["model_version"] == ARTIFACT_FORMAT_VERSION

    def test_body_matches_renderer_byte_for_byte(self, server, artifact):
        text = "how much fuel was burned yesterday"
        response = http_post(f"{server}/classify", {"text": text})
        assert response.content == classification_body(artifact, text).encode("utf-8")

    def test_empty_text_422(self, server):
        response = http_post(f"{server}/classify", {"text": "   "})
        assert response.status_code == 422

    def test_malformed_json_400(self, server):
        response = http_post(
            f"{server}/classify", data="{not json", headers={"Content-Type": "application/json"}
        )
        assert response.status_code == 400

    def test_text_that_is_not_utf8_400(self, server, caplog):
        # the escape parses as a str that holds a lone surrogate
        response = http_post(f"{server}/classify", {"text": "eta \ud800"})
        assert response.status_code == 400
        assert response.json() == {"error": "text is not valid UTF-8: lone surrogate '\\ud800' at index 4"}
        assert not caplog.records

    def test_missing_text_400(self, server):
        assert http_post(f"{server}/classify", {"q": "x"}).status_code == 400

    def test_non_string_text_400(self, server):
        assert http_post(f"{server}/classify", {"text": 7}).status_code == 400

    @staticmethod
    def _status_without_body(server, length) -> bytes:
        """Status code of a POST that announces ``length`` and sends no body."""
        host, port = server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=3) as sock:
            sock.sendall(
                f"POST /classify HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            status_line = sock.makefile("rb").readline()
        return status_line.split()[1]

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5", "+3"])
    def test_bad_content_length_400_without_reading_body(self, server, length):
        assert self._status_without_body(server, length) == b"400"

    def test_oversized_body_413_without_reading_body(self, server):
        assert self._status_without_body(server, MAX_BODY_BYTES + 1) == b"413"

    def test_body_of_exactly_the_cap_is_read(self, server):
        body = json.dumps({"text": "fuel burned"}).encode("ascii")
        body += b" " * (MAX_BODY_BYTES - len(body))
        response = http_post(f"{server}/classify", data=body, headers={"Content-Type": "application/json"})
        assert response.status_code == 200

    def test_unknown_post_path_404(self, server):
        assert http_post(f"{server}/other", {"text": "x"}).status_code == 404

    def test_internal_failure_returns_500(self, artifact):
        from dataclasses import replace

        with _running(replace(artifact, provider=None)) as broken:
            assert _post(broken.server_address[1], "anything").status_code == 500

    def test_concurrent_requests_agree(self, server):
        def call(_):
            return http_post(f"{server}/classify", {"text": "berthing delay estimate"})

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(call, range(16)))
        assert all(r.status_code == 200 for r in responses)
        assert len({r.content for r in responses}) == 1


class TestWorkerPool:
    def test_thread_count_stays_bounded(self, artifact):
        baseline = threading.active_count()
        with _running(artifact) as srv:
            port = srv.server_address[1]
            for i in range(200):
                assert _post(port, f"eta for ship {i}").status_code == 200
            body = json.dumps({"text": "fuel burned at the berth"}).encode("ascii")
            head = f"POST /classify HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii")
            socks = [socket.create_connection(("127.0.0.1", port), timeout=5) for _ in range(16)]
            try:
                # 16 requests in flight at once, each waiting for its body
                for sock in socks:
                    sock.sendall(head)
                time.sleep(0.2)
                # +1: the thread running serve_forever
                assert threading.active_count() <= baseline + 1 + WORKER_THREADS
                for sock in socks:
                    sock.sendall(body)
                statuses = [sock.makefile("rb").readline().split()[1] for sock in socks]
            finally:
                for sock in socks:
                    sock.close()
        assert statuses == [b"200"] * 16

    def test_shutdown_is_prompt_and_leaves_no_worker(self, artifact):
        before = set(threading.enumerate())
        srv = make_server(artifact, host="127.0.0.1", port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            assert _post(srv.server_address[1], "eta please").status_code == 200
            stopper = threading.Thread(target=srv.shutdown, daemon=True)
            stopper.start()
            stopper.join(timeout=2)
            assert not stopper.is_alive(), "shutdown() did not return within 2 s"
            thread.join(timeout=2)
            assert not thread.is_alive()
            assert set(threading.enumerate()) <= before
        finally:
            srv.server_close()

    def test_idle_connections_time_out_and_free_the_workers(self, artifact, monkeypatch):
        monkeypatch.setattr(service, "CONNECTION_TIMEOUT_S", 0.2)
        with _running(artifact) as srv:
            port = srv.server_address[1]
            # one idle connection per worker: the request below waits for their timeouts
            idle = [socket.create_connection(("127.0.0.1", port), timeout=5) for _ in range(WORKER_THREADS)]
            try:
                assert _post(port, "berth waiting time").status_code == 200
                for sock in idle:
                    assert sock.recv(1) == b"", "an idle connection must be closed unanswered"
            finally:
                for sock in idle:
                    sock.close()

    @pytest.mark.parametrize(
        "sent",
        [b"POST /classify HTTP/1.0\r\nContent-Le", b'POST /classify HTTP/1.0\r\nContent-Length: 40\r\n\r\n{"te'],
        ids=["headers", "body"],
    )
    def test_read_timeout_drops_the_connection_without_500(self, artifact, monkeypatch, caplog, capsys, sent):
        monkeypatch.setattr(service, "CONNECTION_TIMEOUT_S", 0.2)
        with caplog.at_level(logging.DEBUG, logger="intentclf.service"), _running(artifact) as srv:
            with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as sock:
                sock.sendall(sent)
                assert sock.makefile("rb").read() == b""
            assert _post(srv.server_address[1], "eta please").status_code == 200
        assert any("timed out" in r.getMessage() for r in caplog.records)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert "Traceback" not in capsys.readouterr().err

    def test_trickled_head_is_dropped_at_the_deadline(self, artifact, monkeypatch, caplog):
        monkeypatch.setattr(service, "CONNECTION_TIMEOUT_S", 0.2)
        # one byte per 0.05 s: every single read is well inside the timeout
        head = b"GET /health HTTP/1.0\r\nX-Slow: " + b"a" * 80
        with caplog.at_level(logging.DEBUG, logger="intentclf.service"), _running(artifact) as srv:
            port = srv.server_address[1]
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.settimeout(0.05)
                start = time.monotonic()
                answer = None
                for i in range(len(head)):
                    try:
                        sock.sendall(head[i:i + 1])
                        answer = sock.recv(1024)
                    except socket.timeout:
                        continue
                    except ConnectionError:
                        answer = b""
                    break
                elapsed = time.monotonic() - start
            assert answer == b"", "the trickled request must be closed unanswered"
            assert elapsed < 0.2 + 0.5, f"held for {elapsed:.2f} s"
            assert _post(port, "eta please").status_code == 200
        assert any("timed out" in r.getMessage() for r in caplog.records)

    def test_client_reset_before_the_reply_is_dropped_quietly(self, artifact, monkeypatch, caplog, capsys):
        entered, reset = threading.Event(), threading.Event()
        render = service.classification_body

        def after_reset(art, text):
            entered.set()
            assert reset.wait(5)
            return render(art, text)

        monkeypatch.setattr(service, "classification_body", after_reset)
        body = json.dumps({"text": "eta please"}).encode("ascii")
        with caplog.at_level(logging.DEBUG, logger="intentclf.service"), _running(artifact) as srv:
            port = srv.server_address[1]
            sock = socket.create_connection(("127.0.0.1", port), timeout=5)
            sock.sendall(f"POST /classify HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii") + body)
            assert entered.wait(5)
            # linger 0: close() sends RST, so the reply's write fails
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            time.sleep(0.05)
            reset.set()
            assert _post(port, "eta please").status_code == 200
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert "Traceback" not in capsys.readouterr().err
        assert any("connection dropped" in r.getMessage() for r in caplog.records)

    def test_socket_error_on_send_drops_the_connection_quietly(self, artifact, monkeypatch, caplog, capsys):
        send = service._send
        failures = [OSError(errno.EHOSTUNREACH, "No route to host")]

        def unreachable(*args):
            if failures:
                raise failures.pop()
            send(*args)

        monkeypatch.setattr(service, "_send", unreachable)
        with caplog.at_level(logging.DEBUG, logger="intentclf.service"), _running(artifact) as srv:
            port = srv.server_address[1]
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
                assert sock.makefile("rb").read() == b""
            assert _post(port, "eta please").status_code == 200
        assert "Traceback" not in capsys.readouterr().err
        dropped = [r for r in caplog.records if "connection dropped" in r.getMessage()]
        assert len(dropped) == 1 and dropped[0].levelno == logging.DEBUG, caplog.records
        assert "No route to host" in dropped[0].getMessage()


    def test_sigint_taken_by_a_worker_stops_serve(self, artifact, tmp_path):
        model = tmp_path / "model.json"
        save_artifact(artifact, model)
        src = os.path.dirname(os.path.dirname(service.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", _SIGINT_TO_A_WORKER, str(model)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "KeyboardInterrupt\n"), done

    def test_interrupted_start_leaves_no_worker(self, artifact, monkeypatch):
        before = set(threading.enumerate())
        real_start = threading.Thread.start
        started = []

        def start(thread):
            if thread.name.startswith("classify-worker-"):
                if len(started) == 2:
                    raise KeyboardInterrupt  # Ctrl-C while the third worker starts
                started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        srv = make_server(artifact, host="127.0.0.1", port=0)
        try:
            with pytest.raises(KeyboardInterrupt):
                srv.serve_forever()
        finally:
            srv.server_close()
        assert len(started) == 2
        left = [t.name for t in set(threading.enumerate()) - before if t.name.startswith("classify-worker-")]
        assert left == []


class TestRawRequests:
    """Single hand-written requests, for what an HTTP client library never sends."""

    @staticmethod
    def _exchange(server, data: bytes) -> bytes:
        """Everything the server sends back to ``data`` before it closes."""
        host, port = server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            return sock.makefile("rb").read()

    @classmethod
    def _status_and_error(cls, server, data: bytes) -> tuple[bytes, dict]:
        head, _, body = cls._exchange(server, data).partition(b"\r\n\r\n")
        return head.split()[1], json.loads(body)

    def test_head_without_terminator_is_closed_unanswered(self, server):
        assert self._exchange(server, b"GET /health HTTP/1.0\r\nHost: x") == b""
        assert http_get(f"{server}/health").status_code == 200

    @pytest.mark.parametrize(
        "head",
        [b"GARBAGE", b"GET /health", b"GET /health FTP/1.0", b"GET  HTTP/1.0", b"GET /health HTTP/1.0\r\nNoColon"],
    )
    def test_malformed_head_400(self, server, head):
        status, body = self._status_and_error(server, head + b"\r\n\r\n")
        assert status == b"400" and "error" in body

    def test_head_over_the_cap_431_without_reading_further(self, server):
        # no terminator: a head of this size cannot end within the cap
        status, body = self._status_and_error(server, b"GET /health HTTP/1.0\r\n" + b"a" * MAX_HEAD_BYTES)
        assert status == b"431" and "error" in body

    def test_head_of_exactly_the_cap_is_read(self, server):
        line = b"GET /health HTTP/1.0\r\nX-Pad: "
        head = line + b"a" * (MAX_HEAD_BYTES - len(line))
        assert self._exchange(server, head + b"\r\n\r\n").split()[1] == b"200"

    def test_conflicting_content_length_400(self, server):
        body = b'{"text": "eta please"}'
        head = (f"POST /classify HTTP/1.0\r\nContent-Length: {len(body)}\r\n"
                f"Content-Length: {len(body) + 1}\r\n\r\n").encode("ascii")
        status, error = self._status_and_error(server, head + body)
        assert status == b"400" and "Content-Length" in error["error"]

    def test_repeated_equal_content_length_is_read(self, server, artifact):
        body = b'{"text": "eta please"}'
        head = f"POST /classify HTTP/1.0\r\nContent-Length: {len(body)}\r\ncontent-length: {len(body)}\r\n\r\n"
        reply = self._exchange(server, head.encode("ascii") + body)
        assert reply.split(b"\r\n\r\n", 1)[1] == classification_body(artifact, "eta please").encode("utf-8")

    def test_body_nested_past_the_parser_depth_400(self, server, caplog):
        body = b"[" * 60_000  # under the body cap, far past json's recursion limit
        assert len(body) <= MAX_BODY_BYTES
        head = f"POST /classify HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii")
        status, error = self._status_and_error(server, head + body)
        assert (status, error) == (b"400", {"error": "body is not valid JSON"})
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    @pytest.mark.parametrize("method", [b"PUT", b"DELETE", b"HEAD"])
    def test_unknown_method_501_with_json_body(self, server, method):
        status, body = self._status_and_error(server, method + b" /classify HTTP/1.0\r\n\r\n")
        assert status == b"501" and method.decode() in body["error"]


class TestRendererContract:
    def test_predict_cli_parity(self, server, artifact, tmp_path, capsys):
        from intentclf import save_artifact

        model_path = tmp_path / "m.json"
        save_artifact(artifact, model_path)
        text = "waiting time at the anchorage for the tanker"
        assert main(["predict", "--model", str(model_path), "--text", text]) == 0
        printed = capsys.readouterr().out
        response = http_post(f"{server}/classify", {"text": text})
        assert printed.rstrip("\n").encode("utf-8") == response.content

    def test_float32_scores_print_the_shortest_decimal_that_reads_back(self, small_vocab, tmp_path, capsys):
        # float(p) of a float32 score prints 17 digits; the bodies carry the
        # float32 value's own shortest decimal, which reads back exactly
        dataset = offline_generate(small_vocab, per_class=10, combos=[], seed=6)
        provider = ProviderConfig(kind="toy", dim=64, seed=6)
        x, y = embed_texts(dataset.texts, provider).astype(np.float32), dataset.labels
        config = TrainConfig(seed=6, epochs_pretrain=2, epochs_finetune=4, batch_size=16, d_hidden=32, d_proj=32)
        head, _ = pretrain(x, y, config)
        artifact, _ = finetune(x, y, small_vocab, head, config, provider)
        model_path = tmp_path / "m.json"
        save_artifact(artifact, model_path)
        text = "waiting time at the anchorage for the tanker"
        assert main(["predict", "--model", str(model_path), "--text", text]) == 0
        printed = capsys.readouterr().out.rstrip("\n")
        with _running(artifact) as srv:
            response = _post(srv.server_address[1], text)
        assert response.content == printed.encode("utf-8")
        want = score_samples(embed_texts([text], provider), artifact)[0]
        assert want.dtype == np.float32
        scores = json.loads(printed, parse_float=str)["scores"]
        assert list(scores) == list(small_vocab.labels)
        for value, expected in zip(scores.values(), want, strict=True):
            mantissa = value.lower().split("e")[0].lstrip("-").replace(".", "").lstrip("0")
            assert len(mantissa) <= 9, value
            assert np.float32(float(value)) == expected, (value, expected)

    def test_health_body_shape(self, artifact):
        assert json.loads(health_body(artifact)) == {"status": "ok", "model_version": ARTIFACT_FORMAT_VERSION}

    def test_artifact_without_provider_is_rejected(self, artifact):
        from dataclasses import replace

        bare = replace(artifact, provider=None)
        with pytest.raises(ValidationError):
            classification_body(bare, "some text")

    def test_empty_text_rejected_by_renderer(self, artifact):
        with pytest.raises(ValidationError):
            classification_body(artifact, "  ")
