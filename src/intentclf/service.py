"""Read-only HTTP classify service over an immutable model artifact.

Endpoints:

* ``POST /classify`` with body ``{"text": "..."}`` returns ``{"labels":
  [..], "scores": {label: probability, ..}, "model_version": <int>}``.
* ``GET /health`` returns 200 with the model version.

Status codes: 400 for a malformed body or for a Content-Length that is not a
non-negative integer, 413 for a Content-Length above ``MAX_BODY_BYTES`` (in
both cases the body is not read), 422 for empty text, 500 for internal
failures, 404 for unknown paths. The classify body is rendered by the same
function the ``predict`` CLI uses, so the two are byte-identical for the same
text and model.

A fixed pool of ``WORKER_THREADS`` threads answers the connections, one at a
time each; a read or write that blocks for ``CONNECTION_TIMEOUT_S`` drops its
connection without a response, and so does a client that disconnects first.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from .embedding import embed_texts
from .errors import PipelineError, ValidationError
from .trainer import ModelArtifact, predict

logger = logging.getLogger(__name__)

# Threads answering connections; further connections wait in the listen backlog.
WORKER_THREADS = 8
# Seconds one read or write on a connection may block, so that idle clients
# cannot hold the workers.
CONNECTION_TIMEOUT_S = 10.0
# Largest request body the service reads.
MAX_BODY_BYTES = 64 * 1024


def classification_body(artifact: ModelArtifact, text: str) -> str:
    """Canonical JSON body for one classification, shared by CLI and service."""
    if not text.strip():
        raise ValidationError("text is empty")
    if artifact.provider is None:
        raise ValidationError("artifact carries no embedding provider config")
    vector = embed_texts([text], artifact.provider)[0]
    labels, scores = predict(vector, artifact)
    payload = {
        "labels": artifact.vocabulary.sorted_members(labels),
        "scores": scores,
        "model_version": artifact.format_version,
    }
    return json.dumps(payload, separators=(",", ":"))


def _error_body(message: str) -> str:
    return json.dumps({"error": message}, separators=(",", ":"))


def health_body(artifact: ModelArtifact) -> str:
    return json.dumps(
        {"status": "ok", "model_version": artifact.format_version},
        separators=(",", ":"),
    )


class _ClassifyHandler(BaseHTTPRequestHandler):
    artifact: ModelArtifact  # set by make_server on the subclass
    # Set on each accepted socket; handle_one_request drops a connection
    # whose read or write times out, without a response.
    timeout = CONNECTION_TIMEOUT_S

    def _send(self, status: int, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError as exc:  # the client reset or closed before its response
            logger.debug("%s - connection dropped: %s", self.address_string(), exc)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)

    def do_GET(self) -> None:
        if self.path == "/health":
            self._send(200, health_body(self.artifact))
        else:
            self._send(404, _error_body(f"unknown path {self.path}"))

    def do_POST(self) -> None:
        if self.path != "/classify":
            self._send(404, _error_body(f"unknown path {self.path}"))
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            # never read a body of unknown size: rfile.read(-1) waits for EOF
            self._send(400, _error_body("Content-Length must be a non-negative integer"))
            return
        if int(length) > MAX_BODY_BYTES:
            self._send(413, _error_body(f"body exceeds {MAX_BODY_BYTES} bytes"))
            return
        # Reading and writing stay outside the try below: a timeout must reach
        # handle_one_request and a dropped client handle, which close the
        # connection instead of answering 500.
        raw = self.rfile.read(int(length))
        try:
            status, body = self._classify(raw)
        except PipelineError as exc:
            status, body = 500, _error_body(str(exc))
        except Exception:  # pragma: no cover - defensive
            logger.exception("classify failed")
            status, body = 500, _error_body("internal error")
        self._send(status, body)

    def _classify(self, raw: bytes) -> tuple[int, str]:
        """Status and body answering the request body ``raw``."""
        try:
            request = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return 400, _error_body("body is not valid JSON")
        if not isinstance(request, dict) or not isinstance(request.get("text"), str):
            return 400, _error_body("body must be an object with a string 'text'")
        if not request["text"].strip():
            return 422, _error_body("text is empty")
        return 200, classification_body(self.artifact, request["text"])


class PooledHTTPServer(HTTPServer):
    """An HTTP server whose connections are answered by a fixed pool of threads.

    ``serve_forever`` starts ``WORKER_THREADS`` workers. Each blocks in
    ``accept()`` on the listening socket and answers the connection it gets,
    so no request starts a thread or passes between threads, and the kernel
    wakes one waiting worker per connection (a shared ``select()`` would wake
    them all).
    """

    request_queue_size = 128  # connections beyond the busy workers wait here

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._stop = threading.Event()
        self._stopped = threading.Event()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Answer connections until :meth:`shutdown`.

        ``poll_interval`` is accepted for the ``socketserver`` signature and
        unused: nothing polls, ``shutdown`` wakes the workers.
        """
        self._stopped.clear()
        workers = [
            threading.Thread(target=self._work, name=f"classify-worker-{i}", daemon=True)
            for i in range(WORKER_THREADS)
        ]
        for worker in workers:
            worker.start()
        try:
            self._stop.wait()
        finally:
            self._stop.set()
            self._wake(len(workers))
            for worker in workers:
                worker.join()
            self._stop.clear()
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` and return once every worker has exited.

        A worker first finishes the connection it is answering, which
        ``CONNECTION_TIMEOUT_S`` bounds. Like ``socketserver``'s, this call
        waits for ``serve_forever`` to run in another thread.
        """
        self._stop.set()
        self._stopped.wait()

    def _work(self) -> None:
        while not self._stop.is_set():
            try:
                request, client_address = self.get_request()
            except OSError:  # e.g. the client reset before accept()
                continue
            if self._stop.is_set():  # a wake-up connection, or a client arriving at shutdown
                self.shutdown_request(request)
                return
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def _wake(self, count: int) -> None:
        """Connect ``count`` times, so that each worker blocked in ``accept()`` returns."""
        host, port = self.server_address[:2]
        if host == "0.0.0.0":
            host = "127.0.0.1"
        for _ in range(count):
            try:
                socket.create_connection((host, port), timeout=1.0).close()
            except OSError:  # backlog full: every worker is busy and sees the stop flag next
                pass


def make_server(artifact: ModelArtifact, host: str = "127.0.0.1", port: int = 8080) -> PooledHTTPServer:
    """Build (without starting) a worker-pool server bound to host:port.

    The artifact is immutable, so concurrent request handling needs no locks.
    """
    handler = type("BoundClassifyHandler", (_ClassifyHandler,), {"artifact": artifact})
    return PooledHTTPServer((host, port), handler)


def serve_forever(artifact: ModelArtifact, host: str = "127.0.0.1", port: int = 8080) -> None:
    server = make_server(artifact, host, port)
    logger.info("serving on %s:%d", *server.server_address)
    try:
        server.serve_forever()
    finally:
        server.server_close()
