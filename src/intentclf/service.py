"""Read-only HTTP classify service over an immutable model artifact.

Endpoints:

* ``POST /classify`` with body ``{"text": "..."}`` returns ``{"labels":
  [..], "scores": {label: probability, ..}, "model_version": <int>}``.
* ``GET /health`` returns 200 with the model version.

Status codes: 400 for a malformed body, a text that is not valid UTF-8 (a
lone surrogate escape such as ``"\\ud800"``) or a Content-Length that is not a
non-negative integer, 413 for a Content-Length above ``MAX_BODY_BYTES`` (in
both cases the body is not read), 422 for empty text, 500 for internal
failures, 404 for unknown paths. The classify body is rendered by the same
function the ``predict`` CLI uses, so the two are byte-identical for the same
text and model.

The service speaks HTTP/1.0: one request per connection, read by this module
rather than ``http.server``. The head must end in CRLF CRLF within
``MAX_HEAD_BYTES``; a longer head gets 431 and is not read further. A request
line that is not ``METHOD TARGET HTTP/x``, or a header line without a colon,
gets 400, and so do two Content-Length headers that differ. A method other
than GET or POST gets 501. Every error body is JSON ``{"error": ...}``. A
reply carries ``Content-Type``, ``Content-Length`` and ``Date`` (RFC 9110
section 6.6.1 asks a server with a clock for it) and no ``Server`` header,
so it names no software versions.

A fixed pool of ``WORKER_THREADS`` threads answers the connections, one at a
time each. One deadline, ``CONNECTION_TIMEOUT_S`` after the connection is
accepted, bounds the whole request and its reply, however the client spaces
its bytes. A connection that passes the deadline, is closed before its
request is complete or is reset before its reply is dropped without a
response and logged at DEBUG.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus

from .dataset import check_utf8
from .embedding import embed_texts
from .errors import PipelineError, ValidationError
from .trainer import ModelArtifact, predict

logger = logging.getLogger(__name__)

# Threads answering connections; further connections wait in the listen backlog.
WORKER_THREADS = 8
# Seconds from accept() to the end of the reply, so that idle or trickling
# clients cannot hold the workers.
CONNECTION_TIMEOUT_S = 10.0
# Largest request head (request line and headers) the service reads.
MAX_HEAD_BYTES = 16 * 1024
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


def _arm(sock: socket.socket, deadline: float) -> None:
    """Let the next blocking call on ``sock`` wait no later than ``deadline``."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    sock.settimeout(left)


def _recv(sock: socket.socket, deadline: float) -> bytes:
    """The next bytes from ``sock``, waiting no later than ``deadline``."""
    _arm(sock, deadline)
    chunk = sock.recv(65536)
    if not chunk:
        raise ConnectionError("closed before the request was complete")
    return chunk


def _respond(sock: socket.socket, deadline: float, artifact: ModelArtifact) -> tuple[str, int, str]:
    """Read the request on ``sock``; return its request line, reply status and body."""
    data = bytearray()
    end = -1
    # past MAX_HEAD_BYTES + 4 bytes no terminator can end a head within the cap
    while end < 0 and len(data) < MAX_HEAD_BYTES + 4:
        start = max(0, len(data) - 3)
        data += _recv(sock, deadline)
        end = data.find(b"\r\n\r\n", start)
    if not 0 <= end <= MAX_HEAD_BYTES:
        return "", 431, _error_body(f"request head exceeds {MAX_HEAD_BYTES} bytes")
    request_line, *fields = data[:end].decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        return request_line, 400, _error_body("malformed request line")
    method, path, _ = parts
    lengths = set()
    for field in fields:
        name, colon, value = field.partition(":")
        if not colon:
            return request_line, 400, _error_body("malformed header line")
        if name.lower() == "content-length":
            lengths.add(value.strip())
    if method == "GET":
        if path == "/health":
            return request_line, 200, health_body(artifact)
        return request_line, 404, _error_body(f"unknown path {path}")
    if method != "POST":
        return request_line, 501, _error_body(f"unsupported method {method}")
    if path != "/classify":
        return request_line, 404, _error_body(f"unknown path {path}")
    if len(lengths) > 1:
        return request_line, 400, _error_body("conflicting Content-Length headers")
    length = lengths.pop() if lengths else "0"
    if not (length.isascii() and length.isdigit()):
        # never read a body of unknown size
        return request_line, 400, _error_body("Content-Length must be a non-negative integer")
    size = int(length)
    if size > MAX_BODY_BYTES:
        return request_line, 413, _error_body(f"body exceeds {MAX_BODY_BYTES} bytes")
    body = data[end + 4:]
    while len(body) < size:
        body += _recv(sock, deadline)
    # Reading stays outside the try below: a timeout or a dropped client must
    # close the connection instead of answering 500.
    try:
        status, reply = _classify(artifact, bytes(body[:size]))
    except PipelineError as exc:
        status, reply = 500, _error_body(str(exc))
    except Exception:  # pragma: no cover - defensive
        logger.exception("classify failed")
        status, reply = 500, _error_body("internal error")
    return request_line, status, reply


def _classify(artifact: ModelArtifact, raw: bytes) -> tuple[int, str]:
    """Status and body answering the request body ``raw``."""
    try:
        request = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return 400, _error_body("body is not valid JSON")
    if not isinstance(request, dict) or not isinstance(request.get("text"), str):
        return 400, _error_body("body must be an object with a string 'text'")
    try:
        check_utf8([request["text"]])
    except ValidationError as exc:
        return 400, _error_body(str(exc))
    if not request["text"].strip():
        return 422, _error_body("text is empty")
    return 200, classification_body(artifact, request["text"])


def _send(sock: socket.socket, deadline: float, status: int, body: str) -> None:
    data = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Date: {formatdate(usegmt=True)}\r\n\r\n"
    )
    _arm(sock, deadline)
    sock.sendall(head.encode("ascii") + data)


class PooledHTTPServer(socketserver.TCPServer):
    """An HTTP server whose connections are answered by a fixed pool of threads.

    ``serve_forever`` starts ``WORKER_THREADS`` workers. Each blocks in
    ``accept()`` on the listening socket and answers the connection it gets,
    so no request starts a thread or passes between threads, and the kernel
    wakes one waiting worker per connection (a shared ``select()`` would wake
    them all).
    """

    allow_reuse_address = True
    request_queue_size = 128  # connections beyond the busy workers wait here

    def __init__(self, server_address: tuple[str, int], artifact: ModelArtifact):
        # finish_request answers each connection itself, so no handler class
        super().__init__(server_address, None)
        self.artifact = artifact
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

    def finish_request(self, request: socket.socket, client_address) -> None:
        """Answer the one request on ``request`` before its deadline, or drop it."""
        deadline = time.monotonic() + CONNECTION_TIMEOUT_S
        try:
            request_line, status, body = _respond(request, deadline, self.artifact)
            _send(request, deadline, status, body)
        except (ConnectionError, TimeoutError) as exc:
            logger.debug("%s - connection dropped: %s", client_address[0], exc)
            return
        logger.debug('%s - "%s" %d', client_address[0], request_line, status)

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


def make_server(artifact: ModelArtifact, host: str, port: int) -> PooledHTTPServer:
    """Build (without starting) a worker-pool server bound to host:port.

    The artifact is immutable, so concurrent request handling needs no locks.
    """
    return PooledHTTPServer((host, port), artifact)


def serve_forever(artifact: ModelArtifact, host: str, port: int) -> None:
    server = make_server(artifact, host, port)
    logger.info("serving on %s:%d", *server.server_address)
    try:
        server.serve_forever()
    finally:
        server.server_close()
