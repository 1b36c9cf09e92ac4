"""Test doubles: a tiny scriptable HTTP server for exercising the remote-client
paths, a raw-socket peer that writes scripted bytes, hand-built ``.npy`` files
for the embeddings loader, and an ``http.client`` caller that checks the
service with a client other than its own code."""

from __future__ import annotations

import http.client
import json
import re
import socket
import ssl
import threading
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

# A self-signed certificate for localhost and 127.0.0.1, valid until 2126,
# made with `openssl req -x509 -newkey rsa:2048 -nodes -days 36500`; the key
# guards nothing but these tests.
TLS_CERT = Path(__file__).parent / "data" / "tls_cert.pem"
TLS_KEY = Path(__file__).parent / "data" / "tls_key.pem"


class StubState:
    """Recorded requests plus the scripted response list (cycled at the end)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls: list[dict] = []
        self.lock = threading.Lock()

    def next_response(self):
        with self.lock:
            index = min(len(self.calls) - 1, len(self.responses) - 1)
        return self.responses[index]


@contextmanager
def stub_server(responses):
    """Serve scripted (status, body) responses; yields (base_url, state).

    ``body`` may be a dict (sent as JSON) or a raw string.
    """
    state = StubState(responses)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                body = raw.decode("utf-8", "replace")
            with state.lock:
                state.calls.append(
                    {
                        "path": self.path,
                        "body": body,
                        "headers": {k: v for k, v in self.headers.items()},
                    }
                )
            status, payload = state.next_response()
            data = (
                json.dumps(payload) if isinstance(payload, (dict, list)) else str(payload)
            ).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits up to one poll interval; the default 0.5 s added that to every test
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@dataclass(frozen=True)
class Reply:
    """One HTTP reply, as :func:`http_get` and :func:`http_post` read it."""

    status_code: int
    headers: http.client.HTTPMessage
    content: bytes

    def json(self):
        return json.loads(self.content)


def _call(method: str, url: str, body=None, headers=None, timeout: float = 5.0) -> Reply:
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request(method, parts.path or "/", body=body, headers=headers or {})
        response = conn.getresponse()
        return Reply(response.status, response.headers, response.read())
    finally:
        conn.close()


def http_get(url: str, timeout: float = 5.0) -> Reply:
    return _call("GET", url, timeout=timeout)


def http_post(url: str, payload=None, *, data=None, headers=None, timeout: float = 5.0) -> Reply:
    """POST ``payload`` as JSON, or else the raw ``data`` with ``headers``."""
    if payload is not None:
        data, headers = json.dumps(payload).encode("utf-8"), {"Content-Type": "application/json"}
    return _call("POST", url, data, headers, timeout)


class RawPeer:
    """What :func:`raw_server` sends and has seen.

    ``script`` is what every connection gets once its request has been read:
    ``bytes`` are sent, a ``float`` is a pause in seconds, and the connection
    closes after the last item. Tests may replace it between requests.
    ``heads`` holds each request head, in arrival order.
    """

    def __init__(self, script, url: str):
        self.script = list(script)
        self.url = url
        self.heads: list[bytes] = []


def http_reply(status: int, body: bytes, *headers: str, length: bool = True) -> bytes:
    """An HTTP/1.1 reply; ``length`` adds the matching Content-Length."""
    lines = [f"HTTP/1.1 {status} Scripted", *headers]
    if length:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def trickle(data: bytes, gap: float) -> list:
    """A script sending ``data`` one byte at a time, ``gap`` seconds apart."""
    return [item for byte in data for item in (bytes([byte]), gap)]


def _read_request(conn: socket.socket) -> bytes | None:
    """The head of one request, after reading its Content-Length body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = re.search(rb"(?im)^content-length:\s*(\d+)", head)
    length = int(match.group(1)) if match else 0
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return head


@contextmanager
def raw_server(script=(), tls: bool = False):
    """Answer each connection on a loopback port with ``script``; yields a
    :class:`RawPeer`. With ``tls`` the peer speaks HTTPS with ``TLS_CERT``.
    Pauses end early when the context exits."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)  # the accept loop polls ``stop``
    scheme = "https" if tls else "http"
    peer = RawPeer(script, f"{scheme}://127.0.0.1:{listener.getsockname()[1]}/v1")
    stop = threading.Event()
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_CERT, TLS_KEY)

    def answer(conn: socket.socket):
        try:
            conn.settimeout(10)
            if tls:
                conn = context.wrap_socket(conn, server_side=True)
            head = _read_request(conn)
            if head is None:
                return
            peer.heads.append(head)
            for item in list(peer.script):
                if isinstance(item, bytes):
                    conn.sendall(item)
                elif stop.wait(item):
                    return
        except OSError:  # the client gave up first
            pass
        finally:
            conn.close()

    def accept_loop():
        workers = []
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            workers.append(threading.Thread(target=answer, args=(conn,), daemon=True))
            workers[-1].start()
        for worker in workers:
            worker.join(timeout=5)

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield peer
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()


def npy_bytes(descr, shape, fortran_order=False, payload: bytes = b"", version=(1, 0)) -> bytes:
    """A ``.npy`` file whose header holds the reprs of ``descr``, ``shape`` and
    ``fortran_order`` as given, valid or not, followed by ``payload``."""
    header = "{'descr': %r, 'fortran_order': %r, 'shape': %r, }\n" % (descr, fortran_order, shape)
    header_bytes = header.encode("utf-8")
    size = len(header_bytes).to_bytes(2 if version == (1, 0) else 4, "little")
    return np.lib.format.MAGIC_PREFIX + bytes(version) + size + header_bytes + payload
