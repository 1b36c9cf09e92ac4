"""Test doubles: a tiny scriptable HTTP server for exercising the remote-client
paths, and hand-built ``.npy`` files for the embeddings loader."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def npy_bytes(descr, shape, fortran_order=False, payload: bytes = b"", version=(1, 0)) -> bytes:
    """A ``.npy`` file whose header holds the reprs of ``descr``, ``shape`` and
    ``fortran_order`` as given, valid or not, followed by ``payload``."""
    header = "{'descr': %r, 'fortran_order': %r, 'shape': %r, }\n" % (descr, fortran_order, shape)
    header_bytes = header.encode("utf-8")
    size = len(header_bytes).to_bytes(2 if version == (1, 0) else 4, "little")
    return np.lib.format.MAGIC_PREFIX + bytes(version) + size + header_bytes + payload
