"""Read-only HTTP classify service over an immutable model artifact.

Endpoints:

* ``POST /classify`` with body ``{"text": "..."}`` returns ``{"labels":
  [..], "scores": {label: probability, ..}, "model_version": <int>}``.
* ``GET /health`` returns 200 with the model version.

Status codes: 400 for a malformed body or for a Content-Length that is not a
non-negative integer (the body is then not read), 422 for empty text, 500 for
internal failures, 404 for unknown paths. The classify body is rendered by
the same function the ``predict`` CLI uses, so the two are byte-identical for
the same text and model.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .embedding import embed_texts
from .errors import PipelineError, ValidationError
from .trainer import ModelArtifact, predict

logger = logging.getLogger(__name__)


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


def health_body(artifact: ModelArtifact) -> str:
    return json.dumps(
        {"status": "ok", "model_version": artifact.format_version},
        separators=(",", ":"),
    )


class _ClassifyHandler(BaseHTTPRequestHandler):
    artifact: ModelArtifact  # set by make_server on the subclass

    def _send(self, status: int, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, json.dumps({"error": message}, separators=(",", ":")))

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)

    def do_GET(self) -> None:
        if self.path == "/health":
            self._send(200, health_body(self.artifact))
        else:
            self._send_error(404, f"unknown path {self.path}")

    def do_POST(self) -> None:
        if self.path != "/classify":
            self._send_error(404, f"unknown path {self.path}")
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            # never read a body of unknown size: rfile.read(-1) waits for EOF
            self._send_error(400, "Content-Length must be a non-negative integer")
            return
        try:
            raw = self.rfile.read(int(length))
            try:
                body = json.loads(raw)
            except (UnicodeDecodeError, json.JSONDecodeError):
                self._send_error(400, "body is not valid JSON")
                return
            if not isinstance(body, dict) or not isinstance(body.get("text"), str):
                self._send_error(400, "body must be an object with a string 'text'")
                return
            text = body["text"]
            if not text.strip():
                self._send_error(422, "text is empty")
                return
            self._send(200, classification_body(self.artifact, text))
        except PipelineError as exc:
            self._send_error(500, str(exc))
        except Exception:  # pragma: no cover - defensive
            logger.exception("classify failed")
            self._send_error(500, "internal error")


def make_server(artifact: ModelArtifact, host: str = "127.0.0.1", port: int = 8080) -> ThreadingHTTPServer:
    """Build (without starting) a threaded server bound to host:port.

    The artifact is immutable, so concurrent request handling needs no locks.
    """
    handler = type("BoundClassifyHandler", (_ClassifyHandler,), {"artifact": artifact})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(artifact: ModelArtifact, host: str = "127.0.0.1", port: int = 8080) -> None:
    server = make_server(artifact, host, port)
    logger.info("serving on %s:%d", *server.server_address)
    try:
        server.serve_forever()
    finally:
        server.server_close()
