"""JSON-over-HTTP POST on the standard library: retries, one deadline per attempt, a reply-size cap.
No redirect is followed, no proxy variable read and no compression asked for; HTTPS trusts the system store."""

import contextlib
import http.client
import json
import socket
import threading
import time
from urllib.parse import urlsplit

from .errors import RemoteServiceError, ValidationError

BACKOFF_BASE_SECONDS = 0.5  # retry k (1-based) sleeps this * 2**(k-1); tests shrink it
MAX_REPLY_BYTES = 256 << 20  # an encoder reply of a few thousand 1,024-wide rows fits with room


def check_remote(config, url_field: str) -> None:
    """Raise :class:`ValidationError` naming the first bad remote setting of ``config``."""
    url, where, longest = getattr(config, url_field), type(config).__name__, threading.TIMEOUT_MAX
    try:  # .port raises ValueError for a port that is no number in range
        url_ok = (parts := urlsplit(url or "")).scheme in ("http", "https") and parts.hostname and parts.port != 0
    except ValueError:
        url_ok = False
    for field, ok, rule in ((url_field, url_ok, "an http:// or https:// URL with a host"),
                            ("timeout", 0 < config.timeout <= longest, f"in (0, {longest:g}]"),
                            ("max_retries", config.max_retries >= 0, ">= 0")):
        if not ok:
            raise ValidationError(f"{where}.{field} must be {rule}, got {getattr(config, field)!r}")


def _attempt(url: str, data: bytes, headers: dict[str, str], timeout: float) -> dict:
    """One POST and its reply, a JSON object; any failure raises."""
    parts = urlsplit(url)
    kind = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    conn = kind(parts.hostname, parts.port, timeout=timeout)  # HTTPS: ssl's default, verifying context
    def cut():  # http.client re-arms its socket timeout on every read, so a trickle never trips it
        with contextlib.suppress(OSError, AttributeError):  # AttributeError: no socket yet
            conn.sock.shutdown(socket.SHUT_RDWR)
    deadline, timer = time.monotonic() + timeout, threading.Timer(timeout, cut)
    timer.start()
    try:
        conn.connect()  # a timer that fired during it cut nothing; the next line makes reads fail at once
        conn.sock.settimeout(max(deadline - time.monotonic(), 1e-9))
        target = parts._replace(scheme="", netloc="", fragment="").geturl() or "/"
        conn.request("POST", target, data, {"Content-Type": "application/json", **headers})
        response, body, cap = conn.getresponse(), bytearray(), MAX_REPLY_BYTES
        if not 200 <= response.status < 300:
            raise ValueError(f"HTTP {response.status}")
        while chunk := response.read(min(1 << 16, cap + 1 - len(body))):
            body += chunk
            if len(body) > cap:
                raise ValueError(f"response body is over {cap} bytes")
    except Exception:  # past the deadline, whatever broke is a timeout; Ctrl-C passes through
        if time.monotonic() < deadline:
            raise
    finally:
        timer.cancel()
        timer.join()  # so a timer that fired is done before the socket closes
        conn.close()
    if time.monotonic() >= deadline:  # also when the cut looked like the end of a body
        raise TimeoutError
    if response.length:  # bytes its Content-Length promised that never came
        raise ValueError("response body is short of its Content-Length")
    if not isinstance(body := json.loads(body), dict):
        raise ValueError("response body is not a JSON object")
    return body


def post_json(url: str, payload: dict, *, headers: dict[str, str] | None = None,
              timeout: float = 30.0, max_retries: int = 2) -> dict:
    """POST ``payload`` as JSON; return the reply, a JSON object. Each attempt has ``timeout`` seconds
    from connect to the last body byte; ``max_retries`` failed ones are retried, then RemoteServiceError."""
    data, last_failure = json.dumps(payload).encode("utf-8"), "no attempt made"
    for attempt in range(max_retries + 1):
        if attempt:
            time.sleep(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
        try:
            return _attempt(url, data, headers or {}, timeout)
        except (OSError, http.client.HTTPException) as exc:
            timed_out = isinstance(exc, TimeoutError)
            last_failure = f"timed out after {timeout:g} s" if timed_out else f"request failed: {exc}"
        except (ValueError, RecursionError) as exc:  # a non-2xx status, a bad length, no JSON
            last_failure = f"bad reply: {exc}"
    raise RemoteServiceError(f"POST {url} failed after {max_retries + 1} attempt(s): {last_failure}")
