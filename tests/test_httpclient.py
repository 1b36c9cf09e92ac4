"""The outbound JSON client against raw-socket peers: one deadline per
attempt, HTTPS, the reply-size cap, HTTP/1.1 framing, redirects, and replies
fuzzed through ``generate`` and ``embed --provider http``."""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intentclf.httpclient as httpclient
from intentclf import (
    Dataset,
    RemoteServiceError,
    TextSample,
    save_dataset,
    save_vocabulary,
)
from intentclf.cli import main
from intentclf.httpclient import post_json
from stubs import TLS_CERT, http_reply, raw_server, stub_server, trickle

_OK = http_reply(200, b'{"ok": true}', "Content-Type: application/json")


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(httpclient, "BACKOFF_BASE_SECONDS", 0.0)


class TestDeadline:
    def test_trickled_reply_is_cut_at_the_deadline(self, capfd):
        before = set(threading.enumerate())
        with raw_server(trickle(_OK, 0.03)) as peer:
            start = time.monotonic()
            with pytest.raises(RemoteServiceError, match=r"1 attempt\(s\): timed out after 0.3 s$"):
                post_json(peer.url, {}, timeout=0.3, max_retries=0)
            assert time.monotonic() - start < 1.0
        # the timer is joined, and a cut made no noise
        assert set(threading.enumerate()) <= before
        assert capfd.readouterr().err == ""

    def test_silent_peer_times_out(self):
        with raw_server([30.0]) as peer:
            start = time.monotonic()
            with pytest.raises(RemoteServiceError, match=r"timed out after 0.3 s$"):
                post_json(peer.url, {}, timeout=0.3, max_retries=0)
            assert time.monotonic() - start < 0.3 + 0.5

    def test_every_attempt_gets_its_own_deadline(self):
        with raw_server(trickle(_OK, 0.03)) as peer:
            start = time.monotonic()
            with pytest.raises(RemoteServiceError, match=r"3 attempt\(s\): timed out after 0.2 s$"):
                post_json(peer.url, {}, timeout=0.2, max_retries=2)
            assert time.monotonic() - start < 3 * 0.2 + 0.5
        assert len(peer.heads) == 3

    def test_a_connect_that_outlasts_the_deadline_ends_the_attempt(self, monkeypatch):
        connect = socket.create_connection

        def slow_connect(*args, **kwargs):
            time.sleep(0.4)  # the timer fires while there is no socket to cut
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", slow_connect)
        with raw_server(trickle(_OK, 0.03)) as peer:
            start = time.monotonic()
            with pytest.raises(RemoteServiceError, match=r"timed out after 0.3 s$"):
                post_json(peer.url, {}, timeout=0.3, max_retries=0)
            assert time.monotonic() - start < 0.4 + 0.3

    def test_ctrl_c_after_the_deadline_is_not_a_timeout(self, monkeypatch):
        def interrupted(self):
            time.sleep(0.3)
            raise KeyboardInterrupt

        monkeypatch.setattr(http.client.HTTPConnection, "getresponse", interrupted)
        with raw_server([30.0]) as peer:
            with pytest.raises(KeyboardInterrupt):
                post_json(peer.url, {}, timeout=0.2, max_retries=2)
        assert len(peer.heads) == 1


class TestHttps:
    """The same client over TLS, trusting the test certificate through
    ``SSL_CERT_FILE`` as it would a system store."""

    def test_reply_decodes_once_the_certificate_is_trusted(self, monkeypatch):
        with raw_server([_OK], tls=True) as peer:
            with pytest.raises(RemoteServiceError, match="CERTIFICATE_VERIFY_FAILED"):
                post_json(peer.url, {}, max_retries=0)
            monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
            assert post_json(peer.url, {}, max_retries=0) == {"ok": True}

    @pytest.mark.parametrize("script", [trickle(_OK, 0.03), [30.0]], ids=["trickle", "silent"])
    def test_deadline_holds_over_tls(self, monkeypatch, script):
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        with raw_server(script, tls=True) as peer:
            start = time.monotonic()
            with pytest.raises(RemoteServiceError, match=r"timed out after 0.3 s$"):
                post_json(peer.url, {}, timeout=0.3, max_retries=0)
            assert time.monotonic() - start < 1.0


class TestReplyCap:
    @pytest.mark.parametrize("framing", ["content-length", "close", "chunked"])
    def test_body_over_the_cap_is_refused(self, monkeypatch, framing):
        monkeypatch.setattr(httpclient, "MAX_REPLY_BYTES", 16)
        at_cap, over = b'{"a": "xxxxxxx"}', b'{"a": "xxxxxxxx"}'
        assert (len(at_cap), len(over)) == (16, 17)

        def script(body):
            if framing == "chunked":
                chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
                return [http_reply(200, chunked, "Transfer-Encoding: chunked", length=False)]
            return [http_reply(200, body, length=framing == "content-length")]

        with raw_server(script(at_cap)) as peer:
            assert post_json(peer.url, {}, max_retries=0) == {"a": "xxxxxxx"}
            peer.script = script(over)
            with pytest.raises(RemoteServiceError, match="over 16 bytes"):
                post_json(peer.url, {}, max_retries=0)


class TestFraming:
    def test_chunked_reply_decodes_and_no_compression_is_asked_for(self):
        body = b'5\r\n{"a":\r\n3\r\n [1\r\n2\r\n]}\r\n0\r\n\r\n'
        with raw_server([http_reply(200, body, "Transfer-Encoding: chunked", length=False)]) as peer:
            assert post_json(peer.url, {"q": 1}) == {"a": [1]}
        head = peer.heads[0].lower()
        assert head.startswith(b"post /v1 http/1.1\r\n")
        assert b"gzip" not in head and b"deflate" not in head

    def test_request_target_keeps_the_query_and_drops_the_fragment(self):
        with raw_server([_OK]) as peer:
            post_json(f"{peer.url}/chat?api-version=2#top", {})
        assert peer.heads[0].startswith(b"POST /v1/chat?api-version=2 HTTP/1.1\r\n")

    def test_reply_ended_by_close_decodes(self):
        with raw_server([b'HTTP/1.0 200 OK\r\n\r\n{"a": 1}']) as peer:
            assert post_json(peer.url, {}) == {"a": 1}

    def test_body_short_of_its_content_length_fails(self):
        with raw_server([b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"a": 1}']) as peer:
            with pytest.raises(RemoteServiceError, match="short of its Content-Length"):
                post_json(peer.url, {}, max_retries=1)
        assert len(peer.heads) == 2

    def test_redirect_is_a_failed_attempt(self):
        with stub_server([(200, {"followed": True})]) as (target, state):
            location = f"Location: {target}/v1"
            with raw_server([http_reply(307, b"", location)]) as peer:
                with pytest.raises(RemoteServiceError, match="HTTP 307"):
                    post_json(peer.url, {}, max_retries=1)
        assert len(peer.heads) == 2
        assert state.calls == []

    @pytest.mark.parametrize("body, failure", [
        (b"[1, 2]", "not a JSON object"),
        (b"{", "bad reply: "),
        (b"[" * 100_000, "bad reply: "),
    ], ids=["array", "cut-json", "deep-nesting"])
    def test_body_that_is_no_json_object_fails(self, body, failure):
        with raw_server([http_reply(200, body)]) as peer:
            with pytest.raises(RemoteServiceError, match=failure):
                post_json(peer.url, {}, max_retries=0)


def test_importing_the_cli_does_not_load_requests():
    probe = "import sys, intentclf.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# fuzzed replies through the CLI

_FUZZ_TIMEOUT = 0.2
_KEYS = st.sampled_from(["vectors", "choices", "message", "content", "texts"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS | st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
_VECTORS = st.lists(st.lists(st.floats(-4, 4), min_size=2, max_size=2), min_size=3, max_size=3).map(
    lambda rows: {"vectors": rows}
)
_COMPLETIONS = st.text(max_size=40).map(lambda text: {"choices": [{"message": {"content": text}}]})


@st.composite
def _replies(draw, shaped):
    """A scripted reply: a random status, body and framing, sometimes trickled."""
    status = draw(st.just(200) | st.integers(200, 599))  # half the replies reach the body checks
    body = draw(st.one_of(
        shaped.map(lambda obj: json.dumps(obj).encode()),
        _JSON.map(lambda obj: json.dumps(obj).encode()),
        st.binary(max_size=64),
    ))
    framing = draw(st.sampled_from(["content-length", "close", "over-length"]))
    if framing == "over-length":
        data = (b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n" % (status, len(body) + 5)) + body
    else:
        data = http_reply(status, body, length=framing == "content-length")
    if draw(st.sampled_from([False] * 4 + [True])):  # one in five, at most: it costs the whole deadline
        return trickle(data, 0.02)
    return [data]


@pytest.fixture(scope="module")
def remote_inputs(tmp_path_factory, small_vocab):
    root = tmp_path_factory.mktemp("remote")
    save_vocabulary(small_vocab, root / "taxonomy.json")
    samples = tuple(TextSample(f"query {i}", frozenset({label})) for i, label in enumerate(small_vocab.labels))
    save_dataset(Dataset(vocabulary=small_vocab, samples=samples), root / "dataset.jsonl")
    (root / "cfg.json").write_text(json.dumps({"provider": {"timeout": _FUZZ_TIMEOUT, "max_retries": 0}}))
    with raw_server() as peer:
        yield root, peer


def _argv(command, root, url):
    if command == "generate":
        return [
            "generate", "--taxonomy", str(root / "taxonomy.json"), "--endpoint", url, "--model-name", "m",
            "--per-class", "1", "--timeout", str(_FUZZ_TIMEOUT), "--max-retries", "0",
            "--out", str(root / "out.jsonl"),
        ]
    return [
        "embed", "--config", str(root / "cfg.json"), "--taxonomy", str(root / "taxonomy.json"),
        "--dataset", str(root / "dataset.jsonl"), "--provider", "http", "--endpoint", url, "--dim", "2",
        "--out", str(root / "out.npy"),
    ]


@pytest.mark.parametrize("command, shaped", [("generate", _COMPLETIONS), ("embed", _VECTORS)], ids=["generate", "embed"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_reply_exits_with_a_documented_code(remote_inputs, command, shaped, data):
    root, peer = remote_inputs
    peer.script = data.draw(_replies(shaped), label="script")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(_argv(command, root, peer.url))
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert len(errors) == (1 if code else 0), err.getvalue()
