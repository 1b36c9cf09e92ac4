from __future__ import annotations

import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from intentclf import (
    ProviderConfig,
    ValidationError,
    embed_dataset,
    finetune,
    offline_generate,
    pretrain,
    TrainConfig,
)
from intentclf.cli import main
from intentclf.service import classification_body, health_body, make_server


@pytest.fixture(scope="module")
def artifact(small_vocab):
    dataset = offline_generate(small_vocab, per_class=10, combos=[], seed=6)
    provider = ProviderConfig(kind="toy", dim=64, seed=6)
    embedded = embed_dataset(dataset, provider)
    config = TrainConfig(
        seed=6, epochs_pretrain=4, epochs_finetune=8, batch_size=16,
        d_hidden=32, d_proj=32,
    )
    head, _ = pretrain(embedded, config)
    art, _ = finetune(embedded, small_vocab, head, config, provider)
    return art


@pytest.fixture(scope="module")
def server(artifact):
    srv = make_server(artifact, host="127.0.0.1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


class TestHealth:
    def test_ok_with_model_version(self, server):
        response = requests.get(f"{server}/health", timeout=5)
        assert response.status_code == 200
        assert response.json() == {"status": "ok", "model_version": 1}

    def test_unknown_path_404(self, server):
        assert requests.get(f"{server}/nope", timeout=5).status_code == 404


class TestClassify:
    def test_happy_path(self, server, small_vocab):
        response = requests.post(
            f"{server}/classify", json={"text": "estimated arrival time please"}, timeout=5
        )
        assert response.status_code == 200
        body = response.json()
        assert body["labels"], "labels must never be empty"
        assert list(body["scores"]) == list(small_vocab.labels)
        assert body["model_version"] == 1

    def test_body_matches_renderer_byte_for_byte(self, server, artifact):
        text = "how much fuel was burned yesterday"
        response = requests.post(f"{server}/classify", json={"text": text}, timeout=5)
        assert response.content == classification_body(artifact, text).encode("utf-8")

    def test_empty_text_422(self, server):
        response = requests.post(f"{server}/classify", json={"text": "   "}, timeout=5)
        assert response.status_code == 422

    def test_malformed_json_400(self, server):
        response = requests.post(
            f"{server}/classify",
            data="{not json",
            headers={"Content-Type": "application/json"},
            timeout=5,
        )
        assert response.status_code == 400

    def test_missing_text_400(self, server):
        assert requests.post(f"{server}/classify", json={"q": "x"}, timeout=5).status_code == 400

    def test_non_string_text_400(self, server):
        assert requests.post(f"{server}/classify", json={"text": 7}, timeout=5).status_code == 400

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5", "+3"])
    def test_bad_content_length_400_without_reading_body(self, server, length):
        host, port = server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=3) as sock:
            sock.sendall(
                f"POST /classify HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400", status_line

    def test_unknown_post_path_404(self, server):
        assert requests.post(f"{server}/other", json={"text": "x"}, timeout=5).status_code == 404

    def test_internal_failure_returns_500(self, artifact):
        from dataclasses import replace

        broken = make_server(replace(artifact, provider=None), host="127.0.0.1", port=0)
        thread = threading.Thread(target=broken.serve_forever, daemon=True)
        thread.start()
        try:
            response = requests.post(
                f"http://127.0.0.1:{broken.server_address[1]}/classify",
                json={"text": "anything"},
                timeout=5,
            )
            assert response.status_code == 500
        finally:
            broken.shutdown()
            broken.server_close()
            thread.join(timeout=5)

    def test_concurrent_requests_agree(self, server):
        def call(_):
            return requests.post(
                f"{server}/classify", json={"text": "berthing delay estimate"}, timeout=5
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(call, range(16)))
        assert all(r.status_code == 200 for r in responses)
        assert len({r.content for r in responses}) == 1


class TestRendererContract:
    def test_predict_cli_parity(self, server, artifact, tmp_path, capsys):
        from intentclf import save_artifact

        model_path = tmp_path / "m.json"
        save_artifact(artifact, model_path)
        text = "waiting time at the anchorage for the tanker"
        assert main(["predict", "--model", str(model_path), "--text", text]) == 0
        printed = capsys.readouterr().out
        response = requests.post(f"{server}/classify", json={"text": text}, timeout=5)
        assert printed.rstrip("\n").encode("utf-8") == response.content

    def test_health_body_shape(self, artifact):
        assert json.loads(health_body(artifact)) == {"status": "ok", "model_version": 1}

    def test_artifact_without_provider_is_rejected(self, artifact):
        from dataclasses import replace

        bare = replace(artifact, provider=None)
        with pytest.raises(ValidationError):
            classification_body(bare, "some text")

    def test_empty_text_rejected_by_renderer(self, artifact):
        with pytest.raises(ValidationError):
            classification_body(artifact, "  ")
