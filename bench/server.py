"""Serve one model artifact on an ephemeral port for the benchmark.

    python3 bench/server.py --src src --model model.json [--spans spans.json]

Loads the artifact with ``load_artifact``, binds ``make_server`` to
127.0.0.1 on a free port, prints one JSON line ``{"port": N}`` and serves
until its standard input reaches end of file. With ``--spans`` the calls into
the service, embedding and trainer modules are traced and the spans are
written to that file after the server has shut down.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

SERVE_TARGETS = (
    "service.classification_body",
    "embedding.embed_texts",
    "trainer.predict",
    "trainer.load_artifact",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the intentclf package")
    parser.add_argument("--model", required=True)
    parser.add_argument("--spans", help="trace the service and write its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from intentclf import service, trainer

    import tracing

    tracer = None
    if args.spans:
        tracer = tracing.Tracer(dict.fromkeys(SERVE_TARGETS), unit_starts=["service.classification_body"])
        tracer.install()
    artifact = trainer.load_artifact(args.model)
    server = service.make_server(artifact, "127.0.0.1", 0)
    # A short poll interval only makes shutdown prompt; requests wake the
    # loop as they arrive either way.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, name="serve", daemon=True)
    thread.start()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    if tracer is not None:
        tracer.uninstall()
        Path(args.spans).write_text(json.dumps(tracing.spans_to_json(tracer.take())), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
