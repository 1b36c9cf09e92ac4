"""The intentclf benchmark's workloads: inputs, timed phases and checks.

Every workload does the same two kinds of work through public entry points,
so each run can report every end-to-end metric:

* **pipeline passes**: ``generate -> embed -> train -> eval`` through
  ``intentclf.cli.main`` in this process, repeated on identical inputs.
* **serve blocks**: a ``make_server`` subprocess (``server.py``) answering
  ``POST /classify`` to one client in a closed loop over ``http.client``.

The workloads differ in input size and in the share of the measured time
spent serving; see ``WORKLOADS``. The caller puts the repository's ``src``
directory on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from intentclf import cli, default_taxonomy, offline_generate, save_vocabulary, two_label_combos
from intentclf.service import classification_body
from intentclf.trainer import load_artifact

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The published acceptance setup fixes everything but the data: the model,
# split and embedding seeds stay 42 so that --seed varies only the inputs.
CONFIG_SEED = 42
EMBED_DIM = 256
HOLDOUT_FRACTION = 0.2
ACCEPTANCE_GATES = {"subset_accuracy_min": 0.90, "hamming_loss_max": 0.03, "auc_min": 0.98}

SETUP_REPEATS = 5  # setup is repeated and its median reported
WARMUP_REQUESTS = 20  # per server, checked but not timed
SERVE_BLOCK_S = 0.5  # requests go out in blocks this long
PARITY_EVERY = 50  # every n-th response is compared with classification_body
QUERY_RATE_CAP = 2500  # queries generated per serve second; the loop ends early if they run out


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int
    combos: int
    batch_size: int
    epochs_pretrain: int
    epochs_finetune: int
    serve_share: float  # share of the run's seconds spent timing /classify
    gates: dict  # holdout quality every model of the run must reach


WORKLOADS = {
    w.name: w
    for w in (
        # The published acceptance setup: 496 pairs per batch, so per-step
        # matmuls, SGD and finetune are a visible share of the pipeline.
        Workload(
            name="pipeline-default",
            per_class=40, combos=60, batch_size=32, epochs_pretrain=30, epochs_finetune=50,
            serve_share=0.2, gates=ACCEPTANCE_GATES,
        ),
        # 3,800 samples at batch 128, 8,128 pairs per batch: the O(B^2)
        # Python pair path dominates pretrain.
        Workload(
            name="pretrain-wide-batch",
            per_class=400, combos=600, batch_size=128, epochs_pretrain=2, epochs_finetune=10,
            serve_share=0.2,
            # Two pretrain epochs train a weaker model than the acceptance
            # setup; these floors only catch a broken one.
            gates={"subset_accuracy_min": 0.80, "hamming_loss_max": 0.05, "auc_min": 0.98},
        ),
        # One agent waiting on /classify with queries no training text
        # repeats: single-query embed, one-row forward, JSON and HTTP. The
        # served model is trained in setup.
        Workload(
            name="serve-classify",
            per_class=40, combos=60, batch_size=32, epochs_pretrain=30, epochs_finetune=50,
            serve_share=1.0, gates=ACCEPTANCE_GATES,
        ),
    )
}

# Traced calls in the pipeline process, with the counts taken from results.
PIPELINE_TARGETS = {
    "cli.run_generate": None,
    "cli.run_embed": None,
    "cli.run_train": None,
    "cli.run_eval": None,
    "datagen.offline_generate": lambda ds: {"samples": len(ds)},
    "dataset.save_dataset": None,
    "dataset.load_dataset": None,
    "embedding.embed_texts": lambda vectors: {"texts_embedded": len(vectors)},
    "embedding.save_embeddings": None,
    "embedding.load_embeddings": None,
    "mining.build_pairs": lambda ps: {"pairs_built": len(ps.pairs)},
    "mining.batch_similarity_table": None,
    "mining.mine": lambda m: {"pairs_kept": len(m.pos_final) + len(m.neg_final)},
    "losses.ofc_loss": None,
    "losses.oc_loss": None,
    "losses.cs_loss": None,
    "trainer.pretrain": None,
    "trainer.finetune": None,
    "trainer.score_samples": None,
    "trainer.save_artifact": None,
    "trainer.load_artifact": None,
    "metrics.evaluate": None,
}


# Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    **dict.fromkeys((
        "cli.generate_s", "cli.embed_s", "cli.train_s", "cli.eval_s",
        "datagen.offline_generate_s", "dataset.save_dataset_s", "dataset.load_dataset_s",
        "embedding.embed_texts_s", "embedding.save_embeddings_s", "embedding.load_embeddings_s",
        "mining.build_pairs_s", "mining.batch_similarity_table_s", "mining.mine_s", "losses.loss_s",
        "trainer.pretrain_s", "trainer.pretrain_self_s", "trainer.finetune_s", "trainer.score_samples_s",
        "trainer.save_artifact_s", "trainer.load_artifact_s", "metrics.evaluate_s",
        "trace.pipeline_s_untraced", "trace.pipeline_s_traced",
    ), "s"),
    **dict.fromkeys((
        "embedding.embed_us_per_text", "embedding.classify_embed_us", "trainer.predict_us",
        "service.classification_body_us", "service.http_overhead_us",
    ), "us"),
    **dict.fromkeys(("service.classify_p90_ms", "trace.classify_p50_ms_untraced", "trace.classify_p50_ms_traced"), "ms"),
    "service.classify_rps": "req/s",
    **dict.fromkeys(("datagen.samples", "mining.pairs_built", "mining.pairs_kept",
                     "losses.batches_skipped", "trainer.pretrain_steps"), "count"),
    "mining.kept_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not carry a run to its end."""


# ---------------------------------------------------------------------------
# inputs


def write_inputs(workload: Workload, seed: int, work: Path) -> dict[str, Path]:
    work.mkdir(parents=True, exist_ok=True)
    vocabulary = default_taxonomy()
    paths = {
        name: work / filename
        for name, filename in (
            ("taxonomy", "taxonomy.json"), ("combos", "combos.json"), ("dataset", "dataset.jsonl"),
            ("embeddings", "embeddings.jsonl"), ("model", "model.json"), ("report", "report.json"),
        )
    }
    save_vocabulary(vocabulary, paths["taxonomy"])
    combos = two_label_combos(vocabulary, workload.combos, seed=seed)
    paths["combos"].write_text(json.dumps([sorted(c) for c in combos]), encoding="utf-8")
    return paths


def pipeline_argvs(workload: Workload, seed: int, paths: dict[str, Path]) -> list[list[str]]:
    p = {name: str(path) for name, path in paths.items()}
    split = ["--holdout-fraction", str(HOLDOUT_FRACTION), "--split-seed", str(CONFIG_SEED)]
    provider = ["--provider", "toy", "--dim", str(EMBED_DIM), "--embed-seed", str(CONFIG_SEED)]
    data = ["--taxonomy", p["taxonomy"], "--dataset", p["dataset"]]
    return [
        ["generate", "--taxonomy", p["taxonomy"], "--offline", "--per-class", str(workload.per_class),
         "--combos", p["combos"], "--seed", str(seed), "--out", p["dataset"]],
        ["embed", *data, *provider, "--out", p["embeddings"]],
        ["train", *data, "--embeddings", p["embeddings"], "--out", p["model"], "--seed", str(CONFIG_SEED),
         "--batch-size", str(workload.batch_size), "--epochs-pretrain", str(workload.epochs_pretrain),
         "--epochs-finetune", str(workload.epochs_finetune), *split, *provider],
        ["eval", *data, "--embeddings", p["embeddings"], "--model", p["model"], *split, "--out", p["report"]],
    ]


def query_pool(seed: int, count: int, exclude: set[str]) -> list[str]:
    """``count`` distinct offline queries from a generation seed training did not use."""
    vocabulary = default_taxonomy()
    query_seed = seed + 1
    n_combos = count // 10
    per_class = max(1, math.ceil((count - n_combos) / len(vocabulary)))
    combos = two_label_combos(vocabulary, n_combos, seed=query_seed) if n_combos else []
    dataset = offline_generate(vocabulary, per_class, combos, seed=query_seed)
    texts = [t for t in dict.fromkeys(s.text for s in dataset.samples) if t not in exclude]
    order = np.random.default_rng([query_seed, 7]).permutation(len(texts))
    return [texts[i] for i in order]


# ---------------------------------------------------------------------------
# pipeline phase


@dataclass
class PipelineRun:
    seconds: float
    traced: bool
    model_sha: str
    report: dict
    spans: list


def run_pipeline(argvs: list[list[str]], paths: dict[str, Path], tracer: tracing.Tracer | None) -> PipelineRun:
    """One generate/embed/train/eval pass; a failing command ends the run."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                if cli.main(argv) != 0:
                    raise BenchError(f"intentclf {argv[0]} failed; see stderr")
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.take() if tracer is not None else []
    sha = hashlib.sha256(paths["model"].read_bytes()).hexdigest()
    report = json.loads(paths["report"].read_text(encoding="utf-8"))
    return PipelineRun(elapsed, tracer is not None, sha, report, spans)


# ---------------------------------------------------------------------------
# serve phase


class ServerProcess:
    """``server.py`` in a child process; ``stop`` closes its stdin and waits."""

    def __init__(self, model: Path, spans_path: Path | None = None):
        argv = [sys.executable, str(BENCH_DIR / "server.py"), "--src", str(SRC), "--model", str(model)]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port: int | None = None
        self.returncode: int | None = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("server did not report its port")
        self.port = int(json.loads(line)["port"])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"server /health answered {response.status}")

    def stop(self) -> int:
        if self.returncode is None:
            try:
                self.proc.stdin.close()
                self.returncode = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                self.returncode = -9
            self.proc.stdout.close()
        return self.returncode


def start_server(model: Path, spans_path: Path | None = None) -> ServerProcess:
    server = ServerProcess(model, spans_path)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


def classify_once(port: int, text: str) -> tuple[int, bytes, float]:
    """One request on a fresh connection, timed from send to full body read."""
    payload = json.dumps({"text": text}).encode("utf-8")
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/classify", body=payload, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    return response.status, body, time.perf_counter() - start


class ServeClient:
    """One closed-loop client: a single connection in flight at any time.

    Requests go out in blocks of ``SERVE_BLOCK_S`` seconds. Traced runs pass
    two ports (untraced, traced) and the blocks alternate between them.
    """

    def __init__(self, ports: list[int], queries: list[str]):
        self.ports = ports
        self.queries = iter(queries)
        self.latencies: dict[int, list[float]] = {i: [] for i in range(len(ports))}
        # per server and block: successful requests per second, 90th percentile latency
        self.block_rates: dict[int, list[float]] = {i: [] for i in range(len(ports))}
        self.block_p90s: dict[int, list[float]] = {i: [] for i in range(len(ports))}
        self.blocks = 0
        self.samples: list[tuple[str, bytes]] = []  # for the parity check
        self.seconds = 0.0
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.exhausted = False

    def _send(self, port: int, text: str) -> tuple[bytes, float] | None:
        self.attempted += 1
        try:
            status, body, elapsed = classify_once(port, text)
        except (OSError, http.client.HTTPException):
            status = None
        if status != 200:
            self.failed += 1
            return None
        return body, elapsed

    def warm_up(self) -> None:
        """Requests that are checked but not timed, on every server."""
        for port in self.ports:
            for _ in range(WARMUP_REQUESTS):
                text = next(self.queries, None)
                if text is not None:
                    self._send(port, text)

    def block(self) -> None:
        server = self.blocks % len(self.ports)
        self.blocks += 1
        latencies: list[float] = []
        start = time.perf_counter()
        while time.perf_counter() - start < SERVE_BLOCK_S:
            text = next(self.queries, None)
            if text is None:
                self.exhausted = True
                break
            reply = self._send(self.ports[server], text)
            if reply is None:
                continue
            body, elapsed = reply
            latencies.append(elapsed)
            self.completed += 1
            if self.completed % PARITY_EVERY == 1:
                self.samples.append((text, body))
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self.latencies[server].extend(latencies)
        self.block_rates[server].append(len(latencies) / elapsed)
        self.block_p90s[server].append(float(np.percentile(latencies, 90)) if latencies else math.nan)


# ---------------------------------------------------------------------------
# a run


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def _median(values) -> float:
    return float(statistics.median(values))


def _quality_check(report: dict, gates: dict) -> Check:
    passed = (
        report["subset_accuracy"] >= gates["subset_accuracy_min"]
        and report["hamming_loss"] <= gates["hamming_loss_max"]
        and report["auc"] >= gates["auc_min"]
    )
    detail = (
        f"subset_accuracy {report['subset_accuracy']:.4f} >= {gates['subset_accuracy_min']}, "
        f"hamming_loss {report['hamming_loss']:.4f} <= {gates['hamming_loss_max']}, "
        f"auc {report['auc']:.4f} >= {gates['auc_min']}"
    )
    return Check("holdout_quality_gates", passed, detail)


def _pipeline_layers(spans: list[tracing.Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass."""
    own = tracing.self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    errors: Counter = Counter()
    counts: Counter = Counter()
    for span in spans:
        total[span.name] += span.duration
        self_s[span.name] += own[span.id]
        calls[span.name] += 1
        errors[span.name] += span.error is not None
        counts.update(span.counts)
    loss_names = [name for name in PIPELINE_TARGETS if name.startswith("losses.")]
    loss_calls = sum(calls[n] for n in loss_names)
    skipped = sum(errors[n] for n in loss_names)
    return {
        "cli.generate_s": total["cli.run_generate"],
        "cli.embed_s": total["cli.run_embed"],
        "cli.train_s": total["cli.run_train"],
        "cli.eval_s": total["cli.run_eval"],
        "datagen.offline_generate_s": total["datagen.offline_generate"],
        "datagen.samples": counts["samples"],
        "dataset.save_dataset_s": total["dataset.save_dataset"],
        "dataset.load_dataset_s": total["dataset.load_dataset"],
        "embedding.embed_texts_s": total["embedding.embed_texts"],
        "embedding.embed_us_per_text": 1e6 * total["embedding.embed_texts"] / max(counts["texts_embedded"], 1),
        "embedding.save_embeddings_s": total["embedding.save_embeddings"],
        "embedding.load_embeddings_s": total["embedding.load_embeddings"],
        "mining.build_pairs_s": total["mining.build_pairs"],
        "mining.batch_similarity_table_s": total["mining.batch_similarity_table"],
        "mining.mine_s": total["mining.mine"],
        "mining.pairs_built": counts["pairs_built"],
        "mining.pairs_kept": counts["pairs_kept"],
        "mining.kept_frac": counts["pairs_kept"] / max(counts["pairs_built"], 1),
        "losses.loss_s": sum(total[n] for n in loss_names),
        "losses.batches_skipped": skipped,
        "trainer.pretrain_s": total["trainer.pretrain"],
        "trainer.pretrain_self_s": self_s["trainer.pretrain"],
        "trainer.pretrain_steps": loss_calls - skipped,
        "trainer.finetune_s": total["trainer.finetune"],
        "trainer.score_samples_s": total["trainer.score_samples"],
        "trainer.save_artifact_s": total["trainer.save_artifact"],
        "trainer.load_artifact_s": total["trainer.load_artifact"],
        "metrics.evaluate_s": total["metrics.evaluate"],
    }


def _serve_layers(spans: list[tracing.Span], traced_latencies: list[float]) -> dict[str, float]:
    def median_us(name: str) -> float:
        return 1e6 * _median([s.duration for s in spans if s.name == name])

    body_us = median_us("service.classification_body")
    return {
        "embedding.classify_embed_us": median_us("embedding.embed_texts"),
        "trainer.predict_us": median_us("trainer.predict"),
        "service.classification_body_us": body_us,
        "service.http_overhead_us": 1e6 * _median(traced_latencies) - body_us,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload and return its result, checks and report data.

    Without ``trace`` the metrics are the end-to-end ones. With it they are
    the per-layer ones: pipeline passes alternate untraced and traced, and
    serve blocks alternate between an untraced and a traced server.
    """
    work = out_dir / "work"
    paths = write_inputs(workload, seed, work)
    argvs = pipeline_argvs(workload, seed, paths)
    tracer = tracing.Tracer(PIPELINE_TARGETS, unit_starts=["mining.build_pairs"]) if trace else None
    passes: list[PipelineRun] = []
    setup_times: list[float] = []
    servers: list[ServerProcess] = []
    checks: list[Check] = []

    def pipeline_pass() -> float:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pipeline(argvs, paths, tracer if traced else None))
        return passes[-1].seconds

    # Pipeline passes and serve blocks interleave, so that a slow spell of
    # the machine hits a few of each rather than all of one phase.
    serve_per_train = workload.serve_share / (1.0 - workload.serve_share) if workload.serve_share < 1.0 else math.inf
    server_starts = 0
    train_seconds = 0.0
    try:
        if workload.serve_share < 1.0:
            train_seconds += pipeline_pass()  # trains the model that setup serves
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            if workload.serve_share >= 1.0:
                pipeline_pass()
            server = start_server(paths["model"])
            server_starts += 1
            setup_times.append(time.perf_counter() - start)
            if k < SETUP_REPEATS - 1:
                server.stop()
            else:
                servers.append(server)
        if trace:
            servers.append(start_server(paths["model"], out_dir / "server_spans.json"))
            server_starts += 1

        training_texts = {
            json.loads(line)["text"] for line in paths["dataset"].read_text(encoding="utf-8").splitlines() if line
        }
        queries = query_pool(seed, int(QUERY_RATE_CAP * seconds * workload.serve_share) + WARMUP_REQUESTS * 2,
                             training_texts)
        client = ServeClient([s.port for s in servers], queries)
        client.warm_up()
        started = time.perf_counter()
        while not client.exhausted:
            elapsed = time.perf_counter() - started
            # Two passes to compare model hashes (three when traced, for a warm
            # untraced one); a block on every server.
            enough = len(passes) >= 2 + trace and client.blocks >= len(servers)
            if serve_per_train < math.inf and (len(passes) < 2 or client.seconds >= serve_per_train * train_seconds):
                if enough and elapsed + passes[-1].seconds > seconds:
                    break
                train_seconds += pipeline_pass()
            elif enough and elapsed >= seconds:
                break
            else:
                client.block()
    finally:
        return_codes = [s.stop() for s in servers]

    runs = [r for r in passes if not r.traced]
    traced_runs = [r for r in passes if r.traced]
    shas = {r.model_sha for r in passes}
    checks.append(Check("model_sha256_identical", len(shas) == 1 and len(passes) >= 2,
                        f"{len(passes)} passes, sha256 {sorted(shas)[0][:16]}..."))
    report = passes[0].report
    checks.append(_quality_check(report, workload.gates))
    checks.append(Check("reports_identical", all(r.report == passes[0].report for r in passes),
                        f"{len(passes)} reports"))

    artifact = load_artifact(paths["model"])
    mismatched = sum(classification_body(artifact, text).encode("utf-8") != body for text, body in client.samples)
    checks.append(Check("classify_body_parity", bool(client.samples) and mismatched == 0,
                        f"{len(client.samples)} sampled bodies, {mismatched} differ from classification_body"))
    checks.append(Check("classify_all_200", client.failed == 0, f"{client.attempted} requests, {client.failed} failed"))
    fresh = len(set(queries)) == len(queries) and not training_texts.intersection(queries)
    checks.append(Check("queries_fresh", fresh, f"{len(queries)} queries, none repeated or in the training set"))
    checks.append(Check("servers_exit_0", all(rc == 0 for rc in return_codes), f"return codes {return_codes}"))

    attempted = 4 * len(passes) + server_starts + client.attempted
    failed = client.failed
    info = {
        "pipeline_passes": len(runs),
        "traced_pipeline_passes": len(traced_runs),
        "pipeline_seconds": [round(r.seconds, 4) for r in runs],
        "model_sha256": sorted(shas)[0],
        "holdout_report": report,
        "classify_requests": {i: len(v) for i, v in client.latencies.items()},
        "serve_seconds": round(client.seconds, 3),
        "serve_blocks": client.blocks,
        "query_pool_exhausted": client.exhausted,
        # Tail and throughput of the untraced server: shown, but too much at
        # the mercy of the shared machine to carry a regression bound.
        "classify_p90_ms": 1e3 * float(np.percentile(client.latencies[0], 90)),
        "classify_p99_ms": 1e3 * float(np.percentile(client.latencies[0], 99)),
        "classify_rps": _median(client.block_rates[0]),
    }

    if not trace:
        latencies_ms = 1e3 * np.asarray(client.latencies[0])
        if workload.serve_share >= 1.0:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "pipeline_s": (_median([r.seconds for r in runs]), "s"),
            "holdout_subset_accuracy": (report["subset_accuracy"], "fraction"),
            "holdout_one_minus_hamming": (1.0 - report["hamming_loss"], "fraction"),
            "holdout_micro_auc": (report["auc"], "fraction"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "classify_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        }
        pipeline_spans: list = []
        server_spans: list = []
    else:
        server_spans = tracing.spans_from_json(json.loads((out_dir / "server_spans.json").read_text(encoding="utf-8")))
        pipeline_spans = [s for r in traced_runs for s in r.spans]
        per_pass = [_pipeline_layers(r.spans) for r in traced_runs]
        layers = {name: _median([p[name] for p in per_pass]) for name in per_pass[0]}
        layers.update(_serve_layers(server_spans, client.latencies[1]))
        layers["service.classify_p90_ms"] = info["classify_p90_ms"]
        layers["service.classify_rps"] = info["classify_rps"]
        # The run's first pass is untraced and cold; it stays out of the comparison.
        layers["trace.pipeline_s_untraced"] = _median([r.seconds for r in runs[1:]])
        layers["trace.pipeline_s_traced"] = _median([r.seconds for r in traced_runs])
        layers["trace.classify_p50_ms_untraced"] = 1e3 * _median(client.latencies[0])
        layers["trace.classify_p50_ms_traced"] = 1e3 * _median(client.latencies[1])
        metrics = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}
        expected = set(PIPELINE_TARGETS) - {"losses.oc_loss", "losses.cs_loss"}
        missing = sorted(expected - {s.name for s in pipeline_spans})
        checks.append(Check("trace_spans_recorded", not missing and bool(server_spans),
                            f"{len(pipeline_spans)} pipeline spans, {len(server_spans)} server spans; missing {missing}"))
        (out_dir / "spans.json").write_text(
            json.dumps({"pipeline": tracing.spans_to_json(pipeline_spans), "server": tracing.spans_to_json(server_spans)}),
            encoding="utf-8",
        )

    return {
        "correct": all(c.passed for c in checks) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
        "checks": checks,
        "info": info,
        "pipeline_spans": pipeline_spans,
        "server_spans": server_spans,
    }


# ---------------------------------------------------------------------------
# environment


def environment(blas_threads: str) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
    }
