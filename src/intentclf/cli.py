"""Command-line entry points for the full pipeline.

Subcommands: ``generate``, ``embed``, ``train``, ``eval``, ``predict``,
``serve``. Every subcommand accepts ``--config cfg.json`` supplying defaults
for its flags (explicit flags win). The ``train``, ``mining``, ``ofc`` and
``provider`` sections hold fields of the matching config dataclass; a flag
whose ``dest`` is ``<section>.<field>`` overrides that field. Exit codes:
0 success, 2 validation, 3 file/I-O, 4 remote service, 130 interrupted
(Ctrl-C), 143 terminated (SIGTERM to ``serve``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from .config import coerce
from .dataset import (
    label_matrix,
    load_dataset,
    load_vocabulary,
    read_json,
    save_dataset,
    split_indices,
)
from .datagen import (
    LLMClientConfig,
    llm_generate,
    offline_generate,
)
from .embedding import (
    ProviderConfig,
    check_embeds_text,
    embed_dataset,
    load_embeddings,
    save_embeddings,
)
from .errors import (
    FileFormatError,
    GenerationError,
    PipelineError,
    RemoteServiceError,
    ValidationError,
)
from .metrics import EvalReport, evaluate, save_report
from .service import classification_body, serve_forever
from .trainer import (
    TrainConfig,
    finetune,
    load_artifact,
    pretrain,
    save_artifact,
    score_samples,
)

_EXIT_OK = 0
_EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
_EXIT_TERMINATED = 143  # 128 + SIGTERM
# first match wins: FileFormatError is a PipelineError but a file problem
_EXIT_CODES = (
    ((RemoteServiceError, GenerationError), 4),
    (FileFormatError, 3),
    (PipelineError, 2),
    (OSError, 3),
)

_TABLE_COLUMNS = (
    ("Accuracy", "subset_accuracy"),
    ("Hamming Loss", "hamming_loss"),
    ("Jaccard", "jaccard"),
    ("F1", "f1"),
    ("Precision", "precision"),
    ("Recall", "recall"),
    ("MCC", "mcc"),
    ("AUC", "auc"),
)


class _Cfg:
    """Optional JSON config file backing flag defaults."""

    def __init__(self, path: str | None):
        self.data: dict = read_json(path, "config") if path else {}

    def section(self, name: str) -> dict:
        return _as_section(self.data.get(name, {}), name)

    def pick(self, cli_value, *keys, default=None, kind=None):
        """The flag if given, else the config value at ``keys``, else ``default``.

        With ``kind`` the value is coerced to it; a value that cannot be is a
        :class:`ValidationError` naming ``keys``, and so is a section on the
        way to it that is not an object, even when the flag is given.
        """
        node = self.data
        for depth in range(1, len(keys)):
            node = _as_section(node.get(keys[depth - 1], {}), ".".join(keys[:depth]))
        value = node.get(keys[-1], default) if cli_value is None else cli_value
        return value if kind is None else coerce(value, kind, ".".join(keys))

    def path(self, cli_value, *keys) -> str | None:
        """The flag if given, else the config string at ``keys``, else None."""
        value = self.pick(cli_value, *keys)
        return None if value is None else coerce(value, str, ".".join(keys))


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread as Ctrl-C raises KeyboardInterrupt."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _require(value, what: str):
    if value is None:
        raise ValidationError(f"missing required value: {what}")
    return value


def _load_combos(path: str | None) -> list[frozenset[str]]:
    if not path:
        return []
    obj = read_json(path, "combos file", list)
    if not all(isinstance(c, list) and all(isinstance(label, str) for label in c) for c in obj):
        raise FileFormatError("combos file must be a JSON array of label-string arrays", path=path)
    return [frozenset(c) for c in obj]


def _as_section(node, name: str) -> dict:
    if not isinstance(node, dict):
        raise ValidationError(f"config section {name!r} must be a JSON object")
    return node


def _layered(args, cfg: _Cfg, name: str) -> dict:
    """Config section ``name`` with explicit ``name.<field>`` flags laid over it."""
    merged = dict(cfg.section(name))
    prefix = name + "."
    for dest, value in vars(args).items():
        if dest.startswith(prefix) and value is not None:
            merged[dest[len(prefix):]] = value
    return merged


def _train_config(args, cfg: _Cfg) -> TrainConfig:
    train = _layered(args, cfg, "train")
    # train may nest mining/ofc, as the artifact's config snapshot does;
    # the top-level sections win key by key
    for name in ("mining", "ofc"):
        nested = _as_section(train.get(name, {}), f"train.{name}")
        train[name] = {**nested, **_layered(args, cfg, name)}
    return TrainConfig.from_json(train)


# ---------------------------------------------------------------------------
# subcommands


def run_generate(args) -> int:
    cfg = _Cfg(args.config)
    taxonomy_path = _require(cfg.path(args.taxonomy, "taxonomy"), "--taxonomy")
    out_path = _require(cfg.path(args.out, "dataset"), "--out")
    per_class = cfg.pick(args.per_class, "generate", "per_class", default=40, kind=int)
    seed = cfg.pick(args.seed, "generate", "seed", default=0, kind=int)
    offline = cfg.pick(args.offline or None, "generate", "offline", default=False, kind=bool)
    vocabulary = load_vocabulary(taxonomy_path)
    combos = _load_combos(cfg.path(args.combos, "generate", "combos"))
    if offline:
        dataset = offline_generate(vocabulary, per_class, combos, seed)
    else:
        llm = _layered(args, cfg, "llm")
        _require(llm.get("endpoint_url"), "--endpoint")
        _require(llm.get("model_name"), "--model-name")
        client = LLMClientConfig.from_json(llm)
        dataset = llm_generate(vocabulary, per_class, combos, client, seed)
    save_dataset(dataset, out_path)
    for label in vocabulary.labels:
        count = sum(1 for s in dataset.samples if label in s.labels)
        print(f"{label}: {count}")
    print(f"total: {len(dataset)} samples -> {out_path}")
    return _EXIT_OK


def run_embed(args) -> int:
    cfg = _Cfg(args.config)
    out_path = _require(cfg.path(args.out, "embeddings"), "--out")
    _, dataset = _load_dataset(cfg, args)
    provider = ProviderConfig.from_json(_layered(args, cfg, "provider"))
    x = embed_dataset(dataset, provider)
    save_embeddings(x, out_path)
    print(f"embedded {len(x)} samples at dim {provider.dim} -> {out_path}")
    return _EXIT_OK


def _load_dataset(cfg: _Cfg, args):
    taxonomy_path = _require(cfg.path(args.taxonomy, "taxonomy"), "--taxonomy")
    dataset_path = _require(cfg.path(args.dataset, "dataset"), "--dataset")
    vocabulary = load_vocabulary(taxonomy_path)
    return vocabulary, load_dataset(dataset_path, vocabulary)


def _load_embedded(cfg: _Cfg, args):
    embeddings_path = _require(cfg.path(args.embeddings, "embeddings"), "--embeddings")
    vocabulary, dataset = _load_dataset(cfg, args)
    return vocabulary, load_embeddings(embeddings_path, dataset), label_matrix(dataset)


def _split(args, cfg: _Cfg, n: int) -> tuple[list[int], list[int]]:
    fraction = cfg.pick(args.holdout_fraction, "split", "holdout_fraction", default=0.2, kind=float)
    seed = cfg.pick(args.split_seed, "split", "seed", default=0, kind=int)
    return split_indices(n, fraction, seed)


def run_train(args) -> int:
    cfg = _Cfg(args.config)
    vocabulary, x, y = _load_embedded(cfg, args)
    out_path = _require(cfg.path(args.out, "model"), "--out")
    loss_log = cfg.path(args.loss_log, "loss_log")
    train_idx, _ = _split(args, cfg, len(x))
    x, y = x[train_idx], y[train_idx]

    config = _train_config(args, cfg)
    provider = ProviderConfig.from_json(_layered(args, cfg, "provider"))
    if provider.kind != "file" and provider.dim != x.shape[1]:
        raise ValidationError(
            f"provider dim {provider.dim} does not match embedding file dim {x.shape[1]}"
        )

    head, pretrain_losses = pretrain(x, y, config)
    for epoch, value in enumerate(pretrain_losses):
        print(f"pretrain epoch {epoch}: loss {value:.6f}")
    artifact, finetune_losses = finetune(x, y, vocabulary, head, config, provider)
    for epoch, value in enumerate(finetune_losses):
        print(f"finetune epoch {epoch}: loss {value:.6f}")
    save_artifact(artifact, out_path)
    if loss_log:
        Path(loss_log).write_text(
            json.dumps({"pretrain": pretrain_losses, "finetune": finetune_losses}, indent=2)
            + "\n",
            encoding="utf-8",
        )
    print(f"model -> {out_path}")
    return _EXIT_OK


def run_eval(args) -> int:
    cfg = _Cfg(args.config)
    vocabulary, x, y = _load_embedded(cfg, args)
    model_path = _require(cfg.path(args.model, "model"), "--model")
    out_path = _require(cfg.path(args.out, "report"), "--out")
    artifact = load_artifact(model_path)
    if artifact.vocabulary.labels != vocabulary.labels:
        raise ValidationError("model vocabulary does not match the taxonomy file")
    _, holdout_idx = _split(args, cfg, len(x))
    scores = score_samples(x[holdout_idx], artifact)
    report = evaluate(scores, artifact.decision_threshold, y[holdout_idx])
    save_report(report, out_path)
    _print_report_table(report)
    print(f"report -> {out_path}")
    return _EXIT_OK


def _print_report_table(report: EvalReport) -> None:
    print(" | ".join(name for name, _ in _TABLE_COLUMNS))
    print(" | ".join(_table_cell(getattr(report, attr)) for _, attr in _TABLE_COLUMNS))


def _table_cell(value: float | None) -> str:
    return "undefined (holdout has one class)" if value is None else f"{value * 100:.2f}"


def run_predict(args) -> int:
    artifact = load_artifact(args.model)
    print(classification_body(artifact, args.text))
    return _EXIT_OK


def run_serve(args) -> int:
    artifact = load_artifact(args.model)
    # refuse before binding: such a model would answer 500 to every request
    check_embeds_text(artifact.provider)
    # SIGTERM, as process managers send it, drains the pool like Ctrl-C
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        serve_forever(artifact, args.host, args.port)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file supplying flag defaults")


def _add_provider(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--provider", dest="provider.kind", choices=["toy", "http", "file"])
    sub.add_argument("--dim", dest="provider.dim", type=int)
    sub.add_argument("--embed-seed", dest="provider.seed", type=int)
    sub.add_argument("--endpoint", dest="provider.endpoint")
    sub.add_argument("--path", dest="provider.path", help="precomputed vectors (file provider)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intentclf", description="Multi-label intent classification pipeline"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("generate", help="synthesize a labelled dataset")
    _add_common(p)
    p.add_argument("--taxonomy")
    p.add_argument("--out")
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--offline", action="store_true", help="use the deterministic offline generator")
    p.add_argument("--combos", help="JSON file: array of label arrays")
    p.add_argument("--endpoint", dest="llm.endpoint_url", help="chat-completion endpoint URL")
    p.add_argument("--model-name", dest="llm.model_name")
    p.add_argument("--auth-token-env", dest="llm.auth_token_env")
    p.add_argument("--timeout", dest="llm.timeout", type=float)
    p.add_argument("--max-retries", dest="llm.max_retries", type=int)
    p.add_argument("--temperature", dest="llm.temperature", type=float)
    p.set_defaults(handler=run_generate)

    p = subparsers.add_parser("embed", help="embed a dataset into vectors")
    _add_common(p)
    p.add_argument("--taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--out")
    _add_provider(p)
    p.set_defaults(handler=run_embed)

    p = subparsers.add_parser("train", help="pretrain and fine-tune a model")
    _add_common(p)
    p.add_argument("--taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--embeddings")
    p.add_argument("--out")
    p.add_argument("--loss", dest="train.loss_kind", choices=["ofc", "oc", "cs"])
    p.add_argument("--seed", dest="train.seed", type=int)
    p.add_argument("--epochs-pretrain", dest="train.epochs_pretrain", type=int)
    p.add_argument("--epochs-finetune", dest="train.epochs_finetune", type=int)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--lr-pretrain", dest="train.lr_pretrain", type=float)
    p.add_argument("--lr-finetune", dest="train.lr_finetune", type=float)
    p.add_argument("--momentum", dest="train.momentum", type=float)
    p.add_argument("--decision-threshold", dest="train.decision_threshold", type=float)
    p.add_argument("--d-hidden", dest="train.d_hidden", type=int)
    p.add_argument("--d-proj", dest="train.d_proj", type=int)
    p.add_argument("--mining-p", dest="mining.p", type=float)
    p.add_argument("--mining-mode", dest="mining.mode", choices=["literal", "standard"])
    p.add_argument("--positive-rule", dest="mining.positive_rule", choices=["exact", "overlap"])
    p.add_argument("--alpha", dest="ofc.alpha", type=float)
    p.add_argument("--gamma", dest="ofc.gamma", type=float)
    p.add_argument("--margin", dest="ofc.margin", type=float)
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    _add_provider(p)
    p.add_argument("--loss-log", dest="loss_log")
    p.set_defaults(handler=run_train)

    p = subparsers.add_parser("eval", help="score the holdout and write a report")
    _add_common(p)
    p.add_argument("--taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--out")
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.set_defaults(handler=run_eval)

    p = subparsers.add_parser("predict", help="classify one text on stdout")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(handler=run_predict)

    p = subparsers.add_parser("serve", help="run the HTTP classify service")
    p.add_argument("--model", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(handler=run_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:  # serve has joined its workers by now
        return _EXIT_INTERRUPTED
    except _Terminated:  # likewise
        return _EXIT_TERMINATED
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
