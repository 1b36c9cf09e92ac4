"""Command-line entry points for the full pipeline.

Subcommands: ``generate``, ``embed``, ``train``, ``eval``, ``predict``,
``serve``. ``generate``, ``embed``, ``train`` and ``eval`` accept
``--config cfg.json``, a JSON object of settings: a flag's ``dest`` is the
key it sets (``taxonomy``, ``generate.per_class``, ``train.mining.p``),
a given flag wins over the file and the file over the defaults. The
``train``, ``provider`` and ``llm`` sections hold fields of the matching
config dataclass, ``train.mining`` and ``train.ofc`` included, so a model's
``config`` snapshot is a config file. Exit codes:
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
    LabelVocabulary,
    load_dataset,
    load_vocabulary,
    read_json,
    save_dataset,
    split_indices,
)
from .datagen import LLMClientConfig, llm_generate, offline_generate
from .embedding import (
    _PROVIDER_KINDS,
    ProviderConfig,
    check_embeds_text,
    check_provider_width,
    check_toy_reproduces,
    embed_texts,
    load_embeddings,
    save_embeddings,
)
from .errors import FileFormatError, PipelineError, RemoteServiceError, ValidationError
from .metrics import EvalReport, evaluate, save_report
from .mining import _MODES, _POSITIVE_RULES
from .service import classification_body, serve_forever
from .trainer import (
    _LOSS_KINDS,
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
# one code per error class; an OSError is a file problem
_EXIT_CODES = (
    (ValidationError, 2),
    (FileFormatError, 3),
    (RemoteServiceError, 4),
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


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread as Ctrl-C raises KeyboardInterrupt."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _settings(args) -> dict:
    """The ``--config`` object with each given flag set at its ``dest`` key.

    A ``dest`` is a top-level key (``taxonomy``) or a dotted path through
    sections (``train.lr_pretrain``, ``train.mining.p``); each section must
    be a JSON object. Mining and focal settings live under ``train`` only.
    """
    tree = read_json(args.config, "config") if args.config else {}
    for moved in ("mining", "ofc"):
        if moved in tree:
            raise ValidationError(f"config section {moved!r} belongs under train: write it as 'train.{moved}'")
    for key, value in vars(args).items():
        if value is None or key in ("command", "handler", "config"):
            continue
        section, _, name = key.rpartition(".")
        node = tree
        if section:
            _get(tree, section, dict, {})  # refuses a section on the way that is not an object
            for part in section.split("."):
                node = node.setdefault(part, {})
        node[name] = value
    return tree


def _get(tree: dict, key: str, kind: type, default=None, required: str | None = None):
    """The value at dotted ``key`` of ``tree``, or ``default`` where it is absent.

    Each section on the way, and the value itself when ``kind`` is ``dict``,
    must be a JSON object. Any other value is coerced to ``kind``, except a
    None where ``default`` is None: that is returned, or refused naming the
    ``required`` flag.
    """
    parts = key.split(".")
    value = tree
    for depth, part in enumerate(parts, 1):
        value = value.get(part, default if depth == len(parts) else {})
        if (depth < len(parts) or kind is dict) and not isinstance(value, dict):
            raise ValidationError(f"config section {'.'.join(parts[:depth])!r} must be a JSON object")
    if value is None and default is None:
        if required:
            raise ValidationError(f"missing required value: {required}")
        return None
    return value if kind is dict else coerce(value, kind, key)


def _load_combos(path: str | None, vocabulary: LabelVocabulary) -> list[frozenset[str]]:
    """The combos file's label sets, each non-empty and made of ``vocabulary`` labels."""
    if not path:
        return []
    obj = read_json(path, "combos file", list)
    if not all(isinstance(c, list) and c and all(isinstance(label, str) for label in c) for c in obj):
        raise FileFormatError("combos file must be a JSON array of non-empty label-string arrays", path=path)
    for index, combo in enumerate(obj):
        try:
            vocabulary.columns(combo)
        except ValidationError as exc:
            raise ValidationError(f"combo {index}: {exc} [{path}]") from None
    return [frozenset(c) for c in obj]


# ---------------------------------------------------------------------------
# subcommands


def run_generate(args) -> int:
    s = _settings(args)
    taxonomy_path = _get(s, "taxonomy", str, required="--taxonomy")
    out_path = _get(s, "dataset", str, required="--out")
    per_class = _get(s, "generate.per_class", int, 40)
    seed = _get(s, "generate.seed", int, 0)
    offline = _get(s, "generate.offline", bool, False)
    vocabulary = load_vocabulary(taxonomy_path)
    combos = _load_combos(_get(s, "generate.combos", str), vocabulary)
    if offline:
        dataset = offline_generate(vocabulary, per_class, combos, seed)
    else:  # LLMClientConfig has no default for these two
        _get(s, "llm.endpoint_url", str, required="--endpoint")
        _get(s, "llm.model_name", str, required="--model-name")
        client = LLMClientConfig.from_json(_get(s, "llm", dict, {}))
        dataset = llm_generate(vocabulary, per_class, combos, client, seed)
    save_dataset(dataset, out_path)
    for label, count in zip(vocabulary.labels, dataset.labels.sum(axis=0).tolist()):
        print(f"{label}: {count}")
    print(f"total: {len(dataset)} samples -> {out_path}")
    return _EXIT_OK


def run_embed(args) -> int:
    s = _settings(args)
    out_path = _get(s, "embeddings", str, required="--out")
    _, dataset = _load_dataset(s)
    provider = ProviderConfig.from_json(_get(s, "provider", dict, {}))
    x = embed_texts(dataset.texts, provider)
    save_embeddings(x, out_path)
    print(f"embedded {len(x)} samples at dim {x.shape[1]} -> {out_path}")
    return _EXIT_OK


def _load_dataset(s: dict):
    taxonomy_path = _get(s, "taxonomy", str, required="--taxonomy")
    dataset_path = _get(s, "dataset", str, required="--dataset")
    vocabulary = load_vocabulary(taxonomy_path)
    return vocabulary, load_dataset(dataset_path, vocabulary)


def _load_embedded(s: dict):
    embeddings_path = _get(s, "embeddings", str, required="--embeddings")
    vocabulary, dataset = _load_dataset(s)
    return vocabulary, load_embeddings(embeddings_path, dataset), dataset


def _split(s: dict, n: int) -> tuple[list[int], list[int]]:
    return split_indices(n, _get(s, "split.holdout_fraction", float, 0.2), _get(s, "split.seed", int, 0))


def run_train(args) -> int:
    s = _settings(args)
    vocabulary, x, dataset = _load_embedded(s)
    out_path = _get(s, "model", str, required="--out")
    loss_log = _get(s, "loss_log", str)
    train_idx, _ = _split(s, len(x))
    x, y = x[train_idx], dataset.labels[train_idx]

    config = TrainConfig.from_json(_get(s, "train", dict, {}))
    provider = ProviderConfig.from_json(_get(s, "provider", dict, {}))
    check_provider_width(provider, x.shape[1])
    # serving embeds queries with this provider, so it must re-embed the first training row as the file has it
    check_toy_reproduces(provider, [dataset.texts[i] for i in train_idx[:1]], x[:1], _get(s, "embeddings", str))

    head, pretrain_losses = pretrain(x, y, config)
    for epoch, value in enumerate(pretrain_losses):
        print(f"pretrain epoch {epoch}: loss {value:.6f}")
    artifact, finetune_losses = finetune(x, y, vocabulary, head, config, provider)
    for epoch, value in enumerate(finetune_losses):
        print(f"finetune epoch {epoch}: loss {value:.6f}")
    save_artifact(artifact, out_path)
    if loss_log:
        log = {"pretrain": pretrain_losses, "finetune": finetune_losses}
        Path(loss_log).write_text(json.dumps(log, indent=2) + "\n", encoding="utf-8")
    print(f"model -> {out_path}")
    return _EXIT_OK


def run_eval(args) -> int:
    s = _settings(args)
    vocabulary, x, dataset = _load_embedded(s)
    model_path = _get(s, "model", str, required="--model")
    out_path = _get(s, "report", str, required="--out")
    artifact = load_artifact(model_path)
    if artifact.vocabulary.labels != vocabulary.labels:
        raise ValidationError("model vocabulary does not match the taxonomy file")
    _, holdout_idx = _split(s, len(x))
    scores = score_samples(x[holdout_idx], artifact)
    report = evaluate(scores, artifact.decision_threshold, dataset.labels[holdout_idx])
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
    if not 0 <= args.port <= 65535:
        raise ValidationError(f"--port must be in 0-65535, got {args.port}")
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


def _add_config(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON settings file; a flag's key is its metavar in lower case")


def _add_provider(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--provider", dest="provider.kind", choices=_PROVIDER_KINDS)
    sub.add_argument("--dim", dest="provider.dim", type=int)
    sub.add_argument("--embed-seed", dest="provider.seed", type=int)
    sub.add_argument("--endpoint", dest="provider.endpoint")


def _add_split(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--holdout-fraction", dest="split.holdout_fraction", type=float)
    sub.add_argument("--split-seed", dest="split.seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; a settings flag's ``dest`` is the ``--config`` key it sets."""
    parser = argparse.ArgumentParser(
        prog="intentclf", description="Multi-label intent classification pipeline"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("generate", help="synthesize a labelled dataset")
    _add_config(p)
    p.add_argument("--taxonomy")
    p.add_argument("--out", dest="dataset")
    p.add_argument("--per-class", dest="generate.per_class", type=int)
    p.add_argument("--seed", dest="generate.seed", type=int)
    p.add_argument("--offline", dest="generate.offline", action="store_const", const=True,
                   help="use the deterministic offline generator")
    p.add_argument("--combos", dest="generate.combos", help="JSON file: array of label arrays")
    p.add_argument("--endpoint", dest="llm.endpoint_url", help="chat-completion endpoint URL")
    p.add_argument("--model-name", dest="llm.model_name")
    p.add_argument("--auth-token-env", dest="llm.auth_token_env")
    p.add_argument("--timeout", dest="llm.timeout", type=float)
    p.add_argument("--max-retries", dest="llm.max_retries", type=int)
    p.add_argument("--temperature", dest="llm.temperature", type=float)
    p.set_defaults(handler=run_generate)

    p = subparsers.add_parser("embed", help="embed a dataset into vectors")
    _add_config(p)
    p.add_argument("--taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--out", dest="embeddings")
    _add_provider(p)
    p.set_defaults(handler=run_embed)

    p = subparsers.add_parser("train", help="pretrain and fine-tune a model")
    _add_config(p)
    p.add_argument("--taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--embeddings")
    p.add_argument("--out", dest="model")
    p.add_argument("--loss", dest="train.loss_kind", choices=_LOSS_KINDS)
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
    p.add_argument("--mining-p", dest="train.mining.p", type=float)
    p.add_argument("--mining-mode", dest="train.mining.mode", choices=_MODES)
    p.add_argument("--positive-rule", dest="train.mining.positive_rule", choices=_POSITIVE_RULES)
    p.add_argument("--alpha", dest="train.ofc.alpha", type=float)
    p.add_argument("--gamma", dest="train.ofc.gamma", type=float)
    p.add_argument("--margin", dest="train.ofc.margin", type=float)
    _add_split(p)
    _add_provider(p)
    p.add_argument("--loss-log", dest="loss_log")
    p.set_defaults(handler=run_train)

    p = subparsers.add_parser("eval", help="score the holdout and write a report")
    _add_config(p)
    p.add_argument("--taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--out", dest="report")
    _add_split(p)
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
