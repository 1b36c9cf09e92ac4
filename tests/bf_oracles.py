"""Independent brute-force reference implementations used as test oracles.

Everything here is written against the documented behavior, in a different
style from the package (pure-python sets/loops, integer-search ceilings), so
the two sides do not share arithmetic shortcuts. The oracles speak tuple
lists; ``pair_sims`` and ``entries`` convert at the package's array boundary,
where a batch is one similarity vector in pair order and mining names pairs
by their index into it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from intentclf.errors import FileFormatError, ValidationError


# ---------------------------------------------------------------------------
# hard-pair mining


def ceil_pct(p: float, k: int) -> int:
    """Smallest integer c with c >= p*k/100, by integer search."""
    c = 0
    while c * 100 < p * k:
        c += 1
    return c


def mine_bruteforce(d_pos, d_neg, p: float, mode: str) -> dict:
    """Materialize every intermediate set of the mining pipeline explicitly."""
    pos = [(int(i), float(s)) for i, s in d_pos]
    neg = [(int(i), float(s)) for i, s in d_neg]
    if mode == "literal":
        t_neg = min((s for _, s in neg), default=None)
        t_pos = max((s for _, s in pos), default=None)
        hard_pos = [] if t_neg is None else [(i, s) for i, s in pos if s > t_neg]
        hard_neg = [] if t_pos is None else [(i, s) for i, s in neg if s < t_pos]
    elif mode == "standard":
        t_neg = max((s for _, s in neg), default=None)
        t_pos = min((s for _, s in pos), default=None)
        hard_pos = [] if t_neg is None else [(i, s) for i, s in pos if s < t_neg]
        hard_neg = [] if t_pos is None else [(i, s) for i, s in neg if s > t_pos]
    else:
        raise ValueError(mode)
    hp = {i for i, _ in hard_pos}
    hn = {i for i, _ in hard_neg}
    refined_pos = sorted((e for e in pos if e[0] not in hp), key=lambda e: (-e[1], e[0]))
    refined_neg = sorted((e for e in neg if e[0] not in hn), key=lambda e: (e[1], e[0]))
    top_pos = refined_pos[: ceil_pct(p, len(refined_pos))]
    top_neg = refined_neg[: ceil_pct(p, len(refined_neg))]
    return {
        "t_neg": t_neg,
        "t_pos": t_pos,
        "h_pos": hard_pos,
        "h_neg": hard_neg,
        "o_pos": refined_pos,
        "o_neg": refined_neg,
        "pos_final": top_pos + hard_pos,
        "neg_final": top_neg + hard_neg,
        "counts": (
            len(hard_pos),
            len(hard_neg),
            len(refined_pos),
            len(refined_neg),
            len(top_pos),
            len(top_neg),
        ),
    }


def random_similarity_batch(rng: np.random.Generator):
    """A random batch: labels, all pairs with polarity, and pair similarities.

    Half the batches get quantized similarities to exercise tie-breaking.
    """
    n = int(rng.integers(2, 13))
    label_pool = ["a", "b", "c", "d"]
    labels = [
        frozenset(rng.choice(label_pool, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(n)
    ]
    vectors = rng.normal(size=(n, 6))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    quantize = bool(rng.integers(0, 2))
    d_pos, d_neg, index = [], [], 0
    rule = "exact" if rng.integers(0, 2) else "overlap"
    for i in range(n):
        for j in range(i + 1, n):
            sim = float(np.dot(vectors[i], vectors[j]))
            if quantize:
                sim = round(sim, 1)
            if rule == "exact":
                positive = labels[i] == labels[j]
            else:
                positive = bool(labels[i] & labels[j])
            (d_pos if positive else d_neg).append((index, sim))
            index += 1
    return labels, rule, d_pos, d_neg


def pair_sims(d_pos, d_neg=()) -> tuple[np.ndarray, np.ndarray]:
    """Tuple lists [(pair_index, sim), ...] per polarity -> the package's (sims, positive).

    Pair indices the lists leave out get similarity 0 and negative polarity.
    """
    size = 1 + max((i for i, _ in [*d_pos, *d_neg]), default=-1)
    sims = np.zeros(size)
    positive = np.zeros(size, dtype=bool)
    for i, s in d_pos:
        sims[i], positive[i] = s, True
    for i, s in d_neg:
        sims[i] = s
    return sims, positive


def entries(index: np.ndarray, sims: np.ndarray) -> list:
    """The package's pair indices -> tuple list [(pair_index, sim), ...]."""
    assert index.dtype.kind == "i", index.dtype
    return list(zip(index.tolist(), sims[index].tolist()))


# ---------------------------------------------------------------------------
# pair building and the gradient scatter, as the original per-pair loops


def multi_hot(label_sets) -> np.ndarray:
    """Label sets as multi-hot rows over the sorted union of their labels."""
    columns = sorted(set().union(*label_sets))
    rows = [[float(c in s) for c in columns] for s in label_sets]
    return np.array(rows).reshape(len(label_sets), len(columns))


def build_pairs_loop(labels, rule: str) -> list:
    """All unordered pairs (a, b, positive) with a < b, in lexicographic order."""
    pairs = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if rule == "exact":
                positive = labels[i] == labels[j]
            else:
                positive = bool(labels[i] & labels[j])
            pairs.append((i, j, positive))
    return pairs


def sim_grads_to_z_loop(grads, pairs, z: np.ndarray) -> np.ndarray:
    """Chain [(pair_index, dL/ds), ...] through s = z_a . z_b, one pair at a time."""
    d_z = np.zeros_like(z)
    for pair_index, g in grads:
        a, b = pairs[pair_index][:2]
        d_z[a] += g * z[b]
        d_z[b] += g * z[a]
    return d_z


# ---------------------------------------------------------------------------
# label encoding, one sample at a time


def checked_members(labels, vocabulary) -> frozenset:
    """``labels`` as a set, after checking that each is a vocabulary label."""
    labels = tuple(labels)
    if not all(isinstance(label, str) for label in labels):
        raise ValidationError(f"labels must be strings, got {list(labels)!r}")
    unknown = frozenset(labels) - set(vocabulary.labels)
    if unknown:
        raise ValidationError(f"unknown label(s) {sorted(unknown)!r}")
    return frozenset(labels)


def encode_labels(labels, vocabulary) -> np.ndarray:
    """Multi-hot encode a label subset as a float vector of length ``len(vocabulary)``.

    Position ``i`` is 1.0 iff vocabulary label ``i`` is a member.
    """
    members = checked_members(labels, vocabulary)
    return np.array([float(label in members) for label in vocabulary.labels])


# ---------------------------------------------------------------------------
# the dataset reader, one checked sample object per line


@dataclass(frozen=True)
class CheckedSample:
    """A query and its non-empty label subset, checked on construction."""

    text: str
    labels: frozenset

    def __post_init__(self):
        if not self.text.strip():
            raise ValidationError("sample text is empty")
        try:
            self.text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValidationError(f"sample text is not valid UTF-8 at index {exc.start}") from None
        if not self.labels:
            raise ValidationError("sample needs at least one label")


def load_dataset_per_record(path, vocabulary) -> tuple[list[str], np.ndarray]:
    """The texts and float multi-hot label matrix of a JSON Lines dataset.

    Each non-blank line becomes one :class:`CheckedSample`, and the matrix
    stacks :func:`encode_labels` of each. The first bad line stops the read:
    a line that is not a JSON object with ``text`` and ``labels`` is a
    :class:`FileFormatError` whose ``line`` is that line, a file that is not
    UTF-8 a :class:`FileFormatError` with no line, and a bad value a
    :class:`ValidationError` whose message starts ``line N: ``.
    """
    samples = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise FileFormatError("malformed JSON record", path=str(path), line=lineno) from exc
                if not isinstance(record, dict) or "text" not in record or "labels" not in record:
                    raise FileFormatError("record is not an object with text and labels", path=str(path), line=lineno)
                text, labels = record["text"], record["labels"]
                if not isinstance(text, str) or not text.strip():
                    raise ValidationError(f"line {lineno}: empty text")
                if not isinstance(labels, list) or not labels:
                    raise ValidationError(f"line {lineno}: 'labels' must be a non-empty array")
                try:
                    samples.append(CheckedSample(text, checked_members(labels, vocabulary)))
                except ValidationError as exc:
                    raise ValidationError(f"line {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise FileFormatError("file is not UTF-8 text", path=str(path)) from exc
    y = np.array([encode_labels(sample.labels, vocabulary) for sample in samples])
    return [sample.text for sample in samples], y.reshape(len(samples), len(vocabulary))


# ---------------------------------------------------------------------------
# the toy embedder, as the original per-item loop


def toy_acc_loop(text: str, dim: int, seed: int) -> np.ndarray:
    """Signed-hash trigram counts, one keyed BLAKE2b call and one add per trigram."""
    padded = "\x02" + text + "\x03"
    while len(padded) < 3:
        padded += "\x03"
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    acc = np.zeros(dim, dtype=np.float64)
    for i in range(len(padded) - 2):
        digest = hashlib.blake2b(padded[i : i + 3].encode("utf-8"), key=key, digest_size=9).digest()
        acc[int.from_bytes(digest[:8], "little") % dim] += 1.0 if digest[8] & 1 else -1.0
    return acc


def toy_embed_loop(text: str, dim: int, seed: int) -> np.ndarray:
    """The toy provider's row for ``text``, the all-cancelled fallback hashed from the whole text."""
    acc = toy_acc_loop(text, dim, seed)
    if not acc.any():
        key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        whole = ("\x02" + text + "\x03").encode("utf-8")
        digest = hashlib.blake2b(whole, key=key, digest_size=9).digest()
        acc[int.from_bytes(digest[:8], "little") % dim] = 1.0 if digest[8] & 1 else -1.0
    return acc / float(np.linalg.norm(acc))


# ---------------------------------------------------------------------------
# metrics


def threshold_bf(scores, threshold: float) -> list[list[bool]]:
    """Cells above ``threshold``; a row with none takes its first maximum."""
    pred = []
    for row in scores:
        hits = [float(v) > threshold for v in row]
        if not any(hits):
            best = max(range(len(row)), key=lambda c: (float(row[c]), -c))
            hits[best] = True
        pred.append(hits)
    return pred


def subset_accuracy_bf(pred, truth) -> float:
    rows = len(pred)
    hits = 0
    for r in range(rows):
        if all(bool(pred[r][c]) == bool(truth[r][c]) for c in range(len(pred[r]))):
            hits += 1
    return hits / rows


def hamming_bf(pred, truth) -> float:
    wrong = 0
    cells = 0
    for r in range(len(pred)):
        for c in range(len(pred[r])):
            cells += 1
            if bool(pred[r][c]) != bool(truth[r][c]):
                wrong += 1
    return wrong / cells


def jaccard_bf(pred, truth) -> float:
    total = 0.0
    for r in range(len(pred)):
        p = {c for c in range(len(pred[r])) if pred[r][c]}
        t = {c for c in range(len(truth[r])) if truth[r][c]}
        if not p and not t:
            total += 1.0
        else:
            total += len(p & t) / len(p | t)
    return total / len(pred)


def counts_bf(pred, truth) -> tuple[int, int, int, int]:
    tp = fp = fn = tn = 0
    for r in range(len(pred)):
        for c in range(len(pred[r])):
            p, t = bool(pred[r][c]), bool(truth[r][c])
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif not p and t:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def prf_bf(pred, truth) -> tuple[float, float, float]:
    tp, fp, fn, _ = counts_bf(pred, truth)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def mcc_bf(pred, truth) -> float:
    tp, fp, fn, tn = counts_bf(pred, truth)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def auc_bf(scores, truth) -> float:
    """Exhaustive pair counting: every (positive, negative) cell pair."""
    s = np.asarray(scores, dtype=float).ravel()
    t = np.asarray(truth, dtype=bool).ravel()
    pos = s[t]
    neg = s[~t]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("one class absent")
    greater = np.sum(pos[:, None] > neg[None, :])
    equal = np.sum(pos[:, None] == neg[None, :])
    return (greater + 0.5 * equal) / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# finite differences


def central_diff(f, x: np.ndarray, step_scale: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x (x is not kept)."""
    x = np.array(x, dtype=float)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = step_scale * max(1.0, abs(orig))
        flat_x[i] = orig + h
        f_plus = f(x)
        flat_x[i] = orig - h
        f_minus = f(x)
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
