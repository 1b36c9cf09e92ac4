"""Synthetic query generation: prompts, response parsing and composition.

Per class, a prompt built from (label, description, n) asks a chat-completion
endpoint for n distinct queries, one per line. Multi-label samples are
composed by concatenating fresh single-class segments in vocabulary order.
An offline generator fills seeded phrase-slot templates instead of calling a
model, so tests and demos need no network.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass

import numpy as np

from .config import JsonConfig
from .dataset import Dataset, LabelSet, LabelVocabulary, TextSample, validate_labels
from .errors import GenerationError, RemoteServiceError, ValidationError
from .httpclient import check_remote, post_json

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# default maritime taxonomy

DEFAULT_TAXONOMY: dict[str, str] = {
    "long-range ETA in maritime": "estimated time of arrival for maritime vessels and ships",
    "arrival time to pilotage boarding ground": "arrival time of a vessel to a pilotage boarding ground",
    "direct berthing to port": "chance for a vessel to get a direct berth when arriving at the port",
    "vehicular waiting time after arrival": "waiting time for a berth after a vessel arrives at the port",
    "ship fuel consumption": "fuel consumed by a ship over a voyage or time period",
    "berth staying": "time a ship stays at berth until unberthing",
    "maritime risk evaluation": "risk of piracy, terrorism and incidents along a voyage",
    "vessel trajectory": "predicted route and trajectory of a vessel",
}


def default_taxonomy() -> LabelVocabulary:
    """The eight-intent maritime taxonomy used by the demo pipeline."""
    return LabelVocabulary(
        labels=tuple(DEFAULT_TAXONOMY), descriptions=dict(DEFAULT_TAXONOMY)
    )


# ---------------------------------------------------------------------------
# prompt construction and response parsing


@dataclass(frozen=True)
class LLMClientConfig(JsonConfig):
    endpoint_url: str
    model_name: str
    auth_token_env: str = "LLM_API_TOKEN"
    timeout: float = 30.0
    max_retries: int = 2
    temperature: float = 0.7

    def __post_init__(self):
        check_remote(self, "endpoint_url")


def build_prompt(label: str, description: str, n: int) -> str:
    """Fixed phrasing asking for ``n`` distinct queries of one intent class."""
    return (
        "You are helping to build an intent classifier for user queries.\n"
        f'Intent class: "{label}"\n'
        f"Class description: {description}\n"
        f"Write {n} distinct user queries that express this intent.\n"
        "Output one query per line with no numbering, bullets or commentary.\n"
        "Vary the wording, entities and level of detail across queries."
    )


_NUMBER_MARKER = re.compile(r"^\d{1,4}[.)](\s+|$)")
_BULLET_MARKER = re.compile(r"^[-*•]\s+")
_QUOTE_CHARS = "\"'“”‘’"
# the one kind of str that UTF-8 cannot encode
_SURROGATE = re.compile("[\ud800-\udfff]")


def _clean_line(line: str) -> str:
    # strip to a fixed point so reparsing parsed output is a no-op
    while True:
        before = line
        line = line.strip()
        line = _NUMBER_MARKER.sub("", line)
        line = _BULLET_MARKER.sub("", line)
        line = line.strip(_QUOTE_CHARS)
        if line == before:
            return line


def parse_generation(raw: str, requested: int) -> list[str]:
    """Split a completion into queries: strip list markers and quotes, drop
    empties and lines that are not valid UTF-8 (a lone surrogate escape),
    dedupe case-insensitively keeping first occurrences, cap at
    ``requested``. Raises :class:`GenerationError` when nothing parses.
    """
    texts: list[str] = []
    seen: set[str] = set()
    for line in raw.splitlines():
        cleaned = _clean_line(line)
        if not cleaned or _SURROGATE.search(cleaned):
            continue
        key = cleaned.lower()
        if key in seen:
            continue
        seen.add(key)
        texts.append(cleaned)
        if len(texts) == requested:
            break
    if not texts:
        raise GenerationError("response contained no parseable queries")
    return texts


def compose_multilabel(
    segments: dict[str, str],
    combo: LabelSet,
    vocabulary: LabelVocabulary,
) -> TextSample:
    """Concatenate per-label segments in vocabulary order into one sample."""
    members = validate_labels(combo, vocabulary)
    if not members:
        raise ValidationError("combo must contain at least one label")
    missing = [label for label in members if label not in segments]
    if missing:
        raise ValidationError(f"missing segment(s) for label(s) {sorted(missing)!r}")
    ordered = vocabulary.sorted_members(members)
    return TextSample(text=" ".join(segments[label] for label in ordered), labels=members)


# ---------------------------------------------------------------------------
# remote generation


def generate_class(label: str, description: str, n: int, config: LLMClientConfig) -> list[str]:
    """Ask the chat-completion endpoint for up to ``n`` queries of one class."""
    headers = {}
    token = os.environ.get(config.auth_token_env, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = post_json(
        config.endpoint_url,
        {
            "model": config.model_name,
            "messages": [{"role": "user", "content": build_prompt(label, description, n)}],
            "temperature": config.temperature,
        },
        headers=headers,
        timeout=config.timeout,
        max_retries=config.max_retries,
    )
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    if not isinstance(content, str):
        raise RemoteServiceError(
            f"completion response for {label!r} lacks a string choices[0].message.content"
        )
    texts = parse_generation(content, n)
    if len(texts) < n:
        logger.warning("class %r: requested %d queries, parsed %d", label, n, len(texts))
    return texts


def llm_generate(
    vocabulary: LabelVocabulary,
    per_class: int,
    combos: list[LabelSet],
    config: LLMClientConfig,
    seed: int = 0,
) -> Dataset:
    """Remote variant of :func:`offline_generate`.

    Single-label queries come straight from the endpoint; combo segments are
    drawn (seeded) from each class's generated pool, so the result is
    deterministic given the responses.
    """
    if per_class < 1:
        raise ValidationError(f"per_class must be >= 1, got {per_class}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    pools: dict[str, list[str]] = {}
    samples: list[TextSample] = []
    for label in vocabulary.labels:
        description = vocabulary.descriptions.get(label, "")
        if not description.strip():
            raise ValidationError(f"label {label!r} has no description to prompt with")
        pools[label] = generate_class(label, description, per_class, config)
        samples.extend(TextSample(text=t, labels=frozenset({label})) for t in pools[label])
    rng = np.random.default_rng([seed, 7])
    for combo in combos:
        members = validate_labels(combo, vocabulary)
        segments = {
            label: pools[label][int(rng.integers(0, len(pools[label])))]
            for label in vocabulary.sorted_members(members)
        }
        samples.append(compose_multilabel(segments, members, vocabulary))
    return Dataset(vocabulary=vocabulary, samples=tuple(samples))


# ---------------------------------------------------------------------------
# offline generation

_VESSEL_NAMES = (
    "NYK CONSTELLATION", "OOCL POLAND", "MOUNT ST", "ACHERON", "ORE ITALIA",
    "AETERNUM DREAD", "PACIFIC HARMONY", "MAERSK VILNIUS", "EVER BLOSSOM",
    "STELLAR NOVA", "GOLDEN KAMPAR", "ATLANTIC POLARIS", "IRON DUCHESS",
    "COSCO NAGOYA", "LADY MIRABEL", "NORDIC QUEST", "ZIM CORAL", "BRAVE HORIZON",
    "SEASPAN OTTER", "CAPE ELARA", "HANSA CENTAUR", "ORIENT LOTUS",
    "TITAN BREEZE", "ROYAL CASPIAN",
)
_SHIP_TYPES = ("container ship", "tanker", "bulk carrier", "cargo vessel", "LNG carrier", "ro-ro vessel")
_PORTS = (
    "Singapore", "Ningbo", "Rotterdam", "Shanghai", "Hamburg", "Busan",
    "Santos", "Jebel Ali", "Colombo", "Valencia", "Fremantle", "Antwerp",
)
_HOURS = (3, 5, 6, 8, 10, 12, 18, 24, 36, 48, 72)
_DAYS = (2, 3, 4, 5, 7, 10, 14)

# Per-class phrase-slot templates, keyed by the class DESCRIPTION so custom
# taxonomies reusing a known description inherit its bank. Every template of
# a class carries the same anchor phrase; the toy trigram embedder needs that
# shared mass to keep same-class cosines well above cross-class ones.
_CLASS_TEMPLATES: dict[str, tuple[str, ...]] = {
    DEFAULT_TAXONOMY["long-range ETA in maritime"]: (
        "Forecast the estimated time of arrival to the next port for vessel {vessel}",
        "What is the estimated time of arrival of the {ship_type} {vessel} at {port}?",
        "Give the estimated time of arrival for the vessel with MMSI {mmsi}",
        "Predict the estimated time of arrival at {port} for {vessel} (IMO {imo})",
        "Is the estimated time of arrival of {vessel} still within {hours} hours?",
        "Long range estimated time of arrival for {vessel} heading to {port}",
        "Estimated time of arrival to the destination port for the {ship_type} {vessel}?",
    ),
    DEFAULT_TAXONOMY["arrival time to pilotage boarding ground"]: (
        "What is the arrival time of vessel {vessel} to the pilotage boarding ground of {port}?",
        "When does the {ship_type} {vessel} reach the pilotage boarding ground at {port}?",
        "Estimate when the vessel with MMSI {mmsi} gets to the pilotage boarding ground",
        "Arrival time at the pilotage boarding ground for {vessel} (IMO {imo})?",
        "When should the pilot expect {vessel} at the pilotage boarding ground of {port}?",
        "Pilotage boarding ground arrival estimate for the {ship_type} {vessel}",
        "How soon is {vessel} due at the eastern pilotage boarding ground?",
    ),
    DEFAULT_TAXONOMY["direct berthing to port"]: (
        "Vessel {vessel} (MMSI {mmsi}), what is the chance to get a direct berth on arrival?",
        "What is the probability of a direct berth on arrival for {vessel} at {port}?",
        "Will the {ship_type} {vessel} get a direct berth on arrival at {port}?",
        "Chance of a direct berth on arrival for vessel {vessel} (IMO {imo})?",
        "How likely is a direct berth on arrival for {vessel} calling at {port}?",
        "Give the direct berth on arrival rate for the {ship_type} {vessel}",
        "Direct berth on arrival or anchorage first for {vessel}?",
    ),
    DEFAULT_TAXONOMY["vehicular waiting time after arrival"]: (
        "How long is the waiting time for a berth after arrival of {vessel}?",
        "Expected waiting time for a berth at the anchorage for the {ship_type} {vessel}",
        "What is the waiting time for a berth of the vessel with MMSI {mmsi} at {port}?",
        "Waiting time for a berth after {vessel} (IMO {imo}) arrives at {port}?",
        "Estimate the waiting time for a berth for {vessel} after she arrives",
        "Anchorage waiting time for a berth for the {ship_type} {vessel}",
        "Will the waiting time for a berth of {vessel} exceed {hours} hours?",
    ),
    DEFAULT_TAXONOMY["ship fuel consumption"]: (
        "What is the fuel consumption of the {ship_type} {vessel} over {hours} hours?",
        "Estimate the fuel consumption of {vessel} on the voyage from {port} to {port2}",
        "Fuel consumption of the vessel with MMSI {mmsi} over the past {hours} hours?",
        "How much LSFO counts into the fuel consumption of {vessel} per day at sea?",
        "Compute the bunker fuel consumption for {vessel} (IMO {imo}) over {days} days",
        "Daily fuel consumption estimate for the {ship_type} {vessel}",
        "Report the fuel consumption of {vessel} between {port} and {port2}",
    ),
    DEFAULT_TAXONOMY["berth staying"]: (
        "Estimate the time to unberth (ETU) of the {ship_type} {vessel} (IMO {imo})",
        "What is the time to unberth for {vessel} staying at berth in {port}?",
        "Time to unberth (ETU) for the vessel with MMSI {mmsi}?",
        "How long until the time to unberth of {vessel} at {port}?",
        "Expected time to unberth before departure for the {ship_type} {vessel}",
        "Give the time to unberth for {vessel} currently at berth in {port}",
        "Is the time to unberth of {vessel} within {hours} hours?",
    ),
    DEFAULT_TAXONOMY["maritime risk evaluation"]: (
        "Does there any cases about piracy risk detected for the voyage from {port} to {port2}?",
        "Evaluate the maritime piracy risk for {vessel} sailing from {port} to {port2}",
        "Any piracy risk or terrorism alerts along the route of the {ship_type} {vessel}?",
        "What is the piracy risk level for the voyage of {vessel} (IMO {imo})?",
        "Assess the piracy risk and security threats for the vessel with MMSI {mmsi}",
        "Maritime piracy risk evaluation for the passage from {port} to {port2}",
        "Is the {ship_type} {vessel} exposed to piracy risk in the next {days} days?",
    ),
    DEFAULT_TAXONOMY["vessel trajectory"]: (
        "Predict the route trajectory for the {ship_type} {vessel} (IMO {imo})",
        "What route trajectory will vessel {vessel} follow from {port} to {port2}?",
        "Forecast the route trajectory of the vessel with MMSI {mmsi} for the next {hours} hours",
        "Show the predicted route trajectory of the {ship_type} {vessel} approaching {port}",
        "Where is the route trajectory of {vessel} heading after leaving {port}?",
        "Route trajectory forecast for {vessel} over the coming {days} days",
        "Plot the expected route trajectory of {vessel} towards {port2}",
    ),
}

_GENERIC_TEMPLATES = (
    "What is the {core} for the {ship_type} {vessel}?",
    "Please provide the {core} for vessel {vessel} (IMO {imo})",
    "{core} for the vessel with MMSI {mmsi}?",
    "Can you estimate the {core} for {vessel} at {port}?",
    "I need the {core} regarding the voyage from {port} to {port2}",
    "Give me the {core} for the {ship_type} {vessel} within {hours} hours",
)


def _fill_template(template: str, core: str, rng: np.random.Generator) -> str:
    port_idx = rng.choice(len(_PORTS), size=2, replace=False)
    slots = {
        "core": core,
        "vessel": _VESSEL_NAMES[int(rng.integers(0, len(_VESSEL_NAMES)))],
        "ship_type": _SHIP_TYPES[int(rng.integers(0, len(_SHIP_TYPES)))],
        "port": _PORTS[int(port_idx[0])],
        "port2": _PORTS[int(port_idx[1])],
        "mmsi": str(int(rng.integers(100_000_000, 1_000_000_000))),
        "imo": str(int(rng.integers(1_000_000, 10_000_000))),
        "hours": str(_HOURS[int(rng.integers(0, len(_HOURS)))]),
        "days": str(_DAYS[int(rng.integers(0, len(_DAYS)))]),
    }
    return template.format(**slots)


def _class_queries(
    label: str, description: str, count: int, rng: np.random.Generator
) -> list[str]:
    templates = _CLASS_TEMPLATES.get(description, _GENERIC_TEMPLATES)
    queries: list[str] = []
    seen: set[str] = set()
    attempts = 0
    while len(queries) < count:
        template = templates[int(rng.integers(0, len(templates)))]
        text = _fill_template(template, description, rng)
        attempts += 1
        if attempts > 200 * count:
            # slot space exhausted for a tiny bank; force distinctness
            text = f"{text} (ref {len(queries)})"
        if text.lower() in seen:
            continue
        seen.add(text.lower())
        queries.append(text)
    return queries


def offline_generate(
    vocabulary: LabelVocabulary,
    per_class: int,
    combos: list[LabelSet],
    seed: int = 0,
) -> Dataset:
    """Deterministic generator over seeded phrase-slot templates.

    Emits ``per_class`` distinct queries per class in vocabulary order, then
    one composed sample per combo built from fresh single-class segments.
    Identical arguments produce an identical dataset.
    """
    if per_class < 1:
        raise ValidationError(f"per_class must be >= 1, got {per_class}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    samples: list[TextSample] = []
    for class_index, label in enumerate(vocabulary.labels):
        description = vocabulary.descriptions.get(label, label)
        rng = np.random.default_rng([seed, class_index])
        samples.extend(
            TextSample(text=text, labels=frozenset({label}))
            for text in _class_queries(label, description, per_class, rng)
        )
    for combo_index, combo in enumerate(combos):
        members = validate_labels(combo, vocabulary)
        if not members:
            raise ValidationError(f"combo {combo_index} is empty")
        rng = np.random.default_rng([seed, 10_000 + combo_index])
        segments = {
            label: _class_queries(
                label, vocabulary.descriptions.get(label, label), 1, rng
            )[0]
            for label in vocabulary.sorted_members(members)
        }
        samples.append(compose_multilabel(segments, members, vocabulary))
    return Dataset(vocabulary=vocabulary, samples=tuple(samples))


def two_label_combos(vocabulary: LabelVocabulary, count: int, seed: int = 0) -> list[LabelSet]:
    """A seeded list of two-label combos (repeats allowed once pairs run out)."""
    if len(vocabulary) < 2:
        raise ValidationError("need at least 2 labels to build combos")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    labels = vocabulary.labels
    all_pairs = [
        frozenset({labels[i], labels[j]})
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    rng = np.random.default_rng([seed, 42])
    combos: list[LabelSet] = []
    while len(combos) < count:
        remaining = count - len(combos)
        if remaining >= len(all_pairs):
            combos.extend(all_pairs)
        else:
            picks = rng.choice(len(all_pairs), size=remaining, replace=False)
            combos.extend(all_pairs[int(i)] for i in sorted(picks))
    return combos
