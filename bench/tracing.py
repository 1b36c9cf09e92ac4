"""In-memory spans around the public functions of intentclf's modules.

The benchmark traces the program from outside: :class:`Tracer` replaces every
module attribute bound to a traced function (``intentclf.cli`` imports most of
them by name, so one function is often bound in several modules) with a
wrapper that records a :class:`Span`. Spans stay in memory until the
benchmark writes them out at the end of a run.

A span's parent is the traced call it ran inside, on the same thread. Every
span also carries a *unit*: the training step or request it belongs to. A
call to one of the ``unit_starts`` functions opens a new unit; for training
that is ``mining.build_pairs`` (called once per pretrain batch) and for
serving ``service.classification_body`` (once per request).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

# Counts taken from a traced call's result, keyed by traced function name.
CountFn = Callable[[object], dict]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: str
    start: float
    end: float
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps ``intentclf.<module>.<function>`` targets while installed.

    ``targets`` maps a target name such as ``"mining.build_pairs"`` to an
    optional function that derives counts from the call's result.
    """

    def __init__(self, targets: dict[str, CountFn | None], unit_starts: Iterable[str] = ()):
        self.targets = dict(targets)
        self.unit_starts = frozenset(unit_starts)
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._unit_serial = 0
        self._unit = "setup"
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for target, count_fn in self.targets.items():
            module_name, attr = target.split(".")
            original = getattr(importlib.import_module(f"intentclf.{module_name}"), attr)
            wrapper = self._wrap(target, original, count_fn)
            for name, module in list(sys.modules.items()):
                if name == "intentclf" or name.startswith("intentclf."):
                    if vars(module).get(attr) is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def take(self) -> list[Span]:
        """Spans recorded since the previous call, oldest first."""
        with self._lock:
            taken = self.spans
            self.spans = []
        return taken

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: str, original, count_fn: CountFn | None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
                if target in tracer.unit_starts:
                    tracer._unit_serial += 1
                    tracer._unit = f"{target}#{tracer._unit_serial}"
                unit = tracer._unit
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            counts: dict = {}
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if count_fn is not None:
                    counts = count_fn(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, target, parent, unit, start, end, error, counts)
                with tracer._lock:
                    tracer.spans.append(span)

        return traced


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children run on their parent's thread, inside its interval and one after
    another, so their durations add up without overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return {span.id: span.duration - child_time[span.id] for span in spans}


def layer_table(spans: list[Span]) -> list[dict]:
    """Calls, total and self seconds per traced function, by self time."""
    own = self_times(spans)
    rows: dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(span.name, {"name": span.name, "calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
        row["errors"] += span.error is not None
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(span) for span in spans]


def spans_from_json(records: list[dict]) -> list[Span]:
    return [Span(**record) for record in records]
