"""In-memory spans around calls into the program's layers.

The benchmark records spans from its own code: :func:`install` wraps
public functions of each layer (``load_series``, ``SegmentStore.hit_counter``,
``DurableStream.checkpoint``, ...) so every call opens a span.  A span is
``[span_id, parent_id, trace_id, name, start, end, attrs]``; times come
from ``time.perf_counter`` (the system-wide monotonic clock on Linux, so
spans recorded in a program process line up with the benchmark's own
spawn and exit timestamps).  Spans stay in memory and are written out
once, at the end.

Nesting uses one stack per tracer.  That is exact for the traced runs,
which are single-threaded or strictly sequential (a serve request that
hands its mine to a worker thread awaits it before anything else runs).

The layer of a span is its name without the last dotted component:
``core.scan1`` belongs to ``core``, ``core.multiperiod.shared`` to
``core.multiperiod``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

# Span fields, by position.
SPAN_ID, PARENT, TRACE, NAME, START, END, ATTRS = range(7)


class Tracer:
    """A span recorder with a current-parent stack."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[list[Any]] = []
        self._trace_id = 1
        self._patched: list[tuple[Any, str, Any]] = []

    def new_trace(self) -> int:
        """Start a new trace id (one per request or program run)."""
        self._trace_id += 1
        return self._trace_id

    def open(self, name: str, attrs: dict | None = None) -> list[Any]:
        parent = self._stack[-1][SPAN_ID] if self._stack else None
        span = [len(self.spans) + 1, parent, self._trace_id, name,
                time.perf_counter(), None, attrs]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[END] = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        describe: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``describe(args, kwargs, result)`` returns counts to attach to
        the span, measured at the same boundary as its time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                span[ATTRS] = describe(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def patch(
        self,
        target: str,
        name: str,
        describe: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` in place.

        A module-level function is replaced in its own module and in
        every loaded ``repro`` module that imported it by name.
        """
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(raw.__func__, name, describe))
            else:
                wrapped = self.wrap(raw, name, describe)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(module, attr)
        traced = self.wrap(original, name, describe)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            if getattr(loaded, attr, None) is original:
                self._patched.append((loaded, attr, original))
                setattr(loaded, attr, traced)

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans: list[list[Any]], path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> list[list[Any]]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# The layer boundaries a traced program run records
# ----------------------------------------------------------------------


def _len(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"n": len(result)}


def _f1(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"f1": len(result.letters), "segments": result.num_periods}


def _hits(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"distinct": len(result), "segments": len(args[0])}


def _derive(args: tuple, kwargs: dict, result: Any) -> dict:
    counts, candidates = result
    return {
        "f1": len(args[2] if len(args) > 2 else kwargs["f1_counts"]),
        "frequent": len(counts),
        "candidates": sum(candidates.values()),
        "nodes": args[0].node_count,
    }


def _shared(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"periods": len(result), "scans": result.scans}


def _append(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"window": result is not None}


def _recover(args: tuple, kwargs: dict, result: Any) -> dict:
    recovery = args[0].recovery
    return {
        "resumed": recovery is not None,
        "replayed": 0 if recovery is None else recovery.replayed,
    }


#: (target, span name, counts) for every layer boundary, in patch order.
LAYER_TARGETS: list[tuple[str, str, Callable | None]] = [
    ("repro.timeseries.io:load_series", "timeseries.load", _len),
    ("repro.core.hitset:mine_single_period_hitset", "core.mine", None),
    ("repro.core.maxpattern:find_frequent_one_patterns", "core.scan1", _f1),
    # Scan 1 when a count cache is attached (ppm serve).
    ("repro.core.counting:letter_counts_for_segments", "core.scan1", None),
    ("repro.kernels.store:SegmentStore.from_series", "kernels.encode", _len),
    ("repro.kernels.store:SegmentStore.hit_counter", "kernels.hits", _hits),
    ("repro.tree.max_subpattern_tree:MaxSubpatternTree.insert_mask",
     "tree.insert", None),
    ("repro.tree.max_subpattern_tree:MaxSubpatternTree.derive_frequent",
     "tree.derive", _derive),
    ("repro.core.serialize:result_to_dict", "core.serialize", None),
    ("repro.core.multiperiod:mine_periods_shared",
     "core.multiperiod.shared", _shared),
    ("repro.streaming.engine:StreamingMiner.append", "streaming.append",
     _append),
    ("repro.durability.stream:DurableStream.__init__", "durability.recover",
     _recover),
    ("repro.durability.stream:DurableStream.feed", "durability.feed", _len),
    ("repro.durability.stream:DurableStream.checkpoint",
     "durability.checkpoint", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary (the target modules get imported)."""
    for target, name, describe in LAYER_TARGETS:
        tracer.patch(target, name, describe)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.rpartition(".")[0] or name


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer self time: span time not covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    totals: dict[str, float] = {}
    for span in spans:
        inner = _union(children.get(span[SPAN_ID], []))
        own = (span[END] - span[START]) - inner
        layer = layer_of(span[NAME])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def covered(spans: list[list[Any]], start: float, end: float) -> float:
    """Time in ``[start, end]`` that some top-level span covers."""
    return _union([
        (max(span[START], start), min(span[END], end))
        for span in spans
        if span[PARENT] is None and span[END] > start and span[START] < end
    ])


def by_name(spans: list[list[Any]], name: str) -> list[list[Any]]:
    return [span for span in spans if span[NAME] == name]


def outermost(spans: list[list[Any]], name: str) -> list[list[Any]]:
    """The ``name`` spans not nested in another ``name`` span."""
    names = {span[SPAN_ID]: span[NAME] for span in spans}
    return [span for span in by_name(spans, name)
            if names.get(span[PARENT]) != name]


def total(spans: list[list[Any]], name: str) -> float:
    return sum(span[END] - span[START] for span in outermost(spans, name))


def durations(spans: list[list[Any]], name: str, **match: Any) -> list[float]:
    """Durations of the ``name`` spans whose attrs match ``match``."""
    return [
        span[END] - span[START]
        for span in outermost(spans, name)
        if all((span[ATTRS] or {}).get(k) == v for k, v in match.items())
    ]
