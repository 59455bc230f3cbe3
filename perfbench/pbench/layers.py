"""The per-layer metrics of a traced run.

Every workload reports every metric; a layer the workload does not pass
through reports 0 (no calls, no time).  Which end-to-end metric each
layer metric should move is in ``perfbench/README.md``.
"""

from __future__ import annotations

import statistics
from typing import Any

from pbench import trace
from pbench.common import metric

#: Layers whose self time is reported, as ``<layer>.self_s``.
LAYERS = (
    "process", "timeseries", "core", "kernels", "tree", "core.multiperiod",
    "serve", "streaming", "durability",
)

#: Every per-layer metric: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "process.import_s": ("s", "lower"),
    "timeseries.load_s": ("s", "lower"),
    "timeseries.slots_per_s": ("1/s", "higher"),
    "core.scan1_s": ("s", "lower"),
    "core.f1_letters": ("count", "lower"),
    "kernels.encode_s": ("s", "lower"),
    "kernels.hits_s": ("s", "lower"),
    "kernels.distinct_hits": ("count", "lower"),
    "kernels.hit_ratio": ("ratio", "lower"),
    "tree.insert_s": ("s", "lower"),
    "tree.nodes": ("count", "lower"),
    "tree.derive_s": ("s", "lower"),
    "tree.candidates": ("count", "lower"),
    "tree.derive_yield": ("ratio", "higher"),
    "core.serialize_s": ("s", "lower"),
    "core.multiperiod.shared_s": ("s", "lower"),
    "core.multiperiod.periods": ("count", "higher"),
    "core.multiperiod.scans": ("count", "lower"),
    "serve.handle_hit_ms": ("ms", "lower"),
    "serve.handle_projection_ms": ("ms", "lower"),
    "serve.handle_cold_ms": ("ms", "lower"),
    "serve.handle_feed_ms": ("ms", "lower"),
    "serve.http_ms": ("ms", "lower"),
    "serve.registry_load_s": ("s", "lower"),
    "serve.result_cache_hit_ratio": ("ratio", "higher"),
    "serve.count_cache_hit_ratio": ("ratio", "higher"),
    "serve.scans_executed": ("count", "lower"),
    "serve.coalesced": ("count", "higher"),
    "serve.rejected": ("count", "lower"),
    "streaming.append_us": ("us", "lower"),
    "streaming.emit_ms": ("ms", "lower"),
    "durability.feed_us": ("us", "lower"),
    "durability.checkpoint_ms": ("ms", "lower"),
    "durability.checkpoints": ("count", "lower"),
    "durability.snapshot_bytes": ("B", "lower"),
    "durability.recover_ms": ("ms", "lower"),
    "durability.replayed_records": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _attr_sum(spans, name: str, key: str) -> float:
    return sum((span[trace.ATTRS] or {}).get(key, 0)
               for span in trace.outermost(spans, name))


def compute(traced: dict[str, Any]) -> dict[str, float]:
    """Raw per-layer values (unit as in :data:`PER_LAYER`)."""
    spans = traced["spans"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values["process.import_s"] = traced["import_s"]

    load = trace.total(spans, "timeseries.load")
    values["timeseries.load_s"] = load
    slots = _attr_sum(spans, "timeseries.load", "n")
    values["timeseries.slots_per_s"] = slots / load if load else 0.0

    values["core.scan1_s"] = trace.total(spans, "core.scan1")
    f1 = [(span[trace.ATTRS] or {}).get("f1", 0)
          for name in ("core.scan1", "tree.derive")
          for span in trace.by_name(spans, name)]
    values["core.f1_letters"] = max(f1, default=0)

    values["kernels.encode_s"] = trace.total(spans, "kernels.encode")
    values["kernels.hits_s"] = trace.total(spans, "kernels.hits")
    distinct = _attr_sum(spans, "kernels.hits", "distinct")
    segments = _attr_sum(spans, "kernels.hits", "segments")
    values["kernels.distinct_hits"] = distinct
    values["kernels.hit_ratio"] = distinct / segments if segments else 0.0

    values["tree.insert_s"] = trace.total(spans, "tree.insert")
    values["tree.derive_s"] = trace.total(spans, "tree.derive")
    derives = trace.by_name(spans, "tree.derive")
    values["tree.nodes"] = max(
        ((s[trace.ATTRS] or {}).get("nodes", 0) for s in derives), default=0)
    candidates = _attr_sum(spans, "tree.derive", "candidates")
    values["tree.candidates"] = candidates
    frequent = _attr_sum(spans, "tree.derive", "frequent")
    values["tree.derive_yield"] = frequent / candidates if candidates else 0.0

    values["core.serialize_s"] = trace.total(spans, "core.serialize")
    values["core.multiperiod.shared_s"] = trace.total(
        spans, "core.multiperiod.shared")
    values["core.multiperiod.periods"] = _attr_sum(
        spans, "core.multiperiod.shared", "periods")
    values["core.multiperiod.scans"] = _attr_sum(
        spans, "core.multiperiod.shared", "scans")

    for kind in ("hit", "projection", "cold", "feed"):
        values[f"serve.handle_{kind}_ms"] = _median(
            trace.durations(spans, "serve.handle", **{"class": kind})) * 1e3
    socket = traced.get("socket", {})
    if "hit" in socket:
        values["serve.http_ms"] = (
            socket["hit"]["p50_ms"] - values["serve.handle_hit_ms"])
    values["serve.registry_load_s"] = trace.total(spans, "serve.registry_load")
    for key, value in traced.get("stats", {}).items():
        values[f"serve.{key}"] = value

    values["streaming.append_us"] = _median(
        trace.durations(spans, "streaming.append", window=False)) * 1e6
    values["streaming.emit_ms"] = _median(
        trace.durations(spans, "streaming.append", window=True)) * 1e3

    values["durability.feed_us"] = _median(
        trace.durations(spans, "durability.feed")) * 1e6
    values["durability.checkpoint_ms"] = _median(
        trace.durations(spans, "durability.checkpoint")) * 1e3
    values["durability.checkpoints"] = len(
        trace.outermost(spans, "durability.checkpoint"))
    values["durability.snapshot_bytes"] = traced.get("snapshot_bytes", 0)
    resumed = [span for span in trace.by_name(
        traced.get("resume_spans", []), "durability.recover")
        if (span[trace.ATTRS] or {}).get("resumed")]
    if resumed:
        span = resumed[0]
        values["durability.recover_ms"] = (
            span[trace.END] - span[trace.START]) * 1e3
        values["durability.replayed_records"] = span[trace.ATTRS]["replayed"]

    own = trace.self_times(spans)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = own.get(layer, 0.0)

    wall = traced["wall_s"]
    start, end = traced["window"]
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = traced["untraced_wall_s"]
    values["trace.overhead_pct"] = (
        wall / traced["untraced_wall_s"] - 1.0) * 100
    values["trace.uncovered_share"] = 1.0 - trace.covered(spans, start, end) / wall
    values["trace.spans"] = len(spans)
    return values


def metrics(traced: dict[str, Any]) -> dict[str, dict[str, Any]]:
    values = compute(traced)
    return {name: metric(values[name], unit)
            for name, (unit, _) in PER_LAYER.items()}
