"""``serve-mixed``: ``ppm serve`` under a seeded closed-loop request mix.

One round = a fresh ``ppm serve --port 0 --series w=FILE`` (its start-up
is one ``setup_s`` sample), one streaming session opened on it, then two
keep-alive connections (tenants ``alpha`` and ``beta``) that take turns,
one request in flight at a time.  Every round replays the same schedule,
so classes are the same in every round:

* ``cold`` — the first query of a period: a two-scan mine on a miss
  (periods 50, 100 and 150, multiples of the generator's period, so F1
  is non-empty and both scans run);
* ``projection`` — a higher ``min_conf`` on a period this connection has
  mined: the count cache answers with zero scans;
* ``hit`` — a repeat of a query this connection already sent: the result
  cache answers;
* ``feed`` — 50 slots into the session (``alpha`` only, so slot order is
  fixed).

Each connection owns its periods and confidence grid, and ``beta`` waits
for ``alpha``'s first query (period 50), so no class depends on how the
two connections interleave.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from pbench import common, serveclient, trace

#: Cold periods of each connection.  Off multiples of 50 the Figure 2
#: data has an empty F1 at 0.64, and a mine stops after scan 1; periods
#: past 150 cost seconds each.  Three colds in 250 ``/mine`` requests put
#: the p99 among the period-50 colds.
ALPHA_COLDS = (50, 150)
BETA_COLDS = (100,)
#: Confidence grid above the base 0.64, split between the connections.
GRID = tuple(round(0.65 + 0.0025 * step, 4) for step in range(100))
#: Period-50 queries each connection repeats as hits: the base query and
#: its first few projections.
HOT_SET = 8
SESSION = {"name": "live", "period": 50, "min_conf": common.MIN_CONF}
FEED_SLOTS = 50


@dataclass(frozen=True)
class Size:
    length: int
    mines_per_conn: int
    projections_per_conn: int
    feeds: int
    window: int
    slide: int
    min_rounds: int


SIZES = {
    "full": Size(500_000, 125, 40, 40, 1000, 150, 4),
    "tiny": Size(20_000, 30, 6, 12, 300, 150, 3),
}


@dataclass
class Op:
    kind: str  # planned class: cold | projection | hit | feed
    path: str
    body: bytes
    key: Any  # (period, min_conf) or feed number


@dataclass
class Schedule:
    alpha: list[Op]
    beta: list[Op]
    feed_slots: list[frozenset[str]]
    session: dict[str, Any]

    def queries(self) -> set[tuple[int, float]]:
        return {op.key for op in self.alpha + self.beta if op.kind != "feed"}


def _conn_ops(
    rng: random.Random, size: Size, colds: list[int], grid: list[float],
    feeds: int,
) -> list[Op]:
    """One connection's requests.

    Which queries are sent does not depend on the seed, only their order
    does, so every class costs the same in every run: the cold periods
    are fixed, projections are period 50 at this connection's first grid
    values, and hits repeat period-50 queries from a small hot set.
    Period 50 is mined before the first request of either connection.
    """
    kinds = (["cold"] * len(colds)
             + ["projection"] * size.projections_per_conn
             + ["hit"] * (size.mines_per_conn - len(colds)
                          - size.projections_per_conn)
             + ["feed"] * feeds)
    rng.shuffle(kinds)
    pending_colds = [period for period in colds if period != 50]
    # The hot set is the base query and the lowest grid values, sent
    # first (in seeded order) so that hits can repeat them.
    hot = [(50, conf) for conf in grid[:HOT_SET - 1]]
    rest = [(50, conf) for conf in
            grid[HOT_SET - 1:size.projections_per_conn]]
    rng.shuffle(hot)
    rng.shuffle(rest)
    projections = hot + rest
    issued = [(50, common.MIN_CONF)]
    if 50 in colds:
        kinds.remove("cold")
        kinds.insert(0, "cold")
        pending_colds.insert(0, 50)
    ops = []
    feed_number = 0
    for kind in kinds:
        if kind == "feed":
            ops.append(Op("feed", "/stream/" + SESSION["name"], b"",
                          feed_number))
            feed_number += 1
            continue
        if kind == "cold":
            key = (pending_colds.pop(0), common.MIN_CONF)
        elif kind == "projection":
            key = projections.pop(0)
            if key in hot:
                issued.append(key)
        else:
            key = rng.choice(issued)
        body = json.dumps({"series": "w", "period": key[0],
                           "min_conf": key[1]}).encode()
        ops.append(Op(kind, "/mine", body, key))
    return ops


def schedule(seed: int, size: Size, slots: list[frozenset[str]]) -> Schedule:
    rng = random.Random(seed)
    alpha = _conn_ops(rng, size, list(ALPHA_COLDS), list(GRID[0::2]),
                      size.feeds)
    # beta starts after alpha's first query, so period 50 is mined.
    beta = _conn_ops(rng, size, list(BETA_COLDS), list(GRID[1::2]), 0)
    feed_slots = slots[: size.feeds * FEED_SLOTS]
    for op in alpha:
        if op.kind == "feed":
            start = op.key * FEED_SLOTS
            batch = [sorted(slot) for slot in
                     feed_slots[start:start + FEED_SLOTS]]
            op.body = json.dumps({"slots": batch}).encode()
    session = dict(SESSION, window=size.window, slide=size.slide)
    return Schedule(alpha, beta, feed_slots, session)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


@dataclass
class Oracle:
    """Expected ``/mine`` documents and feed windows."""

    base: dict[int, dict] = field(default_factory=dict)
    num_periods: dict[int, int] = field(default_factory=dict)
    windows: dict[int, dict[str, int]] = field(default_factory=dict)

    def expected_patterns(self, period: int, min_conf: float) -> list:
        from repro.core.counting import min_count

        threshold = min_count(min_conf, self.num_periods[period])
        return [row for row in self.base[period]["patterns"]
                if row["count"] >= threshold]


def build_oracle(sched: Schedule, slots, wrong: bool) -> Oracle:
    """Each period mined once, in process, by Apriori at the base
    ``min_conf``.

    A query at a higher ``min_conf`` expects exactly the base patterns
    whose counts reach its threshold (counts do not depend on
    ``min_conf``).  Feed windows are re-mined as batches by Apriori too.
    """
    from repro.core.apriori import mine_single_period_apriori
    from repro.core.serialize import result_to_dict
    from repro.timeseries.feature_series import FeatureSeries

    series = FeatureSeries(slots)
    oracle = Oracle()
    for period in sorted({key[0] for key in sched.queries()}):
        result = mine_single_period_apriori(series, period, common.MIN_CONF,
                                            encode=False)
        oracle.base[period] = result_to_dict(result)
        oracle.num_periods[period] = result.num_periods
    window, slide = sched.session["window"], sched.session["slide"]
    end = window
    index = 0
    while end <= len(sched.feed_slots):
        chunk = FeatureSeries(sched.feed_slots[end - window:end])
        result = mine_single_period_apriori(chunk, 50, common.MIN_CONF,
                                            encode=False)
        oracle.windows[index] = {str(p): c for p, c in result.items()}
        index += 1
        end += slide
    if wrong:
        rows = oracle.base[50]["patterns"]
        if rows:
            rows[0] = dict(rows[0], count=rows[0]["count"] + 1)
    return oracle


def classify(payload: dict) -> str:
    envelope = payload["serve"]
    if envelope["from_result_cache"]:
        return "hit"
    return "cold" if envelope["scans"] else "projection"


def check_reply(op: Op, status: int, raw: bytes, oracle: Oracle,
                emitted: list[int]) -> tuple:
    """``(problem or None, measured class)`` for one reply.

    The index of every window a feed reply carries is appended to
    ``emitted``, for :func:`check_emitted`.
    """
    if not 200 <= status < 300:
        return f"{op.path} answered {status}: {raw[:200]!r}", op.kind
    payload = json.loads(raw)
    if op.kind == "feed":
        emitted.extend(window["index"] for window in payload["windows"])
        if payload.get("accepted_slots") != FEED_SLOTS:
            return "feed not fully accepted", "feed"
        for window in payload["windows"]:
            got = {row["pattern"]: row["count"] for row in window["patterns"]}
            if oracle.windows.get(window["index"]) != got:
                return f"window {window['index']} differs from batch", "feed"
        return None, "feed"
    period, min_conf = op.key
    result = payload["result"]
    if (result["period"], result["min_conf"], result["num_periods"]) != (
        period, min_conf, oracle.num_periods[period]
    ):
        return f"/mine {op.key}: wrong header fields", classify(payload)
    if result["patterns"] != oracle.expected_patterns(period, min_conf):
        return f"/mine {op.key}: patterns differ from oracle", classify(payload)
    return None, classify(payload)


def check_emitted(emitted: list[int], oracle: Oracle, tally: common.Tally):
    """One round's feeds emitted every window of the feed once, in order."""
    expected = sorted(oracle.windows)
    tally.check(emitted == expected,
                f"feeds emitted windows {emitted}, batch has {expected}")


# ----------------------------------------------------------------------
# Rounds over the socket
# ----------------------------------------------------------------------


async def _drive(server, sched: Schedule):
    """Both connections' schedules; returns per-connection samples."""
    alpha_first = asyncio.Event()
    # One request in flight at a time, the connections taking turns
    # (asyncio.Lock wakes waiters in order).  With both in flight, which
    # requests queue behind which varies from run to run, and the mining
    # thread shares the interpreter lock with the server's event loop, so
    # every percentile would follow the interleaving.
    turn = asyncio.Lock()

    async def run(tenant: str, ops: list[Op], wait: bool, signal: bool):
        conn = await serveclient.Connection.open(server, tenant)
        samples = []
        try:
            if wait:
                await alpha_first.wait()
            for op in ops:
                raw = conn.encode("POST", op.path, op.body)
                async with turn:
                    sent = time.perf_counter()
                    status, body = await conn.send(raw)
                    seconds = time.perf_counter() - sent
                samples.append((op, seconds, status, body))
                if signal and not alpha_first.is_set():
                    alpha_first.set()
        finally:
            alpha_first.set()
            await conn.close()
        return samples

    began = time.perf_counter()
    alpha, beta = await asyncio.gather(
        run("alpha", sched.alpha, False, True),
        run("beta", sched.beta, True, False),
    )
    return time.perf_counter() - began, alpha + beta


def run_round(path: Path, scratch: Path, sched: Schedule) -> dict[str, Any]:
    server = serveclient.start(path, scratch)
    try:
        status, _ = serveclient.request(server, "POST", "/stream",
                                        sched.session)
        if status != 201:
            raise RuntimeError(f"POST /stream answered {status}")
        wall, samples = asyncio.run(_drive(server, sched))
        _, stats = serveclient.request(server, "GET", "/stats")
    finally:
        rss = serveclient.stop(server)
    return {
        "setup_s": server.setup_s,
        "wall_s": wall,
        "samples": samples,
        "stats": stats,
        "rss_kb": rss,
        "exit": server.proc.returncode,
    }


def _inputs(seed: int, size_name: str, scratch: Path, wrong: bool):
    size = SIZES[size_name]
    slots = common.figure2_slots(size.length, seed)
    path = common.write_series(slots, scratch / "serve.txt")
    sched = schedule(seed, size, slots)
    return size, slots, path, sched, build_oracle(sched, slots, wrong)


def _score(rounds, oracle: Oracle, tally: common.Tally):
    latency: dict[str, list[float]] = {}
    planned: dict[str, int] = {}
    for rnd in rounds:
        tally.check(rnd["exit"] == 0, f"ppm serve exited with {rnd['exit']}")
        emitted: list[int] = []
        # Feeds are sent by alpha alone, so its samples keep their order.
        for op, seconds, status, body in rnd["samples"]:
            problem, measured = check_reply(op, status, body, oracle,
                                            emitted)
            tally.check(problem is None, problem or "")
            latency.setdefault(measured, []).append(seconds)
            planned[op.kind] = planned.get(op.kind, 0) + 1
        check_emitted(emitted, oracle, tally)
    return latency, planned


def _summary(values: list[float]) -> dict[str, float]:
    return {
        "n": len(values),
        "p50_ms": statistics.median(values) * 1e3,
        "p90_ms": common.percentile(values, 90) * 1e3,
        "p99_ms": common.percentile(values, 99) * 1e3,
    }


def _ratios(stats: dict, mines: int) -> dict[str, float]:
    return {
        "result_cache_hit_ratio": stats["result_cache"]["hits"] / mines,
        "count_cache_hit_ratio": stats["count_cache"]["hit_rate"],
        "scans_executed": stats["requests"]["scans_executed"],
        "coalesced": stats["coalescing"]["coalesced"],
        "rejected": (stats["requests"]["rejected_busy"]
                     + stats["requests"]["rejected_quota"]),
    }


def measure(workload: str, seed: int, seconds: float, size_name: str,
            wrong: bool) -> dict[str, Any]:
    scratch = common.work_dir()
    tally = common.Tally()
    try:
        size, slots, path, sched, oracle = _inputs(seed, size_name, scratch,
                                                   wrong)
        common.settle()
        rounds = []
        began = time.perf_counter()
        while (len(rounds) < size.min_rounds
               or time.perf_counter() - began < seconds):
            rounds.append(run_round(path, scratch, sched))
        latency, planned = _score(rounds, oracle, tally)
        mines = [latency_s for kind, values in latency.items()
                 if kind != "feed" for latency_s in values]
        walls = [rnd["wall_s"] for rnd in rounds]
        requests = sum(len(rnd["samples"]) for rnd in rounds)
        metrics, report = common.end_to_end(
            [rnd["setup_s"] for rnd in rounds], walls, mines, 99,
            [rnd["rss_kb"] for rnd in rounds if rnd["rss_kb"]])
        report.update(
            rps=requests / sum(walls),
            classes={k: _summary(v) for k, v in latency.items()},
            class_shares={k: len(v) / requests for k, v in latency.items()},
            planned_shares={k: v / requests for k, v in planned.items()},
            stats_last_round=_ratios(rounds[-1]["stats"],
                                     len(mines) // len(rounds)),
            properties=dict(
                common.series_properties(slots),
                distinct_queries=len(sched.queries()),
                requests_per_round=len(sched.alpha) + len(sched.beta),
            ),
        )
        return {"tally": tally, "metrics": metrics, "report": report}
    finally:
        common.remove_tree(scratch)


# ----------------------------------------------------------------------
# Traced run: MiningApp.handle replayed in process
# ----------------------------------------------------------------------


def _replay(path: Path, sched: Schedule, tracer: trace.Tracer | None):
    """The schedule through ``MiningApp.handle``, one request at a time.

    Returns ``(wall, [(op, status, payload, seconds)])``; with a tracer,
    every request is its own trace with a ``serve.handle`` root span.
    """
    from repro.serve.app import MiningApp, ServeConfig
    from repro.serve.protocol import Request

    order = []
    alpha, beta = list(sched.alpha), list(sched.beta)
    while alpha or beta:
        if alpha:
            order.append(("alpha", alpha.pop(0)))
        if beta:
            order.append(("beta", beta.pop(0)))

    async def go():
        app = MiningApp(ServeConfig())
        replies = []
        try:
            span = tracer.open("serve.registry_load") if tracer else None
            app.registry.load("w", str(path))
            if tracer:
                tracer.close(span)
            await app.handle(Request("POST", "/stream", body=json.dumps(
                sched.session).encode()))
            for tenant, op in order:
                request = Request("POST", op.path,
                                  headers={"x-tenant": tenant}, body=op.body)
                if tracer:
                    tracer.new_trace()
                    span = tracer.open("serve.handle")
                started = time.perf_counter()
                status, payload = await app.handle(request)
                seconds = time.perf_counter() - started
                if tracer:
                    tracer.close(span)
                    span[trace.ATTRS] = {
                        "class": "feed" if op.kind == "feed"
                        else classify(payload)
                    }
                replies.append((op, status, payload, seconds))
        finally:
            app.close()
        return replies

    began = time.perf_counter()
    replies = asyncio.run(go())
    return time.perf_counter() - began, replies, began


def measure_traced(workload: str, seed: int, seconds: float, size_name: str,
                   wrong: bool) -> dict[str, Any]:
    import repro.serve.app  # noqa: F401  (bind its imports before patching)

    scratch = common.work_dir()
    tally = common.Tally()
    try:
        size, slots, path, sched, oracle = _inputs(seed, size_name, scratch,
                                                   wrong)
        common.settle()
        socket_round = run_round(path, scratch, sched)
        latency, _ = _score([socket_round], oracle, tally)
        untraced_wall, _, _ = _replay(path, sched, None)
        tracer = trace.Tracer()
        trace.install(tracer)
        try:
            wall, replies, began = _replay(path, sched, tracer)
        finally:
            tracer.unpatch()
        emitted: list[int] = []
        for op, status, payload, _ in replies:
            raw = json.dumps(payload).encode()
            problem, _ = check_reply(op, status, raw, oracle, emitted)
            tally.check(problem is None, f"replay: {problem}")
        check_emitted(emitted, oracle, tally)
        mines = sum(len(v) for k, v in latency.items() if k != "feed")
        return {
            "tally": tally,
            "spans": tracer.spans,
            "wall_s": wall,
            "untraced_wall_s": untraced_wall,
            "window": (began, began + wall),
            "import_s": common.import_seconds(scratch),
            "socket": {k: _summary(v) for k, v in latency.items()},
            "stats": _ratios(socket_round["stats"], mines),
            "properties": {"slots": len(slots),
                           "distinct_queries": len(sched.queries())},
        }
    finally:
        common.remove_tree(scratch)
