"""Tests for repro.serve — the asyncio mining service.

The suite leans on the layering of the subsystem: the HTTP protocol is
tested against in-memory streams, quotas and ledgers against injected
clocks, and the whole request pipeline by calling ``MiningApp.handle``
directly — no sockets, no sleeps.  The centrepiece is the randomized
coalescing-equivalence sweep: many concurrent clients at mixed
thresholds must each receive byte-identical results to a direct serial
mine, while the server executes only a handful of scans.  One
socket-level test at the end boots a real server on an ephemeral port
and walks keep-alive, shutdown, and drain.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time

import pytest

from repro.core.errors import ServeError
from repro.core.miner import PartialPeriodicMiner
from repro.core.serialize import result_to_dict
from repro.serve import (
    MiningApp,
    MiningServer,
    ProtocolError,
    Request,
    SeriesRegistry,
    ServeConfig,
    SingleFlight,
    TenantCacheLedger,
    TenantQuotas,
    TokenBucket,
    read_request,
    response_bytes,
)
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.io import save_series


def random_series(seed: int, length: int = 60, features: int = 4) -> FeatureSeries:
    """A small random series with empty and multi-feature slots."""
    rng = random.Random(seed)
    alphabet = [f"f{i}" for i in range(features)]
    return FeatureSeries(
        [{f for f in alphabet if rng.random() < 0.35} for _ in range(length)]
    )


def parse(raw: bytes) -> Request | None:
    """Run the request parser over literal bytes."""

    async def inner() -> Request | None:
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(inner())


def http(method: str, path: str, body: dict | None = None, **headers) -> bytes:
    """Serialize one request the way a minimal client would."""
    payload = b"" if body is None else json.dumps(body).encode()
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    lines += [f"{k.replace('_', '-')}: {v}" for k, v in headers.items()]
    if payload:
        lines.append(f"Content-Length: {len(payload)}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + payload


def make_request(
    method: str,
    path: str,
    body: dict | None = None,
    tenant: str | None = None,
) -> Request:
    """Build a parsed request directly (the app-layer test entry)."""
    headers = {} if tenant is None else {"x-tenant": tenant}
    raw = b"" if body is None else json.dumps(body).encode()
    return Request(method=method, path=path, headers=headers, body=raw)


class TestProtocol:
    """The hand-rolled HTTP/1.1 slice."""

    def test_parses_request_line_headers_and_body(self):
        request = parse(
            http("POST", "/mine?debug=1", {"series": "s"}, x_tenant="acme")
        )
        assert request.method == "POST"
        assert request.path == "/mine"
        assert request.query == {"debug": "1"}
        assert request.tenant == "acme"
        assert request.json() == {"series": "s"}

    def test_tenant_defaults_to_public(self):
        assert parse(http("GET", "/healthz")).tenant == "public"

    def test_keep_alive_honours_connection_close(self):
        assert parse(http("GET", "/stats")).keep_alive
        assert not parse(http("GET", "/stats", connection="close")).keep_alive

    def test_clean_eof_reads_as_none(self):
        assert parse(b"") is None

    def test_malformed_request_line_rejected(self):
        with pytest.raises(ProtocolError, match="request line"):
            parse(b"NONSENSE\r\n\r\n")

    def test_non_http_version_rejected(self):
        with pytest.raises(ProtocolError, match="request line"):
            parse(b"GET / SPDY/3\r\n\r\n")

    def test_bad_content_length_rejected(self):
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse(b"POST /mine HTTP/1.1\r\nContent-Length: soon\r\n\r\n")

    def test_oversized_body_rejected(self):
        huge = b"POST /mine HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n"
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse(huge)

    def test_truncated_body_rejected(self):
        with pytest.raises(ProtocolError, match="mid-body"):
            parse(b"POST /mine HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_header_flood_rejected(self):
        flood = b"GET / HTTP/1.1\r\n" + b"".join(
            b"X-H%d: v\r\n" % i for i in range(80)
        )
        with pytest.raises(ProtocolError, match="header section"):
            parse(flood + b"\r\n")

    def test_json_body_must_be_an_object(self):
        request = parse(
            b"POST /mine HTTP/1.1\r\nContent-Length: 6\r\n\r\n[1, 2]"
        )
        with pytest.raises(ProtocolError, match="JSON object"):
            request.json()

    def test_empty_body_reads_as_empty_object(self):
        assert parse(http("POST", "/shutdown")).json() == {}

    def test_response_bytes_roundtrip(self):
        raw = response_bytes(429, {"error": "slow down"}, keep_alive=False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "slow down"}
        assert f"Content-Length: {len(body)}".encode() in head


class TestTokenBucket:
    """The rate limiter, on a fake clock."""

    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=3, clock=lambda: 0.0)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_continuously(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=1, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] = 0.5  # 2 tokens/s * 0.5s = one token back
        assert bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2, clock=lambda: now[0])
        now[0] = 60.0
        assert [bucket.try_acquire() for _ in range(3)] == [
            True, True, False,
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServeError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ServeError):
            TokenBucket(rate=1.0, burst=0)


class TestTenantQuotas:
    def test_unlimited_when_rate_is_none(self):
        quotas = TenantQuotas(None)
        assert all(quotas.allow("a") for _ in range(100))
        assert quotas.snapshot() == {"a": {"admitted": 100, "throttled": 0}}

    def test_buckets_are_per_tenant(self):
        quotas = TenantQuotas(rate=1.0, burst=1, clock=lambda: 0.0)
        assert quotas.allow("a")
        assert not quotas.allow("a")
        assert quotas.allow("b")  # a's exhaustion does not touch b
        assert quotas.snapshot() == {
            "a": {"admitted": 1, "throttled": 1},
            "b": {"admitted": 1, "throttled": 0},
        }


class TestTenantCacheLedger:
    def test_charge_and_oldest_order(self):
        ledger = TenantCacheLedger()
        ledger.charge("a", "k1")
        ledger.charge("a", "k2")
        assert ledger.owner_count("a") == 2
        assert ledger.oldest("a") == "k1"
        assert ledger.owner_of("k2") == "a"

    def test_forget_is_exact(self):
        ledger = TenantCacheLedger()
        ledger.charge("a", "k1")
        ledger.forget("k1")
        ledger.forget("k1")  # idempotent
        assert ledger.owner_count("a") == 0
        assert ledger.oldest("a") is None
        assert ledger.snapshot() == {}

    def test_recharge_moves_ownership(self):
        ledger = TenantCacheLedger()
        ledger.charge("a", "k1")
        ledger.charge("b", "k1")
        assert ledger.owner_of("k1") == "b"
        assert ledger.owner_count("a") == 0
        assert ledger.snapshot() == {"b": 1}


class TestSeriesRegistry:
    def test_add_get_unload(self):
        registry = SeriesRegistry()
        series = random_series(1)
        loaded = registry.add("demo", series)
        assert loaded.slots == len(series)
        assert "demo" in registry
        assert registry.get("demo").series is series
        registry.unload("demo")
        assert len(registry) == 0
        with pytest.raises(ServeError, match="demo"):
            registry.get("demo")

    def test_load_from_file(self, tmp_path):
        series = random_series(2)
        path = tmp_path / "demo.series"
        save_series(series, path)
        registry = SeriesRegistry()
        loaded = registry.load("demo", path)
        assert loaded.source == str(path)
        assert loaded.quarantined == 0
        assert list(registry.get("demo").series) == list(series)

    def test_lenient_load_reports_quarantine(self, tmp_path):
        series = random_series(3, length=10)
        path = tmp_path / "dirty.series"
        save_series(series, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("bad * wildcard-feature\n")
        registry = SeriesRegistry()
        loaded = registry.load("dirty", path, lenient=True)
        assert loaded.quarantined == 1

    def test_directory_path_is_a_series_error(self, tmp_path):
        from repro.core.errors import SeriesError

        with pytest.raises(SeriesError, match="cannot read series file"):
            SeriesRegistry().load("demo", tmp_path)

    def test_rejects_unsafe_names(self):
        registry = SeriesRegistry()
        for name in ("", "a/b", " padded "):
            with pytest.raises(ServeError, match="path-safe"):
                registry.add(name, random_series(4))

    def test_describe_is_name_sorted(self):
        registry = SeriesRegistry()
        registry.add("zeta", random_series(5))
        registry.add("alpha", random_series(6))
        names = [row["name"] for row in registry.describe()]
        assert names == ["alpha", "zeta"]


class TestSingleFlight:
    def test_concurrent_same_key_coalesces(self):
        async def scenario():
            flights = SingleFlight()
            order = []

            async def client(tag):
                async with flights.hold("k") as waited:
                    order.append((tag, waited))
                    await asyncio.sleep(0)

            await asyncio.gather(*(client(i) for i in range(3)))
            assert flights.in_flight == 0
            return order, flights.snapshot()

        order, snapshot = asyncio.run(scenario())
        assert [waited for _, waited in order] == [False, True, True]
        assert snapshot == {"coalesced": 2, "led": 1, "in_flight": 0}

    def test_distinct_keys_never_contend(self):
        async def scenario():
            flights = SingleFlight()
            running = set()
            overlap = []

            async def client(key):
                async with flights.hold(key) as waited:
                    running.add(key)
                    await asyncio.sleep(0.01)
                    overlap.append(len(running))
                    running.discard(key)
                    return waited

            waits = await asyncio.gather(client("a"), client("b"))
            return waits, max(overlap)

        waits, peak = asyncio.run(scenario())
        assert waits == [False, False]
        assert peak == 2  # both keys held their locks simultaneously

    def test_lock_table_shrinks_after_release(self):
        async def scenario():
            flights = SingleFlight()
            async with flights.hold("k"):
                assert flights.in_flight == 1
            return flights.in_flight

        assert asyncio.run(scenario()) == 0


def build_app(**overrides) -> MiningApp:
    config = ServeConfig(**overrides)
    app = MiningApp(config)
    app.registry.add("demo", random_series(11, length=80))
    return app


def call(app: MiningApp, request: Request) -> tuple[int, dict]:
    return asyncio.run(app.handle(request))


class TestAppEndpoints:
    """The full request pipeline, one handle() call at a time."""

    def test_healthz(self):
        app = build_app()
        try:
            status, payload = call(app, make_request("GET", "/healthz"))
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["series_loaded"] == 1
        finally:
            app.close()

    def test_series_listing_and_unload(self):
        app = build_app()
        try:
            status, payload = call(app, make_request("GET", "/series"))
            assert status == 200
            assert [row["name"] for row in payload["series"]] == ["demo"]
            status, payload = call(
                app, make_request("DELETE", "/series/demo")
            )
            assert status == 200
            assert payload["unloaded"]["name"] == "demo"
            status, _ = call(app, make_request("DELETE", "/series/demo"))
            assert status == 404
        finally:
            app.close()

    def test_series_load_endpoint(self, tmp_path):
        series = random_series(12)
        path = tmp_path / "disk.series"
        save_series(series, path)
        app = build_app()
        try:
            status, payload = call(
                app,
                make_request(
                    "POST", "/series", {"name": "disk", "path": str(path)}
                ),
            )
            assert status == 200
            assert payload["loaded"]["slots"] == len(series)
            assert "disk" in app.registry
        finally:
            app.close()

    def test_unknown_route_and_bad_method(self):
        app = build_app()
        try:
            assert call(app, make_request("GET", "/nope"))[0] == 404
            assert call(app, make_request("DELETE", "/mine"))[0] == 405
            assert app.counters["client_errors"] == 2
        finally:
            app.close()

    def test_mine_validates_body(self):
        app = build_app()
        try:
            cases = [
                {},
                {"series": 7, "period": 4},
                {"series": "demo"},
                {"series": "demo", "period": "four"},
                {"series": "demo", "period": True},
                {"series": "demo", "period": 4, "min_conf": "high"},
            ]
            for body in cases:
                status, payload = call(app, make_request("POST", "/mine", body))
                assert status == 400, body
                assert "error" in payload
        finally:
            app.close()

    def test_mine_unknown_series_is_404(self):
        app = build_app()
        try:
            status, _ = call(
                app, make_request("POST", "/mine", {"series": "ghost", "period": 4})
            )
            assert status == 404
        finally:
            app.close()

    def test_mine_matches_direct_miner(self):
        app = build_app()
        try:
            body = {"series": "demo", "period": 4, "min_conf": 0.4}
            status, payload = call(app, make_request("POST", "/mine", body))
            assert status == 200
            direct = result_to_dict(
                PartialPeriodicMiner(
                    app.registry.get("demo").series, min_conf=0.4
                ).mine(4)
            )
            served = dict(payload["result"])
            served.pop("stats")
            direct.pop("stats")
            assert served == direct
            assert payload["serve"]["scans"] == 2  # cold: both paper scans
            assert payload["serve"]["tenant"] == "public"
        finally:
            app.close()

    def test_exact_repeat_hits_result_cache(self):
        app = build_app()
        try:
            body = {"series": "demo", "period": 4, "min_conf": 0.4}
            first = call(app, make_request("POST", "/mine", body))[1]
            second = call(app, make_request("POST", "/mine", body))[1]
            assert not first["serve"]["from_result_cache"]
            assert second["serve"]["from_result_cache"]
            assert second["serve"]["scans"] == 0
            assert second["result"] == first["result"]
            assert app.counters["result_cache_hits"] == 1
            assert app.counters["mined"] == 1
        finally:
            app.close()

    def test_higher_min_conf_projects_without_scanning(self):
        app = build_app()
        try:
            call(
                app,
                make_request(
                    "POST", "/mine",
                    {"series": "demo", "period": 4, "min_conf": 0.3},
                ),
            )
            status, payload = call(
                app,
                make_request(
                    "POST", "/mine",
                    {"series": "demo", "period": 4, "min_conf": 0.6},
                ),
            )
            assert status == 200
            assert payload["serve"]["scans"] == 0  # projection, not a rescan
            assert not payload["serve"]["from_result_cache"]
        finally:
            app.close()

    def test_rate_limited_tenant_gets_429(self):
        app = build_app(rate_limit=0.001, rate_burst=1)
        try:
            body = {"series": "demo", "period": 4}
            ok = call(app, make_request("POST", "/mine", body, tenant="acme"))
            throttled = call(
                app, make_request("POST", "/mine", body, tenant="acme")
            )
            other = call(
                app, make_request("POST", "/mine", body, tenant="beta")
            )
            assert ok[0] == 200
            assert throttled[0] == 429
            assert throttled[1]["reason"] == "rate-limit"
            assert other[0] == 200  # quota is per tenant
            assert app.counters["rejected_quota"] == 1
        finally:
            app.close()

    def test_saturated_server_gets_429(self):
        app = build_app(max_pending=1)
        try:
            app._pending = 1  # one admitted request already in the pipeline
            status, payload = call(
                app,
                make_request("POST", "/mine", {"series": "demo", "period": 4}),
            )
            assert status == 429
            assert payload["reason"] == "saturated"
            assert app.counters["rejected_busy"] == 1
        finally:
            app.close()

    def test_deadline_overrun_gets_504(self, monkeypatch):
        app = build_app(request_timeout_s=0.05)
        try:
            release = threading.Event()

            def stuck(*args, **kwargs):
                release.wait(5.0)
                raise AssertionError("the stuck mine should never finish")

            monkeypatch.setattr(app, "_mine_blocking", stuck)
            status, payload = call(
                app,
                make_request("POST", "/mine", {"series": "demo", "period": 4}),
            )
            release.set()
            assert status == 504
            assert payload["reason"] == "deadline"
            assert app.counters["timeouts"] == 1
            assert app._pending == 0  # admission slot was returned
        finally:
            app.close()

    def test_tenant_cache_share_evicts_own_oldest(self):
        app = build_app(tenant_cache_share=1)
        try:
            series_b = random_series(13, length=80)
            app.registry.add("other", series_b)
            for name in ("demo", "other"):
                call(
                    app,
                    make_request(
                        "POST", "/mine",
                        {"series": name, "period": 4},
                        tenant="acme",
                    ),
                )
            # The second cold mine evicted acme's first entry, not grew it.
            assert app.ledger.owner_count("acme") == 1
            assert app.cache.entry_count == 1
            key = app.cache.key_for(series_b, 4)
            assert app.ledger.owner_of(key) == "acme"
        finally:
            app.close()

    def test_stats_document_shape(self):
        app = build_app()
        try:
            call(
                app,
                make_request("POST", "/mine", {"series": "demo", "period": 4}),
            )
            status, stats = call(app, make_request("GET", "/stats"))
            assert status == 200
            assert stats["requests"]["served"] == 1
            assert stats["requests"]["mined"] == 1
            assert stats["queue"]["max_pending"] == app.config.max_pending
            assert stats["count_cache"]["entries"] == 1
            assert stats["result_cache"]["entries"] == 1
            assert stats["coalescing"] == {
                "coalesced": 0, "led": 1, "in_flight": 0,
            }
            assert stats["tenants"]["quota"]["public"]["admitted"] == 1
            json.dumps(stats)  # the whole document must be JSON-clean
        finally:
            app.close()

    def test_shutdown_sets_event(self):
        app = build_app()
        try:
            status, payload = call(app, make_request("POST", "/shutdown"))
            assert status == 202
            assert payload["status"] == "shutting down"
            assert app.shutdown_event.is_set()
        finally:
            app.close()

    def test_result_cache_bound_is_enforced(self):
        app = build_app(result_cache_entries=2)
        try:
            for min_conf in (0.3, 0.4, 0.5):
                call(
                    app,
                    make_request(
                        "POST", "/mine",
                        {"series": "demo", "period": 4, "min_conf": min_conf},
                    ),
                )
            assert len(app._results) == 2
        finally:
            app.close()

    def test_config_validation_rejects_nonsense(self):
        for bad in (
            {"concurrency": 0},
            {"max_pending": 0},
            {"result_cache_entries": -1},
            {"request_timeout_s": 0.0},
            {"tenant_cache_share": 0},
        ):
            with pytest.raises(ServeError):
                MiningApp(ServeConfig(**bad))


class TestStreamRoutes:
    """The /stream endpoints: open, feed, inspect, close."""

    def open_stream(self, app, name="s", **overrides):
        body = {"name": name, "period": 2, "window": 4, "slide": 2}
        body.update(overrides)
        return call(app, make_request("POST", "/stream", body))

    def test_open_feed_and_close(self):
        app = build_app()
        try:
            status, payload = self.open_stream(app)
            assert status == 201
            assert payload["stream"]["name"] == "s"
            assert payload["stream"]["strategy"] == "decrement"

            status, payload = call(
                app,
                make_request(
                    "POST", "/stream/s", {"symbols": "ababab"}
                ),
            )
            assert status == 200
            assert payload["accepted_slots"] == 6
            assert [w["index"] for w in payload["windows"]] == [0, 1]
            assert payload["windows"][0]["changes"] is None
            assert payload["state"]["windows_emitted"] == 2

            status, payload = call(app, make_request("GET", "/stream/s"))
            assert status == 200
            assert payload["stream"]["counters"]["slots"] == 6
            assert len(payload["recent_windows"]) == 2

            status, payload = call(app, make_request("DELETE", "/stream/s"))
            assert status == 200
            assert payload["closed"]["counters"]["windows"] == 2
            assert call(app, make_request("GET", "/stream/s"))[0] == 404
        finally:
            app.close()

    def test_feed_accepts_explicit_slot_lists(self):
        app = build_app()
        try:
            self.open_stream(app)
            slots = [["a"], ["b"], ["a"], ["b", "c"]]
            status, payload = call(
                app, make_request("POST", "/stream/s", {"slots": slots})
            )
            assert status == 200
            assert payload["accepted_slots"] == 4
            assert len(payload["windows"]) == 1
        finally:
            app.close()

    def test_open_validates_body(self):
        app = build_app()
        try:
            cases = [
                {},
                {"name": "", "period": 2, "window": 4},
                {"name": "s", "period": "two", "window": 4},
                {"name": "s", "period": 2},
                {"name": "s", "period": 2, "window": 4, "slide": 3},
                {"name": "s", "period": 2, "window": 4,
                 "strategy": "lru"},
                {"name": "s", "period": 2, "window": 4, "strategy": 7},
            ]
            for body in cases:
                status, payload = call(
                    app, make_request("POST", "/stream", body)
                )
                assert status == 400, body
                assert "error" in payload
        finally:
            app.close()

    def test_duplicate_name_and_stream_limit(self):
        app = build_app(max_streams=1)
        try:
            assert self.open_stream(app)[0] == 201
            status, payload = self.open_stream(app)
            assert status == 400
            assert "already exists" in payload["error"]
            status, payload = self.open_stream(app, name="other")
            assert status == 400
            assert "limit" in payload["error"]
        finally:
            app.close()

    def test_unknown_stream_is_404(self):
        app = build_app()
        try:
            for method in ("POST", "GET", "DELETE"):
                status, _ = call(
                    app, make_request(method, "/stream/ghost", {})
                )
                assert status == 404
        finally:
            app.close()

    def test_bad_methods_are_405(self):
        app = build_app()
        try:
            assert call(app, make_request("GET", "/stream"))[0] == 405
            self.open_stream(app)
            assert call(app, make_request("PUT", "/stream/s", {}))[0] == 405
        finally:
            app.close()

    def test_stats_streams_section(self):
        app = build_app()
        try:
            self.open_stream(app)
            call(app, make_request("POST", "/stream/s", {"symbols": "abab"}))
            status, stats = call(app, make_request("GET", "/stats"))
            assert status == 200
            section = stats["streams"]
            assert section["active"] == 1
            assert section["opened"] == 1
            [row] = section["sessions"]
            assert row["name"] == "s"
            assert row["windows_emitted"] == 1
            json.dumps(stats)
        finally:
            app.close()

    def test_feed_matches_direct_miner(self):
        from repro.streaming import StreamingMiner, window_to_dict

        series = random_series(7, length=60)
        app = build_app()
        try:
            self.open_stream(
                app, period=4, window=20, slide=8, strategy="ring"
            )
            status, payload = call(
                app,
                make_request(
                    "POST",
                    "/stream/s",
                    {"slots": [sorted(slot) for slot in series]},
                ),
            )
            assert status == 200
            direct = StreamingMiner(
                period=4, window=20, slide=8, retirement="ring"
            )
            expected = [window_to_dict(w) for w in direct.extend(series)]
            assert payload["windows"] == expected
        finally:
            app.close()


class TestStreamPersistence:
    """Session persistence: shutdown snapshot, restart rehydration."""

    def open_and_feed(self, app, symbols="ababab"):
        status, _ = call(
            app,
            make_request(
                "POST", "/stream",
                {"name": "s", "period": 2, "window": 4, "slide": 2},
            ),
        )
        assert status == 201
        status, payload = call(
            app, make_request("POST", "/stream/s", {"symbols": symbols})
        )
        assert status == 200
        return payload

    def test_shutdown_persists_and_restart_rehydrates(self, tmp_path):
        state_dir = str(tmp_path / "state")
        app = build_app(stream_state_dir=state_dir)
        try:
            fed = self.open_and_feed(app)
            status, payload = call(
                app, make_request("POST", "/shutdown")
            )
            assert status == 202
            assert payload["streams_open"] == 1
            assert payload["streams_persist"] is True
            assert payload["stream_state_dir"] == state_dir
        finally:
            app.close()
        assert app.stream_state["persisted"] == 1

        fresh = build_app(stream_state_dir=state_dir)
        try:
            assert fresh.stream_state["rehydrated"] == 1
            status, payload = call(
                fresh, make_request("GET", "/stream/s")
            )
            assert status == 200
            state = payload["stream"]
            assert state["slots_seen"] == 6
            assert state["windows_emitted"] == 2
            assert state["counters"]["slots"] == 6
            # The window log survives too.
            assert [
                w["index"] for w in payload["recent_windows"]
            ] == [w["index"] for w in fed["windows"]]
            # Continuing the feed emits the next window with an exact
            # change diff against the pre-restart result.
            status, payload = call(
                fresh,
                make_request("POST", "/stream/s", {"symbols": "ab"}),
            )
            assert status == 200
            assert [w["index"] for w in payload["windows"]] == [2]
            assert payload["windows"][0]["changes"] is not None
        finally:
            fresh.close()

    def test_healthz_and_stats_report_checkpoint_lag(self, tmp_path):
        app = build_app(stream_state_dir=str(tmp_path / "state"))
        try:
            self.open_and_feed(app)
            status, health = call(app, make_request("GET", "/healthz"))
            assert status == 200
            assert health["streams_open"] == 1
            assert health["streams_checkpoint_lag"] == 6
            app.persist_streams()
            _, health = call(app, make_request("GET", "/healthz"))
            assert health["streams_checkpoint_lag"] == 0
            _, stats = call(app, make_request("GET", "/stats"))
            assert stats["streams"]["checkpoint_lag"] == 0
            assert stats["stream_state"]["persisted"] == 1
        finally:
            app.close()

    def test_draining_refuses_stream_mutations(self):
        app = build_app()
        try:
            self.open_and_feed(app)
            call(app, make_request("POST", "/shutdown"))
            status, health = call(app, make_request("GET", "/healthz"))
            assert health["status"] == "draining"
            status, payload = call(
                app,
                make_request("POST", "/stream/s", {"symbols": "ab"}),
            )
            assert status == 503
            assert payload["reason"] == "draining"
            status, payload = call(
                app,
                make_request(
                    "POST", "/stream",
                    {"name": "t", "period": 2, "window": 4},
                ),
            )
            assert status == 503
            # Reads still answer during the drain.
            status, _ = call(app, make_request("GET", "/stream/s"))
            assert status == 200
        finally:
            app.close()

    def test_corrupt_state_file_starts_clean(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "streams.json").write_text("not a snapshot\n")
        app = build_app(stream_state_dir=str(state_dir))
        try:
            assert app.stream_state["rehydrated"] == 0
            assert app.stream_state["error"] is not None
            status, _ = call(app, make_request("GET", "/healthz"))
            assert status == 200
        finally:
            app.close()

    def test_without_state_dir_nothing_persists(self):
        app = build_app()
        try:
            self.open_and_feed(app)
            assert app.persist_streams() == 0
        finally:
            app.close()


class TestStreamCheckpointEndpoint:
    """POST /stream/<name>/checkpoint: client-driven persistence."""

    def open_and_feed(self, app, symbols="ababab"):
        status, _ = call(
            app,
            make_request(
                "POST", "/stream",
                {"name": "s", "period": 2, "window": 4, "slide": 2},
            ),
        )
        assert status == 201
        status, payload = call(
            app, make_request("POST", "/stream/s", {"symbols": symbols})
        )
        assert status == 200
        return payload

    def test_checkpoint_persists_and_resets_lag(self, tmp_path):
        state_dir = str(tmp_path / "state")
        app = build_app(stream_state_dir=state_dir)
        try:
            self.open_and_feed(app)
            assert app.streams.checkpoint_lag() == 6
            status, payload = call(
                app, make_request("POST", "/stream/s/checkpoint")
            )
            assert status == 200
            assert payload["stream"] == "s"
            assert payload["persisted_sessions"] == 1
            assert payload["checkpoint_lag"] == 0
            assert app.stream_state["persisted"] == 1
        finally:
            app.close()
        # The snapshot is immediately rehydratable — no shutdown needed.
        fresh = build_app(stream_state_dir=state_dir)
        try:
            assert fresh.stream_state["rehydrated"] == 1
            status, payload = call(fresh, make_request("GET", "/stream/s"))
            assert status == 200
            assert payload["stream"]["slots_seen"] == 6
        finally:
            fresh.close()

    def test_checkpoint_snapshots_every_open_session(self, tmp_path):
        app = build_app(stream_state_dir=str(tmp_path / "state"))
        try:
            self.open_and_feed(app)
            status, _ = call(
                app,
                make_request(
                    "POST", "/stream",
                    {"name": "t", "period": 2, "window": 4},
                ),
            )
            assert status == 201
            status, payload = call(
                app, make_request("POST", "/stream/s/checkpoint")
            )
            assert status == 200
            assert payload["persisted_sessions"] == 2
        finally:
            app.close()

    def test_unknown_session_404(self, tmp_path):
        app = build_app(stream_state_dir=str(tmp_path / "state"))
        try:
            status, _ = call(
                app, make_request("POST", "/stream/ghost/checkpoint")
            )
            assert status == 404
        finally:
            app.close()

    def test_without_state_dir_400(self):
        app = build_app()
        try:
            self.open_and_feed(app)
            status, payload = call(
                app, make_request("POST", "/stream/s/checkpoint")
            )
            assert status == 400
            assert "--stream-state-dir" in payload["error"]
        finally:
            app.close()

    def test_draining_503(self, tmp_path):
        app = build_app(stream_state_dir=str(tmp_path / "state"))
        try:
            self.open_and_feed(app)
            call(app, make_request("POST", "/shutdown"))
            status, payload = call(
                app, make_request("POST", "/stream/s/checkpoint")
            )
            assert status == 503
            assert payload["reason"] == "draining"
        finally:
            app.close()

    def test_wrong_method_405(self, tmp_path):
        app = build_app(stream_state_dir=str(tmp_path / "state"))
        try:
            self.open_and_feed(app)
            status, _ = call(
                app, make_request("GET", "/stream/s/checkpoint")
            )
            assert status == 405
        finally:
            app.close()


class TestCoalescingEquivalence:
    """The subsystem's central invariant: concurrency changes latency, not
    answers.  N concurrent clients at mixed thresholds must each receive
    byte-identical results to a direct serial mine, while the server's
    scan count stays bounded by the number of *distinct* thresholds, not
    the number of clients."""

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_concurrent_mixed_thresholds_match_serial_mining(self, seed):
        rng = random.Random(seed)
        series = random_series(seed, length=120, features=4)
        period = rng.choice([3, 4, 5])
        thresholds = [0.25, 0.4, 0.55, 0.7]
        clients = [rng.choice(thresholds) for _ in range(24)]

        app = MiningApp(ServeConfig(concurrency=4))
        app.registry.add("s", series)
        try:
            async def storm():
                return await asyncio.gather(
                    *(
                        app.handle(
                            make_request(
                                "POST", "/mine",
                                {
                                    "series": "s",
                                    "period": period,
                                    "min_conf": min_conf,
                                },
                                tenant=f"t{i % 3}",
                            )
                        )
                        for i, min_conf in enumerate(clients)
                    )
                )

            responses = asyncio.run(storm())

            expected = {}
            for min_conf in sorted(set(clients)):
                document = result_to_dict(
                    PartialPeriodicMiner(series, min_conf=min_conf).mine(period)
                )
                document.pop("stats")  # scan counts differ warm vs cold
                expected[min_conf] = json.dumps(document, sort_keys=True)

            for (status, payload), min_conf in zip(responses, clients):
                assert status == 200
                served = dict(payload["result"])
                served.pop("stats")
                assert (
                    json.dumps(served, sort_keys=True) == expected[min_conf]
                ), f"divergence at min_conf={min_conf}"

            # The leader pays two scans; each *distinct* lower threshold
            # pays at most one widening scan-2.  24 clients, <= 5 scans.
            distinct = len(set(clients))
            assert app.counters["scans_executed"] <= 2 * distinct
            assert app.counters["scans_executed"] < len(clients)
            snapshot = app.flights.snapshot()
            assert snapshot["led"] + snapshot["coalesced"] >= distinct
        finally:
            app.close()

    def test_sequential_then_concurrent_rerun_is_all_warm(self):
        series = random_series(42, length=100)
        app = MiningApp(ServeConfig())
        app.registry.add("s", series)
        try:
            for min_conf in (0.3, 0.5, 0.7):
                call(
                    app,
                    make_request(
                        "POST", "/mine",
                        {"series": "s", "period": 4, "min_conf": min_conf},
                    ),
                )
            scans_before = app.counters["scans_executed"]

            async def storm():
                return await asyncio.gather(
                    *(
                        app.handle(
                            make_request(
                                "POST", "/mine",
                                {"series": "s", "period": 4, "min_conf": mc},
                            )
                        )
                        for mc in (0.3, 0.5, 0.7) * 8
                    )
                )

            responses = asyncio.run(storm())
            assert all(status == 200 for status, _ in responses)
            assert all(
                payload["serve"]["scans"] == 0 for _, payload in responses
            )
            assert app.counters["scans_executed"] == scans_before
        finally:
            app.close()


class TestServerSocket:
    """One real server on an ephemeral port: keep-alive, shutdown, drain."""

    def test_keep_alive_session_and_clean_shutdown(self):
        async def scenario():
            app = MiningApp(ServeConfig())
            app.registry.add("s", random_series(7, length=80))
            server = MiningServer(app, port=0)
            await server.start()
            runner = asyncio.ensure_future(server.serve_forever())

            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )

            async def roundtrip(raw):
                writer.write(raw)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status = int(head.split(b" ", 2)[1])
                length = int(
                    dict(
                        line.split(b": ", 1)
                        for line in head.split(b"\r\n")[1:-2]
                    )[b"Content-Length"]
                )
                return status, json.loads(await reader.readexactly(length))

            status, payload = await roundtrip(http("GET", "/healthz"))
            assert status == 200 and payload["status"] == "ok"

            # Same socket, second request: keep-alive works.
            status, payload = await roundtrip(
                http("POST", "/mine", {"series": "s", "period": 4})
            )
            assert status == 200
            assert payload["serve"]["scans"] == 2

            status, payload = await roundtrip(http("POST", "/shutdown"))
            assert status == 202
            # Shutdown responses close the connection.
            assert await reader.read() == b""
            writer.close()

            await asyncio.wait_for(runner, timeout=5.0)
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                await asyncio.open_connection(server.host, server.port)

        asyncio.run(scenario())

    def test_protocol_error_answers_400_and_closes(self):
        async def scenario():
            app = MiningApp(ServeConfig())
            server = MiningServer(app, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"TOTAL GARBAGE\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"400 Bad Request" in head
                assert b"Connection: close" in head
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(scenario())

    def test_handler_crash_answers_500_but_keeps_serving(self):
        async def scenario():
            app = MiningApp(ServeConfig())

            async def explode(request):
                raise RuntimeError("wired to fail")

            app.handle = explode
            server = MiningServer(app, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(http("GET", "/healthz"))
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"500 Internal Server Error" in head
                length = int(
                    dict(
                        line.split(b": ", 1)
                        for line in head.split(b"\r\n")[1:-2]
                    )[b"Content-Length"]
                )
                body = json.loads(await reader.readexactly(length))
                assert "RuntimeError" in body["error"]
                # The crash did not kill the connection: ask again.
                writer.write(http("GET", "/healthz"))
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"500" in head  # still the patched handler, still alive
                writer.close()
            finally:
                await server.aclose()

        asyncio.run(scenario())
