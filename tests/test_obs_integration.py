"""Cross-layer observability integration tests (PR 8 + PR 10).

Spins real in-thread shard servers and asserts the telemetry promises
end to end: one trace id in every shard's span buffer after a
scatter-gather query, tail percentiles on every op in the stats frame,
metrics deltas over the wire (including cursor resets across restarts),
the live cluster monitor over managed stores, overflow-proof table
rendering, the headless alerts/slow CLIs, and the thread-safe harness
stopwatch.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.cluster import ClusterRouter, make_shard_map
from repro.core.registry import make_scheme
from repro.harness.metrics import Stopwatch
from repro.net import NetTransport, serve_in_thread
from repro.net.server import ServerStats
from repro.obs import (
    ClusterMonitor,
    MetricsRegistry,
    new_trace_id,
    render_top,
)

DOMAIN = 512


def _records(seed: int, n: int = 120):
    rng = random.Random(seed)
    return [(i, rng.randrange(DOMAIN)) for i in range(n)]


def _schemes(count: int, seed: int, name: str = "logarithmic-brc"):
    return [
        make_scheme(name, DOMAIN, rng=random.Random(seed + i))
        for i in range(count)
    ]


@pytest.fixture
def two_shards():
    servers = [serve_in_thread(shard=f"{i}/2") for i in range(2)]
    shard_map = make_shard_map([(s.host, s.port) for s in servers])
    router = ClusterRouter(_schemes(2, seed=11), shard_map)
    router.outsource(_records(seed=5))
    try:
        yield servers, router
    finally:
        router.close()
        for server in servers:
            server.stop()


class TestTracePropagation:
    def test_one_trace_id_lands_in_every_shard(self, two_shards):
        servers, router = two_shards
        tid = new_trace_id()
        router.query_many([(10, 200), (0, DOMAIN - 1)], trace_id=tid)
        # Client side: the scatter root span, with one per-shard child
        # (pool submissions run under a copied context, so spans opened
        # on worker threads attach to the caller's trace).
        assert tid in router.tracer.trace_ids()
        (client_trace,) = router.tracer.find(tid)
        names = [s["name"] for s in client_trace["spans"]]
        assert names.count("router.scatter") == 1
        assert names.count("router.shard") == len(servers)
        assert set(names) == {"router.scatter", "router.shard"}
        # Server side: every shard buffered the same id, with the full
        # span stack under its server.handle root.
        for server in servers:
            tracer = server.server.core.tracer
            assert tid in tracer.trace_ids()
            (trace,) = tracer.find(tid)
            names = {s["name"] for s in trace["spans"]}
            assert {"server.handle", "engine.wave", "kernel.batch",
                    "storage.get_many"} <= names
            root = trace["spans"][-1]
            assert root["name"] == "server.handle"
            assert root["depth"] == 0

    def test_untraced_queries_leave_no_trace(self, two_shards):
        servers, router = two_shards
        router.query_many([(10, 200)])
        assert len(router.tracer) == 0
        for server in servers:
            assert len(server.server.core.tracer) == 0

    def test_distinct_queries_get_distinct_traces(self, two_shards):
        servers, router = two_shards
        ids = [new_trace_id() for _ in range(3)]
        for tid in ids:
            router.query_many([(0, 99)], trace_id=tid)
        for server in servers:
            assert set(ids) <= server.server.core.tracer.trace_ids()

    def test_traces_ride_the_metrics_frame(self, two_shards):
        servers, router = two_shards
        tid = new_trace_id()
        router.query_many([(10, 400)], trace_id=tid)
        server = servers[0]
        with NetTransport(server.host, server.port) as transport:
            payload = transport.metrics(max_traces=16)
        assert tid in {t["trace_id"] for t in payload["traces"]}
        # Without max_traces the frame stays trace-free (small polls).
        with NetTransport(server.host, server.port) as transport:
            assert transport.metrics()["traces"] == []


class TestStatsSurface:
    def test_ops_report_tail_percentiles(self, two_shards):
        servers, router = two_shards
        for _ in range(4):
            router.query_many([(0, 100), (200, 300)])
        for server in servers:
            with NetTransport(server.host, server.port) as transport:
                stats = transport.stats()
            assert stats.get("v") == 1
            ops = stats["net"]["ops"]
            assert ops, "expected at least one recorded op"
            for name, entry in ops.items():
                # Historical keys stay; percentiles ride alongside.
                assert entry["count"] >= 1, name
                for key in ("total_seconds", "mean_seconds", "p50_seconds",
                            "p95_seconds", "p99_seconds"):
                    assert key in entry, (name, key)
                assert entry["p50_seconds"] <= entry["p99_seconds"] * 1.0001
            # The unified registry view rides the same stats frame.
            assert stats["metrics"]["v"] == 1
            assert any(
                k.startswith("op.") for k in stats["metrics"]["histograms"]
            )

    def test_stats_frame_tolerates_unknown_keys(self, two_shards):
        servers, _ = two_shards
        server = servers[0]
        with NetTransport(server.host, server.port) as transport:
            stats = transport.stats()
        # Forward-compat contract: the client returns whatever dict the
        # server sent — unknown keys (like a future "v2_section") pass
        # through instead of being schema-validated away.
        assert isinstance(stats, dict)
        assert {"server", "net", "metrics", "v"} <= set(stats)

    def test_legacy_op_seconds_shape_is_preserved(self):
        stats = ServerStats()
        stats.record_op("multi-search", 0.01)
        stats.record_op("multi-search", 0.03)
        # The in-memory [count, sum] lists that pre-PR8 consumers read.
        assert stats.op_seconds["multi-search"][0] == 2
        assert abs(stats.op_seconds["multi-search"][1] - 0.04) < 1e-9
        entry = stats.to_dict()["ops"]["multi-search"]
        assert entry["count"] == 2
        assert entry["p50_seconds"] > 0.0

    def test_disabled_registry_degrades_to_zero_percentiles(self):
        stats = ServerStats(registry=MetricsRegistry(enabled=False))
        stats.record_op("search", 0.02)
        entry = stats.to_dict()["ops"]["search"]
        assert entry["count"] == 1  # the legacy tally still works
        assert entry["p99_seconds"] == 0.0  # instruments are no-ops


class TestMetricsDelta:
    def test_delta_over_the_wire(self, two_shards):
        servers, router = two_shards
        router.query_many([(0, 100)])
        server = servers[0]
        with NetTransport(server.host, server.port) as transport:
            full = transport.metrics()
            assert "op.multi-search" in full["histograms"]
            cursor = full["seq"]
            # The metrics op itself records its own latency after each
            # reply, so op.metrics legitimately reappears — but the
            # query op must NOT: nothing searched since the cursor.
            quiet = transport.metrics(since=cursor)
            assert "op.multi-search" not in quiet["histograms"]
            assert quiet["since"] == cursor
            router.query_many([(0, 100)])
            moved = transport.metrics(since=cursor)
            assert "op.multi-search" in moved["histograms"]

    def test_per_shard_registries_are_distinct(self, two_shards):
        servers, _ = two_shards
        registries = [s.server.stats.registry for s in servers]
        assert registries[0] is not registries[1]

    def test_cursor_reset_across_restart(self, two_shards):
        """A poller resuming its delta cursor against a *restarted*
        shard must get a full snapshot, not silence: the boot id it
        pinned no longer matches, so the server resets the cursor.

        Registry sequence numbers are process-global, so a genuinely
        restarted process can hand out cursors that alias the old
        ones — the boot id is what makes the difference detectable.
        Here the 'restart' is a second registry (fresh boot id) and a
        deliberately future cursor standing in for a stale one.
        """
        servers, router = two_shards
        router.query_many([(0, 100)])
        server = servers[0]
        with NetTransport(server.host, server.port) as transport:
            full = transport.metrics()
            boot = full["boot"]
            assert boot and len(boot) == 16
            # Matching boot: the cursor is honored — a future cursor
            # sees nothing new and no reset marker.
            quiet = transport.metrics(since=10**9, boot=boot)
            assert "cursor_reset" not in quiet
            assert "op.multi-search" not in quiet["histograms"]
            # Mismatched boot (the shard "restarted"): same cursor now
            # triggers a reset and the full current state comes back.
            # (All-zero is the wire's "unset" sentinel, so it can't
            # serve as a stale id.)
            stale = "f" * 16 if boot != "f" * 16 else "e" * 16
            reset = transport.metrics(since=10**9, boot=stale)
            assert reset["cursor_reset"] is True
            assert reset["boot"] == boot
            assert "op.multi-search" in reset["histograms"]

    def test_cursor_survives_real_restart_generations(self):
        """Same contract with two actual server generations: a poller
        that pinned generation 1's boot id sees the reset marker on
        its first poll of generation 2."""
        first = serve_in_thread(shard="gen/1")
        try:
            with NetTransport(first.host, first.port) as transport:
                boot1 = transport.metrics()["boot"]
                seq1 = transport.metrics()["seq"]
        finally:
            first.stop()
        second = serve_in_thread(shard="gen/2")
        try:
            with NetTransport(second.host, second.port) as transport:
                payload = transport.metrics(since=seq1, boot=boot1)
            assert payload["boot"] != boot1
            assert payload["cursor_reset"] is True
        finally:
            second.stop()


class TestClusterMonitor:
    def test_sample_covers_every_shard(self, two_shards):
        servers, router = two_shards
        router.query_many([(0, 200)])
        addrs = [(s.host, s.port) for s in servers]
        with ClusterMonitor(addrs) as monitor:
            first = monitor.sample()
            assert first["v"] == 1
            assert first["shard_count"] == 2
            assert first["reachable"] == 2
            shards = {row["shard"] for row in first["shards"]}
            assert shards == {"0/2", "1/2"}
            for row in first["shards"]:
                assert row["reachable"] is True
                assert row["schema_v"] == 1
                assert row["ops_total"] >= 1
                assert row["p99_ms"] >= 0.0
                assert row["inflight"] >= 0
            # Rates are derived between consecutive samples.
            router.query_many([(0, 200), (10, 30)])
            second = monitor.sample()
            assert all(row["qps"] >= 0.0 for row in second["shards"])
            json.dumps(second)  # --json mode serves this verbatim

    def test_down_shard_is_a_row_not_a_crash(self, two_shards):
        servers, _ = two_shards
        addrs = [(s.host, s.port) for s in servers]
        with ClusterMonitor(addrs) as monitor:
            servers[1].stop()
            sample = monitor.sample()
            assert sample["reachable"] == 1
            down = [r for r in sample["shards"] if not r["reachable"]]
            assert len(down) == 1 and down[0]["error"]
            rendered = render_top(sample)
            assert "DOWN" in rendered

    def test_render_top_table_shape(self, two_shards):
        servers, router = two_shards
        router.query_many([(5, 50)])
        addrs = [(s.host, s.port) for s in servers]
        with ClusterMonitor(addrs) as monitor:
            rendered = render_top(monitor.sample())
        lines = rendered.splitlines()
        assert "qps" in lines[0] and "p99ms" in lines[0]
        assert len(lines) == 4  # header + 2 shard rows + footer
        assert lines[-1] == "shards 2/2 reachable"

    def test_monitor_accepts_string_addrs(self, two_shards):
        servers, _ = two_shards
        addrs = [f"{s.host}:{s.port}" for s in servers]
        with ClusterMonitor(addrs) as monitor:
            assert monitor.sample()["reachable"] == 2

    def test_monitor_rejects_empty_and_garbage_addrs(self):
        with pytest.raises(ValueError):
            ClusterMonitor([])
        with pytest.raises(ValueError):
            ClusterMonitor(["no-port-here"])

    def test_managed_store_updates_ride_the_monitor(self):
        """The PR-9 ``updates.*`` counter family surfaces per shard in
        monitor samples (and therefore in ``top --once --json``)."""
        from repro.net.store import NetRangeStore

        servers = [serve_in_thread(shard=f"{i}/2") for i in range(2)]
        try:
            for n, server in enumerate(servers):
                with NetRangeStore.connect(
                    server.host,
                    server.port,
                    domain_size=DOMAIN,
                    schemes=("logarithmic-brc",),
                    index_id=41,
                    consolidation_step=2,
                ) as store:
                    store.insert_many((i, i % DOMAIN) for i in range(6 + n))
                    store.flush()
            addrs = [(s.host, s.port) for s in servers]
            with ClusterMonitor(addrs) as monitor:
                sample = monitor.sample()
            assert sample["reachable"] == 2
            for n, row in enumerate(sample["shards"]):
                assert row["updates"]["applied"] == 6 + n
                assert row["updates"]["batches"] >= 1
                # The raw registry stays off the row unless asked for.
                assert "metrics" not in row
            with ClusterMonitor(addrs, collect_metrics=True) as monitor:
                sample = monitor.sample()
            for row in sample["shards"]:
                assert "updates.applied" in row["metrics"]["counters"]
        finally:
            for server in servers:
                server.stop()


class TestRenderOverflow:
    """Hostile values must truncate inside their columns, not shear
    the table (the pre-PR10 f-strings let any cell overflow)."""

    @staticmethod
    def _row(**overrides):
        row = {
            "address": "10.0.0.1:9999",
            "reachable": True,
            "shard": "0/2",
            "qps": 12.5,
            "p50_ms": 1.0,
            "p99_ms": 2.0,
            "inflight": 0,
            "cache_hit_rate": 0.5,
            "errors": 0,
        }
        row.update(overrides)
        return row

    def test_render_top_survives_hostile_values(self):
        sample = {
            "shard_count": 2,
            "reachable": 2,
            "shards": [
                self._row(),
                self._row(
                    address="very-long-hostname.internal.example.com:65001",
                    shard="9999999/9999999",
                    qps=123456789012.0,
                    errors=10**15,
                ),
            ],
        }
        rendered = render_top(sample)
        lines = rendered.splitlines()
        up_rows = [l for l in lines if " UP " in l]
        assert len(up_rows) == 2
        assert len(up_rows[0]) == len(up_rows[1])  # aligned despite abuse
        assert "…" in up_rows[1]
        assert "123456789012" not in up_rows[1]  # compacted, not spilled

    def test_render_health_survives_hostile_values(self):
        from repro.cluster.health import render_health

        def entry(**overrides):
            base = {
                "shard": 0,
                "address": "10.0.0.1:9999",
                "reachable": True,
                "label": "",
                "stored_bytes": 1024,
                "frames_in": 10,
                "errors": 0,
                "inflight_by_index": {},
                "exec_cache": None,
                "ops": {},
                "search_p99_ms": 1.5,
            }
            base.update(overrides)
            return base

        health = {
            "topology_version": 1,
            "shard_count": 2,
            "reachable": 2,
            "unreachable_shards": [],
            "totals": {"stored_bytes": 0, "frames_in": 0},
            "exec_cache_hit_rate": 0.0,
            "shards": [
                entry(),
                entry(
                    shard=77777777,
                    address="very-long-hostname.internal.example.com:65001",
                    label="a-label-much-longer-than-the-column",
                    stored_bytes=10**14,
                    frames_in=10**12,
                    search_p99_ms=123456.789,
                ),
            ],
        }
        normal, hostile = render_health(health).splitlines()[3:5]
        assert len(normal) == len(hostile)  # aligned despite abuse
        assert "…" in hostile

    def test_summarize_mixed_fleet_kernel_stats(self):
        # A shard still running an older build reports pooled-kernel
        # counters; a current shard reports only batch/leaf/label
        # counts.  Health sums neither and renders both rows alike.
        from repro.cluster.health import render_health, summarize

        def probe(kernel):
            return {
                "reachable": True,
                "stats": {
                    "net": {"frames_in": 5, "errors": 0, "ops": {}},
                    "server": {"stored_bytes": 100, "crypto_kernel": kernel},
                },
            }

        smap = make_shard_map([("127.0.0.1", 9001), ("127.0.0.1", 9002)])
        health = summarize(smap, [
            probe({"backend": "process", "workers": 2,
                   "batches_offloaded": 7, "serial_fallbacks": 1}),
            probe({"batches": 3, "leaves_expanded": 24,
                   "labels_derived": 9}),
        ])
        assert health["reachable"] == 2
        assert health["totals"]["stored_bytes"] == 200
        assert not {"batches_offloaded", "serial_fallbacks"} & set(
            health["totals"]
        )
        assert "kernel_offload_ratio" not in health
        assert all("crypto_kernel" not in s for s in health["shards"])
        lines = render_health(health).splitlines()
        assert "kernel" not in lines[0] + lines[1]
        assert len(lines[3]) == len(lines[4])


class TestCliHeadless:
    def test_top_once_json(self, capsys):
        from repro.harness.cli import main

        code = main([
            "top", "--once", "--json", "--records", "80",
            "--domain", str(DOMAIN),
        ])
        assert code == 0
        sample = json.loads(capsys.readouterr().out)
        assert sample["shard_count"] == 2
        assert sample["reachable"] == 2
        # PR 10: the sample carries the SLO rollup, and the bulky raw
        # registry snapshots are stripped from the JSON surface.
        assert sample["alerts"]["worst"] in {"ok", "warn", "page"}
        assert {a["name"] for a in sample["alerts"]["alerts"]} == {
            "search-p99", "error-rate", "fleet",
        }
        assert all("metrics" not in row for row in sample["shards"])

    def test_alerts_once_pages_on_breached_objective(self, capsys):
        """An impossible latency bound turns into worst=page and exit
        code 1 — the headless CI/cron contract."""
        from repro.harness.cli import main

        code = main([
            "alerts", "--once", "--json", "--shards", "1",
            "--records", "80", "--domain", str(DOMAIN),
            "--samples", "2", "--interval", "0.1",
            "--objective", "ci-page: p99(op.multi-search) < 0.001ms over 1m",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["worst"] == "page"
        [alert] = doc["alerts"]
        assert alert["name"] == "ci-page"
        assert alert["state"] == "page"
        assert alert["worst_shard"]

    def test_alerts_once_healthy_objective_exits_zero(self, capsys):
        from repro.harness.cli import main

        code = main([
            "alerts", "--once", "--json", "--shards", "1",
            "--records", "80", "--domain", str(DOMAIN),
            "--samples", "2", "--interval", "0.1",
            "--objective", "ci-ok: p99(op.multi-search) < 60s over 1m",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["worst"] == "ok"

    def test_slow_demo_captures_over_the_wire(self, capsys):
        """The slow CLI's demo cluster runs sampled tracing with an
        armed recorder; captures ride back via the metrics frame."""
        from repro.harness.cli import main

        code = main([
            "slow", "--json", "--shards", "1", "--records", "80",
            "--domain", str(DOMAIN), "--queries", "4",
            "--threshold-ms", "0",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["v"] == 1
        assert doc["slow"]
        top = doc["slow"][0]
        assert top["op"] == "multi-search"
        assert any(
            span["name"] == "storage.get_many" for span in top["spans"]
        )
        assert top["trace_id"]

    def test_trace_chrome_export(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "trace.json"
        code = main([
            "trace", "--records", "80", "--domain", str(DOMAIN),
            "--queries", "2", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"router.scatter", "server.handle", "engine.wave"} <= names

    def test_trace_jsonl_to_stdout(self, capsys):
        from repro.harness.cli import main

        code = main([
            "trace", "--records", "80", "--domain", str(DOMAIN),
            "--queries", "1", "--format", "jsonl",
        ])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        rows = [json.loads(line) for line in lines]
        assert any(r["name"] == "router.scatter" for r in rows)


class TestStopwatchThreadSafety:
    def test_concurrent_measures_never_lose_time(self):
        """Regression: ``seconds +=`` was an unlocked read-modify-write;
        racing measure() blocks could overwrite each other's updates.
        With the lock, the total is at least the sum of every block's
        sleep — a lost update would fall short of the bound."""
        sw = Stopwatch()
        threads_n, iters, nap = 4, 25, 0.002

        def worker():
            for _ in range(iters):
                with sw.measure():
                    time.sleep(nap)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sw.seconds >= threads_n * iters * nap

    def test_single_threaded_accumulation_still_works(self):
        sw = Stopwatch()
        with sw.measure():
            pass
        with sw.measure():
            pass
        assert sw.seconds >= 0.0
        assert repr(sw)  # the lock field stays out of repr/compare
        assert "_lock" not in repr(sw)
