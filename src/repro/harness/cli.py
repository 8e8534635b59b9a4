"""Command-line entry point: experiments, plus the network service.

Usage::

    rsse-experiments fig5a            # or: python -m repro.harness.cli fig5a
    rsse-experiments all --csv-dir results/
    rsse-experiments serve --port 9471 --sqlite server.db
    rsse-experiments connect --port 9471 --records 500 --queries 20
    rsse-experiments ingest --ops 600 --scheme logarithmic-src-i
    rsse-experiments cluster --shards 4 --bootstrap
    rsse-experiments top --once --json
    rsse-experiments trace --queries 8 --format chrome --out trace.json
    rsse-experiments slow --json --threshold-ms 5
    rsse-experiments alerts --once --json

Every experiment subcommand prints the same rows/series the paper
reports; ``--csv-dir`` additionally writes machine-readable output.
``serve`` hosts an :class:`~repro.net.RsseNetServer` (key-free: it only
ever sees ciphertext); ``connect`` is the owner-side smoke client —
build, outsource over TCP, query, verify against the plaintext oracle,
and print latency plus the server's stats surface.  ``top`` is the live
cluster monitor (per-shard QPS/tail-latency table, with SLO states);
``trace`` captures cross-layer query traces and exports them as Chrome
trace or JSONL; ``slow`` pulls the slow-query flight recorder's
captures; ``alerts`` evaluates declarative SLOs headlessly (``--once
--json`` exits nonzero on a page state — the CI/cron hook).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.harness import experiments
from repro.harness.tables import render_series, render_table, series_to_csv

_EXPERIMENTS = (
    "table1",
    "fig5a",
    "fig5b",
    "table2",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "ablation-urc",
    "ablation-tdag",
    "ablation-updates",
    "compare-baselines",
    "dispatch",
)


def _write_csv(csv_dir: "pathlib.Path | None", name: str, text: str) -> None:
    if csv_dir is None:
        return
    csv_dir.mkdir(parents=True, exist_ok=True)
    (csv_dir / f"{name}.csv").write_text(text)


def run_experiment(
    name: str,
    csv_dir: "pathlib.Path | None" = None,
    *,
    dispatch: str = "auto",
) -> str:
    """Run one experiment by CLI name, returning its rendered output.

    ``dispatch`` only affects the ``dispatch`` experiment: ``"auto"``
    lets the cost dispatcher choose per query, a scheme name pins every
    query to that lane.
    """
    if name == "dispatch":
        rows, chosen = experiments.dispatch_demo(dispatch=dispatch)
        _write_csv(
            csv_dir,
            name,
            "range,width,scheme,est_cost_us,measured_ms,results\n"
            + "\n".join(
                # The range cell contains a comma — quote it, or every
                # column after it shifts by one in any CSV reader.
                ",".join([f'"{row[0]}"'] + [str(c) for c in row[1:]])
                for row in rows
            ),
        )
        tally = ", ".join(f"{s}: {n}" for s, n in sorted(chosen.items()))
        return (
            "== Adaptive dispatch — hybrid store, mixed workload ==\n"
            + render_table(
                ["range", "width", "scheme chosen", "est cost us", "measured ms", "results"],
                rows,
            )
            + f"\nlane tally: {tally}"
        )
    if name in ("fig5a", "fig5b"):
        size_series, time_series = experiments.fig5()
        series = size_series if name == "fig5a" else time_series
        _write_csv(csv_dir, name, series_to_csv(series))
        return render_series(series)
    if name == "table2":
        rows = experiments.table2()
        _write_csv(
            csv_dir,
            name,
            "scheme,index_mib,construction_s\n"
            + "\n".join(f"{s},{m},{t}" for s, m, t in rows),
        )
        return "== Table 2 — Index costs (USPS-like) ==\n" + render_table(
            ["scheme", "index MiB", "construction s"], [list(r) for r in rows]
        )
    if name in ("fig6a", "fig6b"):
        series = experiments.fig6("gowalla" if name == "fig6a" else "usps")
        _write_csv(csv_dir, name, series_to_csv(series))
        return render_series(series)
    if name in ("fig7a", "fig7b"):
        series = experiments.fig7("gowalla" if name == "fig7a" else "usps")
        _write_csv(csv_dir, name, series_to_csv(series))
        return render_series(series)
    if name in ("fig8a", "fig8b"):
        size_series, time_series = experiments.fig8()
        series = size_series if name == "fig8a" else time_series
        _write_csv(csv_dir, name, series_to_csv(series))
        return render_series(series)
    if name == "table1":
        rows = experiments.table1()
        return "== Table 1 — Storage asymptotics check ==\n" + render_table(
            ["scheme", "claimed", "4x-n growth factor", "verdict"],
            [list(r) for r in rows],
        )
    if name == "ablation-urc":
        rows = experiments.ablation_urc()
        return "== Ablation — BRC vs URC token counts ==\n" + render_table(
            ["R", "brc min", "brc max", "urc min", "urc max"],
            [list(r) for r in rows],
        )
    if name == "ablation-tdag":
        avg, worst = experiments.ablation_tdag()
        return (
            "== Ablation — TDAG SRC blow-up (Lemma 1 bound: 4) ==\n"
            f"average cover/R ratio: {avg:.3f}\nworst   cover/R ratio: {worst:.3f}"
        )
    if name == "ablation-updates":
        rows = experiments.ablation_updates()
        return "== Ablation — consolidation step ==\n" + render_table(
            ["s", "active idx", "merges", "re-encrypted"], [list(r) for r in rows]
        )
    if name == "compare-baselines":
        from repro.harness.baseline_comparison import compare_baselines

        rows = compare_baselines()
        return (
            "== Prior-work comparison (Section 2.1 made quantitative) ==\n"
            + render_table(
                [
                    "approach",
                    "index B",
                    "avg query s",
                    "avg FPs",
                    "order leaked (rank corr.)",
                    "histogram leaked",
                ],
                [
                    [
                        r.approach,
                        r.index_bytes,
                        r.avg_query_seconds,
                        r.avg_false_positives,
                        r.order_leak_correlation,
                        "yes" if r.histogram_disclosed else "no",
                    ]
                    for r in rows
                ],
            )
        )
    raise ValueError(f"unknown experiment {name!r}")


def _serve_main(argv: "list[str]") -> int:
    """``rsse-experiments serve``: host the network server until ^C."""
    import signal

    from repro.net import RsseNetServer
    from repro.protocol import RsseServer
    from repro.storage import InMemoryBackend, SqliteBackend

    parser = argparse.ArgumentParser(
        prog="rsse-experiments serve",
        description="Host a key-free RSSE server over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=9471, help="0 picks a free port"
    )
    parser.add_argument(
        "--sqlite",
        metavar="PATH",
        default=None,
        help="persist uploaded state to this SQLite file "
        "(in-memory when omitted; existing handles rehydrate)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission bound: frames processed at once across all "
        "connections (backpressure beyond it)",
    )
    parser.add_argument(
        "--max-frame-mb",
        type=int,
        default=64,
        help="reject frames larger than this many MiB",
    )
    parser.add_argument(
        "--shard",
        default="",
        metavar="I/N",
        help="cluster shard label (e.g. 2/4) — rides the stats frame so "
        "a router's health view can title this node",
    )
    parser.add_argument(
        "--tls-cert",
        metavar="PEM",
        default=None,
        help="serve TLS with this certificate chain (requires --tls-key)",
    )
    parser.add_argument(
        "--tls-key",
        metavar="PEM",
        default=None,
        help="private key for --tls-cert",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="trace one in every N queries (always-on sampled tracing; "
        "default: REPRO_TRACE_SAMPLE or off)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="flight-record any query slower than this many ms "
        "(default: REPRO_SLOW_MS or off)",
    )
    parser.add_argument(
        "--slow-p99x",
        type=float,
        default=None,
        metavar="X",
        help="flight-record queries slower than X times the live per-op "
        "p99 (default: REPRO_SLOW_P99X or off)",
    )
    parser.add_argument(
        "--event-log",
        metavar="PATH",
        default=None,
        help="append structured lifecycle events to this JSONL file "
        "(default: REPRO_EVENT_LOG or in-memory only)",
    )
    args = parser.parse_args(argv)
    if bool(args.tls_cert) != bool(args.tls_key):
        parser.error("--tls-cert and --tls-key must be given together")
    ssl_context = None
    if args.tls_cert:
        import ssl as ssl_module

        ssl_context = ssl_module.SSLContext(ssl_module.PROTOCOL_TLS_SERVER)
        ssl_context.load_cert_chain(args.tls_cert, args.tls_key)
    backend = (
        SqliteBackend(args.sqlite) if args.sqlite else InMemoryBackend()
    )
    core_kwargs = {}
    if args.trace_sample is not None:
        from repro.obs import TraceSampler

        core_kwargs["trace_sampler"] = TraceSampler(args.trace_sample)
    if args.slow_ms is not None or args.slow_p99x is not None:
        from repro.obs import FlightRecorder

        core_kwargs["flight"] = FlightRecorder(
            threshold_s=None if args.slow_ms is None else args.slow_ms / 1e3,
            p99_factor=args.slow_p99x,
        )
    if args.event_log is not None:
        from repro.obs import EventLog

        core_kwargs["events"] = EventLog(path=args.event_log)
    server = RsseNetServer(
        RsseServer(backend, **core_kwargs),
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_frame_bytes=args.max_frame_mb << 20,
        ssl=ssl_context,
        shard=args.shard,
    )
    server.start()
    shard_note = f", shard {args.shard}" if args.shard else ""
    tls_note = ", tls" if ssl_context is not None else ""
    print(
        f"rsse-server listening on {args.host}:{server.port} "
        f"(backend: {'sqlite:' + args.sqlite if args.sqlite else 'memory'}, "
        f"max in-flight: {server.max_inflight}{shard_note}{tls_note})",
        flush=True,
    )
    # ^C/SIGTERM drain through server.stop() — in-flight requests finish
    # and flush (the graceful drain the class promises) — instead of
    # raising KeyboardInterrupt into the wait below.
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: server.stop())
    try:
        server.serve_forever()
    finally:
        server.stop()  # idempotent: a no-op after a signal's drain
        backend.close()
    stats = server.stats
    print(
        "\ndrained. "
        f"{stats.connections_total} connections, "
        f"{stats.frames_in} frames in, {stats.frames_out} out, "
        f"{stats.errors} errors"
    )
    return 0


def _connect_main(argv: "list[str]") -> int:
    """``rsse-experiments connect``: owner-side verification client."""
    import random
    import time

    from repro.baselines.plaintext import PlaintextRangeIndex
    from repro.core.registry import SCHEMES, make_scheme
    from repro.net import NetTransport
    from repro.protocol import RemoteRangeClient

    parser = argparse.ArgumentParser(
        prog="rsse-experiments connect",
        description="Outsource a seeded dataset to a running server, "
        "query it back over TCP and verify against the plaintext oracle.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9471)
    parser.add_argument(
        "--scheme",
        default="logarithmic-brc",
        choices=sorted(n for n in SCHEMES if n != "pb"),
    )
    parser.add_argument("--records", type=int, default=500)
    parser.add_argument("--domain", type=int, default=1 << 16)
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--pool", type=int, default=2, metavar="N")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    records = [(i, rng.randrange(args.domain)) for i in range(args.records)]
    oracle = PlaintextRangeIndex(records)
    kwargs = (
        {"intersection_policy": "allow"}
        if args.scheme.startswith("constant")
        else {}
    )
    scheme = make_scheme(
        args.scheme, args.domain, rng=random.Random(args.seed + 1), **kwargs
    )
    with NetTransport(args.host, args.port, pool_size=args.pool) as transport:
        client = RemoteRangeClient(scheme, transport, rng=rng)
        t0 = time.perf_counter()
        client.outsource(records)
        upload_s = time.perf_counter() - t0
        print(
            f"outsourced {args.records} records ({args.scheme}) "
            f"in {upload_s * 1000:.1f} ms"
        )
        latencies = []
        mismatches = 0
        for _ in range(args.queries):
            lo = rng.randrange(args.domain)
            hi = rng.randrange(lo, args.domain)
            t0 = time.perf_counter()
            got = client.query(lo, hi)
            latencies.append(time.perf_counter() - t0)
            if got != frozenset(oracle.query(lo, hi)):
                mismatches += 1
                print(f"MISMATCH on [{lo}, {hi}]")
        mean_ms = sum(latencies) / len(latencies) * 1000 if latencies else 0.0
        max_ms = max(latencies) * 1000 if latencies else 0.0
        print(
            f"{args.queries} queries over TCP: mean {mean_ms:.2f} ms, "
            f"max {max_ms:.2f} ms, {mismatches} mismatches"
        )
        stats = transport.stats()
        net = stats.get("net", {})
        print(
            f"server: {net.get('frames_in', '?')} frames in / "
            f"{net.get('frames_out', '?')} out, "
            f"{net.get('connections_total', '?')} connections, "
            f"{stats.get('server', {}).get('stored_bytes', '?')} bytes stored"
        )
    return 1 if mismatches else 0


def _ingest_main(argv: "list[str]") -> int:
    """``rsse-experiments ingest``: live-ingest churn smoke client.

    Drives a mixed insert/delete update stream through a
    :class:`~repro.net.NetRangeStore` — batched update frames,
    server-side builds and logarithmic consolidation — interleaving
    searches that are verified against a plaintext dict oracle after
    every batch.  With no ``--host`` it self-hosts an in-thread server;
    point ``--host``/``--port`` at a running ``serve`` instance to
    exercise a real deployment.
    """
    import random
    import time

    from repro.core.registry import SCHEMES
    from repro.net import NetRangeStore

    parser = argparse.ArgumentParser(
        prog="rsse-experiments ingest",
        description="Churn a NetRangeStore over TCP (batched update "
        "frames, server-side consolidation) and verify every search "
        "against the plaintext oracle.",
    )
    parser.add_argument(
        "--host", default=None,
        help="server to connect to (default: self-host in-process)",
    )
    parser.add_argument("--port", type=int, default=9471)
    parser.add_argument(
        "--scheme",
        default="logarithmic-brc",
        choices=sorted(n for n in SCHEMES if n != "pb"),
    )
    parser.add_argument("--records", type=int, default=400,
                        help="bulk-loaded records before churn starts")
    parser.add_argument("--domain", type=int, default=1 << 12)
    parser.add_argument("--step", type=int, default=4,
                        help="consolidation step s")
    parser.add_argument("--batch", type=int, default=16,
                        help="update ops per batch frame")
    parser.add_argument("--ops", type=int, default=320,
                        help="churn ops total (half inserts, half deletes)")
    parser.add_argument("--delete-frac", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    server = None
    if args.host is None:
        from repro.net import serve_in_thread

        server = serve_in_thread()
        host, port = server.host, server.port
        print(f"self-hosted server on {host}:{port}")
    else:
        host, port = args.host, args.port

    rng = random.Random(args.seed)
    oracle = {i: rng.randrange(args.domain) for i in range(args.records)}
    next_id = args.records
    mismatches = 0
    latencies: "list[float]" = []
    try:
        with NetRangeStore.connect(
            host, port,
            domain_size=args.domain,
            scheme=args.scheme,
            consolidation_step=args.step,
        ) as store:
            t0 = time.perf_counter()
            store.insert_many(oracle.items())
            store.flush()
            print(
                f"bulk-loaded {args.records} records ({args.scheme}, "
                f"s={args.step}) in "
                f"{(time.perf_counter() - t0) * 1000:.1f} ms"
            )

            def check() -> None:
                nonlocal mismatches
                lo = rng.randrange(args.domain)
                hi = rng.randrange(lo, args.domain)
                t0 = time.perf_counter()
                outcome = store.search(lo, hi)
                latencies.append(time.perf_counter() - t0)
                expected = frozenset(
                    rid for rid, v in oracle.items() if lo <= v <= hi
                )
                if outcome.ids != expected:
                    mismatches += 1
                    print(f"MISMATCH on [{lo}, {hi}]")

            ops_done = 0
            t0 = time.perf_counter()
            while ops_done < args.ops:
                for _ in range(min(args.batch, args.ops - ops_done)):
                    if oracle and rng.random() < args.delete_frac:
                        rid = rng.choice(list(oracle))
                        store.delete(rid, oracle.pop(rid))
                    else:
                        value = rng.randrange(args.domain)
                        oracle[next_id] = value
                        store.insert(next_id, value)
                        next_id += 1
                    ops_done += 1
                store.flush()
                check()
            elapsed = time.perf_counter() - t0

            lat = sorted(latencies)
            p50 = _percentile_ms(lat, 0.50)
            p99 = _percentile_ms(lat, 0.99)
            print(
                f"{ops_done} churn ops in {elapsed * 1000:.1f} ms "
                f"({ops_done / elapsed:.0f} ops/s), "
                f"{len(latencies)} verified searches: "
                f"p50 {p50:.2f} ms, p99 {p99:.2f} ms, "
                f"{mismatches} mismatches"
            )
            stats = store.transport.stats()
            store_stats = stats.get("server", {}).get("stores", {}).get(
                str(store.index_id), {}
            )
            print(
                f"store {store.index_id}: "
                f"{store_stats.get('consolidations', '?')} consolidations, "
                f"{store_stats.get('active_indexes', '?')} active indexes, "
                f"{store_stats.get('pending_ops', '?')} pending ops"
            )
            store.drop()
    finally:
        if server is not None:
            server.stop()
    return 1 if mismatches else 0


def _percentile_ms(sorted_latencies: "list[float]", q: float) -> float:
    if not sorted_latencies:
        return 0.0
    index = min(
        len(sorted_latencies) - 1, int(q * (len(sorted_latencies) - 1))
    )
    return sorted_latencies[index] * 1000.0


def _cluster_main(argv: "list[str]") -> int:
    """``rsse-experiments cluster``: self-hosted N-shard demo.

    Spins up N in-process shard servers, outsources a seeded dataset
    through the scatter-gather router (writing per-shard bootstrap
    snapshots), verifies cluster answers against the plaintext oracle,
    and prints the cluster health table.  With ``--bootstrap`` it then
    walks the full recovery story: kill one shard, show it DOWN,
    bootstrap a replacement node from the snapshot, bump the topology,
    and verify answers are back to byte-identical.
    """
    import random
    import tempfile
    import time

    from repro.baselines.plaintext import PlaintextRangeIndex
    from repro.cluster import (
        ClusterRouter,
        bootstrap_shard,
        make_shard_map,
        render_health,
        shard_snapshot_path,
    )
    from repro.core.registry import SCHEMES, make_scheme
    from repro.net import serve_in_thread

    parser = argparse.ArgumentParser(
        prog="rsse-experiments cluster",
        description="Host an N-shard cluster in-process, verify "
        "scatter-gather answers against the plaintext oracle, and "
        "optionally walk the kill/bootstrap recovery path.",
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--scheme",
        default="logarithmic-brc",
        choices=sorted(n for n in SCHEMES if n != "pb"),
    )
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--domain", type=int, default=1 << 16)
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--bootstrap",
        action="store_true",
        help="also kill shard 0 and walk the snapshot-bootstrap recovery",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")

    rng = random.Random(args.seed)
    records = [(i, rng.randrange(args.domain)) for i in range(args.records)]
    oracle = PlaintextRangeIndex(records)
    ranges = []
    for _ in range(args.queries):
        lo = rng.randrange(args.domain)
        ranges.append((lo, rng.randrange(lo, args.domain)))
    kwargs = (
        {"intersection_policy": "allow"}
        if args.scheme.startswith("constant")
        else {}
    )

    def verify(router) -> int:
        got = router.query_many(ranges)
        return sum(
            1
            for (lo, hi), ids in zip(ranges, got)
            if ids != frozenset(oracle.query(lo, hi))
        )

    servers = [
        serve_in_thread(shard=f"{i}/{args.shards}")
        for i in range(args.shards)
    ]
    mismatches = 0
    with tempfile.TemporaryDirectory() as snapshot_dir:
        shard_map = make_shard_map([(s.host, s.port) for s in servers])
        schemes = [
            make_scheme(
                args.scheme, args.domain,
                rng=random.Random(args.seed + 1 + i), **kwargs,
            )
            for i in range(args.shards)
        ]
        router = ClusterRouter(schemes, shard_map)
        try:
            snapshot_ok = args.scheme != "quadratic"  # no snapshot support
            t0 = time.perf_counter()
            counts = router.outsource(
                records,
                snapshot_dir=snapshot_dir if snapshot_ok else None,
            )
            print(
                f"outsourced {args.records} records over {args.shards} "
                f"shards ({args.scheme}) in "
                f"{(time.perf_counter() - t0) * 1000:.1f} ms; "
                f"per-shard counts: {counts}"
            )
            mismatches = verify(router)
            print(
                f"{args.queries} scatter-gather queries: "
                f"{mismatches} oracle mismatches"
            )
            print(render_health(router.health()))
            if args.bootstrap and not snapshot_ok:
                print("(--bootstrap skipped: quadratic has no snapshots)")
            elif args.bootstrap:
                print("\n-- killing shard 0 --")
                servers[0].stop()
                print(render_health(router.health()))
                replacement = serve_in_thread(shard=f"0/{args.shards}")
                servers[0] = replacement
                new_map = router.shard_map.replace(
                    0, replacement.host, replacement.port
                )
                restored = bootstrap_shard(
                    shard_snapshot_path(snapshot_dir, 0),
                    new_map.shards[0],
                )
                router.apply_topology(new_map)
                print(
                    f"bootstrapped shard 0 onto "
                    f"{replacement.host}:{replacement.port} "
                    f"({restored} records); topology now v{new_map.version}"
                )
                recovered = verify(router)
                mismatches += recovered
                print(
                    f"{args.queries} post-recovery queries: "
                    f"{recovered} oracle mismatches"
                )
                print(render_health(router.health()))
        finally:
            router.close()
            for server in servers:
                server.stop()
    return 1 if mismatches else 0


def _spin_cluster(args, core_factory=None):
    """N in-thread shard servers plus a router with seeded data uploaded.

    Shared by the ``top``/``trace``/``slow``/``alerts`` subcommands'
    self-hosted demo modes.  ``core_factory`` (a zero-arg callable
    returning an :class:`~repro.protocol.RsseServer`) customizes each
    shard's core — how ``slow`` arms the flight recorder per shard.
    Returns ``(servers, router, rng)``; the caller owns teardown
    (``router.close()`` then ``server.stop()`` each).
    """
    import random

    from repro.cluster import ClusterRouter, make_shard_map
    from repro.core.registry import make_scheme
    from repro.net import serve_in_thread

    rng = random.Random(args.seed)
    records = [(i, rng.randrange(args.domain)) for i in range(args.records)]
    kwargs = (
        {"intersection_policy": "allow"}
        if args.scheme.startswith("constant")
        else {}
    )
    servers = [
        serve_in_thread(
            core_factory() if core_factory is not None else None,
            shard=f"{i}/{args.shards}",
        )
        for i in range(args.shards)
    ]
    try:
        shard_map = make_shard_map([(s.host, s.port) for s in servers])
        schemes = [
            make_scheme(
                args.scheme,
                args.domain,
                rng=random.Random(args.seed + 1 + i),
                **kwargs,
            )
            for i in range(args.shards)
        ]
        router = ClusterRouter(schemes, shard_map)
        router.outsource(records)
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers, router, rng


#: Default SLO trio for the ``top`` / ``alerts`` subcommands — a
#: latency bound on the query-serving op, an error-rate ceiling, and a
#: fleet reachability objective.
_DEFAULT_SLOS = (
    "search-p99: p99(op.multi-search) < 250ms over 1m",
    "error-rate: error_rate < 5% over 1m",
    "fleet: unreachable == 0",
)


def _demo_cluster(args, core_factory=None):
    """Self-hosted cluster plus background query load for the monitors.

    Returns ``(addrs, teardown)`` — ``teardown()`` stops the load
    thread, router and servers.  Shared by ``top`` and ``alerts`` so
    both demos have numbers that move.
    """
    import threading

    from repro.obs import new_trace_id

    servers, router, rng = _spin_cluster(args, core_factory)
    ranges = []
    for _ in range(32):
        lo = rng.randrange(args.domain)
        ranges.append((lo, rng.randrange(lo, args.domain)))
    stop = threading.Event()

    def load() -> None:
        i = 0
        while not stop.is_set():
            batch = ranges[i % 24 : i % 24 + 8]
            try:
                router.query_many(batch, trace_id=new_trace_id())
            except Exception:
                if stop.is_set():
                    return  # teardown raced the batch; not an error
                raise
            i += 8
            stop.wait(0.05)

    load_thread = threading.Thread(
        target=load, name="repro-top-load", daemon=True
    )
    load_thread.start()

    def teardown() -> None:
        stop.set()
        load_thread.join(timeout=5.0)
        router.close()
        for server in servers:
            server.stop()

    return [(s.host, s.port) for s in servers], teardown


def _top_main(argv: "list[str]") -> int:
    """``rsse-experiments top``: live per-shard cluster monitor."""
    import json
    import time

    from repro.cluster.health import rollup_alerts
    from repro.obs import ClusterMonitor, FleetSlos, render_top

    parser = argparse.ArgumentParser(
        prog="rsse-experiments top",
        description="Poll shard stats and render a refreshing per-shard "
        "table (QPS, p50/p99 latency, inflight depth, cache hit rate) "
        "with SLO states underneath.  With no --addr it self-hosts a "
        "seeded demo cluster and drives a background query load so the "
        "numbers move; with --addr it polls running servers.",
    )
    parser.add_argument(
        "--addr",
        action="append",
        metavar="HOST:PORT",
        help="poll this shard server (repeatable; skips the demo cluster)",
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="demo-cluster width when no --addr is given",
    )
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--domain", type=int, default=1 << 16)
    parser.add_argument("--scheme", default="logarithmic-brc")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one sample and exit (nonzero if any shard is down)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw sample document instead of the table",
    )
    parser.add_argument(
        "--slo", action="append", metavar="OBJECTIVE",
        help="SLO objective, e.g. 'p99(op.multi-search) < 100ms over 5m' "
        "(repeatable; default: a standard latency/error/reachability trio)",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    objectives = args.slo if args.slo else list(_DEFAULT_SLOS)

    teardown = None
    if args.addr:
        addrs = list(args.addr)
    else:
        addrs, teardown = _demo_cluster(args)

    try:
        fleet = FleetSlos(objectives)
        with ClusterMonitor(addrs, collect_metrics=True) as monitor:
            while True:
                sample = monitor.sample()
                fleet.observe_sample(sample)
                alerts = rollup_alerts(fleet.evaluate())
                # The raw registry snapshots fed the SLO evaluation;
                # they are too bulky for the rendered/JSON surface.
                for row in sample["shards"]:
                    row.pop("metrics", None)
                if args.as_json:
                    sample["alerts"] = alerts
                    print(json.dumps(sample, sort_keys=True), flush=True)
                else:
                    if not args.once:
                        # ANSI clear + home — the "refreshing" part.
                        print("\x1b[2J\x1b[H", end="")
                    print(render_top(sample, alerts=alerts), flush=True)
                if args.once:
                    down = sample["shard_count"] - sample["reachable"]
                    return 1 if down else 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        if teardown is not None:
            teardown()


def _alerts_main(argv: "list[str]") -> int:
    """``rsse-experiments alerts``: headless SLO evaluation.

    Samples the fleet ``--samples`` times, evaluates the objectives,
    and prints the rolled-up alert table (or ``--json`` document).
    With ``--once`` the exit code is the contract: ``1`` iff any
    objective is in the ``page`` state — the CI/cron hook.
    """
    import json
    import time

    from repro.cluster.health import render_alerts, rollup_alerts
    from repro.obs import ClusterMonitor, FleetSlos

    parser = argparse.ArgumentParser(
        prog="rsse-experiments alerts",
        description="Evaluate declarative SLOs (burn-rate ok/warn/page "
        "states) against a fleet's metrics.  With no --addr it "
        "self-hosts a loaded demo cluster; --once exits 1 iff any "
        "objective pages.",
    )
    parser.add_argument(
        "--addr", action="append", metavar="HOST:PORT",
        help="poll this shard server (repeatable; skips the demo cluster)",
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--domain", type=int, default=1 << 16)
    parser.add_argument("--scheme", default="logarithmic-brc")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--objective", action="append", metavar="OBJECTIVE",
        help="e.g. 'p99(op.multi-search) < 100ms over 5m', "
        "'error_rate < 1% over 5m', 'unreachable == 0' (repeatable; "
        "default: a standard trio)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between fleet samples",
    )
    parser.add_argument(
        "--samples", type=int, default=3,
        help="samples to take before evaluating (--once mode)",
    )
    parser.add_argument("--once", action="store_true",
                        help="evaluate once and exit (1 iff paging)")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    objectives = (
        args.objective if args.objective else list(_DEFAULT_SLOS)
    )

    teardown = None
    if args.addr:
        addrs = list(args.addr)
    else:
        addrs, teardown = _demo_cluster(args)

    try:
        fleet = FleetSlos(objectives)
        with ClusterMonitor(addrs, collect_metrics=True) as monitor:
            if args.once:
                for i in range(args.samples):
                    if i:
                        time.sleep(args.interval)
                    fleet.observe_sample(monitor.sample())
                doc = rollup_alerts(fleet.evaluate())
                if args.as_json:
                    print(json.dumps(doc, sort_keys=True), flush=True)
                else:
                    print(render_alerts(doc), flush=True)
                return 1 if doc["worst"] == "page" else 0
            while True:
                fleet.observe_sample(monitor.sample())
                doc = rollup_alerts(fleet.evaluate())
                if args.as_json:
                    print(json.dumps(doc, sort_keys=True), flush=True)
                else:
                    print("\x1b[2J\x1b[H", end="")
                    print(render_alerts(doc), flush=True)
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        if teardown is not None:
            teardown()


def _slow_main(argv: "list[str]") -> int:
    """``rsse-experiments slow``: pull slow-query flight captures.

    With ``--addr`` it fetches whatever the running servers'
    recorders ringed (via the metrics frame's ``max_slow`` opt-in).
    Without, it self-hosts a demo cluster whose shards run 1-in-N
    sampled tracing *plus* an armed flight recorder, drives queries,
    and shows the captures — including the span trees of queries whose
    sampling coin flip came up tails (tail-based capture).
    """
    import json

    parser = argparse.ArgumentParser(
        prog="rsse-experiments slow",
        description="Show the slow-query flight recorder's captures "
        "(full span tree per slow query, kept even when trace sampling "
        "dropped the trace).",
    )
    parser.add_argument(
        "--addr", action="append", metavar="HOST:PORT",
        help="pull captures from this server (repeatable; skips the demo)",
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--domain", type=int, default=1 << 16)
    parser.add_argument("--scheme", default="logarithmic-brc")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--queries", type=int, default=12,
        help="demo queries to run before pulling captures",
    )
    parser.add_argument(
        "--limit", type=int, default=16,
        help="max captures to pull per server",
    )
    parser.add_argument(
        "--threshold-ms", type=float, default=0.0,
        help="demo flight-recorder threshold (0 captures every query)",
    )
    parser.add_argument(
        "--sample-rate", type=int, default=1000,
        help="demo trace-sampling rate (1 in N)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    if args.addr:
        from repro.net import NetTransport

        slow = []
        for addr in args.addr:
            host, _, port = addr.rpartition(":")
            if not host or not port.isdigit():
                parser.error(f"bad --addr {addr!r}; want host:port")
            with NetTransport(host, int(port)) as transport:
                payload = transport.metrics(max_slow=args.limit)
                slow.extend(payload.get("slow", []))
    else:
        from repro.net import NetTransport
        from repro.obs import FlightRecorder, TraceSampler
        from repro.protocol import RsseServer

        def core_factory():
            return RsseServer(
                trace_sampler=TraceSampler(args.sample_rate),
                flight=FlightRecorder(threshold_s=args.threshold_ms / 1e3),
            )

        servers, router, rng = _spin_cluster(args, core_factory)
        try:
            for _ in range(max(1, args.queries)):
                lo = rng.randrange(args.domain)
                router.query_many([(lo, rng.randrange(lo, args.domain))])
            slow = []
            for server in servers:
                with NetTransport(server.host, server.port) as transport:
                    payload = transport.metrics(max_slow=args.limit)
                    slow.extend(payload.get("slow", []))
        finally:
            router.close()
            for server in servers:
                server.stop()

    slow.sort(key=lambda c: c.get("elapsed_s", 0.0), reverse=True)
    if args.as_json:
        print(json.dumps({"v": 1, "slow": slow}, sort_keys=True))
        return 0
    if not slow:
        print("no slow-query captures (recorder unarmed, or nothing slow)")
        return 0
    print(
        f"{'op':<14} {'ms':>9} {'bar ms':>9} {'why':<8} "
        f"{'sampled':<7} {'spans':>5}  trace"
    )
    for capture in slow:
        print(
            f"{capture['op']:<14} "
            f"{1e3 * capture['elapsed_s']:9.2f} "
            f"{1e3 * capture['threshold_s']:9.2f} "
            f"{capture['reason']:<8} "
            f"{str(bool(capture.get('sampled'))).lower():<7} "
            f"{len(capture.get('spans', [])):5d}  {capture['trace_id']}"
        )
    return 0


def _trace_main(argv: "list[str]") -> int:
    """``rsse-experiments trace``: capture and export query traces."""
    import json

    from repro.obs import to_chrome_trace, to_jsonl_lines

    parser = argparse.ArgumentParser(
        prog="rsse-experiments trace",
        description="Export cross-layer query traces (router scatter -> "
        "server handle -> engine waves -> kernel batches -> storage "
        "reads) as a Chrome trace (chrome://tracing, Perfetto) or "
        "JSONL.  With no --addr it self-hosts a demo cluster and "
        "traces --queries scatter-gather batches; with --addr it pulls "
        "whatever traces the running servers have buffered, via the "
        "metrics delta frame.",
    )
    parser.add_argument("--addr", action="append", metavar="HOST:PORT")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--domain", type=int, default=1 << 16)
    parser.add_argument("--scheme", default="logarithmic-brc")
    parser.add_argument(
        "--queries", type=int, default=8,
        help="traced scatter-gather batches to run (self-hosted mode)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--limit", type=int, default=64,
        help="max traces to pull per server (--addr mode)",
    )
    parser.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write here instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.addr:
        from repro.net import NetTransport

        traces = []
        for addr in args.addr:
            host, _, port = addr.rpartition(":")
            if not host or not port.isdigit():
                parser.error(f"bad --addr {addr!r}; want host:port")
            with NetTransport(host, int(port)) as transport:
                payload = transport.metrics(max_traces=args.limit)
                traces.extend(payload.get("traces", []))
    else:
        servers, router, rng = _spin_cluster(args)
        try:
            from repro.obs import new_trace_id

            for _ in range(max(1, args.queries)):
                lo = rng.randrange(args.domain)
                hi = rng.randrange(lo, args.domain)
                router.query_many([(lo, hi)], trace_id=new_trace_id())
            # Client-side scatter spans plus every shard's server-side
            # span buffer — one export, all layers.
            traces = list(router.tracer.snapshot())
            for server in servers:
                traces.extend(server.server.core.tracer.snapshot())
        finally:
            router.close()
            for server in servers:
                server.stop()

    if args.format == "chrome":
        text = json.dumps(to_chrome_trace(traces), indent=2, sort_keys=True)
    else:
        text = "\n".join(to_jsonl_lines(traces))
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"wrote {len(traces)} traces ({args.format}) to {args.out}")
    else:
        print(text)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # The network subcommands own their argument namespaces (ports and
    # pool sizes mean nothing to the experiment runner, and vice versa).
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "connect":
        return _connect_main(argv[1:])
    if argv and argv[0] == "ingest":
        return _ingest_main(argv[1:])
    if argv and argv[0] == "cluster":
        return _cluster_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] == "slow":
        return _slow_main(argv[1:])
    if argv and argv[0] == "alerts":
        return _alerts_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="rsse-experiments",
        description="Regenerate the tables/figures of 'Practical Private "
        "Range Search Revisited' (SIGMOD 2016).  The network service "
        "lives under the 'serve' and 'connect' subcommands (each has "
        "its own --help).",
    )
    parser.add_argument(
        "experiment",
        choices=_EXPERIMENTS + ("all",),
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--csv-dir",
        type=pathlib.Path,
        default=None,
        help="also write CSV output into this directory",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="exec-engine thread-pool width for every scheme the "
        "experiments build (1 = fully serial; default: "
        "REPRO_EXEC_WORKERS or CPU count, capped at 8)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the exec engine's GGM expansion cache",
    )
    parser.add_argument(
        "--dispatch",
        default="auto",
        metavar="auto|SCHEME",
        help="for the 'dispatch' experiment: 'auto' (cost-based, the "
        "default) or a scheme name pinning every query to that lane",
    )
    args = parser.parse_args(argv)
    if args.workers is not None or args.no_cache:
        from repro.exec import configure_default_executor

        configure_default_executor(
            workers=args.workers,
            cache=False if args.no_cache else None,
        )
    names = _EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        print(run_experiment(name, args.csv_dir, dispatch=args.dispatch))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
