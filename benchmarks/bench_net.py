"""Network service benchmark: socket cost and loopback throughput.

Two questions, two experiments:

**1. What does the socket cost?** (latency)
    One client runs the full owner protocol — trapdoor, search frame,
    fetch frame, decrypt, refine — through the in-process transport and
    through a real loopback TCP connection, same scheme, same keys,
    same queries.  Per-query minimum across passes (the ``timeit``
    rule), lane score = mean of per-query minimums.

    *Gate:* net single-client mean ≤ ``--latency-factor`` (default 2×)
    the in-process mean.

**2. What does concurrency buy?** (throughput, ungated)
    A server process hosts one index; 1, 4 and 16 *client processes*
    (real processes — separate GILs, like real owners) each run a
    closed loop of full protocol queries for a fixed window over raw
    loopback.  The lane is recorded, not gated: on a small box it
    saturates near the per-request CPU floor, which is the hardware
    ceiling.

Run it::

    PYTHONPATH=src python benchmarks/bench_net.py --json bench-net.json

Smoke scale (CI)::

    PYTHONPATH=src python benchmarks/bench_net.py --smoke \
        --json bench-net-smoke.json
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks import jsonout  # noqa: E402

#: The shared index handle every process of the throughput experiment
#: addresses (the parent uploads it once; clients attach).
INDEX_ID = 777_000


def _query_mix(rng: random.Random, domain: int, count: int, *, narrow: bool):
    """Seeded workload: point-ish plus ranged queries.

    The throughput mix stays narrow (cheap per query) so the measured
    quantity is the service, not index arithmetic; the latency mix
    includes wide ranges so the socket overhead is priced against
    realistic work.
    """
    ranges = []
    for i in range(count):
        lo = rng.randrange(domain)
        if narrow or i % 2 == 0:
            width = rng.randrange(1, max(2, domain // 64))
        else:
            width = rng.randrange(domain // 16, domain // 4)
        ranges.append((lo, min(domain - 1, lo + width)))
    return ranges


# ---------------------------------------------------------------------------
# Experiment 1: single-client latency, in-process vs TCP
# ---------------------------------------------------------------------------


def _measure_lane(client, ranges, passes: int) -> "dict[str, float]":
    """Per-query min across passes; lane score = mean of minimums."""
    best = [float("inf")] * len(ranges)
    for _ in range(passes):
        for i, (lo, hi) in enumerate(ranges):
            t0 = time.perf_counter()
            client.query(lo, hi)
            elapsed = time.perf_counter() - t0
            if elapsed < best[i]:
                best[i] = elapsed
    return {
        "query_mean_seconds": sum(best) / len(best),
        "query_max_seconds": max(best),
    }


def run_latency(args, scheme_blob: bytes) -> "tuple[dict, dict]":
    from repro.io.snapshot import restore_scheme
    from repro.net import NetTransport, serve_in_thread
    from repro.protocol import RemoteRangeClient, RsseServer

    rng = random.Random(args.seed + 10)
    ranges = _query_mix(rng, args.domain, args.queries, narrow=False)

    # In-process lane.
    scheme = restore_scheme(scheme_blob)
    client = RemoteRangeClient(
        scheme, RsseServer().handle, rng=random.Random(1)
    )
    client.outsource()  # already built — upload only
    client.query(*ranges[0])  # warm caches and lazy state
    inproc = _measure_lane(client, ranges, args.passes)

    # TCP loopback lane: identical restored keys, identical queries.
    scheme = restore_scheme(scheme_blob)
    with serve_in_thread(RsseServer()) as server:
        with NetTransport("127.0.0.1", server.port, pool_size=2) as transport:
            client = RemoteRangeClient(scheme, transport, rng=random.Random(1))
            client.outsource()
            client.query(*ranges[0])
            net = _measure_lane(client, ranges, args.passes)
    net["overhead_ratio"] = (
        net["query_mean_seconds"] / inproc["query_mean_seconds"]
    )
    return inproc, net


# ---------------------------------------------------------------------------
# Experiment 2: multi-process throughput (spawned workers)
# ---------------------------------------------------------------------------


def _server_main(port_value, ready, stop) -> None:
    """Server process: one RsseNetServer until the stop event."""
    from repro.net.server import RsseNetServer
    from repro.protocol import RsseServer

    server = RsseNetServer(RsseServer(), max_inflight=512).start()
    port_value.value = server.port
    ready.set()
    stop.wait()
    server.stop()


def _client_main(
    snapshot_path: str,
    port: int,
    duration: float,
    barrier,
    counts,
    slot: int,
    seed: int,
    domain: int,
) -> None:
    """Client process: closed-loop full-protocol queries for a window."""
    from repro.io.snapshot import load_scheme
    from repro.net import NetTransport
    from repro.protocol import RemoteRangeClient

    scheme = load_scheme(snapshot_path)
    rng = random.Random(seed)
    ranges = _query_mix(rng, domain, 64, narrow=True)
    with NetTransport("127.0.0.1", port, pool_size=1) as transport:
        client = RemoteRangeClient(scheme, transport, index_id=INDEX_ID)
        client.attach()
        client.query(*ranges[0])  # connection + caches warm
        barrier.wait(timeout=120)
        deadline = time.perf_counter() + duration
        done = 0
        while time.perf_counter() < deadline:
            lo, hi = ranges[done % len(ranges)]
            client.query(lo, hi)
            done += 1
        counts[slot] = done


def _throughput_lane(
    ctx, snapshot_path: str, port: int, clients: int, duration: float, args
) -> float:
    counts = ctx.Array("q", clients)
    barrier = ctx.Barrier(clients + 1)
    workers = [
        ctx.Process(
            target=_client_main,
            args=(
                snapshot_path,
                port,
                duration,
                barrier,
                counts,
                slot,
                args.seed + 100 + slot,
                args.domain,
            ),
        )
        for slot in range(clients)
    ]
    for w in workers:
        w.start()
    barrier.wait(timeout=180)  # everyone connected and warm
    for w in workers:
        w.join(timeout=duration + 120)
    total = sum(counts[:])
    for w in workers:
        if w.exitcode != 0:
            raise RuntimeError(
                f"client worker exited {w.exitcode} (lane {clients})"
            )
    return total / duration


def run_throughput(args, snapshot_path: str) -> "dict[int, float]":
    """QPS per client count, against one server process."""
    from repro.io.snapshot import load_scheme
    from repro.net import NetTransport
    from repro.protocol import RemoteRangeClient

    ctx = multiprocessing.get_context("spawn")
    port_value = ctx.Value("i", 0)
    ready = ctx.Event()
    stop = ctx.Event()
    server = ctx.Process(
        target=_server_main,
        args=(port_value, ready, stop),
    )
    server.start()
    try:
        if not ready.wait(timeout=60):
            raise RuntimeError("server process never came up")
        port = port_value.value
        # Upload the index once, from the parent.
        scheme = load_scheme(snapshot_path)
        with NetTransport("127.0.0.1", port) as transport:
            owner = RemoteRangeClient(scheme, transport, index_id=INDEX_ID)
            owner.outsource()
        results: "dict[int, float]" = {}
        for clients in args.client_counts:
            results[clients] = _throughput_lane(
                ctx, snapshot_path, port, clients, args.duration, args
            )
            print(
                f"  clients={clients:2d}: "
                f"{results[clients]:8.0f} qps",
                flush=True,
            )
    finally:
        stop.set()
        server.join(timeout=30)
        if server.is_alive():
            server.terminate()
    return results


# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--records", type=int, default=1_500)
    parser.add_argument("--domain", type=int, default=1 << 16)
    parser.add_argument("--queries", type=int, default=48,
                        help="latency-lane query count")
    parser.add_argument("--passes", type=int, default=3,
                        help="latency passes (per-query min scored)")
    parser.add_argument("--clients", default="1,4,16",
                        help="comma-separated client counts")
    parser.add_argument("--duration", type=float, default=2.5,
                        help="throughput window seconds per lane")
    parser.add_argument("--scheme", default="logarithmic-brc")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--latency-factor", type=float, default=2.0,
                        help="gate: net mean <= factor * in-process mean")
    parser.add_argument("--skip-raw-lane", action="store_true",
                        help="skip the ungated loopback throughput lane")
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: small dataset, short windows")
    parser.add_argument("--json", default="bench-net.json", metavar="PATH")
    parser.add_argument("--force", action="store_true",
                        help="allow overwriting a committed BENCH_*.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.records = min(args.records, 300)
        args.queries = min(args.queries, 12)
        args.duration = min(args.duration, 1.2)
        args.passes = min(args.passes, 2)
    args.client_counts = sorted(
        {int(c) for c in str(args.clients).split(",") if c.strip()}
    )
    jsonout.check_baseline_path(args.json, args.force)

    from repro.core.registry import make_scheme
    from repro.io.snapshot import dump_scheme

    rng = random.Random(args.seed)
    records = [(i, rng.randrange(args.domain)) for i in range(args.records)]
    scheme = make_scheme(
        args.scheme, args.domain, rng=random.Random(args.seed + 1)
    )
    t0 = time.perf_counter()
    scheme.build_index(records)
    build_s = time.perf_counter() - t0
    scheme_blob = dump_scheme(scheme)
    print(
        f"built {args.scheme} over {args.records} records "
        f"in {build_s:.2f}s ({len(scheme_blob)} snapshot bytes)"
    )

    results = []

    print("latency: single client, in-process vs TCP loopback")
    inproc, net = run_latency(args, scheme_blob)
    print(
        f"  in-process mean {inproc['query_mean_seconds'] * 1000:.3f} ms | "
        f"net mean {net['query_mean_seconds'] * 1000:.3f} ms | "
        f"overhead {net['overhead_ratio']:.2f}x"
    )
    results.append(
        jsonout.result(
            "latency/in-process",
            "net",
            {"records": args.records, "queries": args.queries},
            **inproc,
        )
    )
    results.append(
        jsonout.result(
            "latency/tcp-loopback",
            "net",
            {"records": args.records, "queries": args.queries},
            **net,
        )
    )

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = os.path.join(tmp, "scheme.rsse")
        with open(snapshot_path, "wb") as fh:
            fh.write(scheme_blob)

        raw: "dict[int, float]" = {}
        if not args.skip_raw_lane:
            print("throughput: raw loopback (ungated)")
            raw = run_throughput(args, snapshot_path)

    for clients, qps in raw.items():
        results.append(
            jsonout.result(
                f"throughput/loopback/clients-{clients}",
                "net",
                {"clients": clients, "duration_s": args.duration},
                qps=qps,
                scale_vs_single=qps / raw[args.client_counts[0]],
            )
        )
    results.append(
        jsonout.result(
            "acceptance",
            "net",
            {"latency_factor": args.latency_factor},
            latency_overhead_ratio=net["overhead_ratio"],
        )
    )

    jsonout.emit_json(
        args.json,
        "net",
        results,
        meta={
            "records": args.records,
            "domain": args.domain,
            "scheme": args.scheme,
            "clients": ",".join(map(str, args.client_counts)),
            "duration_s": args.duration,
            "cpus": os.cpu_count(),
            "smoke": args.smoke,
        },
        force=args.force,
    )
    print(f"wrote {args.json}")

    if net["overhead_ratio"] > args.latency_factor:
        print(
            f"GATE FAIL: net latency {net['overhead_ratio']:.2f}x in-process "
            f"(allowed {args.latency_factor}x)"
        )
        return 1
    print(
        f"gate pass: latency overhead {net['overhead_ratio']:.2f}x "
        f"<= {args.latency_factor}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
