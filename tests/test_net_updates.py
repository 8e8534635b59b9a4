"""Differential churn: live ingest over the wire vs in-process vs oracle.

The managed-store contract is that the network boundary is invisible:
an interleaved insert/delete/search workload driven through
:class:`~repro.net.NetRangeStore` over a real TCP server must produce

* exactly the plaintext oracle's answers (correctness),
* the same answers as an in-process :class:`~repro.rangestore.
  RangeStore` fed the identical op sequence (parity), and
* **byte-identical** :class:`~repro.protocol.messages.
  StoreSearchResponse` frames from both servers (determinism: answers
  are sorted exact ids + deterministic LSM accounting, independent of
  each server's random key material),

for every scheme in the registry.  A cluster store must additionally
route each op to the shard owning its record id.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterRangeStore, make_shard_map
from repro.net import NetRangeStore, serve_in_thread
from repro.protocol import RsseServer, StoreSearchRequest
from repro.protocol.messages import parse_message

ALL_SCHEMES = [
    "quadratic",
    "constant-brc",
    "constant-urc",
    "logarithmic-brc",
    "logarithmic-urc",
    "logarithmic-src",
    "logarithmic-src-i",
]

DOMAIN = 1 << 8


def _churn_script(seed: int, steps: int = 60):
    """Deterministic interleaved op stream: (kind, *args) tuples."""
    rng = random.Random(seed)
    live: "dict[int, int]" = {}
    next_id = 0
    script = []
    for step in range(steps):
        roll = rng.random()
        if roll < 0.55 or not live:
            value = rng.randrange(DOMAIN)
            script.append(("insert", next_id, value))
            live[next_id] = value
            next_id += 1
        elif roll < 0.75:
            rid = rng.choice(sorted(live))
            script.append(("delete", rid, live.pop(rid)))
        else:
            lo = rng.randrange(DOMAIN)
            hi = rng.randrange(lo, DOMAIN)
            script.append(("search", lo, hi))
    script.append(("search", 0, DOMAIN - 1))
    return script


def _drive(script, stores, oracle_check):
    """Replay ``script`` into every store, checking each search."""
    oracle: "dict[int, int]" = {}
    for op, a, b in script:
        if op == "insert":
            oracle[a] = b
            for store in stores:
                store.insert(a, b)
        elif op == "delete":
            oracle.pop(a, None)
            for store in stores:
                store.delete(a, b)
        else:
            expected = frozenset(
                rid for rid, value in oracle.items() if a <= value <= b
            )
            oracle_check(a, b, expected)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_differential_churn_all_schemes(scheme):
    """Net store == in-process store == oracle, frames byte-identical."""
    core = RsseServer()  # in-process twin, its own independent keys
    local = NetRangeStore(
        core.handle_request,
        domain_size=DOMAIN,
        scheme=scheme,
        index_id=21,
        consolidation_step=2,
    )
    with serve_in_thread() as server:
        remote = NetRangeStore.connect(
            server.host,
            server.port,
            domain_size=DOMAIN,
            scheme=scheme,
            index_id=21,
            consolidation_step=2,
        )

        def check(lo, hi, expected):
            local.flush()
            remote.flush()
            request = StoreSearchRequest(21, lo, hi).to_frame()
            local_frame = core.handle_request(request)
            remote_frame = remote._transport(request)
            assert local_frame == remote_frame  # byte-identical determinism
            answer = parse_message(remote_frame)
            assert frozenset(answer.ids) == expected
            assert answer.scheme == scheme

        _drive(_churn_script(seed=0xC0FFEE + len(scheme)), [local, remote], check)
        remote.close()


def test_store_facade_matches_in_process_rangestore():
    """NetRangeStore answers == plain RangeStore fed the same ops."""
    from repro.rangestore import RangeStore

    plain = RangeStore.open(
        "logarithmic-brc", domain_size=DOMAIN, consolidation_step=2
    )
    core = RsseServer()
    net = NetRangeStore(
        core.handle_request,
        domain_size=DOMAIN,
        scheme="logarithmic-brc",
        consolidation_step=2,
    )

    def check(lo, hi, expected):
        assert plain.search(lo, hi).ids == expected
        assert net.search(lo, hi).ids == expected

    _drive(_churn_script(seed=42), [plain, net], check)


def test_cluster_store_routes_and_merges():
    """Ops land on the shard owning their record id; search unions."""
    servers = [serve_in_thread() for _ in range(3)]
    try:
        shard_map = make_shard_map([(s.host, s.port) for s in servers])
        cluster = ClusterRangeStore(
            shard_map,
            domain_size=DOMAIN,
            scheme="logarithmic-brc",
            consolidation_step=2,
        )

        def check(lo, hi, expected):
            assert cluster.search(lo, hi).ids == expected

        _drive(_churn_script(seed=7, steps=40), [cluster], check)

        # Every contacted shard holds a store, and ops actually spread.
        populated = []
        for shard, spec in enumerate(shard_map.shards):
            stores = servers[shard].server.core.stats_dict().get("stores", {})
            handle = str(spec.index_id + cluster.handle_offset)
            if stores.get(handle, {}).get("active_indexes"):
                populated.append(shard)
        assert len(populated) >= 2, populated
        cluster.close()
    finally:
        for server in servers:
            server.__exit__(None, None, None)


def test_cluster_store_traced_search_has_shard_children():
    """A traced scatter shows router.scatter with router.shard kids."""
    servers = [serve_in_thread() for _ in range(2)]
    try:
        shard_map = make_shard_map([(s.host, s.port) for s in servers])
        with ClusterRangeStore(
            shard_map, domain_size=DOMAIN, scheme="logarithmic-brc"
        ) as cluster:
            cluster.insert(1, 10)
            cluster.insert(2, 200)
            cluster.search(0, DOMAIN - 1, trace_id="feedface00000001")
            traces = cluster.tracer.find("feedface00000001")
            assert traces, "scatter must record a trace"
            spans = [s["name"] for t in traces for s in t["spans"]]
            root_traces = [
                t
                for t in traces
                if any(s["name"] == "router.scatter" for s in t["spans"])
            ]
            assert root_traces
            assert spans.count("router.shard") >= len(shard_map)
            # Children nest under the root: strictly deeper.
            for trace in root_traces:
                roots = [
                    s for s in trace["spans"] if s["name"] == "router.scatter"
                ]
                kids = [
                    s for s in trace["spans"] if s["name"] == "router.shard"
                ]
                assert kids, trace
                assert all(
                    k["depth"] > min(r["depth"] for r in roots) for k in kids
                )
    finally:
        for server in servers:
            server.__exit__(None, None, None)


def test_wire_churn_race_on_sqlite(tmp_path):
    """A writer and a reader race over TCP on one SQLite-backed managed
    store — the shape of the benchmark's churn workload, at test size.

    Every search must hold each id that was live for the whole call and
    no id that was never live during it; once the writer is done, the
    full-domain search must equal the oracle exactly.
    """
    import threading
    import time

    from repro.net import NetTransport
    from repro.storage import SqliteBackend

    domain, index_id = 1 << 10, 4242
    rng = random.Random(41)
    initial = {rid: rng.randrange(domain) for rid in range(160)}
    #: id → [value, insert sent, insert acked, delete sent, delete acked];
    #: the initial records were acked before the race began.
    inf = float("inf")
    history = {rid: [value, -inf, -inf, inf, inf] for rid, value in initial.items()}
    batches, live, next_id = [], dict(initial), len(initial)
    for _ in range(60):
        ops = [(True, rid) for rid in rng.sample(sorted(live), 4)]
        for _ in range(4):
            live[next_id] = rng.randrange(domain)
            ops.append((False, next_id))
            next_id += 1
        for is_delete, rid in ops:
            if is_delete:
                history[rid][0] = live.pop(rid)
            else:
                history[rid] = [live[rid], inf, inf, inf, inf]
        batches.append(ops)

    core = RsseServer(SqliteBackend(tmp_path / "m.db"))
    with serve_in_thread(core) as server:
        transports = [
            NetTransport(server.host, server.port, pool_size=1) for _ in range(2)
        ]
        writer, reader = (
            NetRangeStore(
                t,
                domain_size=domain,
                scheme="logarithmic-brc",
                index_id=index_id,
                consolidation_step=2,
            )
            for t in transports
        )
        writer.insert_many(initial.items())
        writer.flush()
        failures: "list[str]" = []

        def write() -> None:
            try:
                for ops in batches:
                    for is_delete, rid in ops:
                        op = writer.delete if is_delete else writer.insert
                        op(rid, history[rid][0])
                    sent = time.monotonic()
                    for is_delete, rid in ops:
                        history[rid][3 if is_delete else 1] = sent
                    writer.flush()
                    acked = time.monotonic()
                    for is_delete, rid in ops:
                        history[rid][4 if is_delete else 2] = acked
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(f"writer: {exc!r}")

        writer_thread = threading.Thread(target=write)
        writer_thread.start()
        searches = 0
        while writer_thread.is_alive() or searches == 0:
            lo = rng.randrange(domain)
            hi = rng.randrange(lo, domain)
            start = time.monotonic()
            got = reader.search(lo, hi).ids
            end = time.monotonic()
            searches += 1
            # The writer stamps a batch's send before the flush and its
            # ack after: a not-yet-stamped (inf) ack keeps an insert out
            # of ``must`` and a delete inside ``may``, as it should.
            must = {
                rid
                for rid, (value, _, ins_ack, del_sent, _) in history.items()
                if lo <= value <= hi and ins_ack <= start and del_sent >= end
            }
            may = {
                rid
                for rid, (value, ins_sent, _, _, del_ack) in history.items()
                if lo <= value <= hi and ins_sent <= end and del_ack >= start
            }
            if not must <= got:
                failures.append(f"[{lo},{hi}] lost {sorted(must - got)}")
            if not got <= may:
                failures.append(f"[{lo},{hi}] phantom {sorted(got - may)}")
        writer_thread.join(timeout=60)
        assert not writer_thread.is_alive()
        assert not failures, failures[:5]
        assert searches > 1

        final = reader.search(0, domain - 1).ids
        assert final == frozenset(live)
        store_stats = core.stats_dict()["stores"][str(index_id)]
        assert store_stats["consolidations"] >= 10
        writer.drop()
        for t in transports:
            t.close()
