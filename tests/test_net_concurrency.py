"""Concurrency semantics of the network server.

The service promise: interleaved uploads and searches from many
concurrent clients behave exactly like their serial in-process
equivalents — per-index write locks keep uploads consistent, lock-free
searches never observe torn state, and no client's traffic poisons
another's.  Verified differentially against the plaintext oracle on
both the in-memory and the (single-connection, lock-serialized) SQLite
backends.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import make_scheme
from repro.baselines.plaintext import PlaintextRangeIndex
from repro.net import NetTransport, serve_in_thread
from repro.protocol import RemoteRangeClient, RsseServer
from repro.storage import InMemoryBackend, SqliteBackend

CLIENTS = 8
DOMAIN = 256


def _records(seed: int, n: int):
    rng = random.Random(seed)
    return [(i, rng.randrange(DOMAIN)) for i in range(n)]


def _backend(kind: str, tmp_path):
    if kind == "memory":
        return InMemoryBackend()
    return SqliteBackend(tmp_path / "net-concurrency.sqlite")


@pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
def test_interleaved_upload_search_matches_serial(backend_kind, tmp_path):
    """≥8 clients hammer one server: all of them search a shared index
    while each also uploads and queries its own — every answer must
    equal the plaintext oracle, exactly as a serial run would."""
    shared_records = _records(seed=1, n=300)
    shared_oracle = PlaintextRangeIndex(shared_records)
    shared_scheme = make_scheme(
        "logarithmic-brc", DOMAIN, rng=random.Random(100)
    )

    with serve_in_thread(RsseServer(_backend(backend_kind, tmp_path))) as server:
        with NetTransport("127.0.0.1", server.port) as owner_transport:
            owner = RemoteRangeClient(
                shared_scheme, owner_transport, rng=random.Random(0)
            )
            owner.outsource(shared_records)

            failures: "list[str]" = []
            barrier = threading.Barrier(CLIENTS)

            def worker(worker_id: int) -> None:
                try:
                    rng = random.Random(1000 + worker_id)
                    own_records = _records(seed=worker_id + 2, n=60)
                    own_oracle = PlaintextRangeIndex(own_records)
                    own_scheme = make_scheme(
                        "logarithmic-brc", DOMAIN, rng=random.Random(worker_id)
                    )
                    with NetTransport("127.0.0.1", server.port) as transport:
                        shared_client = RemoteRangeClient(
                            shared_scheme, transport, index_id=owner.index_id
                        )
                        shared_client.attach()
                        own_client = RemoteRangeClient(
                            own_scheme, transport, rng=rng
                        )
                        barrier.wait(timeout=30)
                        # Interleave: search shared, upload own (write
                        # traffic against the same server, distinct
                        # index), search both, repeat on the shared one.
                        for round_no in range(3):
                            lo = rng.randrange(DOMAIN)
                            hi = rng.randrange(lo, DOMAIN)
                            got = shared_client.query(lo, hi)
                            want = frozenset(shared_oracle.query(lo, hi))
                            if got != want:
                                failures.append(
                                    f"w{worker_id} r{round_no} shared "
                                    f"[{lo},{hi}]: {sorted(got)} != {sorted(want)}"
                                )
                            if round_no == 0:
                                own_client.outsource(own_records)
                            lo = rng.randrange(DOMAIN)
                            hi = rng.randrange(lo, DOMAIN)
                            got = own_client.query(lo, hi)
                            want = frozenset(own_oracle.query(lo, hi))
                            if got != want:
                                failures.append(
                                    f"w{worker_id} r{round_no} own "
                                    f"[{lo},{hi}]: {sorted(got)} != {sorted(want)}"
                                )
                        own_client.retire()
                except Exception as exc:  # noqa: BLE001 — report, don't hang
                    failures.append(f"w{worker_id} crashed: {exc!r}")

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not failures, "\n".join(failures)

            # The shared index survived all the concurrent write traffic.
            assert owner.query(0, DOMAIN - 1) == frozenset(
                shared_oracle.query(0, DOMAIN - 1)
            )
            stats = server.stats()
            assert stats.connections_total >= CLIENTS + 1
            assert stats.errors == 0


@pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
def test_concurrent_uploads_to_one_index_serialize(backend_kind, tmp_path):
    """Racing upload frames for the *same* handle apply atomically:
    after N concurrent record uploads, every record is present (no
    torn batch, no lost update)."""
    from repro.protocol.messages import UploadRecords

    with serve_in_thread(RsseServer(_backend(backend_kind, tmp_path))) as server:
        batches = [
            [(100 * b + i, b"payload-%d-%d" % (b, i)) for i in range(50)]
            for b in range(CLIENTS)
        ]
        barrier = threading.Barrier(CLIENTS)
        failures: "list[str]" = []

        def uploader(batch_no: int) -> None:
            try:
                with NetTransport("127.0.0.1", server.port) as transport:
                    barrier.wait(timeout=30)
                    transport(UploadRecords(42, batches[batch_no]).to_frame())
            except Exception as exc:  # noqa: BLE001
                failures.append(f"b{batch_no}: {exc!r}")

        threads = [
            threading.Thread(target=uploader, args=(i,)) for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, "\n".join(failures)

        from repro.protocol import parse_reply
        from repro.protocol.messages import FetchRequest

        all_ids = [rid for batch in batches for rid, _ in batch]
        with NetTransport("127.0.0.1", server.port) as transport:
            reply = parse_reply(transport(FetchRequest(42, all_ids).to_frame()))
        expected = [blob for batch in batches for _, blob in batch]
        assert reply.blobs == expected


def test_reconnect_under_load_keeps_replies_aligned():
    """Kill one server-side connection mid-``send_many``: every frame must
    still get exactly its own reply, in position (no duplicated,
    dropped, or cross-wired responses after the rebuild-and-retry).

    The server's requests sleep 30 ms each while holding one lock, so
    replies trickle out one by one — the kill provably lands while most
    of the batch is still in flight on the doomed connection.
    """
    import socket
    import time

    from repro.protocol.messages import FetchRequest, UploadRecords

    n = 40
    records = [(i, b"record-%03d" % i) for i in range(n)]
    core = RsseServer()
    handle = core.handle_request
    one_at_a_time = threading.Lock()

    def serialized_handle(frame):
        # The net server looks handle_request up per frame.
        with one_at_a_time:
            time.sleep(0.03)
            return handle(frame)

    core.handle_request = serialized_handle
    with serve_in_thread(core, max_inflight=512) as server:
        with NetTransport("127.0.0.1", server.port) as setup:
            setup(UploadRecords(7, records).to_frame())
        # One FetchRequest per distinct record: reply i is recognizably
        # frame i's answer, so positional equality proves 1:1 pairing.
        frames = [FetchRequest(7, [i]).to_frame() for i in range(n)]
        with NetTransport("127.0.0.1", server.port, pool_size=2) as baseline:
            expected = baseline.send_many(frames)
        assert len({bytes(r) for r in expected}) == n  # all distinct

        with NetTransport("127.0.0.1", server.port, pool_size=2) as transport:
            results: "list[list[bytes]]" = []
            errors: "list[BaseException]" = []

            def run_batch() -> None:
                try:
                    results.append(transport.send_many(frames))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            batch_thread = threading.Thread(target=run_batch)
            batch_thread.start()
            # ~10 of 40 replies served at 30ms each — the rest are
            # pending when the server-side writer dies under them.
            time.sleep(0.3)
            victims = list(server.server._conns.values())
            assert victims, "no live server-side connection to kill"
            # shutdown, not close: it wakes the connection's thread
            # mid-recv or mid-send, as a dying peer would.
            victims[0].shutdown(socket.SHUT_RDWR)
            batch_thread.join(timeout=60)
            assert not errors, errors
            assert results and results[0] == expected
