"""The network service layer end to end: every scheme, real sockets.

The acceptance bar: :class:`~repro.protocol.RemoteRangeClient` drives
all seven registry schemes over a genuine TCP connection with results
byte-identical to the in-process transport, and the service mechanics
(acks, typed errors, stats, pipelining, backpressure, graceful drain)
hold up under concurrent clients.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import make_scheme
from repro.errors import IndexStateError, TransportError
from repro.net import NetTransport, serve_in_thread
from repro.protocol import (
    OkResponse,
    RemoteRangeClient,
    RsseServer,
    StatsResponse,
    UploadRecords,
    parse_reply,
)
from repro.protocol import messages as msg

def _slow_core(delay_s: float) -> RsseServer:
    """A core whose every request takes at least ``delay_s``: the net
    server looks ``handle_request`` up per frame, so an instance
    attribute wrapping it stands in for a slow backend."""
    import time

    core = RsseServer()
    handle = core.handle_request

    def slow_handle(frame):
        time.sleep(delay_s)
        return handle(frame)

    core.handle_request = slow_handle
    return core


#: Every wire-capable scheme (PB's Bloom tree has no EDB to outsource).
NET_SCHEMES = (
    "quadratic",
    "constant-brc",
    "constant-urc",
    "logarithmic-brc",
    "logarithmic-urc",
    "logarithmic-src",
    "logarithmic-src-i",
)


def _domain(name: str) -> int:
    return 64 if name == "quadratic" else 128


def _build(name: str, seed: int):
    kwargs = {"intersection_policy": "allow"} if name.startswith("constant") else {}
    return make_scheme(name, _domain(name), rng=random.Random(seed), **kwargs)


@pytest.fixture(scope="module")
def dataset():
    rng = random.Random(0xBEEF)
    return [(i, rng.randrange(64)) for i in range(120)]


def _upload_frames(scheme, base_id: int) -> "list[bytes]":
    """The exact upload frames RemoteRangeClient.outsource would send."""
    names = scheme.index_names()
    state = scheme.export_server_state()
    frames = [
        msg.UploadIndex(base_id + offset, state.indexes[name]).to_frame()
        for offset, name in enumerate(names)
    ]
    records_id = base_id + len(names) - 1
    frames.append(msg.UploadRecords(records_id, state.tuples).to_frame())
    if state.payloads:
        frames.append(msg.UploadPayloads(records_id, state.payloads).to_frame())
    return frames


@pytest.mark.parametrize("name", NET_SCHEMES)
class TestAllSchemesOverTcp:
    def test_tcp_byte_identical_to_in_process(self, name, dataset):
        """One scheme, one exported server state, the *same* request
        frames through both transports: every response frame must be
        byte-identical.  This subsumes result equality — if the bytes
        match, the decoded ids match — and pins the serialization seam
        itself, not just the refined result sets."""
        base_id = 1000
        scheme = _build(name, seed=11)
        scheme.build_index(dataset)
        inproc = RsseServer()
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port, pool_size=2) as transport:
                for frame in _upload_frames(scheme, base_id):
                    inproc_reply = inproc.handle_request(frame)
                    assert transport(frame) == inproc_reply
                search_handle = base_id
                records_handle = base_id + len(scheme.index_names()) - 1
                for lo, hi in [(0, 63), (5, 40), (33, 33), (60, 63)]:
                    if scheme.interactive:
                        token = scheme.trapdoor_phase1(lo, hi)
                    else:
                        token = scheme.trapdoor(lo, hi)
                    frame = msg.SearchRequest(
                        search_handle, token.wire_kind, token.wire_tokens()
                    ).to_frame()
                    inproc_reply = inproc.handle_request(frame)
                    assert transport(frame) == inproc_reply
                    if scheme.interactive:
                        # Round 2 rides the round-1 answer (the paper's
                        # two-round protocol) — still the same frames
                        # on both transports.
                        from repro.sse.encoding import decode_triple

                        payloads = parse_reply(inproc_reply).payloads
                        merged = scheme.merge_qualifying(
                            [decode_triple(p) for p in payloads], lo, hi
                        )
                        if merged is None:
                            continue
                        token2 = scheme.trapdoor_phase2(*merged)
                        frame2 = msg.SearchRequest(
                            records_handle, token2.wire_kind, token2.wire_tokens()
                        ).to_frame()
                        inproc_reply2 = inproc.handle_request(frame2)
                        assert transport(frame2) == inproc_reply2
                        candidates = parse_reply(inproc_reply2).payloads
                    else:
                        candidates = parse_reply(inproc_reply).payloads
                    from repro.sse.encoding import decode_id

                    ids = sorted(
                        set(
                            scheme.fetchable_ids(
                                [decode_id(p) for p in candidates]
                            )
                        )
                    )
                    if ids:
                        fetch = msg.FetchRequest(records_handle, ids).to_frame()
                        assert transport(fetch) == inproc.handle_request(fetch)

    def test_full_client_pipeline_over_tcp(self, name, dataset):
        """The whole RemoteRangeClient flow (outsource → query →
        query_many) over TCP matches a fresh in-process run set-wise."""
        from repro.baselines.plaintext import PlaintextRangeIndex

        oracle = PlaintextRangeIndex(dataset)
        ranges = [(0, 63), (5, 40), (33, 33)]
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port, pool_size=2) as transport:
                client = RemoteRangeClient(
                    _build(name, seed=12), transport, rng=random.Random(3)
                )
                client.outsource(dataset)
                for lo, hi in ranges:
                    assert sorted(client.query(lo, hi)) == sorted(
                        oracle.query(lo, hi)
                    )
                assert client.query_many(ranges) == [
                    frozenset(oracle.query(lo, hi)) for lo, hi in ranges
                ]


class TestServiceMechanics:
    def test_uploads_are_acked(self):
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port) as transport:
                reply = parse_reply(
                    transport(UploadRecords(1, [(1, b"blob")]).to_frame())
                )
                assert isinstance(reply, OkResponse)

    def test_semantic_error_maps_to_same_exception(self):
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port) as transport:
                with pytest.raises(IndexStateError):
                    parse_reply(
                        transport(
                            msg.SearchRequest(777, "sse", [b"t" * 32]).to_frame()
                        )
                    )

    def test_stats_surface(self):
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port) as transport:
                transport(UploadRecords(5, [(1, b"x")]).to_frame())
                stats = transport.stats()
                assert stats["server"]["handles"] == 1
                net = stats["net"]
                assert net["connections_total"] >= 1
                assert net["frames_in"] >= 1
                assert net["ops"]["upload-records"]["count"] == 1
                assert net["ops"]["upload-records"]["mean_seconds"] >= 0

    def test_pipelined_send_many_order(self):
        """A pipelined batch answers in exact request order."""
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port, pool_size=3) as transport:
                frames = [
                    UploadRecords(9, [(i, b"v%d" % i)]).to_frame()
                    for i in range(10)
                ] + [msg.StatsRequest().to_frame()]
                replies = transport.send_many(frames)
                assert len(replies) == 11
                for reply in replies[:10]:
                    assert isinstance(parse_reply(reply), OkResponse)
                assert isinstance(parse_reply(replies[10]), StatsResponse)

    def test_backpressure_bound_still_serves_everyone(self, dataset):
        """max_inflight=1 serializes the service without losing or
        reordering anyone's replies."""
        with serve_in_thread(RsseServer(), max_inflight=1) as server:
            scheme = _build("logarithmic-brc", seed=5)
            with NetTransport("127.0.0.1", server.port) as transport:
                owner = RemoteRangeClient(scheme, transport, rng=random.Random(4))
                owner.outsource(dataset)
                expected = owner.query(5, 40)

                failures: "list[BaseException]" = []

                def worker():
                    try:
                        with NetTransport("127.0.0.1", server.port) as t:
                            client = RemoteRangeClient(
                                scheme, t, index_id=owner.index_id
                            )
                            client.attach()
                            for _ in range(3):
                                assert client.query(5, 40) == expected
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)

                threads = [threading.Thread(target=worker) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not failures
            assert server.stats().inflight_peak == 1

    def test_graceful_stop_refuses_new_connections(self):
        server = serve_in_thread(RsseServer())
        transport = NetTransport("127.0.0.1", server.port)
        transport(UploadRecords(2, [(1, b"y")]).to_frame())
        port = server.port
        server.stop()
        transport.close()
        with pytest.raises(TransportError):
            NetTransport("127.0.0.1", port, retries=1, backoff_s=0.01)

    def test_attach_queries_without_reupload(self, dataset):
        """A second client with the same keys adopts the uploaded index."""
        with serve_in_thread(RsseServer()) as server:
            scheme = _build("logarithmic-src", seed=6)
            with NetTransport("127.0.0.1", server.port) as transport:
                owner = RemoteRangeClient(scheme, transport, rng=random.Random(4))
                owner.outsource(dataset)
                frames_before = server.stats().frames_in
                sibling = RemoteRangeClient(
                    scheme, transport, index_id=owner.index_id
                )
                sibling.attach()
                # attach() itself cost zero frames (stats read directly
                # off the server handle, not via a StatsRequest frame).
                assert server.stats().frames_in == frames_before
                assert sibling.query(0, 63) == owner.query(0, 63)
                assert server.stats().frames_in > frames_before

    def test_outsource_requires_built_scheme_when_no_records(self):
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port) as transport:
                client = RemoteRangeClient(
                    _build("logarithmic-brc", seed=8), transport
                )
                with pytest.raises(IndexStateError):
                    client.outsource()  # nothing built, nothing to upload


class TestLockHygiene:
    def test_write_lock_map_holds_only_inflight_writes(self, dataset):
        """The per-index lock map is refcounted down to nothing once
        writers finish — a long-lived server sees a fresh random handle
        per owner session, so any leftover entry is an unbounded leak."""
        with serve_in_thread(RsseServer()) as server:
            with NetTransport("127.0.0.1", server.port) as transport:
                client = RemoteRangeClient(
                    _build("logarithmic-brc", seed=9), transport
                )
                client.outsource(dataset)
                assert server.server._index_locks == {}
                client.query(0, 63)
                client.retire()
                assert server.server._index_locks == {}


class TestSlowReaderBackpressure:
    def test_non_reading_pipeliner_cannot_grow_server_memory(self, dataset):
        """A client that pipelines requests but never reads replies must
        stall its own reader (bounded response queue + TCP window), not
        accumulate completed responses server-side — and must not
        affect other connections."""
        import socket as socketlib
        import time as timelib

        with serve_in_thread(RsseServer(), max_inflight=4) as server:
            with NetTransport("127.0.0.1", server.port) as transport:
                # One handle with ~2 MiB of tuples: each fetch reply is
                # large enough that a handful fills the socket buffers.
                blobs = [(i, bytes([i % 251]) * 10_000) for i in range(200)]
                transport(UploadRecords(77, blobs).to_frame())
                fetch = msg.FetchRequest(77, [i for i, _ in blobs]).to_frame()

                hostile = socketlib.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                )
                sent = 0
                hostile.setblocking(False)
                deadline = timelib.monotonic() + 2.0
                while sent < 300 and timelib.monotonic() < deadline:
                    try:
                        hostile.sendall(fetch)
                        sent += 1
                    except (BlockingIOError, socketlib.timeout):
                        break  # server stopped reading us — the point
                timelib.sleep(0.5)
                stalled = server.stats().frames_in
                # Well below the offered load: the reader stopped once
                # the response queue and socket buffers filled.
                assert stalled < 60, (sent, stalled)
                # Other connections are untouched by the slow reader.
                reply = parse_reply(
                    transport(msg.FetchRequest(77, [0]).to_frame())
                )
                assert reply.blobs == [blobs[0][1]]
                hostile.close()


class TestDrainFlushesInflight:
    def test_stop_during_processing_still_delivers_the_reply(self):
        """stop() must not close writers under a reply still in flight:
        a request admitted before the drain began gets its response
        bytes, even when processing (here: a slow request) is still
        pending when stop() is called."""
        import socket as socketlib
        import threading as threadinglib

        server = serve_in_thread(_slow_core(0.3))
        try:
            sock = socketlib.create_connection(
                ("127.0.0.1", server.port), timeout=10
            )
            sock.sendall(UploadRecords(5, [(1, b"x")]).to_frame())
            # Let the frame be admitted, then stop mid-delay.
            import time as timelib

            timelib.sleep(0.1)
            stopper = threadinglib.Thread(target=server.stop)
            stopper.start()
            sock.settimeout(10)
            received = b""
            while True:
                try:
                    chunk = sock.recv(4096)
                except OSError:
                    break
                if not chunk:
                    break
                received += chunk
            stopper.join()
            assert received, "reply dropped by graceful drain"
            assert isinstance(parse_reply(received), OkResponse)
        finally:
            server.stop()


class TestCloseWithInflight:
    def test_close_during_request_raises_instead_of_hanging(self):
        """Closing the transport while another thread's request is mid
        retry must fail that thread with TransportError promptly — never
        leave it blocked on a loop that stopped."""
        import time as timelib

        server = serve_in_thread(_slow_core(0.5))
        transport = NetTransport("127.0.0.1", server.port, timeout_s=30)
        outcome: "list" = []

        def requester():
            try:
                outcome.append(
                    transport(UploadRecords(3, [(1, b"z")]).to_frame())
                )
            except TransportError as exc:
                outcome.append(exc)

        t = threading.Thread(target=requester)
        t.start()
        timelib.sleep(0.1)  # the request is in flight (server still slow)
        transport.close()
        t.join(timeout=15)
        assert not t.is_alive(), "requester thread hung after close()"
        assert len(outcome) == 1  # resolved: either the reply or a typed error
        server.stop()


class TestSharedPoolStress:
    def test_threads_sharing_one_pool_get_their_own_replies(self):
        """More caller threads than pooled sockets (and than cores), with
        a tiny switch interval: every call gets its own reply, and the
        server's counters — now bumped from many connection threads —
        lose no update."""
        import sys

        threads_n, calls_n = 8, 40
        blobs = [(i, b"blob-%03d" % i) for i in range(threads_n * calls_n)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serve_in_thread(RsseServer()) as server:
                with NetTransport("127.0.0.1", server.port, pool_size=3) as transport:
                    transport(UploadRecords(11, blobs).to_frame())
                    frames_before = server.stats().frames_in
                    failures: "list[str]" = []

                    def caller(t: int) -> None:
                        try:
                            for k in range(calls_n):
                                rid = t * calls_n + k
                                reply = parse_reply(
                                    transport(msg.FetchRequest(11, [rid]).to_frame())
                                )
                                if reply.blobs != [blobs[rid][1]]:
                                    failures.append(f"t{t} call {k}: {reply.blobs}")
                        except Exception as exc:  # noqa: BLE001 — reported below
                            failures.append(f"t{t}: {exc!r}")

                    workers = [
                        threading.Thread(target=caller, args=(t,))
                        for t in range(threads_n)
                    ]
                    for w in workers:
                        w.start()
                    for w in workers:
                        w.join(timeout=60)
                    assert not any(w.is_alive() for w in workers)
                    assert not failures, failures[:5]
                    stats = server.stats()
                    assert stats.frames_in - frames_before == threads_n * calls_n
                    assert stats.frames_out == stats.frames_in
                    assert stats.connections_total <= 3  # the pool never grew
        finally:
            sys.setswitchinterval(old_interval)
