"""The concurrent network face of :class:`~repro.protocol.RsseServer`.

``RsseNetServer`` carries the existing wire protocol over TCP with the
mechanics a real service needs and an in-process transport never shows:

- **Concurrent sessions.**  One asyncio server, one lightweight
  connection handler per client; hundreds of idle connections cost a
  few kilobytes each.
- **Request pipelining.**  A client may write any number of frames
  without waiting; responses come back in request order per connection
  (the protocol has no correlation ids — FIFO *is* the contract), while
  the requests themselves may overlap in the worker pool.
- **Bounded admission.**  A global semaphore caps frames in flight;
  once full, the server simply stops reading sockets, so backpressure
  propagates to clients through the TCP window instead of through an
  unbounded task queue.
- **Off-loop execution.**  Parsing, crypto and storage all happen in
  the exec engine's offload pool (:meth:`~repro.exec.QueryExecutor.
  offload_pool`), never on the event loop — a slow SQLite scan cannot
  freeze accepts or heartbeats.
- **Write/read discipline.**  Upload and drop frames serialize through
  a per-index asyncio lock, so concurrent uploads to one handle apply
  in arrival order; searches and fetches take no lock at all.
- **Graceful drain.**  :meth:`stop` stops accepting, lets every
  admitted frame finish and flush, then closes.

Hostile input is contained per connection: a garbage or oversized
header earns one typed :class:`~repro.protocol.messages.ErrorResponse`
and a close of *that* connection; every other session is untouched.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.errors import FramingError
from repro.net.framing import HEADER_SIZE, MAX_FRAME_BYTES, FrameReader
from repro.obs.registry import MetricsRegistry, metrics_payload
from repro.protocol import messages as msg
from repro.protocol.server import RsseServer

#: Frames that mutate an index handle — these serialize per index id.
#: Update frames ride the same per-index lock as uploads: batches to
#: one managed store apply in arrival order (and their logarithmic
#: consolidation runs under the lock, off the event loop), while
#: searches — including managed-store searches — stay lock-free.
WRITE_TAGS = frozenset(
    {
        msg.TAG_UPLOAD_INDEX,
        msg.TAG_UPLOAD_RECORDS,
        msg.TAG_UPLOAD_PAYLOADS,
        msg.TAG_DROP_INDEX,
        msg.TAG_STORE_OPEN,
        msg.TAG_UPDATE_REQUEST,
        msg.TAG_UPDATE_BATCH_REQUEST,
    }
)

#: Request frames whose body leads with an 8-byte index handle — the
#: tags the per-index inflight gauge can attribute.
INDEXED_TAGS = frozenset(
    {
        msg.TAG_UPLOAD_INDEX,
        msg.TAG_UPLOAD_RECORDS,
        msg.TAG_UPLOAD_PAYLOADS,
        msg.TAG_SEARCH_REQUEST,
        msg.TAG_MULTI_SEARCH_REQUEST,
        msg.TAG_FETCH_REQUEST,
        msg.TAG_FETCH_PAYLOADS,
        msg.TAG_DROP_INDEX,
        msg.TAG_STORE_OPEN,
        msg.TAG_UPDATE_REQUEST,
        msg.TAG_UPDATE_BATCH_REQUEST,
        msg.TAG_STORE_SEARCH,
    }
)

#: Tag → operation name for the per-op latency surface.
OP_NAMES = {
    msg.TAG_UPLOAD_INDEX: "upload-index",
    msg.TAG_UPLOAD_RECORDS: "upload-records",
    msg.TAG_UPLOAD_PAYLOADS: "upload-payloads",
    msg.TAG_SEARCH_REQUEST: "search",
    msg.TAG_MULTI_SEARCH_REQUEST: "multi-search",
    msg.TAG_FETCH_REQUEST: "fetch-tuples",
    msg.TAG_FETCH_PAYLOADS: "fetch-payloads",
    msg.TAG_DROP_INDEX: "drop-index",
    msg.TAG_STATS_REQUEST: "stats",
    msg.TAG_METRICS_REQUEST: "metrics",
    msg.TAG_STORE_OPEN: "store-open",
    msg.TAG_UPDATE_REQUEST: "update",
    msg.TAG_UPDATE_BATCH_REQUEST: "update-batch",
    msg.TAG_STORE_SEARCH: "store-search",
}


@dataclass
class ServerStats:
    """Transport-level counters (the ``"net"`` half of a stats reply).

    Each instance owns a private :class:`~repro.obs.MetricsRegistry`
    (never the process-wide default), so two in-thread shard servers in
    one test process keep distinct latency distributions.  Op timings
    are double-entried on purpose: ``op_seconds`` keeps the historical
    ``[count, sum]`` list shape existing consumers read, while the
    registry histogram behind it is what turns those same samples into
    p50/p95/p99 — the mean alone was tail-blind.
    """

    connections_total: int = 0
    connections_open: int = 0
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    errors: int = 0
    framing_errors: int = 0
    inflight_peak: int = 0
    #: op name → [completed count, summed seconds].
    op_seconds: "dict[str, list]" = field(default_factory=dict)
    #: index handle → frames of that index currently being processed.
    #: The router's health view reads this to spot a handle whose
    #: queries are piling up behind a slow store.
    index_inflight: "dict[int, int]" = field(default_factory=dict)
    #: index handle → deepest inflight depth ever observed.
    index_inflight_peak: "dict[int, int]" = field(default_factory=dict)
    #: This server's private instrument registry.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def record_op(self, name: str, seconds: float) -> None:
        entry = self.op_seconds.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        self.registry.histogram(f"op.{name}").observe(seconds)

    def enter_index(self, index_id: int) -> None:
        depth = self.index_inflight.get(index_id, 0) + 1
        self.index_inflight[index_id] = depth
        if depth > self.index_inflight_peak.get(index_id, 0):
            self.index_inflight_peak[index_id] = depth

    def leave_index(self, index_id: int) -> None:
        depth = self.index_inflight.get(index_id, 0) - 1
        if depth <= 0:
            # Idle handles leave the gauge (bounded by live handles, not
            # by every handle ever seen); the peak map keeps history.
            self.index_inflight.pop(index_id, None)
        else:
            self.index_inflight[index_id] = depth

    def to_dict(self) -> dict:
        ops = {}
        for name, (count, total) in sorted(self.op_seconds.items()):
            hist = self.registry.histogram(f"op.{name}")
            ops[name] = {
                "count": count,
                "total_seconds": total,
                "mean_seconds": (total / count) if count else 0.0,
                # Tail visibility: exact-to-a-bucket percentiles from
                # the registry histogram fed by record_op.
                "p50_seconds": hist.percentile(0.50),
                "p95_seconds": hist.percentile(0.95),
                "p99_seconds": hist.percentile(0.99),
            }
        return {
            "connections_total": self.connections_total,
            "connections_open": self.connections_open,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "errors": self.errors,
            "framing_errors": self.framing_errors,
            "inflight_peak": self.inflight_peak,
            "inflight_by_index": {
                str(index_id): {
                    "current": self.index_inflight.get(index_id, 0),
                    "peak": peak,
                }
                for index_id, peak in sorted(self.index_inflight_peak.items())
            },
            "ops": ops,
        }


class RsseNetServer:
    """Asyncio TCP front for one :class:`~repro.protocol.RsseServer`.

    Parameters
    ----------
    core:
        The key-free server being exposed (constructed fresh when
        omitted — an in-memory single-process service).
    host, port:
        Listen address; port ``0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_frame_bytes:
        Per-frame ceiling enforced by the framing layer.
    max_inflight:
        Admission bound: frames being processed at once, across all
        connections.
    drain_timeout_s:
        How long :meth:`stop` waits for in-flight work before closing
        connections anyway.
    ssl:
        An :class:`ssl.SSLContext` to serve TLS on the framed stream
        (``None`` — the default — serves plaintext TCP).  Framing and
        the protocol are byte-identical either way; only the transport
        under them changes.
    shard:
        Operator label naming this server's slice of a cluster (e.g.
        ``"2/4"``).  Purely observability: it rides the stats frame so
        a router's health view can title each node.
    """

    def __init__(
        self,
        core: "RsseServer | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_inflight: int = 64,
        drain_timeout_s: float = 10.0,
        ssl=None,
        shard: str = "",
    ) -> None:
        self.core = core if core is not None else RsseServer()
        self._host = host
        self._requested_port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight = max(1, int(max_inflight))
        self.drain_timeout_s = drain_timeout_s
        self._ssl = ssl
        self.shard = shard
        self.stats = ServerStats()
        # Point the core's updates.* instruments at this server's
        # private registry, so the ingest counters ride the same stats
        # and metrics frames as the op histograms (and two in-thread
        # shard servers never share tallies).
        if self.core.metrics_registry is None:
            self.core.metrics_registry = self.stats.registry
        self._server: "asyncio.base_events.Server | None" = None
        self._semaphore: "asyncio.Semaphore | None" = None
        #: index id → ``[asyncio.Lock, interested-writer count]``.
        self._index_locks: "dict[int, list]" = {}
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._inflight = 0
        #: Responses enqueued but not yet written (or written off as
        #: unreachable) — the second half of the graceful-drain gate.
        self._unwritten = 0
        self._idle: "asyncio.Event | None" = None
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "RsseNetServer":
        """Bind and start accepting; returns once listening."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._semaphore = asyncio.Semaphore(self.max_inflight)
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._requested_port, ssl=self._ssl
        )
        events = getattr(self.core, "events", None)
        if events is not None:
            events.emit(
                "server.start",
                host=self._host,
                port=self.port,
                **({"shard": self.shard} if self.shard else {}),
            )
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> "tuple[str, int]":
        return (self._host, self.port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish admitted work, close.

        Idempotent.  In-flight frames get up to ``drain_timeout_s`` to
        complete; their responses flush because closing an asyncio
        transport writes out its buffer first.
        """
        if not self._draining:
            # First stop() only — the drain event marks the transition,
            # not every re-entrant call.
            events = getattr(self.core, "events", None)
            if events is not None:
                events.emit(
                    "server.stop",
                    frames_in=self.stats.frames_in,
                    frames_out=self.stats.frames_out,
                )
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), self.drain_timeout_s)
            except asyncio.TimeoutError:
                pass  # closing anyway — the timeout is the contract
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # -- connection handling -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Request/response traffic is latency-bound; never Nagle it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stats = self.stats
        stats.connections_total += 1
        stats.connections_open += 1
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        frames = FrameReader(self.max_frame_bytes)
        # Response order = request order: the reader enqueues one task
        # per frame, the writer coroutine awaits them FIFO.  Processing
        # still overlaps freely across (and within) connections.  The
        # queue is bounded: a client that pipelines requests but never
        # reads replies would otherwise accumulate completed response
        # frames here without limit (its processing slots are released
        # on completion, so the admission semaphore alone cannot stop
        # it).  Once full, *this* connection's reader blocks — per-peer
        # TCP backpressure, invisible to every other connection.
        responses: "asyncio.Queue[asyncio.Task | None]" = asyncio.Queue(
            maxsize=self.max_inflight
        )
        writer_task = asyncio.ensure_future(self._write_loop(writer, responses))
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                stats.bytes_in += len(data)
                complete = frames.feed(data)
                for frame in complete:
                    stats.frames_in += 1
                    await self._admit()
                    self._unwritten += 1
                    await responses.put(
                        asyncio.ensure_future(self._process(frame))
                    )
                if frames.error is not None:
                    # Valid frames before the poison got their replies
                    # queued above; now one typed framing error, then
                    # close — the stream position is unrecoverable, the
                    # server is not.
                    stats.framing_errors += 1
                    self._unwritten += 1
                    self._idle.clear()
                    await responses.put(
                        asyncio.ensure_future(
                            self._framing_reply(frames.error)
                        )
                    )
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            await responses.put(None)
            try:
                await writer_task
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writers.discard(writer)
            writer.close()
            stats.connections_open -= 1
            if task is not None:
                self._conn_tasks.discard(task)

    async def _write_loop(
        self,
        writer: asyncio.StreamWriter,
        responses: "asyncio.Queue[asyncio.Task | None]",
    ) -> None:
        stats = self.stats
        broken = False
        while True:
            item = await responses.get()
            if item is None:
                return
            response = await item
            try:
                if not broken:
                    writer.write(response)
                    await writer.drain()
                    stats.frames_out += 1
                    stats.bytes_out += len(response)
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                # Peer vanished mid-reply; drain remaining tasks without
                # writing (each still releases its admission slot).
                broken = True
            finally:
                # The drain gate waits on this, not on processing alone:
                # a response only counts as done once it reached the
                # socket (or its peer provably never will), so stop()
                # cannot close writers under replies still in flight.
                self._unwritten -= 1
                self._maybe_idle()

    async def _framing_reply(self, exc: FramingError) -> bytes:
        return msg.ErrorResponse.from_exception(exc).to_frame()

    # -- request processing --------------------------------------------------

    async def _admit(self) -> None:
        await self._semaphore.acquire()
        self._inflight += 1
        if self._inflight > self.stats.inflight_peak:
            self.stats.inflight_peak = self._inflight
        self._idle.clear()

    def _release(self) -> None:
        """Free the admission slot when *processing* completes.

        Deliberately not deferred to write time: a slow-reading client
        whose responses sit unwritten would otherwise pin admission
        slots and starve every other connection.  The write side has
        its own accounting (``_unwritten``) for the drain gate.
        """
        self._inflight -= 1
        self._maybe_idle()
        self._semaphore.release()

    def _maybe_idle(self) -> None:
        if self._inflight == 0 and self._unwritten == 0:
            self._idle.set()

    def _process_write(self, frame: bytes):
        """Serialize a mutating frame through its index's lock.

        The index id sits in the first 8 body bytes of every write
        frame.  Lock entries are refcounted as ``[lock, interested]``
        and the map entry is dropped when the last interested writer
        leaves — owners default to a fresh random handle per session,
        so an unpruned map would grow by a few entries per short-lived
        owner, forever.  The refcount (not ``Lock.locked()``, which
        reads False while a released lock's next waiter has yet to
        resume) is what makes pruning safe: an entry with a queued
        writer is never removed, so two writers to one index can never
        end up serializing on different lock objects.
        """
        index_id = int.from_bytes(frame[HEADER_SIZE : HEADER_SIZE + 8], "big")
        entry = self._index_locks.setdefault(index_id, [asyncio.Lock(), 0])
        entry[1] += 1

        async def run() -> bytes:
            try:
                async with entry[0]:
                    return await self._offload(frame)
            finally:
                entry[1] -= 1
                if entry[1] == 0 and self._index_locks.get(index_id) is entry:
                    del self._index_locks[index_id]

        return run()

    async def _process(self, frame: bytes) -> bytes:
        t0 = time.perf_counter()
        op = OP_NAMES.get(frame[0], "unknown")
        index_id: "int | None" = None
        if frame[0] in INDEXED_TAGS and len(frame) >= HEADER_SIZE + 8:
            index_id = int.from_bytes(
                frame[HEADER_SIZE : HEADER_SIZE + 8], "big"
            )
            self.stats.enter_index(index_id)
        try:
            if frame[0] == msg.TAG_STATS_REQUEST:
                response = await self._stats_response()
            elif frame[0] == msg.TAG_METRICS_REQUEST:
                response = await self._metrics_response(frame)
            elif frame[0] in WRITE_TAGS and len(frame) >= HEADER_SIZE + 8:
                response = await self._process_write(frame)
            else:
                # Reads take no lock; frames too short to carry an
                # index id fall through to the core parser's rejection.
                response = await self._offload(frame)
        except Exception as exc:  # noqa: BLE001 — a reply must always go out
            response = msg.ErrorResponse.from_exception(exc).to_frame()
        finally:
            if index_id is not None:
                self.stats.leave_index(index_id)
            self._release()
        if response[:1] == bytes([msg.TAG_ERROR]):
            self.stats.errors += 1
            self.stats.registry.counter("net.errors").inc()
        self.stats.registry.counter("net.frames").inc()
        self.stats.record_op(op, time.perf_counter() - t0)
        return response

    async def _offload(self, frame: bytes) -> bytes:
        """Run one request on the exec engine's offload pool.

        ``handle_request`` is total (it always returns a frame), so the
        event loop only ever sees bytes back — never a library
        exception — and stays free while crypto and storage grind.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.core.executor.offload_pool(), self.core.handle_request, frame
        )

    async def _stats_response(self) -> bytes:
        loop = asyncio.get_running_loop()
        core_stats = await loop.run_in_executor(
            self.core.executor.offload_pool(), self.core.stats_dict
        )
        # Hint tallies ride the core dict; the transport counters are
        # the genuinely new observability this layer adds.
        net = self.stats.to_dict()
        if self.shard:
            net["shard"] = self.shard
        return msg.StatsResponse(
            {
                "server": core_stats,
                "net": net,
                # The unified registry view (same instruments the delta
                # frame serves), so one stats poll carries everything.
                "metrics": self.stats.registry.snapshot(),
            }
        ).to_frame()

    async def _metrics_response(self, frame: bytes) -> bytes:
        request = msg.MetricsRequest.from_body(frame[HEADER_SIZE:])
        loop = asyncio.get_running_loop()

        def build() -> bytes:
            payload = metrics_payload(
                self.stats.registry,
                getattr(self.core, "tracer", None),
                since=request.since,
                max_traces=request.max_traces,
                boot=request.boot,
                recorder=getattr(self.core, "flight", None),
                max_slow=request.max_slow,
            )
            if self.shard:
                payload["shard"] = self.shard
            return msg.MetricsResponse(payload).to_frame()

        return await loop.run_in_executor(
            self.core.executor.offload_pool(), build
        )


# ---------------------------------------------------------------------------
# Synchronous hosting convenience
# ---------------------------------------------------------------------------


class NetServerThread:
    """A running :class:`RsseNetServer` on a dedicated event-loop thread.

    The handle synchronous code (tests, benchmarks, the harness CLI's
    peers) uses to host a server without touching asyncio: construct
    via :func:`serve_in_thread`, read :attr:`port`, call :meth:`stop`
    (or use it as a context manager).
    """

    def __init__(self, server: RsseNetServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started: "threading.Event" = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._thread = threading.Thread(
            target=self._run, name="rsse-net-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 — reraised in the opener
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.port

    def stats(self) -> ServerStats:
        return self.server.stats

    def stop(self) -> None:
        """Gracefully drain and shut the hosting thread down."""
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "NetServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    core: "RsseServer | None" = None, **kwargs
) -> NetServerThread:
    """Host ``core`` over TCP on a background thread; returns the handle."""
    return NetServerThread(RsseNetServer(core, **kwargs))
