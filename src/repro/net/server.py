"""The concurrent network face of :class:`~repro.protocol.RsseServer`.

``RsseNetServer`` carries the existing wire protocol over TCP with the
mechanics a real service needs and an in-process transport never shows:

- **Concurrent sessions.**  One accept thread and one thread per
  connection, on plain blocking sockets: a frame is read, handled and
  answered on the same thread, with no hand-off in between.  Separate
  connections run concurrently.
- **Request pipelining.**  A client may write any number of frames
  without waiting; responses come back in request order per connection
  (the protocol has no correlation ids — FIFO *is* the contract).
  Frames pipelined on *one* connection run one after another.
- **Bounded admission.**  A global semaphore caps frames in flight;
  while it is full a connection thread stops reading its socket, so
  backpressure reaches clients through the TCP window instead of
  through an unbounded queue.  A client that pipelines but never reads
  replies stalls only its own thread, in ``sendall``.
- **Write/read discipline.**  Upload, drop and update frames serialize
  through a per-index lock, so concurrent writes to one handle apply in
  arrival order; searches and fetches take no lock at all.
- **Graceful drain.**  :meth:`stop` stops accepting, lets every frame
  already read finish and flush, then shuts the remaining (idle)
  connections down.

Hostile input is contained per connection: a garbage or oversized
header earns one typed :class:`~repro.protocol.messages.ErrorResponse`
and a close of *that* connection; every other session is untouched.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from repro.net.framing import HEADER_SIZE, MAX_FRAME_BYTES, FrameReader
from repro.obs.registry import MetricsRegistry, metrics_payload
from repro.protocol import messages as msg
from repro.protocol.server import RsseServer

#: Frames that mutate an index handle — these serialize per index id.
#: Update frames ride the same per-index lock as uploads: batches to
#: one managed store apply in arrival order (and their logarithmic
#: consolidation runs under the lock), while searches — including
#: managed-store searches — stay lock-free.
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

    Connection threads update the counters concurrently; every update
    and :meth:`to_dict` hold :attr:`lock`.
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
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **deltas: int) -> None:
        """Bump the named integer counters by their deltas, atomically."""
        with self.lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def record_op(self, name: str, seconds: float) -> None:
        with self.lock:
            entry = self.op_seconds.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        self.registry.histogram(f"op.{name}").observe(seconds)

    def enter_index(self, index_id: int) -> None:
        with self.lock:
            depth = self.index_inflight.get(index_id, 0) + 1
            self.index_inflight[index_id] = depth
            if depth > self.index_inflight_peak.get(index_id, 0):
                self.index_inflight_peak[index_id] = depth

    def leave_index(self, index_id: int) -> None:
        with self.lock:
            depth = self.index_inflight.get(index_id, 0) - 1
            if depth <= 0:
                # Idle handles leave the gauge (bounded by live handles,
                # not by every handle ever seen); the peak map keeps
                # history.
                self.index_inflight.pop(index_id, None)
            else:
                self.index_inflight[index_id] = depth

    def to_dict(self) -> dict:
        with self.lock:
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
    """Threaded TCP front for one :class:`~repro.protocol.RsseServer`.

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
        self._listener: "socket.socket | None" = None
        self._port: "int | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._admission = threading.BoundedSemaphore(self.max_inflight)
        self._inflight = 0  # guarded by stats.lock, beside inflight_peak
        #: index id → ``[threading.Lock, interested-writer count]``.
        self._index_locks: "dict[int, list]" = {}
        self._index_locks_guard = threading.Lock()
        #: Guards the three fields below; notified when ``_busy`` drops.
        self._state = threading.Condition()
        #: Connection thread → its socket (what stop() shuts down).
        self._conns: "dict[threading.Thread, socket.socket]" = {}
        #: Connections between reading frames and flushing their replies.
        self._busy = 0
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RsseNetServer":
        """Bind and start accepting; returns once listening."""
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
        self._listener = socket.create_server(
            (self._host, self._requested_port), family=family, backlog=128
        )
        self._port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="rsse-net-accept", daemon=True
        )
        self._accept_thread.start()
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
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    @property
    def address(self) -> "tuple[str, int]":
        return (self._host, self.port)

    def serve_forever(self) -> None:
        """Start if needed, then block until :meth:`stop` closes the
        listener.

        The wait takes no lock that :meth:`stop` needs, so a signal
        handler on the waiting thread may call :meth:`stop` itself.
        """
        if self._listener is None:
            self.start()
        self._accept_thread.join()

    def stop(self) -> None:
        """Graceful drain: stop accepting, finish admitted work, close.

        Idempotent.  Frames already read get up to ``drain_timeout_s``
        to complete and flush their replies; then every remaining
        connection — idle ones included — is shut down and its thread
        joined.
        """
        with self._state:
            first, self._draining = not self._draining, True
        if first:
            # First stop() only — the drain event marks the transition,
            # not every re-entrant call.
            events = getattr(self.core, "events", None)
            if events is not None:
                events.emit(
                    "server.stop",
                    frames_in=self.stats.frames_in,
                    frames_out=self.stats.frames_out,
                )
        if self._listener is not None:
            _shutdown(self._listener)  # wakes the blocked accept()
            self._accept_thread.join()
            self._listener.close()
        with self._state:
            self._state.wait_for(lambda: self._busy == 0, self.drain_timeout_s)
            conns = list(self._conns.items())
            for _, sock in conns:
                _shutdown(sock)
        for thread, _ in conns:
            thread.join()

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._draining:
                    return  # stop() shut the listener down
                time.sleep(0.05)  # e.g. out of descriptors: retry, don't spin
                continue
            with self._state:
                if self._draining:
                    sock.close()
                    return
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(sock,),
                    name="rsse-net-conn",
                    daemon=True,
                )
                self._conns[thread] = sock
                thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        stats = self.stats
        stats.add(connections_total=1, connections_open=1)
        try:
            # Request/response traffic is latency-bound; never Nagle it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._ssl is not None:
                sock = self._ssl.wrap_socket(
                    sock, server_side=True, do_handshake_on_connect=False
                )
                with self._state:
                    if self._draining:
                        return
                    # The wrapper took over the descriptor: stop() must
                    # shut down this object from now on.
                    self._conns[threading.current_thread()] = sock
                sock.do_handshake()
            frames = FrameReader(self.max_frame_bytes)
            while not self._draining:
                data = sock.recv(65536)
                if not data:
                    break
                stats.add(bytes_in=len(data))
                complete = frames.feed(data)
                if not complete and frames.error is None:
                    continue
                with self._state:
                    self._busy += 1
                try:
                    for frame in complete:
                        self._send(sock, self._process(frame))
                    if frames.error is not None:
                        # Valid frames before the poison got their
                        # replies above; now one typed framing error,
                        # then close — the stream position is
                        # unrecoverable, the server is not.
                        stats.add(framing_errors=1)
                        self._send(
                            sock,
                            msg.ErrorResponse.from_exception(
                                frames.error
                            ).to_frame(),
                        )
                        break
                finally:
                    with self._state:
                        self._busy -= 1
                        if self._busy == 0:
                            self._state.notify_all()
        except OSError:
            pass  # peer vanished, or stop() shut the socket down
        finally:
            with self._state:
                self._conns.pop(threading.current_thread(), None)
            sock.close()
            stats.add(connections_open=-1)

    def _send(self, sock: socket.socket, reply: bytes) -> None:
        sock.sendall(reply)
        self.stats.add(frames_out=1, bytes_out=len(reply))

    # -- request processing --------------------------------------------------

    def _process(self, frame: bytes) -> bytes:
        """Admit, run and account one frame; always returns a reply."""
        stats = self.stats
        stats.add(frames_in=1)
        self._admission.acquire()
        with stats.lock:
            self._inflight += 1
            stats.inflight_peak = max(stats.inflight_peak, self._inflight)
        t0 = time.perf_counter()
        op = OP_NAMES.get(frame[0], "unknown")
        index_id: "int | None" = None
        if frame[0] in INDEXED_TAGS and len(frame) >= HEADER_SIZE + 8:
            index_id = int.from_bytes(
                frame[HEADER_SIZE : HEADER_SIZE + 8], "big"
            )
            stats.enter_index(index_id)
        try:
            if frame[0] == msg.TAG_STATS_REQUEST:
                response = self._stats_response()
            elif frame[0] == msg.TAG_METRICS_REQUEST:
                response = self._metrics_response(frame)
            elif frame[0] in WRITE_TAGS and len(frame) >= HEADER_SIZE + 8:
                response = self._process_write(frame)
            else:
                # Reads take no lock; frames too short to carry an
                # index id fall through to the core parser's rejection.
                # The handler is looked up per frame, so a wrapper
                # installed on a live core takes effect at once.
                response = self.core.handle_request(frame)
        except Exception as exc:  # noqa: BLE001 — a reply must always go out
            response = msg.ErrorResponse.from_exception(exc).to_frame()
        finally:
            if index_id is not None:
                stats.leave_index(index_id)
            with stats.lock:
                self._inflight -= 1
            self._admission.release()
        if response[:1] == bytes([msg.TAG_ERROR]):
            stats.add(errors=1)
            stats.registry.counter("net.errors").inc()
        stats.registry.counter("net.frames").inc()
        stats.record_op(op, time.perf_counter() - t0)
        return response

    def _process_write(self, frame: bytes) -> bytes:
        """Serialize a mutating frame through its index's lock.

        The index id sits in the first 8 body bytes of every write
        frame.  Lock entries are refcounted as ``[lock, interested]``
        and the map entry is dropped when the last interested writer
        leaves — owners default to a fresh random handle per session,
        so an unpruned map would grow by a few entries per short-lived
        owner, forever.  The refcount (not ``Lock.locked()``, which
        reads False between one writer's release and the next waiter's
        acquire) is what makes pruning safe: an entry with a queued
        writer is never removed, so two writers to one index can never
        end up serializing on different lock objects.
        """
        index_id = int.from_bytes(frame[HEADER_SIZE : HEADER_SIZE + 8], "big")
        with self._index_locks_guard:
            entry = self._index_locks.setdefault(index_id, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                return self.core.handle_request(frame)
        finally:
            with self._index_locks_guard:
                entry[1] -= 1
                if entry[1] == 0:
                    del self._index_locks[index_id]

    def _stats_response(self) -> bytes:
        # Hint tallies ride the core dict; the transport counters are
        # the genuinely new observability this layer adds.
        net = self.stats.to_dict()
        if self.shard:
            net["shard"] = self.shard
        return msg.StatsResponse(
            {
                "server": self.core.stats_dict(),
                "net": net,
                # The unified registry view (same instruments the delta
                # frame serves), so one stats poll carries everything.
                "metrics": self.stats.registry.snapshot(),
            }
        ).to_frame()

    def _metrics_response(self, frame: bytes) -> bytes:
        request = msg.MetricsRequest.from_body(frame[HEADER_SIZE:])
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


def _shutdown(sock: socket.socket) -> None:
    """Wake every thread blocked on ``sock``; closing alone would not."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already gone


# ---------------------------------------------------------------------------
# Synchronous hosting convenience
# ---------------------------------------------------------------------------


class NetServerThread:
    """A running :class:`RsseNetServer`, as a handle for synchronous code.

    What tests, benchmarks and the harness CLI's peers use to host a
    server: construct via :func:`serve_in_thread`, read :attr:`port`,
    call :meth:`stop` (or use it as a context manager).
    """

    def __init__(self, server: RsseNetServer) -> None:
        self.server = server.start()

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.port

    def stats(self) -> ServerStats:
        return self.server.stats

    def stop(self) -> None:
        """Gracefully drain and stop the server."""
        self.server.stop()

    def __enter__(self) -> "NetServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    core: "RsseServer | None" = None, **kwargs
) -> NetServerThread:
    """Host ``core`` over TCP on background threads; returns the handle."""
    return NetServerThread(RsseNetServer(core, **kwargs))
