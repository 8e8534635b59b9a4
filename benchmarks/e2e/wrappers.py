"""Benchmark-side timing wrappers around the seams each layer exposes.

Nothing under ``src/`` knows these exist: each wrapper stands where a
public constructor argument already accepts a substitute —
``backend=``, ``executor=``, ``QueryExecutor(kernel=)``, the transport
callable, ``ClusterRouter(schemes=)`` and the server's
``handle_request`` attribute — and records a span around the call it
forwards.  Only the traced pass installs them; the untraced pass uses
:class:`CountingTransport` alone (byte counts cost one ``len``).
"""

from __future__ import annotations

import contextlib
import sys
import threading

from repro.crypto.kernel import SerialKernel
from repro.exec import QueryExecutor
from repro.storage.backend import StorageBackend


class TimedKernel(SerialKernel):
    """The default serial kernel with a span around each batch call."""

    def __init__(self, rec) -> None:
        super().__init__()
        self._rec = rec

    def expand_subtrees(self, descriptors):
        with self._rec.span("crypto.kernel.expand", items=len(descriptors)):
            return super().expand_subtrees(descriptors)

    def derive_leaf_subkeys(self, descriptors):
        with self._rec.span("crypto.kernel.subkeys") as span:
            out = super().derive_leaf_subkeys(descriptors)
            span["items"] = sum(len(leaves) for leaves in out)
            return out

    def derive_labels(self, items):
        with self._rec.span("crypto.kernel.labels", items=len(items)):
            return super().derive_labels(items)


class TimedExecutor(QueryExecutor):
    """A default-configured engine with a span around each search (the
    two entry points every scheme and the server go through)."""

    def __init__(self, rec) -> None:
        super().__init__(kernel=TimedKernel(rec))
        self._rec = rec

    def _timed(self, run):
        with self._rec.span("exec.engine") as span:
            result = run()
            stats = result.stats
            span["tokens_expanded"] = stats.tokens_expanded
            span["probes_issued"] = stats.probes_issued
            span["probes_coalesced"] = stats.probes_coalesced
            return result

    def sse_search(self, index, tokens, *, sse=None, scheme=""):
        return self._timed(
            lambda: super(TimedExecutor, self).sse_search(
                index, tokens, sse=sse, scheme=scheme
            )
        )

    def dprf_search(self, index, tokens, *, sse=None, scheme=""):
        return self._timed(
            lambda: super(TimedExecutor, self).dprf_search(
                index, tokens, sse=sse, scheme=scheme
            )
        )


class TimedBackend(StorageBackend):
    """Forwards every call to ``inner`` inside a read or write span.

    Iterators are drained inside the span (a lazy generator would be
    timed at zero and its real cost charged to the caller).
    """

    def __init__(self, inner: StorageBackend, rec) -> None:
        self._inner = inner
        self._rec = rec

    @property
    def probe_batch(self) -> int:
        return self._inner.probe_batch

    @property
    def thread_safe_reads(self) -> bool:
        return self._inner.thread_safe_reads

    # -- reads -----------------------------------------------------------

    def get(self, ns, key):
        with self._rec.span("storage.read", keys=1):
            return self._inner.get(ns, key)

    def get_many(self, ns, keys):
        with self._rec.span("storage.read", keys=len(keys)):
            return self._inner.get_many(ns, keys)

    def keys(self, ns):
        with self._rec.span("storage.read") as span:
            out = list(self._inner.keys(ns))
            span["keys"] = len(out)
        return iter(out)

    def items(self, ns):
        with self._rec.span("storage.read") as span:
            out = list(self._inner.items(ns))
            span["keys"] = len(out)
        return iter(out)

    def count(self, ns):
        with self._rec.span("storage.read", keys=0):
            return self._inner.count(ns)

    def namespaces(self):
        with self._rec.span("storage.read", keys=0):
            return self._inner.namespaces()

    # -- writes ----------------------------------------------------------

    def put(self, ns, key, value):
        with self._rec.span(
            "storage.write", entries=1, bytes=len(key) + len(value)
        ):
            self._inner.put(ns, key, value)

    def put_many(self, ns, entries):
        entries = list(entries)
        with self._rec.span(
            "storage.write",
            entries=len(entries),
            bytes=sum(len(k) + len(v) for k, v in entries),
        ):
            self._inner.put_many(ns, entries)

    def delete(self, ns, key):
        with self._rec.span("storage.write", entries=0, bytes=0):
            return self._inner.delete(ns, key)

    def delete_many(self, ns, keys):
        with self._rec.span("storage.write", entries=0, bytes=0):
            return self._inner.delete_many(ns, keys)

    def drop(self, ns):
        with self._rec.span("storage.write", entries=0, bytes=0):
            self._inner.drop(ns)

    @contextlib.contextmanager
    def transaction(self):
        # Only the commit is storage time: callers (index builds) run
        # their own crypto inside the transaction body.
        inner = self._inner.transaction()
        inner.__enter__()
        try:
            yield self
        except BaseException:
            if not inner.__exit__(*sys.exc_info()):
                raise
        else:
            with self._rec.span("storage.write", entries=0, bytes=0, txn=1):
                inner.__exit__(None, None, None)

    def close(self):
        self._inner.close()


class CountingTransport:
    """A ``frame -> frame`` transport that tallies reply bytes.

    The router hands back ids only, so reply bytes on the wire (the
    numerator of ``response_bytes_per_result``) are counted here.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.bytes_in = 0

    def __call__(self, frame: bytes) -> bytes:
        reply = self._inner(frame)
        self.bytes_in += len(reply)
        return reply

    def send_many(self, frames):
        replies = self._inner.send_many(frames)
        self.bytes_in += sum(len(reply) for reply in replies)
        return replies

    def close(self) -> None:
        self._inner.close()


class FrameSequence:
    """Per-(server, frame kind) send counters shared by every
    connection to one server — the client half of the span join."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next: "dict[int, int]" = {}

    def take(self, kind: int) -> int:
        with self._lock:
            seq = self._next.get(kind, 0)
            self._next[kind] = seq + 1
            return seq


#: Request/reply frame pairs kept for the codec replay, per transport.
CAPTURE_LIMIT = 512


class TimedTransport(CountingTransport):
    """Counting transport that also records a ``net.rtt`` span per
    frame, tagged so the attribution can find the server's matching
    handle span, and keeps a bounded sample of frame pairs."""

    def __init__(self, inner, rec, *, server: str, sequence: FrameSequence,
                 track: str, current_op, lane: "int | None" = None) -> None:
        super().__init__(inner)
        self._rec = rec
        self._server = server
        self._sequence = sequence
        self._track = track
        self._current_op = current_op
        self._lane = lane
        self.captured: "list[tuple[bytes, bytes]]" = []

    def _span(self, frame: bytes):
        return self._rec.span(
            "net.rtt",
            op=self._current_op(self._track),
            track=self._track,
            lane=self._lane,
            server=self._server,
            kind=frame[0],
            seq=self._sequence.take(frame[0]),
            bytes_out=len(frame),
        )

    def __call__(self, frame: bytes) -> bytes:
        with self._span(frame) as span:
            reply = super().__call__(frame)
            span["bytes_in"] = len(reply)
        if len(self.captured) < CAPTURE_LIMIT:
            self.captured.append((frame, reply))
        return reply

    def send_many(self, frames):
        # A pipelined wave (setup uploads): one span per frame would
        # all cover the same wall time, so the wave is one span and
        # the per-kind counters still advance once per frame.
        frames = list(frames)
        for frame in frames[1:]:
            self._sequence.take(frame[0])
        with self._span(frames[0]) as span:
            span["wave"] = len(frames)
            return super().send_many(frames)


class TimedScheme:
    """Owner-role proxy: spans around trapdoor generation and tuple
    decryption, the owner's crypto on either side of the wire."""

    def __init__(self, inner, rec, *, lane: int, current_op) -> None:
        self._inner = inner
        self._rec = rec
        self._lane = lane
        self._current_op = current_op

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _span(self, name: str):
        return self._rec.span(
            name,
            coalesce=True,
            op=self._current_op("read"),
            track="read",
            lane=self._lane,
        )

    def trapdoor(self, lo, hi):
        with self._span("core.trapdoor"):
            return self._inner.trapdoor(lo, hi)

    def decrypt_record(self, blob):
        with self._span("core.refine"):
            return self._inner.decrypt_record(blob)


def time_handle(core, rec) -> None:
    """Wrap ``core.handle_request`` (the net server looks the attribute
    up per frame) in a root ``protocol.server`` span carrying the frame
    kind and its per-kind arrival number — the server half of the join.
    """
    handle = core.handle_request
    arrivals = FrameSequence()

    def timed(frame: bytes) -> bytes:
        with rec.span(
            "protocol.server",
            root=True,
            kind=frame[0],
            seq=arrivals.take(frame[0]),
            bytes_in=len(frame),
        ) as span:
            reply = handle(frame)
            span["bytes_out"] = len(reply)
            return reply

    core.handle_request = timed
