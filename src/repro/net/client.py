"""Pooled client transport: the owner's side of the TCP seam.

``NetTransport`` is a drop-in :data:`~repro.protocol.client.Transport`
— a callable ``frame -> response frame`` — so every existing owner-side
class (:class:`~repro.protocol.RemoteRangeClient`, ``query_many``, the
harness) runs over real sockets unchanged.  It is plain blocking
sockets: a frame goes from the caller's thread straight onto the wire
and its reply is read on that same thread.

- **A bounded pool.**  At most ``pool_size`` sockets, opened lazily.
  A call checks one out for its whole round trip; when every socket is
  busy the caller waits for one to come back rather than dialing more.
- **Pipelining.**  ``send_many`` stripes its frames over up to
  ``pool_size`` sockets, writes each share back to back, then reads the
  replies in order — one wave of round-trips for a whole upload.
- **Retry on a fresh socket.**  A socket that raised or hit EOF is
  closed and never reused, so a late reply can never pair with a later
  request; the request is resent on a new socket with exponential
  backoff — at-least-once delivery, which the protocol tolerates
  (uploads are content-idempotent, searches and fetches are pure reads).
- **Timeouts.**  ``timeout_s`` bounds the whole request, connect to last
  byte; expiry raises :class:`~repro.errors.TransportError` at once
  rather than hanging (or silently resending to) the owner.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.errors import FramingError, TransportError
from repro.net.framing import MAX_FRAME_BYTES, FrameReader
from repro.protocol import messages as msg


def _remaining(deadline: float) -> float:
    """Seconds left before ``deadline``; raises once it has passed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise socket.timeout("request deadline passed")
    return remaining


class NetTransport:
    """A blocking ``frame -> frame`` callable over a small socket pool.

    Thread-safe: any number of threads may call it at once; each holds
    its own socket for the duration of its round trip.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pool_size: int = 2,
        timeout_s: float = 30.0,
        retries: int = 4,
        backoff_s: float = 0.05,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        ssl=None,
    ) -> None:
        self.host = host
        self.port = port
        self.pool_size = max(1, int(pool_size))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.max_frame_bytes = max_frame_bytes
        self.ssl = ssl
        #: Set by :meth:`close`; new calls and retries refuse from then on.
        self.closed = False
        self._cond = threading.Condition()
        #: Sockets free to check out.
        self._idle: "list[socket.socket]" = []
        #: Every open socket, idle or checked out — what close() reaches.
        self._open: "set[socket.socket]" = set()
        #: Sockets being dialed: they hold a pool slot before they exist.
        self._dialing = 0
        try:
            # Fail fast on a dead address: one eager connection.
            self._request([], time.monotonic() + self.timeout_s)
        except BaseException:
            self.close()
            raise

    # -- the pool ------------------------------------------------------------

    def _checkout(
        self, deadline: float, *, wait: bool = True
    ) -> "socket.socket | None":
        """Take an idle socket, dial one if the pool has room, or wait.

        With ``wait=False`` a full pool returns ``None`` instead.
        """
        with self._cond:
            while True:
                if self.closed:
                    raise TransportError("transport is closed")
                if self._idle:
                    return self._idle.pop()
                if len(self._open) + self._dialing < self.pool_size:
                    self._dialing += 1
                    break
                if not wait:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("no pooled socket came free")
                self._cond.wait(remaining)
        sock = None
        try:
            sock = self._dial(deadline)
        finally:
            with self._cond:
                self._dialing -= 1
                if sock is not None and not self.closed:
                    self._open.add(sock)
                self._cond.notify()
        if self.closed:
            sock.close()
            raise TransportError("transport is closed")
        return sock

    def _dial(self, deadline: float) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=_remaining(deadline)
        )
        try:
            # Request/response traffic is latency-bound; never Nagle it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.ssl is not None:
                sock = self.ssl.wrap_socket(sock, server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._cond:
            if not self.closed:
                self._idle.append(sock)
                self._cond.notify()
                return
            self._open.discard(sock)  # close() ran mid-call: don't pool it
        sock.close()

    def _discard(self, sock: socket.socket) -> None:
        """Close a socket whose stream position can no longer be trusted."""
        with self._cond:
            self._open.discard(sock)
            self._cond.notify()
        sock.close()

    # -- round trips ---------------------------------------------------------

    def _write(
        self, sock: socket.socket, frames: "list[bytes]", deadline: float
    ) -> None:
        if frames:
            sock.settimeout(_remaining(deadline))
            sock.sendall(b"".join(frames))

    def _read(
        self, sock: socket.socket, count: int, deadline: float
    ) -> "list[bytes]":
        """Read exactly ``count`` reply frames; anything more is a fault."""
        replies: "list[bytes]" = []
        reader = FrameReader(self.max_frame_bytes)
        while len(replies) < count:
            sock.settimeout(_remaining(deadline))
            chunk = sock.recv(65536)
            if not chunk:
                raise TransportError("server closed the connection")
            replies += reader.feed(chunk)
            if reader.error is not None:
                raise reader.error
        if len(replies) > count or reader.buffered_bytes:
            raise FramingError("unsolicited response frame")
        return replies

    def _request(self, frames: "list[bytes]", deadline: float) -> "list[bytes]":
        """Write ``frames`` back to back on one socket, read one reply each.

        Transport failures resend the whole share on a fresh socket;
        a timeout raises at once.  An empty share just opens a socket.
        """
        last_error: "BaseException | None" = None
        for attempt in range(self.retries + 1):
            if attempt:
                # Exponential backoff between attempts, not before the
                # first: the common case is a healthy reconnect.
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            sock = None
            try:
                sock = self._checkout(deadline)
                self._write(sock, frames, deadline)
                replies = self._read(sock, len(frames), deadline)
            except (TransportError, FramingError, OSError) as exc:
                if sock is not None:
                    self._discard(sock)
                self._raise_if_final(exc)
                last_error = exc  # dead socket — rebuild and resend
                continue
            self._checkin(sock)
            return replies
        raise TransportError(
            f"request to {self.host}:{self.port} failed after "
            f"{self.retries + 1} attempts: {last_error!r}"
        )

    def _raise_if_final(self, exc: BaseException) -> None:
        """Timeouts and a closed transport end a request; nothing else."""
        if isinstance(exc, socket.timeout):
            raise TransportError(
                f"request timed out after {self.timeout_s}s"
            ) from None
        if self.closed:
            raise TransportError("transport closed mid-request") from exc

    # -- the Transport contract ---------------------------------------------

    def __call__(self, frame: bytes) -> bytes:
        return self._request([frame], time.monotonic() + self.timeout_s)[0]

    def send_many(self, frames: "list[bytes]") -> "list[bytes]":
        """Pipelined batch send; responses in input order.

        Frames stripe round-robin over every socket free right now (up
        to ``pool_size``, at least one); each share is written back to
        back, then the replies are read share by share.  A share whose
        socket failed is resent alone on a fresh one.
        """
        frames = list(frames)
        if not frames:
            return []
        deadline = time.monotonic() + self.timeout_s
        socks: "list[socket.socket]" = []
        try:
            socks.append(self._checkout(deadline))
            while len(socks) < min(self.pool_size, len(frames)):
                sock = self._checkout(deadline, wait=False)
                if sock is None:
                    break
                socks.append(sock)
        except (TransportError, OSError) as exc:
            try:
                self._raise_if_final(exc)
            except TransportError:
                for sock in socks:
                    self._checkin(sock)
                raise
            if not socks:  # the first dial failed: the retry loop owns it
                return self._request(frames, deadline)
        stripes = len(socks)
        shares = [frames[s::stripes] for s in range(stripes)]
        owned = dict(enumerate(socks))  # stripe → socket still checked out
        try:
            for s, share in enumerate(shares):
                try:
                    self._write(owned[s], share, deadline)
                except OSError as exc:
                    self._discard(owned.pop(s))
                    self._raise_if_final(exc)
            results: "list[bytes]" = [b""] * len(frames)
            for s, share in enumerate(shares):
                replies = None
                if s in owned:
                    try:
                        replies = self._read(owned[s], len(share), deadline)
                        self._checkin(owned.pop(s))
                    except (TransportError, FramingError, OSError) as exc:
                        self._discard(owned.pop(s))
                        self._raise_if_final(exc)
                if replies is None:
                    replies = self._request(share, deadline)
                results[s::stripes] = replies
            return results
        finally:
            for sock in owned.values():  # abandoned mid-stream
                self._discard(sock)

    # -- conveniences --------------------------------------------------------

    def stats(self) -> dict:
        """Fetch the server's merged stats document.

        The body is self-describing JSON returned as-is: unknown keys
        (including the ``"v"`` schema version and anything a newer
        server adds) pass through untouched, so a stats consumer built
        against an older schema keeps working.
        """
        reply = msg.parse_reply(self(msg.StatsRequest().to_frame()))
        return reply.stats

    def metrics(
        self,
        since: int = 0,
        max_traces: int = 0,
        max_slow: int = 0,
        boot: str = "",
    ) -> dict:
        """Fetch the server's metrics delta past cursor ``since``.

        The returned document's ``"seq"`` is the cursor for the next
        call; ``max_traces`` additionally pulls up to that many recent
        trace records from the server's ring buffer, and ``max_slow``
        up to that many slow-query flight-recorder captures.  Pass the
        previous payload's ``"boot"`` back in ``boot`` so a restarted
        server resets your cursor (``"cursor_reset": true``) instead of
        silently suppressing its fresh registry's updates.
        """
        reply = msg.parse_reply(
            self(msg.MetricsRequest(since, max_traces, max_slow, boot).to_frame())
        )
        return reply.payload

    def close(self) -> None:
        """Refuse new calls and shut every socket down, busy ones too.

        A thread blocked reading a reply wakes at once to EOF and raises
        :class:`~repro.errors.TransportError`; it closes its own socket.
        """
        with self._cond:
            self.closed = True
            busy = self._open.difference(self._idle)
            idle, self._idle = self._idle, []
            self._open.difference_update(idle)
            for sock in busy:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already dead
            self._cond.notify_all()
        for sock in idle:
            sock.close()

    def __enter__(self) -> "NetTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
