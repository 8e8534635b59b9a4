"""The owner-side transport against misbehaving raw-socket servers.

Each listener here is a bare ``socket`` server scripted to fail in one
specific way — never answering, answering late, dying mid-reply — so
the paths :class:`~repro.net.NetTransport` owns (timeouts, stale-reply
isolation, retry on a fresh socket) are exercised without any server
code in the loop.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time

import pytest

from repro.errors import TransportError
from repro.net import FrameReader, NetTransport
from repro.protocol import messages as msg


class _ScriptedServer:
    """Accept connections; answer the n-th request frame (counted over
    all connections, from 1) by calling ``respond(n, sock)``."""

    def __init__(self, respond) -> None:
        self._respond = respond
        self._count = itertools.count(1)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._socks: "list[socket.socket]" = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            self._socks.append(sock)
            threading.Thread(target=self._serve, args=(sock,), daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        frames = FrameReader()
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    return
                for _ in frames.feed(data):
                    self._respond(next(self._count), sock)
        except OSError:
            return

    def close(self) -> None:
        for sock in [self._listener, *self._socks]:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def __enter__(self) -> "_ScriptedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _reply(n: int) -> bytes:
    """A reply frame that names the request it answers."""
    return msg.StatsResponse({"request": n}).to_frame()


def _request() -> bytes:
    return msg.StatsRequest().to_frame()


def test_silent_server_times_out_promptly():
    """(a) A listener that accepts and never answers: the call raises
    TransportError once ``timeout_s`` has passed, not later."""
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        port = listener.getsockname()[1]
        with NetTransport(
            "127.0.0.1", port, timeout_s=0.5, retries=0
        ) as transport:
            t0 = time.monotonic()
            with pytest.raises(TransportError):
                transport(_request())
            assert time.monotonic() - t0 < 2.0
    finally:
        listener.close()


def test_late_reply_never_pairs_with_a_later_request():
    """(b) Request 1 is answered only after the client gave up on it;
    later requests are answered at once.  The next call must get its
    own reply, never request 1's stale one."""

    def respond(n: int, sock: socket.socket) -> None:
        if n == 1:
            time.sleep(0.7)  # past the client's 0.5 s timeout
        sock.sendall(_reply(n))

    with _ScriptedServer(respond) as server:
        with NetTransport(
            "127.0.0.1", server.port, timeout_s=0.5, retries=0, pool_size=1
        ) as transport:
            with pytest.raises(TransportError):
                transport(_request())
            reply = msg.parse_reply(transport(_request()))
            assert reply.stats["request"] == 2
            reply = msg.parse_reply(transport(_request()))
            assert reply.stats["request"] == 3


def test_close_mid_reply_retries_on_a_fresh_socket():
    """(c) The server dies halfway through its first reply: the call
    resends on a new socket and returns that socket's complete reply."""

    def respond(n: int, sock: socket.socket) -> None:
        reply = _reply(n)
        if n == 1:
            sock.sendall(reply[: len(reply) // 2])
            sock.shutdown(socket.SHUT_RDWR)
            return
        sock.sendall(reply)

    with _ScriptedServer(respond) as server:
        with NetTransport(
            "127.0.0.1", server.port, retries=2, backoff_s=0.01, pool_size=1
        ) as transport:
            reply = msg.parse_reply(transport(_request()))
            assert reply.stats["request"] == 2
