"""The network service layer: the wire protocol over real sockets.

The split-trust model of the paper assumes an owner and an untrusted
server on *different machines*; this package is that boundary made
physical.  :class:`RsseNetServer` hosts any
:class:`~repro.protocol.RsseServer` behind a thread-per-connection,
pipelined, backpressured TCP front; :class:`NetTransport` is the
owner-side pool of blocking sockets that plugs into
:class:`~repro.protocol.RemoteRangeClient` unchanged.  Both sides are
plain blocking sockets: a frame travels from the caller's thread to the
server thread that handles it with no hand-off in between.  Framing is
the protocol's own length-prefixed header, stream-validated by
:class:`FrameReader`.

Quickstart::

    from repro.net import NetTransport, serve_in_thread
    from repro.protocol import RemoteRangeClient, RsseServer
    from repro import make_scheme

    with serve_in_thread(RsseServer()) as server:
        transport = NetTransport("127.0.0.1", server.port)
        client = RemoteRangeClient(
            make_scheme("logarithmic-brc", 1 << 16), transport
        )
        client.outsource([(0, 1500), (1, 42000)])
        print(client.query(1000, 2000))   # frozenset({0})
        transport.close()
"""

from repro.net.client import NetTransport
from repro.net.framing import HEADER_SIZE, MAX_FRAME_BYTES, FrameReader
from repro.net.server import (
    NetServerThread,
    RsseNetServer,
    ServerStats,
    serve_in_thread,
)
from repro.net.store import NetRangeStore

__all__ = [
    "FrameReader",
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "NetRangeStore",
    "NetServerThread",
    "NetTransport",
    "RsseNetServer",
    "ServerStats",
    "serve_in_thread",
]
