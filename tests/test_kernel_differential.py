"""Batch-kernel vs scalar-reference differential across every scheme.

The kernel contract is byte-identical outputs to the scalar per-leaf
paths it batches.  This suite pins it at the strongest observable
boundary — the wire: a client runs real range queries against a server
whose executor uses the ``SerialKernel``, recording every
request/response frame; the same frames then replay against a second
server over the *same* storage backend whose executor uses a reference
kernel running the scalar paths (``GgmDprf.iter_leaves`` +
``subkeys_from_secret``, one ``posting_label`` per item), and each
response frame must match the recorded one byte for byte.  All seven
registry schemes, over both the in-memory and SQLite backends — if the
fused hot loops or their blob slicing disagreed with the scalar paths
by one byte anywhere, a frame comparison here fails.  This is the
licence for rewriting the kernel's loops.
"""

from __future__ import annotations

import random

import pytest

from repro import make_scheme
from repro.baselines.plaintext import PlaintextRangeIndex
from repro.crypto.dprf import DelegationToken, GgmDprf
from repro.crypto.kernel import SerialKernel
from repro.exec.engine import QueryExecutor
from repro.protocol import RemoteRangeClient, RsseServer
from repro.sse.base import subkeys_from_secret
from repro.sse.pibas import posting_label
from repro.storage import InMemoryBackend, SqliteBackend

SCHEMES = (
    "quadratic",
    "constant-brc",
    "constant-urc",
    "logarithmic-brc",
    "logarithmic-urc",
    "logarithmic-src",
    "logarithmic-src-i",
)

BACKENDS = ("memory", "sqlite")

RANGES = [(0, 63), (17, 51), (32, 32), (50, 60)]


class _ScalarKernel(SerialKernel):
    """Reference kernel: the engine's three batch calls, answered by
    the scalar per-leaf paths the fused loops replaced."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def expand_subtrees(self, descriptors):
        self.calls += 1
        return [
            list(GgmDprf.iter_leaves(DelegationToken(seed, level)))
            for seed, level in descriptors
        ]

    def derive_leaf_subkeys(self, descriptors):
        self.calls += 1
        return [
            tuple(
                subkeys_from_secret(leaf)
                for leaf in GgmDprf.iter_leaves(DelegationToken(seed, level))
            )
            for seed, level in descriptors
        ]

    def derive_labels(self, items):
        self.calls += 1
        return [posting_label(key, counter) for key, counter in items]


@pytest.fixture(scope="module")
def dataset():
    rng = random.Random(11)
    return [(i, rng.randrange(64)) for i in range(150)]


class _RecordingTransport:
    """Forward frames to a server, keeping (request, response) pairs."""

    def __init__(self, handle):
        self._handle = handle
        self.frames: "list[tuple[bytes, bytes | None]]" = []

    def __call__(self, frame: bytes):
        response = self._handle(frame)
        self.frames.append(
            (bytes(frame), None if response is None else bytes(response))
        )
        return response


def _executor(kernel) -> QueryExecutor:
    # workers=1 and no cache: the kernel is the only variable.
    return QueryExecutor(workers=1, cache=False, kernel=kernel)


def _make_backend(kind: str, tmp_path):
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "edb.sqlite")
    return InMemoryBackend()


@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("name", SCHEMES)
def test_scalar_replay_is_byte_identical(
    name, backend_kind, dataset, tmp_path
):
    domain = 64 if name == "quadratic" else 128
    kwargs = (
        {"intersection_policy": "allow"} if name.startswith("constant") else {}
    )
    scheme = make_scheme(name, domain, rng=random.Random(21), **kwargs)

    backend = _make_backend(backend_kind, tmp_path)
    serial_server = RsseServer(backend, executor=_executor(SerialKernel()))
    transport = _RecordingTransport(serial_server.handle)
    client = RemoteRangeClient(scheme, transport, rng=random.Random(22))
    client.outsource(dataset)
    transport.frames.clear()  # keep only the query-phase frames

    oracle = PlaintextRangeIndex(dataset)
    for lo, hi in RANGES:
        assert client.query(lo, hi) == frozenset(oracle.query(lo, hi))
    assert transport.frames, "queries must have produced frames"

    # Same stored state, same request frames, scalar reference paths:
    # every response frame must come back byte-identical.
    reference = _ScalarKernel()
    reference_server = RsseServer(backend, executor=_executor(reference))
    for request, expected in transport.frames:
        response = reference_server.handle(request)
        assert (None if response is None else bytes(response)) == expected
    # The replay must actually have gone through the reference paths.
    assert reference.calls > 0
