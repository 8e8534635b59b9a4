"""Pluggable storage backends for the untrusted server side.

Everything the server persists — EDB label→ciphertext entries, the
encrypted tuple store, encrypted payloads, operation logs — is opaque
binary data.  This module pins that observation down as an interface: a
:class:`StorageBackend` is a namespaced binary key-value store, and the
server-side roles (:class:`~repro.core.split.EncryptedDatabase`,
:class:`~repro.protocol.server.RsseServer`,
:class:`~repro.updates.manager.BatchUpdateManager`) all persist through
it instead of raw dicts.

Implementations:

``InMemoryBackend``
    Plain nested dicts; the default everywhere, zero overhead.
``SqliteBackend`` (alias ``FileBackend``)
    One SQLite file via the stdlib ``sqlite3`` module; survives process
    restarts, suitable for file-backed deployments and snapshots.
``ShardedBackend``
    Hash-stripes keys across N sub-backends, modelling a server that
    spreads EDB labels over multiple storage nodes.  Labels are PRF
    outputs, so striping by key hash is load-balanced by construction.
``PrefixedBackend``
    Namespace-prefix view of another backend, letting many logical
    stores (e.g. per-batch indexes) share one physical backend without
    colliding.

Nothing in a backend ever sees a key, a plaintext, or a query range —
the trust boundary is upheld by the data that reaches this layer, not
by this layer's discretion.
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
import zlib
from abc import ABC, abstractmethod
from collections.abc import MutableMapping
from typing import Callable, Iterable, Iterator, Mapping, Sequence

#: Keys per ``SELECT … IN``/``DELETE … IN`` statement; comfortably under
#: SQLite's 999-host-parameter floor (one slot is taken by the namespace).
_SQL_CHUNK = 400


class StorageBackend(ABC):
    """Namespaced binary key-value store (the server's persistence seam).

    Namespaces are short strings (``"edb/main"``, ``"tuples"``); keys
    and values are bytes.  A missing namespace behaves like an empty
    one.
    """

    @abstractmethod
    def get(self, ns: str, key: bytes) -> "bytes | None":
        """Fetch one value (``None`` when absent)."""

    @abstractmethod
    def put(self, ns: str, key: bytes, value: bytes) -> None:
        """Insert or replace one entry."""

    @abstractmethod
    def delete(self, ns: str, key: bytes) -> bool:
        """Remove one entry, returning whether it existed."""

    @abstractmethod
    def keys(self, ns: str) -> "Iterator[bytes]":
        """Iterate the keys of a namespace (order unspecified)."""

    @abstractmethod
    def items(self, ns: str) -> "Iterator[tuple[bytes, bytes]]":
        """Iterate ``(key, value)`` pairs of a namespace."""

    @abstractmethod
    def count(self, ns: str) -> int:
        """Number of entries in a namespace."""

    @abstractmethod
    def drop(self, ns: str) -> None:
        """Remove a whole namespace (no-op when absent)."""

    @abstractmethod
    def namespaces(self) -> "list[str]":
        """All non-empty namespaces."""

    # -- bulk contract -------------------------------------------------------
    #
    # Every operation that moves many keys at once goes through these
    # three methods plus ``transaction()``.  The defaults fall back to
    # the per-op loop, so the contract is observationally identical to
    # N single calls — concrete backends override them with genuinely
    # batched implementations (one SQL statement, one dict sweep, one
    # delegation per shard).

    #: How many speculative keys a counter-walk search should probe per
    #: :meth:`get_many` round.  1 means "a single get costs nothing
    #: here, probe one at a time" (dicts); backends whose per-call
    #: round-trip dominates (SQLite) raise it so readers can trade a few
    #: wasted key derivations for a batched round-trip.
    probe_batch = 1

    #: Whether concurrent reads from arbitrary threads are safe.  The
    #: exec engine only fans read work out over its pool when this is
    #: true; SQLite connections are bound to their creating thread and
    #: set it to False (the engine then keeps storage calls on the
    #: calling thread — coalesced ``get_many`` rounds already are).
    thread_safe_reads = True

    def put_many(self, ns: str, entries: "Iterable[tuple[bytes, bytes]]") -> None:
        """Bulk insert/replace; later duplicates of a key win."""
        for key, value in entries:
            self.put(ns, key, value)

    def get_many(self, ns: str, keys: "Sequence[bytes]") -> "list[bytes | None]":
        """Fetch many values in request order (``None`` where absent).

        Duplicate keys are answered per position, exactly like the
        equivalent :meth:`get` loop.
        """
        return [self.get(ns, key) for key in keys]

    def delete_many(self, ns: str, keys: "Iterable[bytes]") -> int:
        """Remove many entries, returning how many existed."""
        return sum(1 for key in keys if self.delete(ns, key))

    @contextlib.contextmanager
    def transaction(self):
        """Group writes into one atomic unit where the backend can.

        Durable backends (SQLite) turn this into a real transaction —
        one fsync for any number of writes, rolled back on exception;
        sharded backends open one per shard.  In-memory backends treat
        it as a no-op grouping (writes apply immediately and are not
        undone on exception).  Reentrant: nested blocks join the
        outermost transaction.
        """
        yield self

    def close(self) -> None:
        """Release resources (files, connections); idempotent."""


class InMemoryBackend(StorageBackend):
    """Nested-dict backend — the default, and the fastest."""

    def __init__(self) -> None:
        self._data: "dict[str, dict[bytes, bytes]]" = {}

    def get(self, ns: str, key: bytes) -> "bytes | None":
        store = self._data.get(ns)
        return store.get(key) if store is not None else None

    def put(self, ns: str, key: bytes, value: bytes) -> None:
        self._data.setdefault(ns, {})[bytes(key)] = bytes(value)

    def put_many(self, ns: str, entries: "Iterable[tuple[bytes, bytes]]") -> None:
        store = self._data.setdefault(ns, {})
        store.update((bytes(k), bytes(v)) for k, v in entries)
        if not store:  # empty batch must not materialize the namespace
            del self._data[ns]

    def get_many(self, ns: str, keys: "Sequence[bytes]") -> "list[bytes | None]":
        store = self._data.get(ns)
        if store is None:
            return [None] * len(keys)
        return [store.get(key) for key in keys]

    def delete_many(self, ns: str, keys: "Iterable[bytes]") -> int:
        store = self._data.get(ns)
        if store is None:
            return 0
        removed = 0
        for key in keys:
            if store.pop(key, None) is not None:
                removed += 1
        if not store:
            del self._data[ns]
        return removed

    def delete(self, ns: str, key: bytes) -> bool:
        store = self._data.get(ns)
        if store is None or key not in store:
            return False
        del store[key]
        if not store:
            del self._data[ns]
        return True

    def keys(self, ns: str) -> "Iterator[bytes]":
        return iter(list(self._data.get(ns, {})))

    def items(self, ns: str) -> "Iterator[tuple[bytes, bytes]]":
        return iter(list(self._data.get(ns, {}).items()))

    def count(self, ns: str) -> int:
        return len(self._data.get(ns, {}))

    def drop(self, ns: str) -> None:
        self._data.pop(ns, None)

    def namespaces(self) -> "list[str]":
        return [ns for ns, store in self._data.items() if store]


class SqliteBackend(StorageBackend):
    """SQLite-file backend (stdlib only) — survives process restarts.

    One table maps ``(namespace, key) -> value``.  The connection runs
    in autocommit mode (a single :meth:`put` commits on return), while
    every bulk operation (:meth:`put_many`, :meth:`delete_many`, any
    :meth:`transaction` block) executes inside one explicit transaction
    — one commit for the whole batch instead of one per key.  The
    database runs in WAL mode with ``synchronous=NORMAL``: committed
    writes survive a process crash, but the very last commits may be
    lost on power/OS failure (they are fsynced at the next WAL
    checkpoint) — the standard throughput trade for write-heavy
    workloads.

    Threading: the single connection is opened with
    ``check_same_thread=False`` and every operation serializes through
    one reentrant lock, so the backend may be *used* from any thread
    (the network server runs each connection's requests on that
    connection's own thread) but is never *concurrent* — cross-thread
    callers queue.  Holding the lock for a whole :meth:`transaction`
    block also keeps another thread's statements from ever joining (or
    observing) a half-applied transaction on the shared connection.
    ``thread_safe_reads`` stays False: parallel reads would just convoy
    on the lock.
    """

    probe_batch = 16
    thread_safe_reads = False

    def __init__(self, path) -> None:
        self._conn = sqlite3.connect(
            str(path), isolation_level=None, check_same_thread=False
        )
        self._lock = threading.RLock()
        self._txn_depth = 0
        # WAL + NORMAL: group-commit friendly, readers never block the
        # writer.  In-memory databases silently keep their own journal
        # mode; the PRAGMA reports rather than raises, so this is safe
        # on every target filesystem.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            " ns TEXT NOT NULL, k BLOB NOT NULL, v BLOB NOT NULL,"
            " PRIMARY KEY (ns, k)) WITHOUT ROWID"
        )
        self.path = str(path)

    def get(self, ns: str, key: bytes) -> "bytes | None":
        with self._lock:
            row = self._conn.execute(
                "SELECT v FROM kv WHERE ns = ? AND k = ?", (ns, bytes(key))
            ).fetchone()
        return bytes(row[0]) if row is not None else None

    def put(self, ns: str, key: bytes, value: bytes) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO kv (ns, k, v) VALUES (?, ?, ?)",
                (ns, bytes(key), bytes(value)),
            )

    def put_many(self, ns: str, entries: "Iterable[tuple[bytes, bytes]]") -> None:
        with self.transaction():
            self._conn.executemany(
                "INSERT OR REPLACE INTO kv (ns, k, v) VALUES (?, ?, ?)",
                ((ns, bytes(k), bytes(v)) for k, v in entries),
            )

    def get_many(self, ns: str, keys: "Sequence[bytes]") -> "list[bytes | None]":
        keys = [bytes(k) for k in keys]
        found: dict[bytes, bytes] = {}
        with self._lock:
            for start in range(0, len(keys), _SQL_CHUNK):
                chunk = list(dict.fromkeys(keys[start : start + _SQL_CHUNK]))
                placeholders = ",".join("?" * len(chunk))
                for k, v in self._conn.execute(
                    f"SELECT k, v FROM kv WHERE ns = ? AND k IN ({placeholders})",
                    [ns, *chunk],
                ):
                    found[bytes(k)] = bytes(v)
        return [found.get(key) for key in keys]

    def delete_many(self, ns: str, keys: "Iterable[bytes]") -> int:
        keys = list(dict.fromkeys(bytes(k) for k in keys))
        removed = 0
        with self.transaction():
            for start in range(0, len(keys), _SQL_CHUNK):
                chunk = keys[start : start + _SQL_CHUNK]
                placeholders = ",".join("?" * len(chunk))
                cur = self._conn.execute(
                    f"DELETE FROM kv WHERE ns = ? AND k IN ({placeholders})",
                    [ns, *chunk],
                )
                removed += cur.rowcount
        return removed

    @contextlib.contextmanager
    def transaction(self):
        # The lock spans the whole block (reentrantly), so a concurrent
        # thread can neither interleave statements into this
        # transaction nor read its uncommitted state off the shared
        # connection.
        with self._lock:
            if self._txn_depth == 0:
                self._conn.execute("BEGIN IMMEDIATE")
            self._txn_depth += 1
            try:
                yield self
            except BaseException:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    self._conn.execute("ROLLBACK")
                raise
            else:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    self._conn.execute("COMMIT")

    def delete(self, ns: str, key: bytes) -> bool:
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM kv WHERE ns = ? AND k = ?", (ns, bytes(key))
            )
            return cur.rowcount > 0

    def _paged(self, ns: str, columns: str) -> "Iterator[tuple]":
        """Key-ordered chunked scan: the lock is held per page, never
        across the caller's iteration, and memory stays O(page) even on
        a multi-gigabyte namespace.  ``(ns, k)`` is the table's primary
        key, so ``ORDER BY k`` walks the index — each page is a seek,
        not a scan."""
        last: "bytes | None" = None
        while True:
            with self._lock:
                if last is None:
                    rows = self._conn.execute(
                        f"SELECT {columns} FROM kv WHERE ns = ? "
                        "ORDER BY k LIMIT ?",
                        (ns, _SQL_CHUNK),
                    ).fetchall()
                else:
                    rows = self._conn.execute(
                        f"SELECT {columns} FROM kv WHERE ns = ? AND k > ? "
                        "ORDER BY k LIMIT ?",
                        (ns, last, _SQL_CHUNK),
                    ).fetchall()
            if not rows:
                return
            yield from rows
            last = bytes(rows[-1][0])

    def keys(self, ns: str) -> "Iterator[bytes]":
        return (bytes(k) for (k,) in self._paged(ns, "k"))

    def items(self, ns: str) -> "Iterator[tuple[bytes, bytes]]":
        return (
            (bytes(k), bytes(v)) for k, v in self._paged(ns, "k, v")
        )

    def count(self, ns: str) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM kv WHERE ns = ?", (ns,)
            ).fetchone()
        return n

    def drop(self, ns: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM kv WHERE ns = ?", (ns,))

    def namespaces(self) -> "list[str]":
        with self._lock:
            return [
                ns
                for (ns,) in self._conn.execute("SELECT DISTINCT ns FROM kv")
            ]

    def close(self) -> None:
        with self._lock:
            self._conn.close()


#: Conventional name for the file-backed backend.
FileBackend = SqliteBackend


class ShardedBackend(StorageBackend):
    """Stripes keys across N sub-backends by key hash.

    EDB labels are (truncated) PRF outputs, so a cheap stable hash
    (CRC-32) spreads them uniformly; every shard holds ``~1/N`` of each
    namespace.  Namespace-level operations fan out to all shards.
    """

    def __init__(
        self,
        shards: "Sequence[StorageBackend] | None" = None,
        *,
        shard_count: int = 4,
        shard_factory: "Callable[[int], StorageBackend] | None" = None,
    ) -> None:
        if shards is not None:
            self.shards = list(shards)
        else:
            factory = shard_factory or (lambda i: InMemoryBackend())
            self.shards = [factory(i) for i in range(shard_count)]
        if not self.shards:
            raise ValueError("ShardedBackend needs at least one shard")

    def shard_for(self, key: bytes) -> StorageBackend:
        """The shard responsible for ``key``."""
        return self.shards[zlib.crc32(bytes(key)) % len(self.shards)]

    def shard_slice(self, index: int) -> StorageBackend:
        """The ``index``-th stripe as a plain backend (a live view, not
        a copy) — what a migration hands to the node taking over that
        stripe."""
        return self.shards[index]

    def extract_shard(
        self, index: int, dst: "StorageBackend | None" = None
    ) -> StorageBackend:
        """Copy stripe ``index`` out into ``dst`` (fresh in-memory when
        omitted) and return it — a point-in-time export of one stripe,
        for seeding a replacement node without handing it the live
        sub-backend."""
        return copy_backend(self.shards[index], dst)

    def _shard_index(self, key: bytes) -> int:
        return zlib.crc32(bytes(key)) % len(self.shards)

    def get(self, ns: str, key: bytes) -> "bytes | None":
        return self.shard_for(key).get(ns, key)

    def put(self, ns: str, key: bytes, value: bytes) -> None:
        self.shard_for(key).put(ns, key, value)

    def put_many(self, ns: str, entries: "Iterable[tuple[bytes, bytes]]") -> None:
        # Group by shard and hand each group to that shard's own bulk
        # path — a SQLite shard then pays one transaction, not one
        # autocommit per key (the inherited per-key fallback did).
        groups: dict[int, list[tuple[bytes, bytes]]] = {}
        for key, value in entries:
            groups.setdefault(self._shard_index(key), []).append((key, value))
        for index, group in groups.items():
            self.shards[index].put_many(ns, group)

    def get_many(self, ns: str, keys: "Sequence[bytes]") -> "list[bytes | None]":
        # One bulk fetch per shard, then scatter answers back into
        # request order.
        groups: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self._shard_index(key), []).append(position)
        out: "list[bytes | None]" = [None] * len(keys)
        for index, positions in groups.items():
            values = self.shards[index].get_many(ns, [keys[p] for p in positions])
            for position, value in zip(positions, values):
                out[position] = value
        return out

    def delete_many(self, ns: str, keys: "Iterable[bytes]") -> int:
        groups: dict[int, list[bytes]] = {}
        for key in keys:
            groups.setdefault(self._shard_index(key), []).append(key)
        return sum(
            self.shards[index].delete_many(ns, group)
            for index, group in groups.items()
        )

    @contextlib.contextmanager
    def transaction(self):
        # Atomicity is per shard: each durable shard commits its own
        # transaction (no cross-shard two-phase commit — same contract
        # as any sharded store without a coordinator).
        with contextlib.ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard.transaction())
            yield self

    @property
    def probe_batch(self) -> int:
        # Speculative probes are worth exactly what they are worth on
        # the slowest shard they might hit.
        return max(shard.probe_batch for shard in self.shards)

    @property
    def thread_safe_reads(self) -> bool:
        # A read may land on any shard, so all of them must tolerate it.
        return all(shard.thread_safe_reads for shard in self.shards)

    def delete(self, ns: str, key: bytes) -> bool:
        return self.shard_for(key).delete(ns, key)

    def keys(self, ns: str) -> "Iterator[bytes]":
        for shard in self.shards:
            yield from shard.keys(ns)

    def items(self, ns: str) -> "Iterator[tuple[bytes, bytes]]":
        for shard in self.shards:
            yield from shard.items(ns)

    def count(self, ns: str) -> int:
        return sum(shard.count(ns) for shard in self.shards)

    def drop(self, ns: str) -> None:
        for shard in self.shards:
            shard.drop(ns)

    def namespaces(self) -> "list[str]":
        # dict dedupe keeps first-seen order without the quadratic
        # ``ns not in list`` scan.
        seen: dict[str, None] = {}
        for shard in self.shards:
            for ns in shard.namespaces():
                seen.setdefault(ns)
        return list(seen)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()


def copy_backend(
    src: StorageBackend, dst: "StorageBackend | None" = None
) -> StorageBackend:
    """Copy every namespace of ``src`` into ``dst`` (fresh in-memory
    backend when omitted), returning ``dst``.

    The workhorse of shard bootstrap: state exported from one node is
    replayed onto a replacement's backend through the ordinary bulk
    write path, so the copy costs one transaction per namespace on a
    durable destination.  Values are opaque bytes throughout — copying
    reveals nothing the source backend did not already hold.
    """
    if dst is None:
        dst = InMemoryBackend()
    for ns in src.namespaces():
        dst.put_many(ns, src.items(ns))
    return dst


class PrefixedBackend(StorageBackend):
    """View of another backend with every namespace prefixed.

    Lets many logical stores share one physical backend (one SQLite
    file, one shard set) without namespace collisions — e.g. one prefix
    per batch index in the update manager.
    """

    def __init__(self, inner: StorageBackend, prefix: str) -> None:
        self._inner = inner
        self._prefix = prefix

    def _ns(self, ns: str) -> str:
        return self._prefix + ns

    def get(self, ns: str, key: bytes) -> "bytes | None":
        return self._inner.get(self._ns(ns), key)

    def put(self, ns: str, key: bytes, value: bytes) -> None:
        self._inner.put(self._ns(ns), key, value)

    def put_many(self, ns: str, entries: "Iterable[tuple[bytes, bytes]]") -> None:
        self._inner.put_many(self._ns(ns), entries)

    def get_many(self, ns: str, keys: "Sequence[bytes]") -> "list[bytes | None]":
        return self._inner.get_many(self._ns(ns), keys)

    def delete_many(self, ns: str, keys: "Iterable[bytes]") -> int:
        return self._inner.delete_many(self._ns(ns), keys)

    def transaction(self):
        return self._inner.transaction()

    @property
    def probe_batch(self) -> int:
        return self._inner.probe_batch

    @property
    def thread_safe_reads(self) -> bool:
        return self._inner.thread_safe_reads

    def delete(self, ns: str, key: bytes) -> bool:
        return self._inner.delete(self._ns(ns), key)

    def keys(self, ns: str) -> "Iterator[bytes]":
        return self._inner.keys(self._ns(ns))

    def items(self, ns: str) -> "Iterator[tuple[bytes, bytes]]":
        return self._inner.items(self._ns(ns))

    def count(self, ns: str) -> int:
        return self._inner.count(self._ns(ns))

    def drop(self, ns: str) -> None:
        self._inner.drop(self._ns(ns))

    def namespaces(self) -> "list[str]":
        return [
            ns[len(self._prefix) :]
            for ns in self._inner.namespaces()
            if ns.startswith(self._prefix)
        ]

    def close(self) -> None:
        # The inner backend may be shared; closing is the owner's call.
        pass


class NamespaceMap(MutableMapping):
    """``MutableMapping[int, bytes]`` view over one backend namespace.

    Record/operation stores key by 64-bit integer ids; this adapter
    encodes them as 8-byte big-endian backend keys so dict-shaped call
    sites (the tuple store, the update manager's op logs) read and
    write through the backend seam unchanged.
    """

    def __init__(self, backend: StorageBackend, ns: str) -> None:
        self._backend = backend
        self._ns = ns

    @staticmethod
    def _key(item_id: int) -> bytes:
        return int(item_id).to_bytes(8, "big")

    def __getitem__(self, item_id: int) -> bytes:
        value = self._backend.get(self._ns, self._key(item_id))
        if value is None:
            raise KeyError(item_id)
        return value

    def __setitem__(self, item_id: int, value: bytes) -> None:
        self._backend.put(self._ns, self._key(item_id), bytes(value))

    def __delitem__(self, item_id: int) -> None:
        if not self._backend.delete(self._ns, self._key(item_id)):
            raise KeyError(item_id)

    def __iter__(self) -> "Iterator[int]":
        for key in self._backend.keys(self._ns):
            yield int.from_bytes(key, "big")

    def __len__(self) -> int:
        return self._backend.count(self._ns)

    # Bulk reads and writes go through the backend's batched paths
    # instead of the MutableMapping defaults (one get()/put() per key —
    # N+1 on SQLite).
    def get_many(self, item_ids: "Sequence[int]") -> "list[bytes | None]":
        """Fetch many values in request order (``None`` where absent)."""
        return self._backend.get_many(self._ns, [self._key(i) for i in item_ids])

    def update(self, other=(), /):
        entries = other.items() if isinstance(other, Mapping) else other
        self._backend.put_many(
            self._ns, ((self._key(i), bytes(v)) for i, v in entries)
        )

    def items(self):
        return [
            (int.from_bytes(k, "big"), v) for k, v in self._backend.items(self._ns)
        ]

    def values(self):
        return [v for _, v in self._backend.items(self._ns)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NamespaceMap({self._ns!r}, {len(self)} entries)"
