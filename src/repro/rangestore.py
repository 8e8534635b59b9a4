"""``RangeStore`` — the library's front door.

One object composes the three layers an application actually wants:

- a registry scheme (``"logarithmic-src-i"`` by default — the paper's
  best security/efficiency trade-off) providing encrypted range search;
- the forward-private :class:`~repro.updates.manager.BatchUpdateManager`
  providing inserts and deletes (each flushed batch becomes a static
  index under fresh keys, consolidated LSM-style);
- a pluggable :class:`~repro.storage.StorageBackend` the server-side
  state persists through (memory, SQLite file, or hash-sharded).

Usage::

    from repro import RangeStore

    store = RangeStore.open("logarithmic-src-i", domain_size=1 << 16)
    store.insert(101, 2_310)
    store.insert(102, 47_000)
    outcome = store.search(2_000, 3_000)   # -> QueryOutcome
    store.save("checkpoint.rsse", passphrase="s3cret")
    ...
    store = RangeStore.open_snapshot("checkpoint.rsse", passphrase="s3cret")

Writes are buffered owner-side and flushed as one batch before any
search, save, or explicit :meth:`flush` — matching the paper's batched
update model (and amortizing per-batch index builds).
"""

from __future__ import annotations

import random
import struct
from typing import Iterable

from repro.core.registry import make_scheme
from repro.core.scheme import QueryOutcome
from repro.errors import IndexStateError, IntegrityError
from repro.io import keystore
from repro.storage.backend import PrefixedBackend, StorageBackend
from repro.updates import manager as _manager
from repro.updates.batch import (
    OpKind,
    UpdateOp,
    delete as _delete_op,
    insert as _insert_op,
)

_STORE_MAGIC = b"RSSESTORE1"
_HYBRID_MAGIC = b"RSSEHYB1"
#: Cost-model weights on the wire: six unit seconds, three retired
#: slots, and the calibrated flag.  The retired slots once held a
#: process-pool crypto lane's crossover and rates; ``save`` writes
#: ``inf, 0.0, 0.0`` there and ``load`` discards them, so snapshots
#: written before the lane was removed still load unchanged.
_COST_MODEL_PACK = struct.Struct(">9dB")
_RETIRED_SLOTS = (float("inf"), 0.0, 0.0)


class RangeStore:
    """Encrypted range store: scheme + update manager + storage backend.

    Construct through :meth:`open` (fresh store) or
    :meth:`open_snapshot`/:meth:`load` (from a saved checkpoint).
    """

    def __init__(
        self,
        *,
        scheme: str,
        domain_size: int,
        backend: "StorageBackend | None" = None,
        consolidation_step: int = 4,
        rng: "random.Random | None" = None,
        _adopt_backend: bool = False,
        **scheme_kwargs,
    ) -> None:
        if backend is not None and not _adopt_backend:
            # A second store on the same raw backend would silently
            # clobber the first one's namespaces — refuse up front.
            # (:meth:`load` adopts deliberately: it replaces all state.)
            held = [
                ns
                for ns in backend.namespaces()
                if ns.startswith(("scheme/", "mgr/"))
            ]
            if held:
                raise IndexStateError(
                    "backend already holds RangeStore state "
                    f"(e.g. {held[0]!r}); open each store on its own "
                    "backend or a PrefixedBackend slice, or reopen a "
                    "checkpoint with RangeStore.load()"
                )
        self.scheme_name = scheme
        self.domain_size = domain_size
        self._backend = backend
        self._rng = rng
        self._scheme_kwargs = dict(scheme_kwargs)
        self._scheme_seq = 0  # monotone prefix counter for per-batch schemes
        self._pending: list[UpdateOp] = []
        self._manager = _manager.BatchUpdateManager(
            self._make_scheme,
            consolidation_step=consolidation_step,
            rng=rng,
            backend=(
                PrefixedBackend(backend, "mgr/") if backend is not None else None
            ),
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def open(
        cls,
        scheme: str = "logarithmic-src-i",
        *,
        domain_size: int,
        backend: "StorageBackend | None" = None,
        consolidation_step: int = 4,
        rng: "random.Random | None" = None,
        **scheme_kwargs,
    ) -> "RangeStore":
        """Open a fresh store for ``domain_size`` values under ``scheme``.

        ``backend`` hosts all server-side state (in-memory when
        omitted); extra keyword arguments (``sse_factory``,
        ``intersection_policy``, …) reach every per-batch scheme.
        """
        return cls(
            scheme=scheme,
            domain_size=domain_size,
            backend=backend,
            consolidation_step=consolidation_step,
            rng=rng,
            **scheme_kwargs,
        )

    def _make_scheme(self):
        """Fresh scheme (fresh keys) on its own backend slice."""
        self._scheme_seq += 1
        sub = (
            PrefixedBackend(self._backend, f"scheme/{self._scheme_seq}/")
            if self._backend is not None
            else None
        )
        kwargs = dict(self._scheme_kwargs)
        if self._rng is not None:
            kwargs["rng"] = self._rng
        return make_scheme(self.scheme_name, self.domain_size, backend=sub, **kwargs)

    # -- writes --------------------------------------------------------------

    def insert(self, record_id: int, value: int) -> None:
        """Buffer an insertion of tuple ``(record_id, value)``."""
        self._pending.append(_insert_op(record_id, value))

    def delete(self, record_id: int, value: int) -> None:
        """Buffer a deletion tombstone (``value`` as originally inserted)."""
        self._pending.append(_delete_op(record_id, value))

    def insert_many(self, records: "Iterable[tuple[int, int]]") -> None:
        """Buffer many insertions at once."""
        for record_id, value in records:
            self.insert(record_id, value)

    def apply_ops(self, ops: "Iterable[UpdateOp]") -> None:
        """Buffer already-materialized operations (wire ingest path).

        The network server hands decoded
        :class:`~repro.updates.batch.UpdateOp` sequences straight
        through here, so an update frame and the equivalent
        ``insert``/``delete`` calls take exactly the same code path.
        """
        self._pending.extend(ops)

    def flush(self) -> None:
        """Apply buffered operations as one batch (fresh keys, LSM merge).

        Each bulk write inside the batch (op log, scheme EDB, tuple
        store) commits as its own backend transaction.  Deliberately
        NOT one outer transaction: the update manager mutates in-memory
        state (active indexes, sequence counters) as it goes, and a
        whole-batch rollback would silently diverge from it.
        """
        if not self._pending:
            return
        ops, self._pending = self._pending, []
        self._manager.apply_batch(ops)

    # -- reads --------------------------------------------------------------

    def search(self, lo: int, hi: int) -> QueryOutcome:
        """Exact range query ``[lo, hi]`` (buffered writes flushed first)."""
        self.flush()
        outcome = self._manager.query(lo, hi)
        # A fixed-scheme store is a one-lane dispatch: name the lane so
        # outcome consumers never need to special-case hybrid stores.
        outcome.scheme_chosen = self.scheme_name
        return outcome

    #: Alias matching the scheme-level API.
    query = search

    # -- persistence ----------------------------------------------------------

    def _dump_blob(self) -> bytes:
        """The raw (unwrapped) checkpoint bytes — shared by
        :meth:`save` and the per-lane serialization of
        :meth:`HybridRangeStore.save`."""
        self.flush()
        return b"".join(
            [
                _STORE_MAGIC,
                len(self.scheme_name).to_bytes(2, "big"),
                self.scheme_name.encode(),
                self.domain_size.to_bytes(8, "big"),
                self._scheme_seq.to_bytes(8, "big"),
                _manager.dump_manager(self._manager),
            ]
        )

    def save(self, path, passphrase: "str | None" = None) -> None:
        """Checkpoint the whole store (keys included!) to one file.

        Always pass a ``passphrase`` outside of tests — the snapshot
        contains every secret key.
        """
        blob = self._dump_blob()
        if passphrase is not None:
            blob = keystore.wrap(blob, passphrase)
        with open(path, "wb") as fh:
            fh.write(blob)

    @classmethod
    def load(
        cls,
        path,
        passphrase: "str | None" = None,
        *,
        backend: "StorageBackend | None" = None,
        rng: "random.Random | None" = None,
        **scheme_kwargs,
    ) -> "RangeStore":
        """Reopen a checkpoint, rehydrating into ``backend`` (or memory)."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if passphrase is not None:
            blob = keystore.unwrap(blob, passphrase)
        return cls._restore_blob(
            blob, backend=backend, rng=rng, **scheme_kwargs
        )

    @classmethod
    def _restore_blob(
        cls,
        blob: bytes,
        *,
        backend: "StorageBackend | None" = None,
        rng: "random.Random | None" = None,
        **scheme_kwargs,
    ) -> "RangeStore":
        """Rebuild a store from :meth:`_dump_blob` output."""
        if not blob.startswith(_STORE_MAGIC):
            raise IntegrityError("not a RangeStore snapshot")
        offset = len(_STORE_MAGIC)
        name_len = int.from_bytes(blob[offset : offset + 2], "big")
        offset += 2
        scheme_name = blob[offset : offset + name_len].decode()
        offset += name_len
        domain_size = int.from_bytes(blob[offset : offset + 8], "big")
        scheme_seq = int.from_bytes(blob[offset + 8 : offset + 16], "big")
        offset += 16
        if backend is not None:
            # The checkpoint is the source of truth: clear any state a
            # previous incarnation of this store left in the backend —
            # one transaction, so a failed load can't leave a half-wiped
            # backend behind.
            with backend.transaction():
                for ns in backend.namespaces():
                    if ns.startswith(("scheme/", "mgr/")):
                        backend.drop(ns)
        store = cls(
            scheme=scheme_name,
            domain_size=domain_size,
            backend=backend,
            rng=rng,
            _adopt_backend=True,
            **scheme_kwargs,
        )
        store._scheme_seq = scheme_seq

        def scheme_backend():
            store._scheme_seq += 1
            if backend is None:
                return None
            return PrefixedBackend(backend, f"scheme/{store._scheme_seq}/")

        store._manager = _manager.restore_manager(
            blob[offset:],
            store._make_scheme,
            rng=rng,
            backend=(
                PrefixedBackend(backend, "mgr/") if backend is not None else None
            ),
            scheme_backend_factory=scheme_backend,
            # Restored indexes search through the same engine future
            # batches will (scheme_kwargs carries any executor=).
            executor=scheme_kwargs.get("executor"),
        )
        return store

    #: Readable alias for the common reopen flow.
    open_snapshot = load

    def close(self) -> None:
        """Release backend resources (file handles, connections)."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "RangeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    @property
    def pending_ops(self) -> int:
        """Operations buffered but not yet flushed into an index."""
        return len(self._pending)

    @property
    def active_indexes(self) -> int:
        """Live static indexes in the LSM forest."""
        return self._manager.active_indexes

    def index_bytes(self) -> int:
        """Combined EDB footprint across active indexes."""
        return self._manager.total_index_bytes()

    @property
    def stats(self):
        """Batch/consolidation bookkeeping from the update manager."""
        return self._manager.stats

    @property
    def consolidations(self) -> int:
        """Hierarchical merges performed so far (monotone counter)."""
        return self._manager.stats.consolidations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeStore(scheme={self.scheme_name!r}, m={self.domain_size}, "
            f"indexes={self.active_indexes}, pending={self.pending_ops})"
        )


class HybridRangeStore:
    """Adaptive store: several scheme lanes, one cost-picked per query.

    The paper's Table 1 trade-off made operational: the store maintains
    one full :class:`RangeStore` lane per configured scheme — same
    plaintext ingest, independent keys and encrypted indexes, each on
    its own slice of the shared backend — and routes every query
    through a :class:`~repro.exec.dispatch.CostDispatcher` that scores
    all lanes with :func:`~repro.exec.plan.plan_range` and runs only
    the cheapest.  Writes fan out to every lane (the storage overhead
    *is* the price of adaptivity); reads pay one lane plus a few
    microseconds of planning.

    The dispatcher is backend-aware (it reads the backend's advertised
    ``probe_batch`` and, after :meth:`calibrate`, measured unit costs)
    and data-aware (an owner-side :class:`~repro.exec.dispatch.ValueHistogram`
    prices SRC false positives under skew — the owner sees every
    plaintext value it encrypts, so the sketch adds zero leakage).

    Usage::

        from repro import HybridRangeStore

        store = HybridRangeStore(domain_size=1 << 16)   # brc + src lanes
        store.insert_many((i, v) for i, v in data)
        store.calibrate()                  # fit unit costs to the backend
        outcome = store.search(lo, hi)
        outcome.scheme_chosen              # e.g. "logarithmic-src"
        outcome.plans_considered           # ((scheme, est_seconds), ...)
        store.dispatch = "logarithmic-brc"  # pin a lane ("auto" unpins)

    Each query's :class:`~repro.core.scheme.QueryOutcome` carries the
    decision (``scheme_chosen``/``plans_considered``/``est_cost_chosen``).
    :meth:`save`/:meth:`load` checkpoint the whole store — every lane's
    keys and indexes, the value histogram, the calibrated cost model
    and any pinned dispatch — to one file.
    """

    def __init__(
        self,
        *,
        domain_size: int,
        schemes: "tuple[str, ...] | list[str] | None" = None,
        backend: "StorageBackend | None" = None,
        dispatch: str = "auto",
        consolidation_step: int = 4,
        rng: "random.Random | None" = None,
        cost_model=None,
        _lane_blobs: "dict[str, bytes] | None" = None,
        **scheme_kwargs,
    ) -> None:
        from repro.exec.dispatch import (
            DEFAULT_HYBRID_SCHEMES,
            CostDispatcher,
            ValueHistogram,
        )

        schemes = tuple(schemes) if schemes is not None else DEFAULT_HYBRID_SCHEMES
        if len(schemes) < 2 or len(set(schemes)) != len(schemes):
            raise IndexStateError(
                "a hybrid store needs >= 2 distinct scheme lanes (no "
                "duplicates); use RangeStore for a single scheme"
            )
        self.domain_size = domain_size
        self.schemes = schemes
        self._backend = backend
        self._lanes: "dict[str, RangeStore]" = {}
        for name in schemes:
            kwargs = dict(scheme_kwargs)
            if name.startswith("constant"):
                # Lanes share one query history by construction; the
                # intersection guard is the application's concern here.
                kwargs.setdefault("intersection_policy", "allow")
            lane_backend = (
                PrefixedBackend(backend, f"lane/{name}/")
                if backend is not None
                else None
            )
            if _lane_blobs is not None:
                # Checkpoint restore (:meth:`load`): the lane comes back
                # from its serialized manager state, adopting whatever
                # the backend slice held.
                restored = RangeStore._restore_blob(
                    _lane_blobs[name],
                    backend=lane_backend,
                    rng=rng,
                    **kwargs,
                )
                if restored.scheme_name != name:
                    raise IntegrityError(
                        f"hybrid snapshot lane {name!r} carries a "
                        f"{restored.scheme_name!r} store"
                    )
                self._lanes[name] = restored
            else:
                self._lanes[name] = RangeStore.open(
                    name,
                    domain_size=domain_size,
                    backend=lane_backend,
                    consolidation_step=consolidation_step,
                    rng=rng,
                    **kwargs,
                )
        self.histogram = ValueHistogram(domain_size)
        self._dispatcher = CostDispatcher(
            domain_size,
            schemes,
            cost_model=cost_model,
            probe_batch=getattr(backend, "probe_batch", 1),
            density=self.histogram.expected_matches,
            forced=dispatch,
        )
        #: The decision behind the most recent :meth:`search`.
        self.last_decision = None

    # -- dispatch control ----------------------------------------------------

    @property
    def dispatch(self) -> str:
        """``"auto"`` or the lane every query is currently pinned to."""
        from repro.exec.dispatch import HINT_AUTO

        return self._dispatcher.forced or HINT_AUTO

    @dispatch.setter
    def dispatch(self, mode: str) -> None:
        self._dispatcher.force(mode)

    @property
    def dispatcher(self):
        """The live :class:`~repro.exec.dispatch.CostDispatcher`."""
        return self._dispatcher

    def calibrate(self, **kwargs):
        """Fit the cost model to this store's backend (measured probe run)."""
        return self._dispatcher.recalibrate(self._backend, **kwargs)

    # -- writes (fan out to every lane) --------------------------------------

    def insert(self, record_id: int, value: int) -> None:
        """Buffer an insertion into every lane."""
        self.histogram.add(value)
        for lane in self._lanes.values():
            lane.insert(record_id, value)

    def delete(self, record_id: int, value: int) -> None:
        """Buffer a deletion tombstone into every lane."""
        self.histogram.remove(value)
        for lane in self._lanes.values():
            lane.delete(record_id, value)

    def insert_many(self, records) -> None:
        """Buffer many insertions at once."""
        for record_id, value in records:
            self.insert(record_id, value)

    def apply_ops(self, ops: "Iterable[UpdateOp]") -> None:
        """Buffer already-materialized operations (wire ingest path).

        Routed through :meth:`insert`/:meth:`delete` so the owner-side
        value histogram the dispatcher prices SRC lanes with stays in
        sync with the fanned-out lane state.
        """
        for op in ops:
            if op.kind is OpKind.INSERT:
                self.insert(op.record_id, op.value)
            else:
                self.delete(op.record_id, op.value)

    def flush(self) -> None:
        """Flush every lane's buffered batch."""
        for lane in self._lanes.values():
            lane.flush()

    # -- reads ---------------------------------------------------------------

    def search(self, lo: int, hi: int) -> QueryOutcome:
        """Dispatch ``[lo, hi]`` to the cheapest lane and run it there."""
        self.flush()
        decision = self._dispatcher.choose(lo, hi)
        self.last_decision = decision
        outcome = self._lanes[decision.scheme].search(lo, hi)
        outcome.scheme_chosen = decision.scheme
        outcome.plans_considered = decision.summary()
        outcome.est_cost_chosen = decision.est_cost
        return outcome

    #: Alias matching the scheme-level API.
    query = search

    # -- persistence ----------------------------------------------------------

    def save(self, path, passphrase: "str | None" = None) -> None:
        """Checkpoint every lane plus the dispatch state to one file.

        The snapshot carries each lane's full :class:`RangeStore` state
        (keys included — pass a ``passphrase``), the owner-side value
        histogram, the cost model (calibrated weights survive
        restarts), and a pinned dispatch lane if any.
        """
        from repro.io.snapshot import _chunk

        self.flush()
        model = self._dispatcher.cost_model
        model_blob = _COST_MODEL_PACK.pack(
            model.expand_seconds,
            model.derive_seconds,
            model.probe_seconds,
            model.round_seconds,
            model.fetch_seconds,
            model.rtt_seconds,
            *_RETIRED_SLOTS,
            1 if model.calibrated else 0,
        )
        histogram_blob = b"".join(
            [self.histogram.buckets.to_bytes(8, "big")]
            + [c.to_bytes(8, "big") for c in self.histogram.dump_counts()]
        )
        parts = [
            _HYBRID_MAGIC,
            _chunk(self.domain_size.to_bytes(8, "big")),
            _chunk(self.dispatch.encode()),
            _chunk(model_blob),
            _chunk(histogram_blob),
            _chunk(len(self.schemes).to_bytes(8, "big")),
        ]
        for name in self.schemes:
            parts.append(_chunk(name.encode()))
            parts.append(_chunk(self._lanes[name]._dump_blob()))
        blob = b"".join(parts)
        if passphrase is not None:
            blob = keystore.wrap(blob, passphrase)
        with open(path, "wb") as fh:
            fh.write(blob)

    @classmethod
    def load(
        cls,
        path,
        passphrase: "str | None" = None,
        *,
        backend: "StorageBackend | None" = None,
        rng: "random.Random | None" = None,
        **scheme_kwargs,
    ) -> "HybridRangeStore":
        """Reopen a hybrid checkpoint, rehydrating into ``backend``.

        Every lane restores onto its own ``lane/<scheme>/`` slice of
        the backend (whatever a previous incarnation left there is
        wiped, per lane); the dispatcher comes back with the snapshot's
        histogram, cost model and pin, so the very first query after a
        restart routes exactly as the last one before it.
        """
        from repro.exec.dispatch import CostModel
        from repro.io.snapshot import _Reader

        with open(path, "rb") as fh:
            blob = fh.read()
        if passphrase is not None:
            blob = keystore.unwrap(blob, passphrase)
        if not blob.startswith(_HYBRID_MAGIC):
            raise IntegrityError("not a HybridRangeStore snapshot")
        reader = _Reader(blob[len(_HYBRID_MAGIC) :])
        domain_size = int.from_bytes(reader.chunk(), "big")
        dispatch = reader.chunk().decode()
        fields = _COST_MODEL_PACK.unpack(reader.chunk())
        cost_model = CostModel(
            expand_seconds=fields[0],
            derive_seconds=fields[1],
            probe_seconds=fields[2],
            round_seconds=fields[3],
            fetch_seconds=fields[4],
            rtt_seconds=fields[5],
            calibrated=bool(fields[9]),
        )
        histogram_blob = reader.chunk()
        buckets = int.from_bytes(histogram_blob[:8], "big")
        if len(histogram_blob) != 8 + 8 * buckets:
            # Without this check a truncated chunk would decode as
            # zeroed trailing buckets and silently misprice dispatch.
            raise IntegrityError("hybrid snapshot histogram truncated")
        counts = [
            int.from_bytes(histogram_blob[8 + 8 * i : 16 + 8 * i], "big")
            for i in range(buckets)
        ]
        lane_count = int.from_bytes(reader.chunk(), "big")
        lane_blobs: "dict[str, bytes]" = {}
        schemes: "list[str]" = []
        for _ in range(lane_count):
            name = reader.chunk().decode()
            schemes.append(name)
            lane_blobs[name] = reader.chunk()
        if not reader.done():
            raise IntegrityError("trailing bytes after hybrid snapshot")
        store = cls(
            domain_size=domain_size,
            schemes=tuple(schemes),
            backend=backend,
            dispatch=dispatch,
            rng=rng,
            cost_model=cost_model,
            _lane_blobs=lane_blobs,
            **scheme_kwargs,
        )
        store.histogram.restore_counts(counts)
        return store

    #: Readable alias for the common reopen flow.
    open_snapshot = load

    # -- introspection & lifecycle -------------------------------------------

    def lane(self, scheme: str) -> RangeStore:
        """The underlying per-scheme store (diagnostics/tests)."""
        return self._lanes[scheme]

    @property
    def pending_ops(self) -> int:
        """Operations buffered but not yet flushed (max across lanes)."""
        return max(lane.pending_ops for lane in self._lanes.values())

    @property
    def active_indexes(self) -> int:
        """Live static indexes (max across lanes; lanes ingest the same
        batches, so their LSM forests are the same shape)."""
        return max(lane.active_indexes for lane in self._lanes.values())

    @property
    def consolidations(self) -> int:
        """Hierarchical merges performed so far, summed over lanes."""
        return sum(lane.consolidations for lane in self._lanes.values())

    def index_bytes(self) -> "dict[str, int]":
        """Per-lane EDB footprint — the storage price of adaptivity."""
        return {name: lane.index_bytes() for name, lane in self._lanes.items()}

    def close(self) -> None:
        """Release backend resources (shared backend closed once)."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "HybridRangeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HybridRangeStore(schemes={list(self.schemes)}, "
            f"m={self.domain_size}, dispatch={self.dispatch!r})"
        )
