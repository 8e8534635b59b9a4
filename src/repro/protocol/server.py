"""The untrusted server: stores EDBs and ciphertexts, answers tokens.

This class enforces the paper's trust boundary structurally: it is
constructed with *no* owner data — everything it ever knows arrived in a
protocol frame.  Each index handle is hosted as its own
:class:`~repro.core.split.EncryptedDatabase` (encrypted index, encrypted
tuples, encrypted payloads), all persisting through one pluggable
:class:`~repro.storage.StorageBackend`.  Its search logic is
deliberately key-free:

- SSE tokens: walk the per-keyword counter chain exactly as
  :class:`~repro.sse.pibas.PiBas` prescribes (label derivation from the
  token's label key is public);
- DPRF tokens: expand GGM seeds with the public ``G`` and re-derive the
  per-keyword tokens from leaf values, the Constant-scheme contract.

With a persistent backend (:class:`~repro.storage.SqliteBackend`, or a
:class:`~repro.storage.ShardedBackend` striping labels over nodes) the
server rehydrates all live handles on construction — restartable
storage with zero owner involvement.
"""

from __future__ import annotations

import contextlib
import time

from repro.core.split import EncryptedDatabase
from repro.crypto.dprf import DelegationToken
from repro.errors import IndexStateError, ReproError, TokenError
from repro.exec.dispatch import HINT_AUTO, normalize_hint
from repro.obs.events import EventLog
from repro.obs.registry import default_registry, metrics_payload
from repro.obs.tracing import (
    FlightRecorder,
    TraceBuffer,
    TraceSampler,
    new_trace_id,
    start_trace,
)
from repro.protocol import messages as msg
from repro.sse.base import SUBKEY_LEN, EncryptedIndex, KeywordToken
from repro.storage.backend import InMemoryBackend, PrefixedBackend, StorageBackend
from repro.updates.batch import UpdateOp

#: Backend namespace recording the live index handles.
_HANDLES_NS = "server/handles"


def _keyword_token(raw: bytes) -> KeywordToken:
    if len(raw) != 2 * SUBKEY_LEN:
        raise TokenError(f"SSE wire token must be {2 * SUBKEY_LEN} bytes")
    return KeywordToken(raw[:SUBKEY_LEN], raw[SUBKEY_LEN:])


def _delegation_token(raw: bytes) -> DelegationToken:
    if len(raw) < 2:
        raise TokenError("DPRF wire token too short")
    return DelegationToken(raw[:-1], raw[-1])


class RsseServer:
    """The untrusted storage/search server (in-process transport model).

    Parameters
    ----------
    backend:
        Where all uploaded state lives.  In-memory when omitted; pass a
        :class:`~repro.storage.SqliteBackend` for restart-durable
        storage or a :class:`~repro.storage.ShardedBackend` to stripe
        EDB labels across sub-stores.  Handles present in a persistent
        backend are rehydrated automatically.
    executor:
        Optional :class:`~repro.exec.QueryExecutor` every hosted
        database searches through (token walks coalesced, GGM
        expansions pooled and cached).  The process-wide default engine
        when omitted.
    trace_sampler:
        Optional :class:`~repro.obs.TraceSampler` — when active, each
        trace-less query frame gets a per-query coin flip and winners
        are traced under a server-minted id.  Defaults to the
        ``REPRO_TRACE_SAMPLE`` environment knob (off when unset).
    flight:
        Optional :class:`~repro.obs.FlightRecorder` — when armed,
        every query collects spans and those breaching the slow bar
        are force-retained in the recorder's ring even if sampling
        would have dropped them.  Defaults to the ``REPRO_SLOW_MS`` /
        ``REPRO_SLOW_P99X`` environment knobs (unarmed when unset).
    events:
        Optional :class:`~repro.obs.EventLog` receiving lifecycle
        events (store open/drop, consolidation, slow-query captures).
        A fresh in-memory log (plus the ``REPRO_EVENT_LOG`` file sink
        when set) when omitted.
    """

    def __init__(
        self,
        backend: "StorageBackend | None" = None,
        *,
        executor=None,
        trace_sampler: "TraceSampler | None" = None,
        flight: "FlightRecorder | None" = None,
        events: "EventLog | None" = None,
    ) -> None:
        self._backend = backend if backend is not None else InMemoryBackend()
        if executor is None:
            from repro.exec.engine import default_executor

            executor = default_executor()
        self.executor = executor
        #: Tally of (normalized) dispatcher hints seen on multi-search
        #: frames — the capacity signal a hybrid owner's cost dispatcher
        #: exposes to the operator.  Unknown/garbage hints count as
        #: "auto"; they never fail a batch.
        self.dispatch_hints: "dict[str, int]" = {}
        self.last_dispatch_hint = HINT_AUTO
        #: Ring buffer of finished query traces (one per server, so an
        #: in-thread multi-shard cluster keeps per-shard trace streams).
        #: Filled only for frames that carry a trace id.
        self.tracer = TraceBuffer()
        #: Managed live stores (the dynamic-data tier): index handle →
        #: server-hosted :class:`~repro.rangestore.RangeStore` or
        #: :class:`~repro.rangestore.HybridRangeStore`, created by
        #: :class:`~repro.protocol.messages.StoreOpenRequest` frames.
        self._stores: dict[int, object] = {}
        self._store_specs: "dict[int, tuple]" = {}
        self._store_consolidations: "dict[int, int]" = {}
        #: Registry the ``updates.*`` instruments land in.  ``None``
        #: means "the process-wide default"; the network layer points
        #: this at its per-server :class:`~repro.obs.MetricsRegistry`
        #: so two in-thread shard servers keep distinct counters.
        self.metrics_registry = None
        #: The active observability trio (PR 10).  The sampler decides
        #: which trace-less queries get traced anyway; the flight
        #: recorder force-retains queries that breach the slow bar; the
        #: event log narrates lifecycle changes.  All default from
        #: environment knobs, and registry hooks late-bind through
        #: :meth:`_registry` so the network layer's per-server registry
        #: swap is honored.
        self.trace_sampler = (
            trace_sampler if trace_sampler is not None else TraceSampler()
        )
        self.flight = flight if flight is not None else FlightRecorder()
        if self.flight.registry is None:
            self.flight.registry = self._registry
        if self.flight.on_capture is None:
            self.flight.on_capture = self._on_slow_capture
        self.events = events if events is not None else EventLog()
        if self.events.registry is None:
            self.events.registry = self._registry
        self._databases: dict[int, EncryptedDatabase] = {}
        for key in self._backend.keys(_HANDLES_NS):
            index_id = int.from_bytes(key, "big")
            self._databases[index_id] = self._make_db(index_id)

    def _make_db(self, index_id: int) -> EncryptedDatabase:
        return EncryptedDatabase(
            PrefixedBackend(self._backend, f"h{index_id}/"),
            executor=self.executor,
        )

    def _db(self, index_id: int, *, create: bool = False) -> EncryptedDatabase:
        db = self._databases.get(index_id)
        if db is None:
            if not create:
                raise IndexStateError(f"unknown index handle {index_id}")
            db = self._make_db(index_id)
            self._databases[index_id] = db
            self._backend.put(_HANDLES_NS, index_id.to_bytes(8, "big"), b"\x01")
        return db

    # -- message dispatch -----------------------------------------------------

    def handle(self, frame: bytes) -> "bytes | None":
        """Process one protocol frame, returning a response frame or None.

        Write-style requests (uploads, drops) answer ``None`` —
        in-process callers treat the call returning as the ack.  A frame
        that cannot even be decoded, or whose message type a server
        never handles, answers a typed
        :class:`~repro.protocol.messages.ErrorResponse` instead of
        raising: an undecodable frame is *peer input*, not a local
        programming error, and a transport that forwards the reply
        keeps its client from hanging on a response that would
        otherwise never come.  Semantic failures on well-formed
        requests (unknown handle, malformed token) still raise — see
        :meth:`handle_request` for the total, always-answers variant
        the network layer uses.
        """
        try:
            message = msg.parse_message(frame)
        except ReproError as exc:
            return msg.ErrorResponse.from_exception(exc).to_frame()
        if isinstance(message, msg.UploadIndex):
            self._db(message.index_id, create=True).put_index(
                "edb", EncryptedIndex.from_bytes(message.edb_bytes)
            )
            return None
        if isinstance(message, msg.UploadRecords):
            # One bulk write per upload frame — a SQLite-backed server
            # pays one transaction, not one autocommit per record.
            self._db(message.index_id, create=True).put_tuples(message.entries)
            return None
        if isinstance(message, msg.UploadPayloads):
            self._db(message.index_id, create=True).put_payloads(message.entries)
            return None
        if isinstance(message, msg.SearchRequest):
            return self._search(message).to_frame()
        if isinstance(message, msg.MultiSearchRequest):
            return self._multi_search(message).to_frame()
        if isinstance(message, msg.FetchRequest):
            return self._fetch(message).to_frame()
        if isinstance(message, msg.FetchPayloads):
            db = self._db(message.index_id)
            return msg.PayloadResponse(
                db.fetch_payloads(message.record_ids)
            ).to_frame()
        if isinstance(message, msg.StoreOpenRequest):
            self._store_open(message)
            return None
        if isinstance(message, msg.UpdateRequest):
            self._apply_updates(message.index_id, (message.op,))
            return None
        if isinstance(message, msg.UpdateBatchRequest):
            self._apply_updates(
                message.index_id, message.ops, trace=message.trace
            )
            return None
        if isinstance(message, msg.StoreSearchRequest):
            return self._store_search(message).to_frame()
        if isinstance(message, msg.DropIndex):
            self._drop_store(message.index_id)
            db = self._databases.pop(message.index_id, None)
            if db is not None:
                db.clear()
            self._backend.delete(_HANDLES_NS, message.index_id.to_bytes(8, "big"))
            return None
        if isinstance(message, msg.StatsRequest):
            # Nested under "server" so the network layer can merge its
            # transport counters beside it under the same frame pair.
            return msg.StatsResponse({"server": self.stats_dict()}).to_frame()
        if isinstance(message, msg.MetricsRequest):
            # In-process callers get the process-wide registry; the
            # network layer intercepts this tag earlier and answers
            # from its per-server registry instead.
            return msg.MetricsResponse(
                metrics_payload(
                    default_registry(),
                    self.tracer,
                    since=message.since,
                    max_traces=message.max_traces,
                    boot=message.boot,
                    recorder=self.flight,
                    max_slow=message.max_slow,
                )
            ).to_frame()
        # Response-typed messages (and anything a future revision adds)
        # are not requests this server answers — say so, don't raise:
        # over a socket the sender is a peer, not a caller.
        return msg.ErrorResponse(
            "token", f"server cannot handle {type(message).__name__}"
        ).to_frame()

    def handle_request(self, frame: bytes) -> bytes:
        """Total version of :meth:`handle`: every request gets a reply.

        The network server's entry point.  Successful writes answer
        :class:`~repro.protocol.messages.OkResponse`; any library error
        — semantic or parse-level — answers a typed
        :class:`~repro.protocol.messages.ErrorResponse`.  Only
        non-library exceptions (genuine bugs) propagate.
        """
        try:
            response = self.handle(frame)
        except ReproError as exc:
            return msg.ErrorResponse.from_exception(exc).to_frame()
        if response is None:
            return msg.OkResponse().to_frame()
        return response

    # -- active observability (sampling + flight recorder) ----------------------

    def _on_slow_capture(self, record: dict) -> None:
        """Default flight-recorder hook: narrate the capture."""
        self.events.emit(
            "slowlog.capture",
            op=record["op"],
            trace_id=record["trace_id"],
            elapsed_ms=round(record["elapsed_s"] * 1e3, 3),
            threshold_ms=round(record["threshold_s"] * 1e3, 3),
        )

    def _observed(self, trace: str, root: str, op: str, **meta):
        """The per-query observation decision, as a context manager or None.

        ``None`` means "run bare" — no explicit trace id, the sampler
        is off (or flipped tails), and the flight recorder is unarmed,
        so the query must not pay even a contextvar set.  Otherwise the
        returned context manager collects spans for the query; they are
        retained in :attr:`tracer` only when explicitly requested or
        sampled, while the flight recorder judges *every* observed
        query — tail-based capture — so a slow query is kept even when
        the sampling coin flip would have dropped it.
        """
        sampler, recorder = self.trace_sampler, self.flight
        if trace:
            return self._observed_cm(trace, True, root, op, meta)
        if not sampler.active and not recorder.armed:
            return None
        sampled = False
        if sampler.active:
            sampled = sampler.decide()
            self._registry().counter(
                "trace.sampled" if sampled else "trace.dropped"
            ).inc()
        if not sampled and not recorder.armed:
            return None
        return self._observed_cm(new_trace_id(), sampled, root, op, meta)

    @contextlib.contextmanager
    def _observed_cm(self, trace_id: str, retain: bool, root: str, op: str, meta):
        buffer = self.tracer if retain else None
        t0 = time.perf_counter()
        state = None
        try:
            with start_trace(trace_id, buffer, root, **meta) as state:
                yield
        finally:
            if state is not None:
                self.flight.consider(
                    op,
                    state,
                    time.perf_counter() - t0,
                    retained=retain,
                    meta=meta,
                )

    # -- operations -------------------------------------------------------------

    def _searchable_db(self, index_id: int) -> EncryptedDatabase:
        db = self._db(index_id)
        if db.get_index("edb") is None:
            raise IndexStateError(f"unknown index handle {index_id}")
        return db

    @staticmethod
    def _run_search(
        db: EncryptedDatabase, kind: str, tokens: "list[bytes]"
    ) -> "list[bytes]":
        """One query's worth of key-free search (shared by the single-
        and multi-search frames — one place decodes tokens and picks
        the engine entry point)."""
        if kind == "sse":
            return db.sse_search_many(
                "edb", [_keyword_token(raw) for raw in tokens]
            )
        return db.dprf_search(
            "edb", [_delegation_token(raw) for raw in tokens]
        )

    def _search(self, request: msg.SearchRequest) -> msg.SearchResponse:
        # The single-search frame carries no trace id, but it is still
        # a query-serving path: the sampler's coin flip and the flight
        # recorder's slow bar apply exactly as for multi-search.
        db = self._searchable_db(request.index_id)

        def run() -> msg.SearchResponse:
            return msg.SearchResponse(
                self._run_search(db, request.kind, request.tokens)
            )

        observed = self._observed(
            "",
            "server.handle",
            "search",
            index_id=request.index_id,
            kind=request.kind,
            tokens=len(request.tokens),
        )
        if observed is None:
            return run()
        with observed:
            return run()

    def _multi_search(self, request: msg.MultiSearchRequest) -> msg.MultiSearchResponse:
        """Execute a whole query batch behind one wire round-trip.

        Every query in the batch runs through the same exec engine as a
        single search; answers keep request order so the client can
        scatter them back to its ranges.  A carried dispatcher hint is
        normalized (garbage degrades to ``"auto"``) and tallied — it is
        advisory observability, never part of the search itself.
        Hint-less frames (legacy clients, continuation rounds of the
        interactive protocol) leave the tally untouched, so each batch
        counts exactly once.

        A carried trace id opens a ``server.handle`` root span for the
        batch: the whole walk runs synchronously on this thread, so the
        engine/kernel/storage spans underneath land in the same trace
        via the ambient contextvar, and the finished trace is ringed in
        :attr:`tracer`.  Trace-less frames face the sampler's coin flip
        and the flight recorder's slow bar instead (:meth:`_observed`);
        with both off they skip all of it.
        """
        if request.hint:
            hint = normalize_hint(request.hint)
            self.dispatch_hints[hint] = self.dispatch_hints.get(hint, 0) + 1
            self.last_dispatch_hint = hint
            self._registry().counter(f"dispatch.hint.{hint}").inc()
        db = self._searchable_db(request.index_id)

        def run() -> msg.MultiSearchResponse:
            return msg.MultiSearchResponse(
                [
                    self._run_search(db, request.kind, tokens)
                    for tokens in request.queries
                ]
            )

        observed = self._observed(
            request.trace,
            "server.handle",
            "multi-search",
            index_id=request.index_id,
            kind=request.kind,
            queries=len(request.queries),
        )
        if observed is None:
            return run()
        with observed:
            return run()

    def _fetch(self, request: msg.FetchRequest) -> msg.FetchResponse:
        # fetch_tuples reports *all* missing ids at once, so a client
        # retrying after a partial upload learns the complete gap.
        return msg.FetchResponse(
            self._db(request.index_id).fetch_tuples(request.record_ids)
        )

    # -- managed live stores (dynamic data over the wire) ----------------------

    def _registry(self):
        """Where the ``updates.*`` instruments live (see ``__init__``)."""
        return (
            self.metrics_registry
            if self.metrics_registry is not None
            else default_registry()
        )

    def _store(self, index_id: int):
        store = self._stores.get(index_id)
        if store is None:
            raise IndexStateError(f"no managed store at handle {index_id}")
        return store

    def _store_open(self, request: msg.StoreOpenRequest) -> None:
        """Create (or idempotently re-open) a managed store.

        The store lives on its own ``store<id>/`` slice of the server
        backend.  Whatever a previous process left on that slice is
        wiped first: managed-store keys live in this process (that is
        the point — the server runs the whole store), so orphaned
        on-disk state from a dead incarnation is undecryptable garbage,
        not something to rehydrate.
        """
        from repro.core.registry import SCHEMES

        schemes = tuple(request.schemes)
        for name in schemes:
            if name not in SCHEMES:
                raise IndexStateError(f"unknown scheme {name!r}")
        if len(set(schemes)) != len(schemes):
            raise IndexStateError("duplicate scheme lanes in store open")
        spec = (schemes, request.domain_size, request.consolidation_step)
        existing = self._store_specs.get(request.index_id)
        if existing is not None:
            if existing != spec:
                raise IndexStateError(
                    f"handle {request.index_id} already hosts a store "
                    f"with different parameters"
                )
            return  # idempotent re-open
        if request.index_id in self._databases:
            raise IndexStateError(
                f"handle {request.index_id} already hosts a classic EDB"
            )
        from repro.rangestore import HybridRangeStore, RangeStore

        backend = PrefixedBackend(self._backend, f"store{request.index_id}/")
        for ns in backend.namespaces():
            backend.drop(ns)
        if len(schemes) == 1:
            kwargs = {"executor": self.executor}
            if schemes[0].startswith("constant"):
                # A live store serves arbitrary interleaved ranges; the
                # owner-side intersection guard assumes one owner's
                # query discipline and would reject normal traffic.
                kwargs["intersection_policy"] = "allow"
            store = RangeStore.open(
                schemes[0],
                domain_size=request.domain_size,
                backend=backend,
                consolidation_step=request.consolidation_step,
                **kwargs,
            )
        else:
            store = HybridRangeStore(
                domain_size=request.domain_size,
                schemes=schemes,
                backend=backend,
                consolidation_step=request.consolidation_step,
                executor=self.executor,
            )
        self._stores[request.index_id] = store
        self._store_specs[request.index_id] = spec
        self._store_consolidations[request.index_id] = 0
        self.events.emit(
            "store.open",
            index_id=request.index_id,
            schemes=list(schemes),
            domain_size=request.domain_size,
        )

    def _apply_updates(
        self, index_id: int, ops: "tuple[UpdateOp, ...]", *, trace: str = ""
    ) -> None:
        """Apply one decoded update batch to a managed store.

        The batch becomes one fresh static index; any logarithmic
        consolidation it triggers runs right here, inside the same
        call — which the network layer runs on the writer's connection
        thread under the per-index write lock, so a merge never queues
        another connection's frames behind it (they may still wait on
        the backend's own lock) and never interleaves with other writes
        to the same handle.  Concurrent searches are safe against the
        merge via the update manager's read/write gate
        (exec-cache invalidation is atomic with index retirement).
        """
        store = self._store(index_id)

        def run() -> None:
            store.apply_ops(ops)
            store.flush()

        observed = self._observed(
            trace, "server.update", "update-batch",
            index_id=index_id, ops=len(ops),
        )
        if observed is None:
            run()
        else:
            with observed:
                run()
        registry = self._registry()
        registry.counter("updates.applied").inc(len(ops))
        registry.counter("updates.batches").inc()
        total = store.consolidations
        seen = self._store_consolidations.get(index_id, 0)
        if total > seen:
            registry.counter("updates.consolidations").inc(total - seen)
            self._store_consolidations[index_id] = total
            self.events.emit(
                "store.consolidate",
                index_id=index_id,
                merged=total - seen,
                consolidations=total,
            )

    def _store_search(
        self, request: msg.StoreSearchRequest
    ) -> msg.StoreSearchResponse:
        store = self._store(request.index_id)

        def run() -> msg.StoreSearchResponse:
            outcome = store.search(request.lo, request.hi)
            return msg.StoreSearchResponse(
                tuple(sorted(outcome.ids)),
                rounds=outcome.rounds,
                scheme=outcome.scheme_chosen or "",
            )

        observed = self._observed(
            request.trace,
            "server.handle",
            "store-search",
            index_id=request.index_id,
            kind="store",
            queries=1,
        )
        if observed is None:
            return run()
        with observed:
            return run()

    def _drop_store(self, index_id: int) -> None:
        """Retire a managed store and free its backend slice."""
        store = self._stores.pop(index_id, None)
        if store is None:
            return
        self._store_specs.pop(index_id, None)
        self._store_consolidations.pop(index_id, None)
        slice_backend = PrefixedBackend(self._backend, f"store{index_id}/")
        for ns in slice_backend.namespaces():
            slice_backend.drop(ns)
        self.events.emit("store.drop", index_id=index_id)

    # -- introspection (what an adversary can tally) -----------------------------

    def stored_bytes(self) -> int:
        """Total bytes at rest — the honest-but-curious server's view."""
        return sum(db.stored_bytes() for db in self._databases.values())

    def index_count(self) -> int:
        """Number of live handles holding an encrypted index."""
        return sum(
            1 for db in self._databases.values() if db.get_index("edb") is not None
        )

    def stats_dict(self) -> dict:
        """Core-server counters for the ``StatsRequest`` frame pair.

        Everything here is already in the honest-but-curious server's
        view (it could tally all of it itself), so exposing the dict
        adds no leakage.  The network layer merges its transport
        counters on top under the same frame pair.
        """
        stats = {
            "handles": len(self._databases),
            "indexes": self.index_count(),
            "stored_bytes": self.stored_bytes(),
            "dispatch_hints": dict(self.dispatch_hints),
            "events": {
                "emitted": self.events.emitted,
                "tail": self.events.tail(16),
            },
        }
        if self._stores:
            stats["stores"] = {
                str(index_id): {
                    "schemes": list(self._store_specs[index_id][0]),
                    "active_indexes": store.active_indexes,
                    "pending_ops": store.pending_ops,
                    "consolidations": store.consolidations,
                }
                for index_id, store in sorted(self._stores.items())
            }
        cache = getattr(self.executor, "cache", None)
        if cache is not None:
            # The exec engine's GGM-expansion cache: its hit rate is a
            # real capacity signal (a cold cache means every Constant
            # query pays full subtree expansion), so the cluster health
            # view aggregates it per shard.
            cache_stats = cache.stats()
            lookups = cache_stats["hits"] + cache_stats["misses"]
            cache_stats["hit_rate"] = (
                cache_stats["hits"] / lookups if lookups else 0.0
            )
            stats["exec_cache"] = cache_stats
        kernel = getattr(self.executor, "kernel", None)
        if kernel is not None:
            # The crypto kernel behind every batched expansion/label
            # derivation: batches, leaves expanded, labels derived.
            stats["crypto_kernel"] = kernel.stats()
        return stats
