"""The parallel query executor: shared by every scheme and the server.

The executor turns a :class:`~repro.exec.plan.QueryPlan` into results
with three mechanics the per-scheme search loops never had:

**Coalesced storage probes.**  The Π_bas counter walk is deterministic
in the counter, so *every* active keyword walker's next labels can ride
one ``get_many`` round.  The old loops paid one storage round-trip lane
per cover token — per GGM *leaf* for the Constant schemes, i.e. ``O(R)``
SQLite queries per range — where the coalesced walk pays one round-trip
per probe *round* (``1 + log(longest posting list)``-ish), regardless of
walker count.  This is what collapses the PR-2 constant-brc/SQLite
baseline.

**A worker pool with deterministic results.**  CPU-side work — GGM
subtree expansion, label derivation, black-box per-token searches on
thread-safe indexes — fans out over ``workers`` threads; results are
always reassembled in token order, so engine answers are byte-identical
to the serial path.  Storage ``get_many`` calls are issued from the
calling thread only: backends advertise ``thread_safe_reads`` and
SQLite connections are single-threaded, so the engine never reaches a
backend from a pool thread.

**A GGM expansion cache.**  Delegation-token expansions memoize through
a shared :class:`~repro.exec.cache.ExpansionCache` (see its module
docstring for the safety argument), keyed at ``(seed, level)``
descriptor granularity, the kernel's batch currency.

**Batched crypto through the kernel.**  All GGM subtree expansion and
Π_bas label derivation route through a
:class:`~repro.crypto.kernel.SerialKernel` — one batch call per
expansion wave / probe round, never a per-leaf ``hmac.digest`` loop in
the engine itself.  The kernel reproduces the old inline loops
byte-for-byte.

Configuration: ``QueryExecutor(workers=…, cache=…, kernel=…)`` per
instance; the process-wide default engine reads
``REPRO_EXEC_WORKERS`` and ``REPRO_EXEC_CACHE`` (``0`` disables
caching) and is shared by every scheme/server constructed without an
explicit ``executor=``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.crypto.kernel import SerialKernel, default_kernel
from repro.errors import IndexStateError
from repro.exec.cache import ExpansionCache
from repro.obs.tracing import span
from repro.exec.plan import (
    KIND_DPRF,
    KIND_SSE,
    ExecStats,
    QueryPlan,
    plan_dprf,
    plan_sse,
)
from repro.sse.base import KeywordToken
from repro.sse.pibas import (
    _WALK_CHUNK_MAX,
    PiBas,
    decode_posting_raw,
)

#: Environment knobs for the default engine.
ENV_WORKERS = "REPRO_EXEC_WORKERS"
ENV_CACHE = "REPRO_EXEC_CACHE"


def _default_workers() -> int:
    env = os.environ.get(ENV_WORKERS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{ENV_WORKERS} must be an integer, got {env!r}"
            ) from None
    return min(8, os.cpu_count() or 1)


@dataclass
class ExecResult:
    """Engine output: per-token payload groups plus realized stats.

    ``groups[i]`` holds the payloads of ``plan.tokens[i]`` in counter
    order — exactly what the retired per-token loop produced, which is
    how determinism is preserved and per-subtree partitions (the L2
    leakage objects) stay observable.
    """

    groups: "list[list[bytes]]"
    stats: ExecStats
    plan: "QueryPlan | None" = field(default=None, repr=False)

    @property
    def payloads(self) -> "list[bytes]":
        """All payloads flattened in token order."""
        return [p for group in self.groups for p in group]


class QueryExecutor:
    """Plan executor: thread pool + coalesced probes + expansion cache.

    Parameters
    ----------
    workers:
        Thread-pool width.  ``1`` (or ``REPRO_EXEC_WORKERS=1``) runs
        everything inline on the calling thread — the fully serial
        lane CI keeps covered.
    cache:
        An :class:`ExpansionCache`, ``None`` for a private default-sized
        one, or ``False`` to disable expansion caching entirely.
    kernel:
        The :class:`~repro.crypto.kernel.SerialKernel` every batched
        crypto call (GGM expansion, label derivation) goes through.
        The process-wide default kernel when omitted.  The executor
        never closes it — kernels are shared across executors exactly
        like the default-engine singleton.
    """

    def __init__(
        self,
        *,
        workers: "int | None" = None,
        cache: "ExpansionCache | bool | None" = None,
        kernel: "SerialKernel | None" = None,
    ) -> None:
        self.workers = max(1, int(workers) if workers is not None else _default_workers())
        self.kernel = kernel if kernel is not None else default_kernel()
        # NB: never truth-test a cache here — an empty ExpansionCache
        # has __len__() == 0 and would read as "disabled".
        if cache is None or cache is True:
            self.cache: "ExpansionCache | None" = ExpansionCache()
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        self._pool: "ThreadPoolExecutor | None" = None
        self._pool_lock = threading.Lock()

    # -- worker pool -------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
            return self._pool

    def map(self, fn: Callable, items: Sequence) -> list:
        """Ordered parallel map (inline when serial or trivially small).

        The generic fan-out hook: results arrive in input order no
        matter how the pool schedules them.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        """Shut the pool down (idempotent; the engine stays usable —
        a later call lazily recreates it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- cache lifecycle ----------------------------------------------------

    def invalidate_cache(self) -> None:
        """Drop all memoized expansions (index-retirement hook)."""
        if self.cache is not None:
            self.cache.invalidate()

    # -- entry points --------------------------------------------------------

    def execute(self, plan: QueryPlan, index, *, sse=None) -> ExecResult:
        """Run an executable plan against an encrypted index.

        ``sse`` optionally supplies the owner-side black-box SSE scheme;
        when it is Π_bas (or omitted — the server's key-free position)
        the engine runs its coalesced walk, otherwise it falls back to
        per-token ``sse.search`` calls, parallelized when the index
        advertises thread-safe reads.
        """
        if not plan.executable:
            raise IndexStateError("plan carries no tokens; build it from a trapdoor")
        if plan.kind == KIND_DPRF:
            return self._run_dprf(plan, index, sse)
        if plan.kind == KIND_SSE:
            return self._run_sse(plan, index, sse)
        raise IndexStateError(f"unknown plan kind {plan.kind!r}")

    def sse_search(self, index, tokens: Sequence, *, sse=None, scheme: str = "") -> ExecResult:
        """Plan + execute a per-keyword-token search in one call."""
        plan = plan_sse(
            tokens, probe_batch=getattr(index, "probe_batch", 1), scheme=scheme
        )
        return self._run_sse(plan, index, sse)

    def dprf_search(
        self, index, tokens: Sequence, *, sse=None, scheme: str = ""
    ) -> ExecResult:
        """Plan + execute a DPRF-delegated search in one call."""
        plan = plan_dprf(
            tokens, probe_batch=getattr(index, "probe_batch", 1), scheme=scheme
        )
        return self._run_dprf(plan, index, sse)

    # -- SSE stage ----------------------------------------------------------

    def _run_sse(self, plan: QueryPlan, index, sse) -> ExecResult:
        stats = ExecStats(workers=self.workers)
        tokens = list(plan.tokens)
        if sse is None or isinstance(sse, PiBas):
            pairs = [(t.label_key, t.value_key) for t in tokens]
            groups = self._coalesced_walk(index, pairs, stats)
        else:
            groups = self._blackbox_search(index, tokens, sse, stats)
        return ExecResult(groups, stats, plan)

    def _blackbox_search(self, index, tokens, sse, stats: ExecStats) -> "list[list[bytes]]":
        """Per-token fallback for non-Π_bas SSE schemes.

        Parallel across tokens only when the index tolerates reads from
        pool threads (plain dicts and in-memory backends do; a SQLite
        connection does not).
        """
        run = lambda token: sse.search(index, token)  # noqa: E731
        if getattr(index, "thread_safe_reads", True):
            groups = self.map(run, tokens)
        else:
            groups = [run(token) for token in tokens]
        stats.probe_rounds += len(tokens)
        stats.probes_issued += sum(len(g) + 1 for g in groups)
        return groups

    def _coalesced_walk(self, index, pairs, stats: ExecStats) -> "list[list[bytes]]":
        """All walkers' Π_bas counter walks, probes batched per round.

        ``pairs`` are raw ``(label_key, value_key)`` subkey pairs — the
        hot path skips :class:`~repro.sse.base.KeywordToken` object
        construction, which costs real time at thousands of DPRF leaf
        walkers per query.  Every round derives each active walker's
        next label chunk (fanned out over the pool), issues ONE
        ``get_many`` for the concatenation, then advances or retires
        each walker from its slice of the answers.  Chunks grow
        geometrically per walker, so total rounds track the longest
        posting list, not the walker count.  Results stay grouped per
        walker in counter order.
        """
        groups: "list[list[bytes]]" = [[] for _ in pairs]
        if not pairs:
            return groups
        get_many = getattr(index, "get_many", None)
        if get_many is None:
            get = index.get
            get_many = lambda labels: [get(label) for label in labels]  # noqa: E731
        batch = max(1, getattr(index, "probe_batch", 1))
        # Per-walker speculation width.  A lone walker on a round-trip-
        # dominated backend keeps the backend's advertised batch (the
        # PR-2 heuristic); but the round-trip is *shared* here, so with
        # W walkers speculating more than ~batch/W labels each buys no
        # fewer rounds and wastes a derivation per extra label — fatal
        # at DPRF scale, where thousands of leaf walkers miss on their
        # very first counter.
        chunk0 = max(1, batch // len(pairs))
        # (walker, counter, chunk) per still-walking token.
        state = [(i, 0, chunk0) for i in range(len(pairs))]
        while state:
            # Each round's labels ride ONE kernel batch — never the
            # thread pool: a label is one ~2µs GIL-holding HMAC, so
            # per-task dispatch overhead would dwarf the work.
            items: "list[tuple[bytes, int]]" = []
            for walker, counter, chunk in state:
                label_key = pairs[walker][0]
                for j in range(chunk):
                    items.append((label_key, counter + j))
            # Trace spans are no-ops (one contextvar read) outside a
            # traced request — per *round*, not per label, so cost
            # never scales with batch size.
            with span("engine.wave", walkers=len(state), labels=len(items)):
                flat = self.kernel.derive_labels(items)
                with span("storage.get_many", labels=len(flat)):
                    values = get_many(flat)
            stats.probe_rounds += 1
            stats.probes_issued += len(flat)
            if len(state) > 1:
                stats.probes_coalesced += len(flat)
            next_state = []
            offset = 0
            for walker, counter, chunk in state:
                answers = values[offset : offset + chunk]
                offset += chunk
                retired = False
                value_key = pairs[walker][1]
                out = groups[walker]
                for j, ct in enumerate(answers):
                    if ct is None:
                        retired = True
                        break
                    out.append(decode_posting_raw(value_key, counter + j, ct))
                if not retired:
                    next_state.append(
                        (walker, counter + chunk, min(chunk * 2, _WALK_CHUNK_MAX))
                    )
            state = next_state
        return groups

    # -- DPRF stage ----------------------------------------------------------

    def _expand_tokens(self, tokens, stats: ExecStats) -> "list[tuple]":
        """Per-token leaf subkey pairs, cache-aware and kernel-batched.

        Every cache miss across the whole token wave rides ONE
        ``derive_leaf_subkeys`` batch.  The cache keys on the plain
        ``(seed, level)`` descriptor (not the token object), matching
        the kernel currency, so a hit never re-expands a subtree.  Leaf
        pairs are raw ``(label_key, value_key)`` tuples, byte-identical
        to the retired per-leaf ``subkeys_from_secret`` loop.
        """
        descriptors = [token.descriptor() for token in tokens]
        results: "list[tuple | None]" = [None] * len(tokens)
        misses: "list[int]" = []
        for i, descriptor in enumerate(descriptors):
            if self.cache is not None:
                cached = self.cache.get(descriptor)
                if cached is not None:
                    results[i] = cached
                    stats.cache_hits += 1
                    continue
            misses.append(i)
        if misses:
            derived = self.kernel.derive_leaf_subkeys(
                [descriptors[i] for i in misses]
            )
            for i, leaves in zip(misses, derived):
                results[i] = leaves
                if self.cache is not None:
                    self.cache.put(descriptors[i], leaves)
                stats.cache_misses += 1
                stats.tokens_expanded += 1
        return results

    def _run_dprf(self, plan: QueryPlan, index, sse=None) -> ExecResult:
        stats = ExecStats(workers=self.workers)
        tokens = list(plan.tokens)
        expanded = self._expand_tokens(tokens, stats)
        leaf_tokens: list = []
        spans: "list[int]" = []
        for leaves in expanded:
            leaf_tokens.extend(leaves)
            spans.append(len(leaves))
        stats.leaves_derived += len(leaf_tokens)
        # Leaf keyword-token derivation is deriver-contract work (the
        # DPRF delegation seam); the walk itself honors the black-box
        # SSE boundary exactly like the pure-SSE path.
        if sse is None or isinstance(sse, PiBas):
            leaf_groups = self._coalesced_walk(index, leaf_tokens, stats)
        else:
            wrapped = [KeywordToken(lk, vk) for lk, vk in leaf_tokens]
            leaf_groups = self._blackbox_search(index, wrapped, sse, stats)
        # Regroup leaf results per delegation token (deterministic: the
        # same order the serial expand-then-search loop produced).
        groups: "list[list[bytes]]" = []
        cursor = 0
        for span in spans:
            merged: "list[bytes]" = []
            for leaf_group in leaf_groups[cursor : cursor + span]:
                merged.extend(leaf_group)
            groups.append(merged)
            cursor += span
        return ExecResult(groups, stats, plan)


# ---------------------------------------------------------------------------
# The process-wide default engine
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default: "QueryExecutor | None" = None


def _env_cache_disabled() -> bool:
    return os.environ.get(ENV_CACHE, "").strip() == "0"


def default_executor() -> QueryExecutor:
    """The shared engine used by everything not given a private one."""
    global _default
    with _default_lock:
        if _default is None:
            _default = QueryExecutor(
                cache=False if _env_cache_disabled() else None
            )
        return _default


def configure_default_executor(
    *,
    workers: "int | None" = None,
    cache: "ExpansionCache | bool | None" = None,
) -> QueryExecutor:
    """Replace the default engine (CLI ``--workers``/``--no-cache``).

    Existing schemes keep whatever executor they were constructed with;
    only *future* lookups of the default see the new one.  When
    ``cache`` is unspecified the ``REPRO_EXEC_CACHE`` knob still
    applies — reconfiguring workers must not silently re-enable a cache
    the environment disabled.
    """
    if cache is None and _env_cache_disabled():
        cache = False
    global _default
    with _default_lock:
        old, _default = _default, QueryExecutor(workers=workers, cache=cache)
    if old is not None:
        old.close()
    return _default
