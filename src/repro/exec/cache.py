"""Bounded LRU cache for GGM subtree expansions.

The Constant schemes pay ``O(R)`` PRG applications plus ``O(R)`` token
derivations per query to expand delegated seeds into leaf-level keyword
tokens.  Expansion is a *pure* function of the delegation token (seed,
level) — two tokens with equal seeds delegate the same subtree of the
same GGM tree — so its results are memoizable.  This cache stores the
fully derived per-leaf ``(label_key, value_key)`` subkey pairs, so a
hit skips both the PRG walk and the per-leaf token derivation.

Keys are opaque hashables; the exec engine keys at ``(seed, level)``
*descriptor* granularity — the crypto kernel's batch currency — so a
cached subtree is filtered out of the batch before the kernel sees it.

Bounding is by total cached *leaves*, not entries: one level-12 token
holds 4096 derived tokens and would otherwise evict thousands of cheap
entries while counting as one.  Eviction is LRU.

Invalidation: correctness never depends on it (keys are cryptographic
and the mapping is deterministic), but retired indexes leave dead
entries behind.  :meth:`invalidate` exists so lifecycle owners — the
update manager's consolidate/restore, a scheme rebuild — can drop them
eagerly instead of waiting for LRU pressure; it is wired into
:class:`~repro.updates.manager.BatchUpdateManager`.

Thread safety: all operations take an internal lock, so one cache can
serve a multi-worker executor.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Default capacity in cached leaves (~128k derived tokens; a derived
#: token is two 16-byte subkeys, so the ceiling is a few MiB).
DEFAULT_MAX_LEAVES = 1 << 17


class ExpansionCache:
    """LRU map: delegation token -> tuple of derived leaf subkey pairs."""

    def __init__(self, max_leaves: int = DEFAULT_MAX_LEAVES) -> None:
        if max_leaves < 1:
            raise ValueError(f"cache capacity must be >= 1, got {max_leaves}")
        self.max_leaves = max_leaves
        self._entries: "OrderedDict[object, tuple]" = OrderedDict()
        self._weight = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, token) -> "tuple | None":
        """Cached leaf tokens for a delegation token (``None`` on miss)."""
        with self._lock:
            leaves = self._entries.get(token)
            if leaves is None:
                self.misses += 1
                return None
            self._entries.move_to_end(token)
            self.hits += 1
            return leaves

    def put(self, token, leaf_tokens: tuple) -> None:
        """Insert an expansion; oversized subtrees are silently skipped
        (one entry must never evict the entire cache)."""
        leaf_tokens = tuple(leaf_tokens)
        weight = len(leaf_tokens)
        if weight > self.max_leaves:
            return
        with self._lock:
            if token in self._entries:
                self._entries.move_to_end(token)
                return
            self._entries[token] = leaf_tokens
            self._weight += weight
            while self._weight > self.max_leaves:
                _, evicted = self._entries.popitem(last=False)
                self._weight -= len(evicted)
                self.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (lifecycle hook; see module docstring)."""
        with self._lock:
            self._entries.clear()
            self._weight = 0
            self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cached_leaves(self) -> int:
        """Current weight: total leaf tokens held."""
        return self._weight

    def stats(self) -> dict:
        """Counters snapshot (observability for the harness/bench)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "cached_leaves": self._weight,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
