"""Batch-first crypto kernel: the bulk PRF/GGM evaluation seam.

Every crypto hot path in the engine — GGM subtree expansion, leaf
subkey derivation, Π_bas label derivation — runs through one
:class:`SerialKernel` as array-in/array-out *batches*.  Batch inputs
are plain data — ``(seed, level)`` subtree *descriptors* and
``(label_key, counter)`` label items, never Python token objects —
and batch outputs are arrays in input order.  The kernel runs the
one-shot ``hmac.digest`` loops inline on the calling thread, counts
what it evaluated, and wraps each batch in a ``kernel.batch`` span.

The engine calls exactly the three batch methods, so a subclass that
overrides them (a timing wrapper, a scalar reference for differential
tests) sees every crypto batch a query issues.
"""

from __future__ import annotations

import threading

from repro.crypto import prg as _prg
from repro.obs.tracing import span as _span


def check_descriptor(descriptor) -> "tuple[bytes, int]":
    """Validate one ``(seed, level)`` subtree descriptor."""
    from repro.crypto.dprf import DelegationToken

    seed, level = descriptor
    # DelegationToken's own validation is the single source of truth
    # for what a well-formed (seed, level) pair is.
    DelegationToken(bytes(seed), int(level))
    return bytes(seed), int(level)


def descriptor_leaves(descriptors) -> int:
    """Total leaf count of a descriptor batch (its unit weight)."""
    return sum(1 << level for _, level in descriptors)


def _serial_expand_blob(descriptors) -> bytes:
    """Concatenated leaf seeds of a descriptor batch (DFS order)."""
    expand = _prg._expand
    seed_len = _prg.SEED_LEN
    out = bytearray()
    for seed, level in descriptors:
        stack = [(seed, level)]
        while stack:
            node, lvl = stack.pop()
            if lvl == 0:
                out += node
                continue
            both = expand(node)
            stack.append((both[seed_len:], lvl - 1))
            stack.append((both[:seed_len], lvl - 1))
    return bytes(out)


def _serial_subkeys_blob(descriptors) -> bytes:
    """Concatenated per-leaf ``label_key‖value_key`` of a batch.

    Fuses expansion and subkey derivation in one pass so the
    intermediate leaf list never materializes — this is the single
    hottest loop in the whole system.
    """
    import hashlib
    import hmac

    from repro.sse.base import TOKEN_DERIVE_LABEL

    expand = _prg._expand
    seed_len = _prg.SEED_LEN
    digest = hmac.digest
    sha512 = hashlib.sha512
    out = bytearray()
    for seed, level in descriptors:
        stack = [(seed, level)]
        while stack:
            node, lvl = stack.pop()
            if lvl == 0:
                # Inline subkeys_from_secret: a GGM leaf is always
                # exactly KEY_LEN bytes, so the pad path never fires.
                out += digest(node, TOKEN_DERIVE_LABEL, sha512)[:32]
                continue
            both = expand(node)
            stack.append((both[seed_len:], lvl - 1))
            stack.append((both[:seed_len], lvl - 1))
    return bytes(out)


#: Lazily bound ``posting_label`` (imported on first use: ``sse`` pulls
#: in :mod:`repro.crypto`, so a module-level import would be circular).
_posting_label = None


def _get_posting_label():
    global _posting_label
    if _posting_label is None:
        from repro.sse.pibas import posting_label

        _posting_label = posting_label
    return _posting_label


def _slice_subkeys(blob: bytes, descriptors) -> "list[tuple]":
    """Regroup a subkey blob into per-descriptor leaf pair tuples."""
    out = []
    offset = 0
    for _, level in descriptors:
        leaves = 1 << level
        pairs = tuple(
            (blob[o : o + 16], blob[o + 16 : o + 32])
            for o in range(offset, offset + 32 * leaves, 32)
        )
        out.append(pairs)
        offset += 32 * leaves
    return out


def _slice_expand(blob: bytes, descriptors) -> "list[list[bytes]]":
    """Regroup a leaf-seed blob into per-descriptor leaf lists."""
    seed_len = _prg.SEED_LEN
    out = []
    offset = 0
    for _, level in descriptors:
        leaves = 1 << level
        out.append(
            [
                blob[o : o + seed_len]
                for o in range(offset, offset + seed_len * leaves, seed_len)
            ]
        )
        offset += seed_len * leaves
    return out


class SerialKernel:
    """Batch crypto evaluation: inline one-shot ``hmac.digest`` loops.

    Exactly the code the engine inlined before the kernel seam existed
    — no pool, no pickling, no thresholds (the ≤1.05× bench gate pins
    this).  Owns the counters the server stats frame reports.
    """

    def __init__(self) -> None:
        self._stats_lock = threading.Lock()
        self.batches = 0
        self.leaves_expanded = 0
        self.labels_derived = 0

    def expand_subtrees(self, descriptors) -> "list[list[bytes]]":
        """Expand ``(seed, level)`` descriptors to per-descriptor leaf
        arrays (in-subtree left-to-right order, same as
        ``GgmDprf.iter_leaves``)."""
        descriptors = [check_descriptor(d) for d in descriptors]
        leaves = descriptor_leaves(descriptors)
        with _span("kernel.batch", op="expand_subtrees", units=leaves):
            blob = _serial_expand_blob(descriptors)
        self._count(leaves=leaves)
        return _slice_expand(blob, descriptors)

    def derive_leaf_subkeys(self, descriptors) -> "list[tuple]":
        """Expand descriptors straight to per-leaf ``(label_key,
        value_key)`` pairs — the exec engine's DPRF hot path, fusing
        the PRG walk with the leaf token derivation."""
        descriptors = [check_descriptor(d) for d in descriptors]
        leaves = descriptor_leaves(descriptors)
        with _span("kernel.batch", op="derive_leaf_subkeys", units=2 * leaves):
            blob = _serial_subkeys_blob(descriptors)
        self._count(leaves=leaves)
        return _slice_subkeys(blob, descriptors)

    def derive_labels(self, items) -> "list[bytes]":
        """Bulk Π_bas label derivation for ``(label_key, counter)``
        items — the coalesced counter walk's per-round batch."""
        posting_label = _get_posting_label()
        with _span("kernel.batch", op="derive_labels", units=len(items)):
            out = [posting_label(key, counter) for key, counter in items]
        self._count(labels=len(out))
        return out

    def _count(self, *, leaves: int = 0, labels: int = 0) -> None:
        with self._stats_lock:
            self.batches += 1
            self.leaves_expanded += leaves
            self.labels_derived += labels

    def stats(self) -> dict:
        """Counters snapshot for the server stats frame."""
        with self._stats_lock:
            return {
                "batches": self.batches,
                "leaves_expanded": self.leaves_expanded,
                "labels_derived": self.labels_derived,
            }


_default_lock = threading.Lock()
_default: "SerialKernel | None" = None


def default_kernel() -> SerialKernel:
    """The shared kernel used by every executor not given a private one."""
    global _default
    with _default_lock:
        if _default is None:
            _default = SerialKernel()
        return _default


__all__ = [
    "SerialKernel",
    "check_descriptor",
    "default_kernel",
    "descriptor_leaves",
]
