"""Crypto-kernel contract: batch/scalar equivalence, descriptor
validation, and the engine-never-bypasses-the-kernel regression.

The kernel's one promise is byte-identical outputs to the scalar
per-leaf paths; these tests pin it primitive by primitive, then pin
the exec engine routing *every* leaf and label through the kernel
(the spy test) so no per-leaf ``hmac.digest`` loop can quietly return.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro.crypto.dprf import DelegationToken, GgmDprf
from repro.crypto.kernel import (
    SerialKernel,
    check_descriptor,
    default_kernel,
    descriptor_leaves,
)
from repro.crypto.prf import prf_many
from repro.errors import KeyError_, TokenError
from repro.sse.base import subkeys_from_secret
from repro.sse.pibas import posting_label, posting_labels

def _descriptors():
    return [
        (b"\x01" * 32, 5),
        (b"\x02" * 32, 0),
        (b"\x03" * 32, 7),
    ]


def _reference_subkeys(descriptors):
    return [
        tuple(
            subkeys_from_secret(leaf)
            for leaf in GgmDprf.iter_leaves(DelegationToken(seed, level))
        )
        for seed, level in descriptors
    ]


class TestSerialKernel:
    def test_expand_matches_iter_leaves(self):
        kernel = SerialKernel()
        descriptors = _descriptors()
        expected = [
            list(GgmDprf.iter_leaves(DelegationToken(seed, level)))
            for seed, level in descriptors
        ]
        assert kernel.expand_subtrees(descriptors) == expected

    def test_subkeys_match_scalar_path(self):
        kernel = SerialKernel()
        descriptors = _descriptors()
        assert kernel.derive_leaf_subkeys(descriptors) == _reference_subkeys(
            descriptors
        )

    def test_labels_match_scalar_path(self):
        kernel = SerialKernel()
        items = [(os.urandom(16), i) for i in range(40)]
        assert kernel.derive_labels(items) == [
            posting_label(key, counter) for key, counter in items
        ]
        assert kernel.derive_labels([]) == []

    def test_counters(self):
        kernel = SerialKernel()
        kernel.derive_leaf_subkeys([(b"\x05" * 32, 4)])
        kernel.derive_labels([(b"\x06" * 16, 0)])
        assert kernel.stats() == {
            "batches": 2,
            "leaves_expanded": 16,
            "labels_derived": 1,
        }

    def test_rejects_bad_descriptor(self):
        kernel = SerialKernel()
        with pytest.raises(TokenError):
            kernel.expand_subtrees([(b"short", 3)])
        with pytest.raises(TokenError):
            kernel.derive_leaf_subkeys([(b"\x01" * 32, -1)])


class TestBatchShapes:
    """Edge shapes of a batch: empty, single-leaf, mixed and out of order."""

    def test_empty_batches_return_empty(self):
        kernel = SerialKernel()
        assert kernel.expand_subtrees([]) == []
        assert kernel.derive_leaf_subkeys([]) == []
        assert kernel.derive_labels([]) == []
        assert kernel.stats() == {
            "batches": 3,
            "leaves_expanded": 0,
            "labels_derived": 0,
        }

    def test_level_zero_descriptor_is_its_own_leaf(self):
        kernel = SerialKernel()
        seed = b"\x21" * 32
        assert kernel.expand_subtrees([(seed, 0)]) == [[seed]]
        assert kernel.derive_leaf_subkeys([(seed, 0)]) == [
            (subkeys_from_secret(seed),)
        ]

    def test_mixed_batch_matches_one_batch_per_descriptor(self):
        rng = random.Random(11)
        descriptors = [
            (bytes(rng.randrange(256) for _ in range(32)), rng.randrange(7))
            for _ in range(12)
        ]
        kernel = SerialKernel()
        expanded = kernel.expand_subtrees(descriptors)
        subkeys = kernel.derive_leaf_subkeys(descriptors)
        assert len(expanded) == len(subkeys) == len(descriptors)
        for descriptor, leaves, pairs in zip(descriptors, expanded, subkeys):
            assert len(leaves) == len(pairs) == 1 << descriptor[1]
            assert kernel.expand_subtrees([descriptor]) == [leaves]
            assert kernel.derive_leaf_subkeys([descriptor]) == [pairs]

    def test_check_descriptor_normalises_types(self):
        seed, level = check_descriptor([bytearray(b"\x22" * 32), 3.0])
        assert type(seed) is bytes and seed == b"\x22" * 32
        assert type(level) is int and level == 3
        kernel = SerialKernel()
        assert kernel.expand_subtrees(
            [(memoryview(b"\x22" * 32), 3)]
        ) == kernel.expand_subtrees([(b"\x22" * 32, 3)])

    def test_descriptor_leaves_is_batch_weight(self):
        assert descriptor_leaves([]) == 0
        assert descriptor_leaves([(b"", 0), (b"", 3), (b"", 5)]) == 1 + 8 + 32


class TestKernelCounters:
    def test_stats_is_a_snapshot_of_counts_only(self):
        kernel = SerialKernel()
        snapshot = kernel.stats()
        assert set(snapshot) == {"batches", "leaves_expanded", "labels_derived"}
        snapshot["batches"] = 99
        kernel.expand_subtrees([(b"\x23" * 32, 2)])
        assert kernel.stats()["batches"] == 1

    def test_rejected_batch_counts_nothing(self):
        kernel = SerialKernel()
        good = (b"\x24" * 32, 2)
        with pytest.raises(TokenError):
            kernel.derive_leaf_subkeys([good, (b"\x24" * 31, 2)])
        with pytest.raises(TokenError):
            kernel.expand_subtrees([good, (b"\x24" * 32, -3)])
        assert kernel.stats() == {
            "batches": 0,
            "leaves_expanded": 0,
            "labels_derived": 0,
        }

    def test_concurrent_batches_count_exactly(self):
        # One kernel is shared by every executor built without a
        # private one, so its counters take batches from many threads.
        kernel = SerialKernel()
        threads, rounds = 4, 25

        def work(tid):
            for i in range(rounds):
                kernel.derive_leaf_subkeys([(bytes([tid, i]) * 16, 1)])
                kernel.derive_labels([(b"\x25" * 16, i), (b"\x26" * 16, i)])

        pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert kernel.stats() == {
            "batches": 2 * threads * rounds,
            "leaves_expanded": 2 * threads * rounds,
            "labels_derived": 2 * threads * rounds,
        }


class TestKernelSpans:
    def test_batch_span_names_op_and_units(self):
        from repro.obs.tracing import TraceBuffer, start_trace

        kernel = SerialKernel()
        buffer = TraceBuffer()
        with start_trace("kernel-spans", buffer, "root"):
            kernel.expand_subtrees([(b"\x27" * 32, 3)])
            kernel.derive_leaf_subkeys([(b"\x27" * 32, 2), (b"\x28" * 32, 0)])
            kernel.derive_labels([(b"\x29" * 16, i) for i in range(5)])
        (trace,) = buffer.find("kernel-spans")
        batches = [s["meta"] for s in trace["spans"] if s["name"] == "kernel.batch"]
        assert batches == [
            {"op": "expand_subtrees", "units": 8},
            {"op": "derive_leaf_subkeys", "units": 2 * 5},
            {"op": "derive_labels", "units": 5},
        ]


class TestDefaultKernel:
    def test_default_executor_uses_default_kernel(self):
        from repro.exec import configure_default_executor

        try:
            executor = configure_default_executor()
            assert isinstance(executor.kernel, SerialKernel)
            assert executor.kernel is default_kernel()
        finally:
            configure_default_executor()

    def test_default_kernel_is_shared(self):
        from repro.exec import QueryExecutor

        assert default_kernel() is default_kernel()
        first, second = QueryExecutor(workers=1), QueryExecutor(workers=1)
        try:
            assert first.kernel is second.kernel is default_kernel()
        finally:
            first.close()
            second.close()


class TestDprfKernelEntryPoints:
    def test_expand_token_via_kernel(self):
        kernel = SerialKernel()
        token = DelegationToken(b"\x11" * 32, 6)
        assert GgmDprf.expand_token(token, kernel=kernel) == GgmDprf.expand_token(
            token
        )
        tokens = [token, DelegationToken(b"\x12" * 32, 3)]
        assert GgmDprf.expand_all(tokens, kernel=kernel) == GgmDprf.expand_all(
            tokens
        )

    def test_descriptor_round_trip(self):
        token = DelegationToken(b"\x13" * 32, 4)
        seed, level = token.descriptor()
        assert DelegationToken(seed, level) == token


class TestBatchEntryPoints:
    def test_posting_labels_matches_scalar(self):
        key = b"\x14" * 16
        assert posting_labels(key, range(10)) == [
            posting_label(key, i) for i in range(10)
        ]

    def test_subkeys_many_matches_scalar(self):
        from repro.sse.base import subkeys_from_secret_many

        secrets = [os.urandom(32) for _ in range(5)] + [b"short"]
        assert subkeys_from_secret_many(secrets) == [
            subkeys_from_secret(s) for s in secrets
        ]

    def test_prf_many_checks_key(self):
        with pytest.raises(KeyError_):
            prf_many(b"short", [b"m"])


class _SpyKernel(SerialKernel):
    """Counts exactly what flows through the kernel seam."""

    def __init__(self) -> None:
        super().__init__()
        self.label_items = 0
        self.subkey_leaves = 0

    def derive_labels(self, items):
        items = list(items)
        self.label_items += len(items)
        return super().derive_labels(items)

    def derive_leaf_subkeys(self, descriptors):
        descriptors = list(descriptors)
        self.subkey_leaves += sum(1 << level for _, level in descriptors)
        return super().derive_leaf_subkeys(descriptors)


class TestEngineNeverBypassesKernel:
    """The spy-kernel regression: on batched paths the engine derives
    every probed label and every expanded leaf *through the kernel* —
    a reintroduced per-leaf ``hmac.digest`` loop would make the spy
    counters fall short of the engine's own realized stats."""

    def _scheme(self, name, spy, seed=3):
        import random

        from repro.core.registry import make_scheme
        from repro.exec.engine import QueryExecutor

        executor = QueryExecutor(workers=1, cache=False, kernel=spy)
        kwargs = (
            {"intersection_policy": "allow"}
            if name.startswith("constant")
            else {}
        )
        return make_scheme(
            name, 128, rng=random.Random(seed), executor=executor, **kwargs
        )

    def test_dprf_path_counts_match_stats(self):
        import random

        spy = _SpyKernel()
        scheme = self._scheme("constant-brc", spy)
        rng = random.Random(5)
        records = [(i, rng.randrange(128)) for i in range(80)]
        scheme.build_index(records)
        scheme.query(10, 90)
        stats = scheme.last_exec_stats
        assert stats.leaves_derived > 0
        assert spy.subkey_leaves == stats.leaves_derived
        assert spy.label_items == stats.probes_issued

    def test_sse_path_counts_match_stats(self):
        import random

        spy = _SpyKernel()
        scheme = self._scheme("logarithmic-brc", spy)
        rng = random.Random(6)
        records = [(i, rng.randrange(128)) for i in range(60)]
        scheme.build_index(records)
        scheme.query(0, 100)
        stats = scheme.last_exec_stats
        assert stats.probes_issued > 0
        assert spy.label_items == stats.probes_issued
