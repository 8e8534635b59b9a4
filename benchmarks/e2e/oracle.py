"""Oracle comparators: exact for static data, bounded under churn.

Static workloads compare every result set to
:class:`~repro.baselines.plaintext.PlaintextRangeIndex` exactly.  Under
churn a search races the writer, so each result is checked against a
lower and an upper bound built from when each write was sent and
acked: it must contain every matching record live for the whole call
and nothing that was never live during it.
"""

from __future__ import annotations

import bisect
import math

from repro.baselines.plaintext import PlaintextRangeIndex


def perturbed(records, domain_size: int, phantoms: int = 64):
    """``records`` plus evenly spread phantom tuples the store never
    saw — the self-test that proves a wrong oracle is noticed."""
    base = 1 << 40
    step = max(1, domain_size // phantoms)
    return list(records) + [
        (base + i, min(domain_size - 1, i * step + step // 2))
        for i in range(phantoms)
    ]


class StaticOracle:
    """Exact comparison against the plaintext index."""

    def __init__(self, records) -> None:
        self._index = PlaintextRangeIndex(records)

    def matches(self, lo: int, hi: int) -> int:
        """True result cardinality of ``[lo, hi]``."""
        return self._index.count(lo, hi)

    def check(self, lo: int, hi: int, got) -> bool:
        """Whether ``got`` is exactly the plaintext answer."""
        return got is not None and set(got) == set(self._index.query(lo, hi))


class ChurnOracle:
    """Lower/upper-bound comparison for searches that race a writer.

    Each record carries four instants: its insert sent and acked, its
    delete sent and acked (``inf`` while it has not happened; bulk-
    loaded records were inserted at ``-inf``).
    """

    def __init__(self, bulk_records) -> None:
        #: id -> [value, ins_sent, ins_acked, del_sent, del_acked]
        self._life: "dict[int, list]" = {
            rid: [value, -math.inf, -math.inf, math.inf, math.inf]
            for rid, value in bulk_records
        }
        self._by_value: "list[tuple[int, int]] | None" = None

    def note_batch(self, ops, sent: float, acked: float) -> None:
        """Record one update batch (``(is_delete, id, value)`` triples)
        sent at ``sent`` and acknowledged at ``acked`` (``inf`` if the
        ack never came)."""
        self._by_value = None
        for is_delete, rid, value in ops:
            if is_delete:
                life = self._life[rid]
                life[3], life[4] = sent, acked
            else:
                self._life[rid] = [value, sent, acked, math.inf, math.inf]

    def _candidates(self, lo: int, hi: int):
        if self._by_value is None:
            self._by_value = sorted(
                (life[0], rid) for rid, life in self._life.items()
            )
        start = bisect.bisect_left(self._by_value, (lo, -1))
        stop = bisect.bisect_right(self._by_value, (hi, math.inf))
        return (rid for _, rid in self._by_value[start:stop])

    def bounds(self, lo: int, hi: int, t_start: float, t_end: float):
        """``(must, may)``: ids any correct answer to a search running
        over ``[t_start, t_end]`` must contain, and may contain; an
        answer ``got`` is right when ``must <= got <= may``."""
        must, may = set(), set()
        for rid in self._candidates(lo, hi):
            _, ins_sent, ins_acked, del_sent, del_acked = self._life[rid]
            if ins_sent < t_end and del_acked > t_start:
                may.add(rid)
                if ins_acked < t_start and del_sent > t_end:
                    must.add(rid)
        return must, may

    def live_records(self) -> "list[tuple[int, int]]":
        """Records live once every batch is acked (the drained state)."""
        return [
            (rid, life[0])
            for rid, life in self._life.items()
            if life[3] == math.inf
        ]
