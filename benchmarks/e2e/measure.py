"""Shared measurement helpers: clock, percentile, span recorder, RSS.

Everything the workloads and the attribution need to take a number
lives here once, and is unit-tested on synthetic inputs
(``test_measure.py``).
"""

from __future__ import annotations

import contextlib
import math
import resource
import threading
import time

#: The one clock.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, which
#: every process on the box shares — so a server subprocess's span
#: timestamps are comparable with the driver's.
now = time.perf_counter


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, p: float, *, min_beyond: int = 10) -> float:
    """Nearest-rank percentile that refuses an unsupported tail.

    Raises :class:`TooFewSamples` unless at least ``min_beyond``
    samples lie beyond the returned rank (so p99 needs 1 000 samples,
    the median 20) — a tail read off a handful of samples is noise.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it "
            f"(need {min_beyond})"
        )
    return ordered[rank - 1]


def blocks(items, *, per_block: int, most: int) -> "list[list]":
    """Split ``items`` into consecutive equal blocks: as many as hold
    ``per_block`` items each, at most ``most``, at least one.  A
    timing is reported as the median over blocks of each block's
    percentile, so a burst of host noise spoils one block, not the
    run's number."""
    items = list(items)
    count = max(1, min(most, len(items) // per_block))
    size = len(items) // count
    out = [items[i * size : (i + 1) * size] for i in range(count - 1)]
    out.append(items[(count - 1) * size :])
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpanRecorder:
    """In-memory span log for one process.

    A span is ``{"name", "start", "end", "parent", "op", ...attrs}``;
    its id is its index in :attr:`spans`.  Nesting follows a per-thread
    stack.  A span opened on a thread with an empty stack (work that
    hopped to a pool thread) attaches to the enclosing open *root* span
    when exactly one is open in the process; otherwise it is flagged
    ``orphan`` and the attribution counts it as unattributed.
    """

    def __init__(self, proc: str, clock=now) -> None:
        self.proc = proc
        self.spans: "list[dict]" = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_roots: "set[int]" = set()

    @contextlib.contextmanager
    def span(self, name: str, *, root: bool = False, coalesce: bool = False,
             **attrs):
        """Record one span; yields its dict so callers can add counts.

        ``coalesce`` reopens the span this thread closed last when it
        has the same name, parent and op (bumping its ``calls``), so a
        per-record loop leaves one span, not thousands.
        """
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.last = None
        parent = stack[-1] if stack else None
        orphan = False
        if parent is None and not root:
            with self._lock:
                if len(self._open_roots) == 1:
                    parent = next(iter(self._open_roots))
                else:
                    orphan = True
        last, local.last = local.last, None
        if (
            coalesce
            and last is not None
            and last[1]["name"] == name
            and last[1]["parent"] == parent
            and last[1]["op"] == attrs.get("op", last[1]["op"])
        ):
            span_id, record = last
            record["calls"] += 1
        else:
            record = {"name": name, "parent": parent, "op": None,
                      "calls": 1, **attrs}
            if orphan:
                record["orphan"] = True
            if record["op"] is None and parent is not None:
                record["op"] = self.spans[parent]["op"]
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(record)
                if root:
                    self._open_roots.add(span_id)
            record["start"] = self._clock()
        stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = self._clock()
            stack.pop()
            local.last = (span_id, record)
            if root:
                with self._lock:
                    self._open_roots.discard(span_id)

    def export(self) -> "list[dict]":
        """Finished spans, tagged with this recorder's process label."""
        return [
            {**span, "proc": self.proc, "id": span_id}
            for span_id, span in enumerate(self.spans)
            if "end" in span
        ]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> "dict[object, float]":
    """Self time per span key: duration minus the part of its interval
    its child spans cover (overlapping children count once).

    ``spans`` are dicts with ``key``, ``parent`` (another span's key or
    ``None``), ``start`` and ``end``.
    """
    children: "dict[object, list]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["key"]: (span["end"] - span["start"])
        - covered(children.get(span["key"], ()), span["start"], span["end"])
        for span in spans
    }
