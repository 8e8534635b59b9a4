"""Cross-layer query tracing: trace ids, span stacks, ring buffers.

One query fans out across layers — ``router.scatter`` on the client,
``server.handle`` per shard, ``engine.wave`` per probe round,
``kernel.batch`` per crypto batch, ``storage.get_many`` per backend
round — and before this module nothing tied those steps together.  A
*trace* is one query's tree of timed spans, keyed by a caller-chosen
trace id that rides the wire in a backward-compatible trailing frame
field (the PR-4 dispatch-hint trick, a second trailer after the hint).

Design constraints, in order:

1. **The untraced hot path pays almost nothing.**  ``span()`` is one
   ``ContextVar.get`` returning a shared no-op context manager when no
   trace is active — the instrumented call sites in the engine and
   kernel run on every query, traced or not, and the ≤1.05× bench gate
   covers them.
2. **Propagation without plumbing.**  The active trace lives in a
   ``contextvars.ContextVar``.  The server enters the trace on the
   connection thread that runs the whole request (engine walk,
   kernel batches, storage rounds all happen synchronously on it), so
   every nested ``span()`` lands in the right trace with zero
   signature changes through the stack.
3. **Bounded memory.**  Finished traces land in per-server
   :class:`TraceBuffer` rings (drop-oldest); span count per trace is
   capped, with a drop counter instead of unbounded growth.

Export: :func:`to_chrome_trace` emits the Chrome ``chrome://tracing``
/ Perfetto JSON object format; :func:`to_jsonl_lines` emits one span
per line for grep-ability.  ``harness/cli.py trace`` drives both.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import random
import threading
import time

#: Hard cap on spans recorded per trace; beyond it spans are counted, not kept.
MAX_SPANS_PER_TRACE = 512

#: Default ring capacity of a server-side :class:`TraceBuffer`.
DEFAULT_TRACE_CAPACITY = 256

#: Environment knob: trace one in every N queries (0/unset = off).
ENV_TRACE_SAMPLE = "REPRO_TRACE_SAMPLE"

#: Environment knob: absolute slow-query threshold in milliseconds.
ENV_SLOW_MS = "REPRO_SLOW_MS"

#: Environment knob: relative slow-query threshold — a multiple of the
#: live per-op p99 maintained by the flight recorder's own histograms.
ENV_SLOW_P99X = "REPRO_SLOW_P99X"

#: Default capture-ring capacity of a :class:`FlightRecorder`.
DEFAULT_SLOW_CAPACITY = 64

#: Observations an op's histogram needs before the relative (``p99 ×``)
#: threshold arms — a cold p99 over three samples is noise, not a bar.
DEFAULT_SLOW_MIN_SAMPLES = 48


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


class _TraceState:
    """Mutable collection state for one in-flight trace."""

    __slots__ = ("trace_id", "spans", "dropped", "depth", "lock", "started_s")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: "list[dict]" = []
        self.dropped = 0
        self.depth = 0
        self.lock = threading.Lock()
        self.started_s = time.time()

    def add(self, span: dict) -> None:
        with self.lock:
            if len(self.spans) >= MAX_SPANS_PER_TRACE:
                self.dropped += 1
            else:
                self.spans.append(span)


_active: "contextvars.ContextVar[_TraceState | None]" = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def current_trace_id() -> "str | None":
    """The active trace id on this thread/context, if any."""
    state = _active.get()
    return state.trace_id if state is not None else None


class _NullSpan:
    """Shared do-nothing span for the untraced fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A timed region recorded into the active trace on exit."""

    __slots__ = ("_state", "_name", "_meta", "_t0", "_token")

    def __init__(self, state: _TraceState, name: str, meta: dict) -> None:
        self._state = state
        self._name = name
        self._meta = meta

    def __enter__(self):
        self._state.depth += 1
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._t0
        state = self._state
        state.depth -= 1
        record = {
            "name": self._name,
            "start_s": time.time() - elapsed,
            "duration_s": elapsed,
            "depth": state.depth,
        }
        if self._meta:
            record["meta"] = self._meta
        if exc_type is not None:
            record["error"] = exc_type.__name__
        state.add(record)
        return False


def span(name: str, **meta):
    """A context manager timing ``name`` inside the active trace.

    When no trace is active this returns a shared no-op — the call
    costs one ContextVar read, which is what keeps always-on
    instrumentation inside the overhead gate.
    """
    state = _active.get()
    if state is None:
        return _NULL_SPAN
    return _Span(state, name, meta)


@contextlib.contextmanager
def start_trace(trace_id: str, buffer: "TraceBuffer | None", root_name: str, **meta):
    """Open trace ``trace_id``, run the body as its root span, collect.

    The finished trace (root span plus everything ``span()`` recorded
    under it) is appended to ``buffer`` on exit — including on error,
    so a failing query still leaves its trace behind.
    """
    state = _TraceState(trace_id)
    token = _active.set(state)
    try:
        with _Span(state, root_name, meta):
            yield state
    finally:
        _active.reset(token)
        if buffer is not None:
            buffer.add(state)


class TraceBuffer:
    """Bounded drop-oldest ring of finished traces (one per server)."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self._traces: "list[dict]" = []
        self._evicted = 0
        self._lock = threading.Lock()

    def add(self, state: _TraceState) -> None:
        record = {
            "trace_id": state.trace_id,
            "started_s": state.started_s,
            "spans": list(state.spans),
            "dropped_spans": state.dropped,
        }
        with self._lock:
            self._traces.append(record)
            if len(self._traces) > self.capacity:
                overflow = len(self._traces) - self.capacity
                del self._traces[:overflow]
                self._evicted += overflow

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def evicted(self) -> int:
        return self._evicted

    def snapshot(self, limit: int = 0) -> "list[dict]":
        """The most recent ``limit`` traces (all of them when 0)."""
        with self._lock:
            traces = list(self._traces)
        if limit and limit > 0:
            traces = traces[-limit:]
        return traces

    def find(self, trace_id: str) -> "list[dict]":
        """Every buffered trace record carrying ``trace_id``."""
        with self._lock:
            return [t for t in self._traces if t["trace_id"] == trace_id]

    def trace_ids(self) -> "set[str]":
        with self._lock:
            return {t["trace_id"] for t in self._traces}

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


# ---------------------------------------------------------------------------
# Probabilistic sampling and the slow-query flight recorder
# ---------------------------------------------------------------------------


def _env_number(name: str, convert, default):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return convert(raw)
    except ValueError:
        return default


class TraceSampler:
    """Per-query coin flip: retain one trace in every ``rate`` queries.

    The always-on production posture: with ``REPRO_TRACE_SAMPLE=100``
    (or ``rate=100``) a fleet traces ~1% of its traffic forever at
    bounded cost, instead of choosing between "trace nothing" and
    "trace everything".  ``rate`` semantics: ``0`` = sampling off (the
    default — explicit client trace ids are unaffected either way),
    ``1`` = every query, ``N`` = one in N in expectation.
    """

    __slots__ = ("rate", "_rng", "_lock")

    def __init__(self, rate: "int | None" = None, *, rng=None) -> None:
        if rate is None:
            rate = _env_number(ENV_TRACE_SAMPLE, int, 0)
        self.rate = max(0, int(rate))
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        return self.rate > 0

    def decide(self) -> bool:
        """One coin flip (thread-safe; Random instances are not)."""
        if self.rate <= 0:
            return False
        if self.rate == 1:
            return True
        with self._lock:
            return self._rng.randrange(self.rate) == 0


class FlightRecorder:
    """Force-retain the span trees of queries that blow a latency bar.

    Tail-based capture: the server collects spans for every query while
    the recorder is armed, and the recorder keeps the full tree of any
    query whose realized latency exceeds its op's threshold — even when
    the sampler's coin flip would have dropped the trace.  A p99
    incident at 1/1000 sampling therefore still leaves an artifact.

    Thresholds, per op, lowest applicable wins:

    - **absolute**: ``threshold_s`` (env ``REPRO_SLOW_MS``, in ms);
    - **relative**: ``p99_factor ×`` the live p99 of the recorder's own
      ``slowlog.latency.<op>`` histogram (env ``REPRO_SLOW_P99X``),
      armed only after ``min_samples`` observations so a cold p99
      cannot page on noise.

    The recorder is *armed* when either threshold is configured;
    unarmed it costs nothing (the server skips span collection for
    unsampled queries entirely).  ``registry`` may be a
    :class:`~repro.obs.MetricsRegistry` or a zero-arg callable
    returning one — the server passes its late-bound registry hook so
    the net layer's per-server registry swap is honored.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SLOW_CAPACITY,
        *,
        threshold_s: "float | None" = None,
        p99_factor: "float | None" = None,
        min_samples: int = DEFAULT_SLOW_MIN_SAMPLES,
        registry=None,
        on_capture=None,
    ) -> None:
        self.capacity = max(1, int(capacity))
        if threshold_s is None:
            ms = _env_number(ENV_SLOW_MS, float, None)
            threshold_s = None if ms is None else ms / 1e3
        self.threshold_s = threshold_s
        if p99_factor is None:
            p99_factor = _env_number(ENV_SLOW_P99X, float, 0.0)
        self.p99_factor = max(0.0, float(p99_factor))
        self.min_samples = max(1, int(min_samples))
        self.registry = registry
        self.on_capture = on_capture
        self._captures: "list[dict]" = []
        self._evicted = 0
        self._lock = threading.Lock()

    @property
    def armed(self) -> bool:
        return self.threshold_s is not None or self.p99_factor > 0

    def _resolve_registry(self):
        registry = self.registry
        if registry is not None and callable(registry):
            registry = registry()
        return registry

    def threshold_for(self, op: str) -> "float | None":
        """The capture bar for ``op`` right now (None = not armed yet)."""
        threshold = self.threshold_s
        if self.p99_factor > 0:
            registry = self._resolve_registry()
            if registry is not None:
                hist = registry.histogram(f"slowlog.latency.{op}")
                if hist.count >= self.min_samples:
                    relative = self.p99_factor * hist.percentile(0.99)
                    if threshold is None or relative < threshold:
                        return relative
        return threshold

    def consider(
        self, op: str, state, elapsed_s: float, *, retained: bool = False,
        meta=None,
    ) -> bool:
        """Judge one finished query; capture and return True when slow.

        The threshold is read *before* this query's latency feeds the
        histogram, so a tail query cannot raise the bar it is judged
        against.  ``retained`` records whether the trace also landed in
        the ordinary ring (explicit id or sampler hit) — captures with
        ``"sampled": false`` are the ones only this recorder saved.
        """
        if not self.armed:
            return False
        threshold = self.threshold_for(op)
        registry = self._resolve_registry()
        if registry is not None:
            registry.histogram(f"slowlog.latency.{op}").observe(elapsed_s)
        if threshold is None or elapsed_s < threshold:
            return False
        record = {
            "captured_at_s": time.time(),
            "op": op,
            "trace_id": state.trace_id,
            "elapsed_s": elapsed_s,
            "threshold_s": threshold,
            "reason": (
                "absolute"
                if self.threshold_s is not None and threshold == self.threshold_s
                else "p99x"
            ),
            "sampled": bool(retained),
            "spans": list(state.spans),
            "dropped_spans": state.dropped,
        }
        if meta:
            record["meta"] = dict(meta)
        with self._lock:
            self._captures.append(record)
            if len(self._captures) > self.capacity:
                overflow = len(self._captures) - self.capacity
                del self._captures[:overflow]
                self._evicted += overflow
        if registry is not None:
            registry.counter("slowlog.captured").inc()
        if self.on_capture is not None:
            try:
                self.on_capture(record)
            except Exception:  # noqa: BLE001 — a capture hook must never fail a query
                pass
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._captures)

    @property
    def evicted(self) -> int:
        return self._evicted

    def snapshot(self, limit: int = 0) -> "list[dict]":
        """The most recent ``limit`` captures (all of them when 0)."""
        with self._lock:
            captures = list(self._captures)
        if limit and limit > 0:
            captures = captures[-limit:]
        return captures

    def clear(self) -> None:
        with self._lock:
            self._captures.clear()


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def to_chrome_trace(traces: "list[dict]", *, label: str = "repro") -> dict:
    """Render trace records as a Chrome-trace (Perfetto) JSON object.

    Each trace becomes one ``pid`` so shards line up as separate
    process rows; span depth maps to ``tid`` so nesting stacks
    visually.  Load the result at ``chrome://tracing`` or
    https://ui.perfetto.dev.
    """
    events = []
    for pid, trace in enumerate(traces):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"{label}:{trace['trace_id']}"},
        })
        for record in trace["spans"]:
            event = {
                "name": record["name"],
                "ph": "X",
                "ts": record["start_s"] * 1e6,
                "dur": record["duration_s"] * 1e6,
                "pid": pid,
                "tid": record.get("depth", 0),
                "args": dict(record.get("meta", {})),
            }
            if "error" in record:
                event["args"]["error"] = record["error"]
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def to_jsonl_lines(traces: "list[dict]") -> "list[str]":
    """One JSON line per span, trace id inlined — grep-friendly."""
    lines = []
    for trace in traces:
        for record in trace["spans"]:
            row = {"trace_id": trace["trace_id"]}
            row.update(record)
            lines.append(json.dumps(row, sort_keys=True))
    return lines
