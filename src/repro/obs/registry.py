"""The metrics registry: counters, gauges, bounded latency histograms.

Before this layer existed, every subsystem kept its own counters in its
own shape — ``ServerStats.op_seconds`` held ``[count, sum]`` pairs (so
tail latency was invisible), the exec cache and crypto kernel each had
a private ``stats()`` dict, and dispatcher decisions were tallied in
yet another place.  :class:`MetricsRegistry` unifies them behind one
surface:

- **Native instruments** — :class:`Counter`, :class:`Gauge` and
  :class:`LatencyHistogram` — for the things the registry *owns*
  (per-op latency distributions, dispatch decision tallies).  The
  histogram uses fixed log-spaced buckets, so p50/p95/p99 are exact to
  within one bucket's width (±~9%) at a hard memory bound of ~100 ints
  per histogram, no matter how many observations arrive.
- **Collectors** — registered callables snapshotting the *existing*
  subsystem stats (exec-cache hits/misses/evictions, kernel
  batch counts, ``dispatch_hints``) so the registry's
  snapshot is the one place an operator reads, without any
  double-bookkeeping in the hot paths that already count.

Snapshots are versioned JSON-ready dicts (``{"v": 1, "seq": ...}``)
served through the existing ``StatsRequest`` frame; *deltas* — only
the instruments touched since a client-supplied cursor — ride the
``MetricsRequest`` frame, so a polling monitor pays for what changed,
not for the world.

Disabling: ``REPRO_OBS=0`` (or ``MetricsRegistry(enabled=False)``)
swaps every instrument for a shared no-op, so the instrumented hot
path costs a dict hit and a no-op call — the ≤1.05× overhead gate in
``benchmarks/bench_observability.py`` pins the enabled path against
exactly this disabled baseline.

Thread safety: every instrument takes its own tiny lock; the registry
itself locks only instrument *creation*, never observation.
"""

from __future__ import annotations

import itertools
import math
import os
import threading

#: Environment switch: ``REPRO_OBS=0`` disables every instrument.
ENV_OBS = "REPRO_OBS"

#: Current snapshot schema version (the ``"v"`` field).
SCHEMA_VERSION = 1


def obs_enabled() -> bool:
    """Whether observability instruments default to enabled."""
    return os.environ.get(ENV_OBS, "").strip().lower() not in ("0", "false", "off")


#: One shared monotonic sequence for *every* registry in the process —
#: a cursor from one server's delta can never alias another's updates.
_SEQ = itertools.count(1)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Counter:
    """Monotonic counter (frames served, decisions made, ...)."""

    __slots__ = ("name", "_value", "_seq", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._seq = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n
            self._seq = next(_SEQ)

    @property
    def value(self) -> int:
        return self._value

    def last_seq(self) -> int:
        return self._seq

    def to_value(self):
        return self._value


class Gauge:
    """Point-in-time value: either set explicitly or pulled from ``fn``."""

    __slots__ = ("name", "_value", "_fn", "_seq", "_lock")

    def __init__(self, name: str, fn=None) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn
        self._seq = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._seq = next(_SEQ)

    @property
    def value(self):
        if self._fn is not None:
            try:
                return self._fn()
            except Exception:  # noqa: BLE001 — a gauge probe must never raise
                return None
        return self._value

    def last_seq(self) -> int:
        # Pull gauges have no update events; they are always "fresh".
        return next(_SEQ) if self._fn is not None else self._seq

    def to_value(self):
        return self.value


def _default_bounds() -> "tuple[float, ...]":
    """Log-spaced latency bucket boundaries: 1µs → ~537s, ×√2 per step.

    58 buckets (plus the two open ends) — fixed, so a histogram's
    memory never grows with traffic, and fine enough that a reported
    percentile is within one ×1.19 step of the true order statistic.
    """
    factor = math.sqrt(2.0)
    bounds = []
    bound = 1e-6
    while bound < 600.0:
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


_LATENCY_BOUNDS = _default_bounds()

#: Public alias: the default latency bucket bounds, shared by every
#: histogram and by the SLO evaluator (which diffs raw bucket counts).
LATENCY_BOUNDS = _LATENCY_BOUNDS


class LatencyHistogram:
    """Fixed-bucket latency histogram with exact-to-a-bucket percentiles.

    ``observe(seconds)`` costs one bisect + three adds under a lock.
    Percentiles walk the cumulative counts and report the geometric
    midpoint of the bucket holding the requested order statistic,
    clamped into ``[min, max]`` — bounded memory, bounded error,
    regardless of observation count.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max",
                 "_seq", "_lock")

    def __init__(self, name: str, bounds: "tuple[float, ...] | None" = None) -> None:
        self.name = name
        self.bounds = bounds if bounds is not None else _LATENCY_BOUNDS
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0
        self._seq = 0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        from bisect import bisect_right

        bucket = bisect_right(self.bounds, seconds)
        with self._lock:
            self._counts[bucket] += 1
            self._count += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds
            self._seq = next(_SEQ)

    def _bucket_mid(self, bucket: int) -> float:
        if bucket <= 0:
            return self.bounds[0] / 2.0
        if bucket >= len(self.bounds):
            return self.bounds[-1]
        lo, hi = self.bounds[bucket - 1], self.bounds[bucket]
        return math.sqrt(lo * hi)  # geometric midpoint of a log bucket

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``), 0.0 when empty."""
        with self._lock:
            if not self._count:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            seen = 0
            for bucket, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    mid = self._bucket_mid(bucket)
                    return min(max(mid, self._min), self._max)
            return self._max  # unreachable: counts sum to _count

    @property
    def count(self) -> int:
        return self._count

    def last_seq(self) -> int:
        return self._seq

    def to_value(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
            minimum = self._min if self._count else 0.0
            maximum = self._max
            buckets = list(self._counts)
        return {
            "count": count,
            "sum_seconds": total,
            "mean_seconds": (total / count) if count else 0.0,
            "min_seconds": minimum,
            "max_seconds": maximum,
            "p50_seconds": self.percentile(0.50),
            "p95_seconds": self.percentile(0.95),
            "p99_seconds": self.percentile(0.99),
            # Raw cumulative bucket counts (aligned to LATENCY_BOUNDS):
            # what the SLO evaluator diffs to count bad observations in
            # a window without storing per-observation data.
            "buckets": buckets,
        }


class _NullInstrument:
    """Shared no-op standing in for every instrument when disabled."""

    __slots__ = ()
    name = "<disabled>"
    value = 0
    count = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, seconds: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def last_seq(self) -> int:
        return 0

    def to_value(self):
        return 0


NULL_INSTRUMENT = _NullInstrument()


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """One process- (or server-) wide home for every instrument.

    Instruments are created on first reference and shared thereafter
    (``registry.counter("x")`` is idempotent).  Collectors are named
    callables returning JSON-ready values, evaluated at snapshot time —
    the pull half of the unification, wrapping the subsystem stats that
    already exist (cache, kernel, dispatch tallies) without touching
    their hot paths.

    Each :class:`~repro.net.RsseNetServer` owns a private registry, so
    two in-process shards never merge their latency distributions; the
    process-wide :func:`default_registry` serves everything that is not
    a server (dispatcher decision counters, in-process harness runs).
    """

    def __init__(self, *, enabled: "bool | None" = None) -> None:
        self.enabled = obs_enabled() if enabled is None else bool(enabled)
        #: Random id minted per registry instance.  Delta cursors are only
        #: meaningful against the registry that issued them — after a server
        #: restart the process-wide ``_SEQ`` restarts too, so an old cursor
        #: would silently suppress updates.  Clients echo this id back and
        #: :func:`metrics_payload` resets mismatched cursors to a full delta.
        self.boot = os.urandom(8).hex()
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, LatencyHistogram]" = {}
        self._collectors: "dict[str, object]" = {}
        self._lock = threading.Lock()

    # -- instrument creation (idempotent) ------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str, fn=None) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, fn)
            return instrument

    def histogram(self, name: str) -> LatencyHistogram:
        if not self.enabled:
            return NULL_INSTRUMENT
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = LatencyHistogram(name)
            return instrument

    def register_collector(self, name: str, fn) -> None:
        """Attach a named pull-source merged into every snapshot."""
        if not self.enabled:
            return
        with self._lock:
            self._collectors[name] = fn

    # -- export --------------------------------------------------------------

    def _collect(self) -> dict:
        collected = {}
        for name, fn in sorted(self._collectors.items()):
            try:
                collected[name] = fn()
            except Exception as exc:  # noqa: BLE001 — snapshots must not raise
                collected[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return collected

    def snapshot(self) -> dict:
        """The full versioned export (the ``StatsResponse`` payload)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "v": SCHEMA_VERSION,
            "enabled": self.enabled,
            "seq": next(_SEQ),
            "boot": self.boot,
            "counters": {n: c.to_value() for n, c in sorted(counters.items())},
            "gauges": {n: g.to_value() for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.to_value() for n, h in sorted(histograms.items())
            },
            "collectors": self._collect(),
        }

    def delta(self, since: int = 0) -> dict:
        """Everything that moved after cursor ``since`` (a prior ``seq``).

        Counters and histograms appear only when updated past the
        cursor; gauges and collectors are point-in-time reads and are
        always included (they are cheap and have no update events).
        ``since=0`` is a full snapshot.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        return {
            "v": SCHEMA_VERSION,
            "enabled": self.enabled,
            "seq": next(_SEQ),
            "boot": self.boot,
            "since": int(since),
            "counters": {
                n: c.to_value()
                for n, c in sorted(counters.items())
                if c.last_seq() > since
            },
            "gauges": {n: g.to_value() for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.to_value()
                for n, h in sorted(histograms.items())
                if h.last_seq() > since
            },
            "collectors": self._collect(),
        }


def metrics_payload(
    registry: MetricsRegistry,
    tracer=None,
    *,
    since: int = 0,
    max_traces: int = 0,
    boot: str = "",
    recorder=None,
    max_slow: int = 0,
) -> dict:
    """The ``MetricsResponse`` body: a delta plus optional trace records.

    One helper shared by the core server (in-process transports) and
    the network front, so both frame pairs serve the same shape.

    ``boot`` is the client's record of which registry incarnation its
    cursor came from.  A non-empty mismatch means the server restarted
    since the cursor was minted — the cursor is discarded (full delta)
    and the payload carries ``"cursor_reset": true`` so the poller can
    resynchronize instead of silently missing updates.  Slow-query
    captures from ``recorder`` ride along when ``max_slow`` asks for
    them, mirroring the ``max_traces`` opt-in.
    """
    if boot and boot != registry.boot:
        payload = registry.delta(0)
        payload["cursor_reset"] = True
    else:
        payload = registry.delta(since)
    if max_traces > 0 and tracer is not None:
        payload["traces"] = tracer.snapshot(limit=max_traces)
    else:
        payload["traces"] = []
    if max_slow > 0 and recorder is not None:
        payload["slow"] = recorder.snapshot(limit=max_slow)
    else:
        payload["slow"] = []
    return payload


# ---------------------------------------------------------------------------
# The process-wide default registry
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default: "MetricsRegistry | None" = None


def default_registry() -> MetricsRegistry:
    """The shared registry for everything that is not a server."""
    global _default
    with _default_lock:
        if _default is None:
            _default = MetricsRegistry()
        return _default


def configure_default_registry(*, enabled: "bool | None" = None) -> MetricsRegistry:
    """Replace the default registry (benchmarks toggling instrumentation).

    Instruments handed out by the old registry keep working in whoever
    cached them; only *future* ``default_registry()`` lookups see the
    replacement — the same contract as ``configure_default_executor``.
    """
    global _default
    with _default_lock:
        _default = MetricsRegistry(enabled=enabled)
        return _default
