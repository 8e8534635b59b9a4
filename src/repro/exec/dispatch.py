"""Cost-based scheme dispatch: pick the cheapest range scheme per query.

The paper's central observation is that no single RSSE construction
dominates: BRC, URC and SRC variants trade index size, false positives
and query cost differently *per query shape*.  PR 3 made the shape of a
query's work explicit (:func:`~repro.exec.plan.plan_range` estimates
expansion/probe stages without keys); this module is the layer that
finally *uses* those estimates for selection:

- :class:`CostModel` converts a plan's abstract units (PRG
  applications, walker derivations, storage probes/rounds, candidate
  fetches) into seconds via calibrated unit weights;
- :func:`calibrate_cost_model` fits those weights from a short measured
  probe run against the actual storage backend (the two currencies the
  planner counts are exactly the two a backend prices differently);
- :class:`CostDispatcher` consults ``plan_range`` once per configured
  strategy per query, scores each plan, and returns a
  :class:`DispatchDecision` naming the cheapest scheme;
- :class:`ValueHistogram` is the owner-side density sketch that lets
  the model price the SRC family's false positives (the owner ingests
  plaintext values, so knowing its own distribution leaks nothing);
- :func:`normalize_hint` sanitizes the dispatcher hint carried by
  :class:`~repro.protocol.messages.MultiSearchRequest` — unknown or
  garbage hints degrade to ``"auto"``, never to an error.

Execution stays where it was: the dispatcher only *chooses*; the chosen
scheme's search still runs through the shared
:class:`~repro.exec.engine.QueryExecutor`.  The
:class:`~repro.rangestore.HybridRangeStore` facade composes the two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import DomainError, InvalidRangeError
from repro.exec.plan import STAGE_EXPAND, QueryPlan, plan_range
from repro.obs.registry import default_registry

#: The wire hint meaning "let the receiver decide".
HINT_AUTO = "auto"


# ---------------------------------------------------------------------------
# Strategy table: how each registry scheme shapes a range query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeStrategy:
    """Static planner-facing description of one registry scheme.

    ``cover`` and ``delegated`` feed straight into
    :func:`~repro.exec.plan.plan_range`; ``rounds`` counts protocol
    round-trips (2 for the interactive SRC-i); ``fp_prone`` marks the
    schemes whose server answer can exceed the true result set, which
    is what the density-based false-positive term prices.
    """

    scheme: str
    cover: str
    delegated: bool = False
    rounds: int = 1
    fp_prone: bool = False


#: Every dispatchable registry scheme (PB is a measured baseline, not a
#: dispatch target — its Bloom-filter walk prices differently).
STRATEGIES: "dict[str, SchemeStrategy]" = {
    s.scheme: s
    for s in (
        SchemeStrategy("quadratic", "single"),
        SchemeStrategy("constant-brc", "brc", delegated=True),
        SchemeStrategy("constant-urc", "urc", delegated=True),
        SchemeStrategy("logarithmic-brc", "brc"),
        SchemeStrategy("logarithmic-urc", "urc"),
        SchemeStrategy("logarithmic-src", "tdag-src", fp_prone=True),
        SchemeStrategy("logarithmic-src-i", "tdag-src", rounds=2, fp_prone=True),
    )
}

#: Default hybrid pair: BRC's exact log-cover vs SRC's single token —
#: the latency trade-off actually visible at query time (the Constant
#: family trades *index size*, which a query dispatcher cannot cash in).
DEFAULT_HYBRID_SCHEMES = ("logarithmic-brc", "logarithmic-src")


def normalize_hint(raw) -> str:
    """Sanitize a dispatcher hint from the wire.

    Accepts ``str`` or ``bytes``; anything unknown, over-long,
    undecodable or falsy collapses to :data:`HINT_AUTO` — a hostile
    hint must never change behaviour beyond "no hint".
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            return HINT_AUTO
    if not isinstance(raw, str):
        return HINT_AUTO
    hint = raw.strip()
    if hint == HINT_AUTO or hint in STRATEGIES:
        return hint
    return HINT_AUTO


# ---------------------------------------------------------------------------
# The cost model: plan units -> seconds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Unit weights (seconds) for the currencies a query plan counts.

    The defaults are laptop-scale HMAC/dict figures — useful relative
    ordering out of the box; :func:`calibrate_cost_model` replaces them
    with measured values for the deployment's actual backend, which is
    what makes the dispatcher backend-aware (a SQLite round-trip is
    ~100× a dict hit, so probe-heavy plans price very differently).
    """

    #: One PRG application during GGM subtree expansion.
    expand_seconds: float = 1.5e-6
    #: One walker's keyword-subkey derivation (+ its per-probe HMAC).
    derive_seconds: float = 2.5e-6
    #: One label looked up inside an already-open storage round.
    probe_seconds: float = 0.5e-6
    #: One ``get_many`` storage round-trip.
    round_seconds: float = 5e-6
    #: One candidate tuple fetched, decrypted and refined owner-side.
    fetch_seconds: float = 8e-6
    #: One extra owner<->server protocol round (interactive schemes).
    rtt_seconds: float = 50e-6
    #: True once the weights came from a measured probe run.
    calibrated: bool = False

    def estimate(
        self,
        plan: QueryPlan,
        *,
        expected_matches: float = 0.0,
        expected_fps: float = 0.0,
        rounds: int = 1,
    ) -> float:
        """Scalar cost (seconds) of one plan under these weights."""
        cost = 0.0
        for stage in plan.stages:
            if stage.kind == STAGE_EXPAND:
                cost += stage.est_cost * self.expand_seconds
        cost += plan.est_leaves * self.derive_seconds
        cost += plan.est_leaves * self.probe_seconds
        cost += plan.est_probe_rounds * self.round_seconds
        cost += (expected_matches + expected_fps) * self.fetch_seconds
        cost += max(0, rounds - 1) * self.rtt_seconds
        return cost


#: Uncalibrated fallback weights (module-level so callers can compare).
DEFAULT_COST_MODEL = CostModel()


def calibrate_cost_model(
    backend=None,
    *,
    probe_labels: int = 64,
    repeats: int = 3,
    kernel=None,
) -> CostModel:
    """Fit :class:`CostModel` weights from a short measured probe run.

    CPU weights (PRG expansion, walker derivation, candidate
    decryption) are timed *through the configured crypto kernel* — the
    code path queries actually take.
    Storage weights come from probing ``backend`` with one-label and
    ``probe_labels``-label ``get_many`` rounds against a scratch
    namespace — misses, so the run leaves no state and costs one
    round-trip per sample.  Each sample repeats ``repeats`` times and
    keeps the minimum (the ``timeit`` rule: the least-perturbed run is
    the honest unit cost).  In-memory timings are used when ``backend``
    is ``None``; the process-wide default kernel when ``kernel`` is.
    """
    from repro.crypto.dprf import DelegationToken
    from repro.crypto.kernel import default_kernel
    from repro.crypto.symmetric import SemanticCipher
    from repro.sse.pibas import posting_label
    from repro.storage.backend import InMemoryBackend

    if kernel is None:
        kernel = default_kernel()

    def best_of(fn: Callable[[], None]) -> float:
        samples = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return min(samples)

    # PRG applications: a level-8 subtree is 255 internal expansions,
    # timed as one kernel batch (what the engine actually issues).
    token = DelegationToken(b"\x17" * 32, 8)
    leaves = 1 << token.level
    descriptors = [token.descriptor()]
    expand_s = best_of(lambda: kernel.expand_subtrees(descriptors)) / max(
        1, leaves - 1
    )

    # Walker derivation: leaf subkeys (batched through the kernel, net
    # of the expansion walk it fuses in) + first posting label.
    subkey_batch_s = best_of(lambda: kernel.derive_leaf_subkeys(descriptors))
    labels = [(b"\x17" * 16, i) for i in range(256)]
    label_s = best_of(lambda: kernel.derive_labels(labels)) / len(labels)
    derive_s = (
        max(0.0, subkey_batch_s - expand_s * (leaves - 1)) / leaves + label_s
    )

    # Candidate refinement: one authenticated decryption of a small blob.
    cipher = SemanticCipher(b"\x2a" * 32)
    blobs = [cipher.encrypt(b"calibration-plaintext-16")] * 64

    def fetch_run() -> None:
        for blob in blobs:
            cipher.decrypt(blob)

    fetch_s = best_of(fetch_run) / len(blobs)

    # Storage probes: missing labels against a scratch namespace, so the
    # run measures round-trip + lookup without mutating anything.
    backend = backend if backend is not None else InMemoryBackend()
    ns = "dispatch-calibration"
    one = [b"calib/miss/one"]
    many = [b"calib/miss/%d" % i for i in range(max(2, probe_labels))]
    round_s = best_of(lambda: backend.get_many(ns, one))
    batch_s = best_of(lambda: backend.get_many(ns, many))
    probe_s = max(0.0, (batch_s - round_s) / (len(many) - 1))

    return CostModel(
        expand_seconds=max(expand_s, 1e-9),
        derive_seconds=max(derive_s, 1e-9),
        probe_seconds=max(probe_s, 1e-9),
        round_seconds=max(round_s, 1e-9),
        fetch_seconds=max(fetch_s + probe_s, 1e-9),
        rtt_seconds=max(2 * round_s, 1e-9),
        calibrated=True,
    )


# ---------------------------------------------------------------------------
# Owner-side density sketch (prices SRC false positives)
# ---------------------------------------------------------------------------


class ValueHistogram:
    """Bucketed plaintext-value histogram the owner maintains on ingest.

    The owner sees every inserted value in the clear (it encrypts
    them), so sketching its own distribution adds zero leakage — and
    lets the dispatcher predict how many *extra* tuples an SRC cover's
    slack span would drag in on skewed data.
    """

    def __init__(self, domain_size: int, buckets: int = 256) -> None:
        if domain_size < 1:
            raise DomainError(f"domain size must be >= 1, got {domain_size}")
        self.domain_size = domain_size
        self.buckets = min(max(1, buckets), domain_size)
        self._width = domain_size / self.buckets
        self._counts = [0] * self.buckets
        self.total = 0
        #: Bumped on every mutation — dispatch decision caches key on it.
        self.generation = 0
        self._prefix: "list[int] | None" = None  # rebuilt lazily

    def _bucket(self, value: int) -> int:
        if not 0 <= value < self.domain_size:
            raise DomainError(
                f"value {value} outside domain [0, {self.domain_size - 1}]"
            )
        return min(self.buckets - 1, int(value / self._width))

    def add(self, value: int, count: int = 1) -> None:
        self._counts[self._bucket(value)] += count
        self.total += count
        self.generation += 1
        self._prefix = None

    def remove(self, value: int, count: int = 1) -> None:
        """Best-effort decrement (tombstones may target absent tuples)."""
        bucket = self._bucket(value)
        taken = min(count, self._counts[bucket])
        self._counts[bucket] -= taken
        self.total -= taken
        self.generation += 1
        self._prefix = None

    def dump_counts(self) -> "list[int]":
        """The raw bucket counts (for checkpoint serialization)."""
        return list(self._counts)

    def restore_counts(self, counts: "list[int]") -> None:
        """Adopt checkpointed bucket counts wholesale.

        Bumps :attr:`generation` so any decision cache keyed on the old
        density is invalidated.
        """
        if len(counts) != self.buckets:
            raise DomainError(
                f"histogram has {self.buckets} buckets, snapshot carries "
                f"{len(counts)}"
            )
        self._counts = [int(c) for c in counts]
        self.total = sum(self._counts)
        self.generation += 1
        self._prefix = None

    def _prefix_sums(self) -> "list[int]":
        """``prefix[b]`` = counts of buckets ``< b`` (rebuilt lazily, so
        a density query is O(1) no matter how wide the range — this
        sits on the dispatch hot path)."""
        if self._prefix is None:
            prefix = [0] * (self.buckets + 1)
            for b, count in enumerate(self._counts):
                prefix[b + 1] = prefix[b] + count
            self._prefix = prefix
        return self._prefix

    def _partial(self, b: int, lo: int, hi: int) -> float:
        """Bucket ``b``'s pro-rata contribution to query ``[lo, hi]``."""
        overlap = min(hi + 1, (b + 1) * self._width) - max(lo, b * self._width)
        if overlap <= 0:
            return 0.0
        return self._counts[b] * min(1.0, overlap / self._width)

    def expected_matches(self, lo: int, hi: int) -> float:
        """Estimated tuples with value in ``[lo, hi]`` (pro-rata buckets).

        Bucket ``b`` covers the real interval ``[b*w, (b+1)*w)``; the
        query covers ``[lo, hi+1)``; edge buckets contribute their
        count scaled by the overlap fraction (exact when the query
        aligns with bucket edges), interior buckets come from prefix
        sums in O(1).
        """
        if hi < lo:
            return 0.0
        lo = max(0, lo)
        hi = min(self.domain_size - 1, hi)
        first, last = self._bucket(lo), self._bucket(hi)
        if first == last:
            return self._partial(first, lo, hi)
        prefix = self._prefix_sums()
        return (
            self._partial(first, lo, hi)
            + self._partial(last, lo, hi)
            + float(prefix[last] - prefix[first + 1])
        )


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanChoice:
    """One considered strategy: its plan and modeled cost."""

    scheme: str
    est_cost: float
    plan: QueryPlan = field(repr=False)


@dataclass(frozen=True)
class DispatchDecision:
    """What the dispatcher decided for one query, and why.

    ``considered`` keeps every scored candidate (configuration order)
    so the decision is auditable; :meth:`summary` is the compact
    ``(scheme, est_cost)`` view :class:`~repro.core.scheme.QueryOutcome`
    carries.
    """

    scheme: str
    est_cost: float
    considered: "tuple[PlanChoice, ...]"
    forced: bool = False

    def summary(self) -> "tuple[tuple[str, float], ...]":
        return tuple((c.scheme, c.est_cost) for c in self.considered)


class CostDispatcher:
    """Scores every configured strategy per query; picks the cheapest.

    Parameters
    ----------
    domain_size:
        The attribute domain the covers are computed over.
    schemes:
        The strategies to consult — each must appear in
        :data:`STRATEGIES`.
    cost_model:
        Unit weights; :data:`DEFAULT_COST_MODEL` when omitted.  Replace
        with a :func:`calibrate_cost_model` fit to make the dispatcher
        backend-aware.
    probe_batch:
        The backend's advertised counter-walk batch width (see
        :class:`~repro.core.split.BackendIndex.probe_batch`) — feeds the
        planner's probe-round estimate.
    density:
        Optional ``(lo, hi) -> expected tuple count`` estimator (e.g.
        :meth:`ValueHistogram.expected_matches`) pricing result fetches
        and SRC false positives.  Without it only structural costs are
        compared.
    forced:
        A scheme name pinning every decision (the ``--dispatch
        <scheme>`` override), or ``None``/``"auto"`` for cost-based
        choice.
    """

    def __init__(
        self,
        domain_size: int,
        schemes: "Sequence[str]" = DEFAULT_HYBRID_SCHEMES,
        *,
        cost_model: "CostModel | None" = None,
        probe_batch: int = 1,
        density: "Callable[[int, int], float] | None" = None,
        forced: "str | None" = None,
    ) -> None:
        if domain_size < 1:
            raise DomainError(f"domain size must be >= 1, got {domain_size}")
        schemes = tuple(schemes)
        if not schemes:
            raise InvalidRangeError("dispatcher needs at least one scheme")
        unknown = [s for s in schemes if s not in STRATEGIES]
        if unknown:
            raise InvalidRangeError(
                f"no dispatch strategy for {unknown[0]!r}; "
                f"choose from {sorted(STRATEGIES)}"
            )
        self.domain_size = domain_size
        self.schemes = schemes
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.probe_batch = max(1, int(probe_batch))
        self.density = density
        self.forced = None
        # Decision (plan) cache: real workloads repeat query shapes, and
        # steady-state dispatch should cost a dict hit, not re-planning.
        # Invalidated whenever anything a decision depends on changes:
        # the density sketch (generation counter), the cost model, or a
        # forced override.  An opaque density callable (no generation
        # counter to watch — e.g. a plain lambda) disables memoization
        # entirely: serving stale decisions silently would be worse
        # than re-planning every query.
        self._cacheable = density is None or hasattr(
            getattr(density, "__self__", None), "generation"
        )
        self._cache: "dict[tuple[int, int], DispatchDecision]" = {}
        self._cache_generation = -1
        #: Per-lane decision tally (scheme name → queries routed there),
        #: cached decisions included — every query counts exactly once.
        #: Mirrored into the default metrics registry for the unified
        #: snapshot.
        self.decisions: "dict[str, int]" = {}
        if forced is not None and forced != HINT_AUTO:
            self.force(forced)

    #: Decision-cache capacity (oldest entries evicted beyond this).
    CACHE_LIMIT = 4096

    def _density_generation(self) -> int:
        source = getattr(self.density, "__self__", None)
        return getattr(source, "generation", 0)

    def clear_cache(self) -> None:
        """Drop memoized decisions (model/density/override changed)."""
        self._cache.clear()
        self._cache_generation = self._density_generation()

    def force(self, scheme: "str | None") -> None:
        """Pin (or with ``None``/``"auto"`` unpin) every future decision."""
        if scheme is None or scheme == HINT_AUTO:
            self.forced = None
            self.clear_cache()
            return
        if scheme not in self.schemes:
            raise InvalidRangeError(
                f"cannot force {scheme!r}: not among configured "
                f"schemes {list(self.schemes)}"
            )
        self.forced = scheme
        self.clear_cache()

    def _score(self, scheme: str, lo: int, hi: int) -> PlanChoice:
        strategy = STRATEGIES[scheme]
        plan = plan_range(
            lo,
            hi,
            cover=strategy.cover,
            domain_size=self.domain_size,
            delegated=strategy.delegated,
            probe_batch=self.probe_batch,
            scheme=scheme,
        )
        matches = fps = 0.0
        if self.density is not None:
            matches = self.density(lo, hi)
            if strategy.fp_prone:
                span_lo = plan.meta.get("span_lo", lo)
                span_hi = plan.meta.get("span_hi", hi)
                if strategy.rounds > 1:
                    # SRC-i: slack lives in *position* space, bounded by
                    # the position cover (<= 4r by Lemma 1), not by the
                    # domain span the round-1 cover touches.
                    fps = 3.0 * matches
                else:
                    fps = max(0.0, self.density(span_lo, span_hi) - matches)
        cost = self.cost_model.estimate(
            plan,
            expected_matches=matches,
            expected_fps=fps,
            rounds=strategy.rounds,
        )
        return PlanChoice(scheme, cost, plan)

    def choose(self, lo: int, hi: int) -> DispatchDecision:
        """Consult every configured strategy once; return the decision.

        With a forced scheme only that strategy is planned (the
        override must stay cheap); otherwise each configured scheme is
        scored exactly once and the cheapest wins, ties broken by
        configuration order.  Decisions are memoized per exact range
        until the density sketch, cost model or override changes.
        """
        if hi < lo:
            raise InvalidRangeError(f"invalid range [{lo}, {hi}]")
        if self._cacheable:
            if self._cache_generation != self._density_generation():
                self.clear_cache()
            cached = self._cache.get((lo, hi))
            if cached is not None:
                self._tally(cached.scheme)
                return cached
        if self.forced is not None:
            choice = self._score(self.forced, lo, hi)
            decision = DispatchDecision(
                choice.scheme, choice.est_cost, (choice,), forced=True
            )
        else:
            considered = tuple(self._score(s, lo, hi) for s in self.schemes)
            best = min(considered, key=lambda c: c.est_cost)
            decision = DispatchDecision(best.scheme, best.est_cost, considered)
        if self._cacheable:
            if len(self._cache) >= self.CACHE_LIMIT:
                self._cache.pop(next(iter(self._cache)))
            self._cache[(lo, hi)] = decision
        self._tally(decision.scheme)
        return decision

    def _tally(self, scheme: str) -> None:
        self.decisions[scheme] = self.decisions.get(scheme, 0) + 1
        default_registry().counter(f"dispatch.decision.{scheme}").inc()

    def recalibrate(self, backend=None, **kwargs) -> CostModel:
        """Refit the unit weights from a measured probe run (in place)."""
        self.cost_model = calibrate_cost_model(backend, **kwargs)
        self.clear_cache()
        return self.cost_model

    def with_cost_model(self, model: CostModel) -> "CostDispatcher":
        """A copy of this dispatcher under different unit weights."""
        clone = CostDispatcher(
            self.domain_size,
            self.schemes,
            cost_model=model,
            probe_batch=self.probe_batch,
            density=self.density,
        )
        clone.forced = self.forced
        return clone


def describe_decision(decision: DispatchDecision) -> str:
    """One-line human summary (harness/bench observability)."""
    ranked = sorted(decision.considered, key=lambda c: c.est_cost)
    parts = ", ".join(f"{c.scheme}~{c.est_cost * 1e6:.0f}us" for c in ranked)
    tag = " (forced)" if decision.forced else ""
    return f"dispatch -> {decision.scheme}{tag}: {parts}"


__all__ = [
    "CostDispatcher",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_HYBRID_SCHEMES",
    "DispatchDecision",
    "HINT_AUTO",
    "PlanChoice",
    "SchemeStrategy",
    "STRATEGIES",
    "ValueHistogram",
    "calibrate_cost_model",
    "describe_decision",
    "normalize_hint",
]
