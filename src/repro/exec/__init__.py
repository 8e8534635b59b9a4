"""Query execution engine: planner, parallel executor, expansion cache.

This package is the layer between the RSSE schemes and storage.  Every
scheme's ``Search`` — and the wire-protocol server's — routes through
one :class:`~repro.exec.engine.QueryExecutor`, which

- plans a query into explicit token-expansion and storage-probe stages
  (:mod:`repro.exec.plan`),
- runs independent cover-token walks and GGM leaf expansions on a
  configurable thread pool with deterministic result order, coalescing
  every active walker's label probes into shared ``get_many`` rounds
  (:mod:`repro.exec.engine`),
- routes every batched crypto call — GGM subtree expansion, Π_bas
  label derivation — through one batch
  :class:`~repro.crypto.kernel.SerialKernel`,
- memoizes GGM subtree expansions in a bounded LRU with explicit
  invalidation hooks (:mod:`repro.exec.cache`), and
- selects the cheapest scheme per query shape through a calibrated
  cost model over the planner's estimates (:mod:`repro.exec.dispatch`
  — what :class:`~repro.rangestore.HybridRangeStore` routes with).

Knobs: ``REPRO_EXEC_WORKERS`` (thread count; ``1`` forces the serial
path) and ``REPRO_EXEC_CACHE`` (``0`` disables the expansion cache)
configure the process-wide default engine; pass ``executor=`` to any
scheme, ``EncryptedDatabase`` or ``RsseServer`` for a private one.
"""

from repro.exec.cache import ExpansionCache
from repro.exec.dispatch import (
    DEFAULT_HYBRID_SCHEMES,
    STRATEGIES,
    CostDispatcher,
    CostModel,
    DispatchDecision,
    ValueHistogram,
    calibrate_cost_model,
    normalize_hint,
)
from repro.exec.engine import (
    QueryExecutor,
    configure_default_executor,
    default_executor,
)
from repro.exec.plan import (
    ExecStats,
    PlanStage,
    QueryPlan,
    plan_dprf,
    plan_range,
    plan_sse,
)

__all__ = [
    "CostDispatcher",
    "CostModel",
    "DEFAULT_HYBRID_SCHEMES",
    "DispatchDecision",
    "ExecStats",
    "ExpansionCache",
    "PlanStage",
    "QueryExecutor",
    "QueryPlan",
    "STRATEGIES",
    "ValueHistogram",
    "calibrate_cost_model",
    "configure_default_executor",
    "default_executor",
    "normalize_hint",
    "plan_dprf",
    "plan_range",
    "plan_sse",
]
