"""The metric catalogue: every name, unit, direction and bound, once.

``BENCHMARK.json`` repeats the subset the PR driver reads;
``test_compare.py`` keeps the two in step.

The timing bounds sit at 0.25 because that is three times the run-to-run
spread this 2-vCPU box shows on identical work (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system would see (defined in README.md).

    ``bound`` is the relative worsening that counts as a regression
    (0 means absolute: any worsening regresses).  ``workloads`` limits
    a metric to the shapes that have it.  ``contract`` marks the ones
    reported to the PR driver through ``BENCHMARK.json``: only metrics
    every workload has and that are never 0 qualify.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: "tuple[str, ...] | None" = None
    contract: bool = True


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("search_p50_ms", "ms", "lower", 0.25),
    EndToEnd("search_p99_ms", "ms", "lower", 0.25),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25),
    EndToEnd("flush_p50_ms", "ms", "lower", 0.25,
             workloads=("churn-net-sqlite",), contract=False),
    EndToEnd("index_bytes_per_record", "B", "lower", 0.01),
    EndToEnd("response_bytes_per_result", "B", "lower", 0.05),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("failed_ops_share", "ratio", "lower", 0.0, contract=False),
    EndToEnd("oracle_checked_share", "ratio", "higher", 0.0, contract=False),
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.trapdoor_s", "s", "lower"),
    ("core.server_s", "s", "lower"),
    ("core.refine_s", "s", "lower"),
    ("core.owner_self_s", "s", "lower"),
    ("core.false_positive_ratio", "ratio", "lower"),
    ("crypto.kernel.busy_s", "s", "lower"),
    ("crypto.kernel.calls", "count", "lower"),
    ("crypto.kernel.items", "count", "lower"),
    ("crypto.kernel.expand_s", "s", "lower"),
    ("crypto.kernel.subkeys_s", "s", "lower"),
    ("crypto.kernel.labels_s", "s", "lower"),
    ("exec.engine.busy_s", "s", "lower"),
    ("exec.engine.self_s", "s", "lower"),
    ("exec.engine.calls", "count", "lower"),
    ("exec.tokens_expanded", "count", "lower"),
    ("exec.probes_issued", "count", "lower"),
    ("exec.probes_coalesced", "count", "higher"),
    ("exec.cache.hit_rate", "ratio", "higher"),
    ("exec.cache.evictions", "count", "lower"),
    ("storage.read.busy_s", "s", "lower"),
    ("storage.read.calls", "count", "lower"),
    ("storage.read.keys", "count", "lower"),
    ("storage.keys_per_result", "ratio", "lower"),
    ("storage.write.busy_s", "s", "lower"),
    ("storage.write.entries", "count", "lower"),
    ("storage.write.bytes", "B", "lower"),
    ("storage.write_amp", "ratio", "lower"),
    ("storage.txn.count", "count", "lower"),
    ("updates.batch.busy_s", "s", "lower"),
    ("updates.consolidations", "count", "lower"),
    ("updates.active_indexes", "count", "lower"),
    ("updates.flush_p50_ms", "ms", "lower"),
    ("updates.flush_max_ms", "ms", "lower"),
    ("updates.writer_lag_max_ms", "ms", "lower"),
    ("updates.ingest_ops_per_s", "1/s", "higher"),
    ("protocol.server.busy_s", "s", "lower"),
    ("protocol.server.self_s", "s", "lower"),
    ("protocol.server.frames", "count", "lower"),
    ("protocol.frames_per_call", "ratio", "lower"),
    ("protocol.bytes_per_query", "B", "lower"),
    ("protocol.codec.encode_us_per_frame", "us", "lower"),
    ("protocol.codec.decode_us_per_frame", "us", "lower"),
    ("net.rtt.busy_s", "s", "lower"),
    ("net.self_s", "s", "lower"),
    ("net.bytes_out", "B", "lower"),
    ("net.bytes_in", "B", "lower"),
    ("cluster.router.busy_s", "s", "lower"),
    ("cluster.router.self_s", "s", "lower"),
    ("cluster.lane.busy_s", "s", "lower"),
    ("cluster.straggler_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_x", "ratio", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def end_to_end_for(workload: str) -> "tuple[EndToEnd, ...]":
    """The end-to-end metrics that exist on ``workload``."""
    return tuple(
        metric
        for metric in END_TO_END
        if metric.workloads is None or workload in metric.workloads
    )
