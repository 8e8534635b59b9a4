"""Run one workload: untraced pass, optional traced pass, metrics.

The untraced pass yields every end-to-end number.  The traced pass
repeats the workload on a fresh set-up with the timing wrappers
installed, over the first third of the window, and yields the
per-layer table; the difference between the two is the tracing
overhead.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.e2e import attribution
from benchmarks.e2e.measure import (
    SpanRecorder,
    blocks,
    now,
    peak_rss_mb,
    percentile,
)
from benchmarks.e2e.workloads import OUT_DIR, WORKLOADS

#: Set-ups per untraced pass at full scale; ``setup_s`` is their median.
SETUPS = 3
#: Calls per block (p99 needs ten samples beyond it) and most blocks.
BLOCK_CALLS = 1000
MAX_BLOCKS = 5
#: The traced pass measures this share of the window.
TRACE_SHARE = 1.0 / 3.0


@dataclass
class Result:
    """One workload's numbers and what they rest on."""

    workload: str
    attempted: int
    failed: int
    checked: int
    end_to_end: "dict[str, float]"
    samples: "dict[str, int]"
    per_layer: "dict[str, float]" = field(default_factory=dict)
    traced_failed: int = 0
    ops: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return (
            self.failed == 0
            and self.traced_failed == 0
            and self.checked == self.attempted
        )


def _one_pass(cls, *, seed, smoke, seconds, share, setups, rec, perturb_oracle):
    """open → set-up (×``setups``) → window → verify → close."""
    workload = cls(seed=seed, smoke=smoke, rec=rec, perturb_oracle=perturb_oracle)
    setup_times = []
    try:
        workload.open()
        for attempt in range(setups):
            if attempt:
                workload.teardown()
            started = now()
            workload.setup()
            setup_times.append(now() - started)
        stored = workload.stored_bytes()
        window = workload.window(seconds, share)
        verdict = workload.verify(window)
    finally:
        reports = workload.close()
    return workload, setup_times, stored, window, verdict, reports


def run_workload(name: str, *, seed: int, seconds: float, trace: bool = False,
                 smoke: bool = False, perturb_oracle: bool = False) -> Result:
    """Measure workload ``name``; see the module docstring."""
    cls = WORKLOADS[name]
    workload, setup_times, stored, window, verdict, reports = _one_pass(
        cls, seed=seed, smoke=smoke, seconds=seconds, share=1.0,
        setups=1 if smoke else SETUPS, rec=None, perturb_oracle=perturb_oracle,
    )
    checked, failed, matches = verdict
    attempted = len(window.calls) + window.planned_flushes + (
        1 if window.planned_flushes else 0  # the drained full-domain search
    )
    min_beyond = 0 if smoke else 10
    ok_calls = [c for c in window.calls if c.error is None]
    latencies = [c.end - c.start for c in ok_calls]
    ranges = sum(len(c.ranges) for c in ok_calls)
    # Timings are medians over consecutive blocks of the window's calls
    # (each block large enough for its own p99).
    parts = blocks(ok_calls, per_block=BLOCK_CALLS, most=MAX_BLOCKS)

    def over_blocks(statistic) -> float:
        return statistics.median(statistic(part) for part in parts)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "search_p50_ms": over_blocks(
            lambda part: percentile(
                [c.end - c.start for c in part], 50, min_beyond=min_beyond
            )
        ) * 1e3,
        "search_p99_ms": over_blocks(
            lambda part: percentile(
                [c.end - c.start for c in part], 99, min_beyond=min_beyond
            )
        ) * 1e3,
        "queries_per_s": over_blocks(
            lambda part: sum(len(c.ranges) for c in part)
            / (part[-1].end - part[0].start)
        ),
        "index_bytes_per_record": stored / len(workload.records),
        "response_bytes_per_result": window.response_bytes / max(matches, 1),
        "peak_rss_mb": peak_rss_mb() + sum(r.get("rss_mb", 0.0) for r in reports),
        "failed_ops_share": failed / attempted,
        "oracle_checked_share": checked / attempted,
    }
    samples = {
        "setup_s": len(setup_times),
        "search_p50_ms": len(latencies),
        "search_p99_ms": len(latencies),
        "queries_per_s": ranges,
        "index_bytes_per_record": len(workload.records),
        "response_bytes_per_result": matches,
        "peak_rss_mb": 1 + len(reports),
        "failed_ops_share": attempted,
        "oracle_checked_share": attempted,
    }
    flushes = [(f.acked - f.due) * 1e3 for f in window.flushes if f.error is None]
    if window.planned_flushes:
        end_to_end["flush_p50_ms"] = percentile(flushes, 50, min_beyond=min_beyond)
        samples["flush_p50_ms"] = len(flushes)
    result = Result(
        workload=name, attempted=attempted, failed=failed, checked=checked,
        end_to_end=end_to_end, samples=samples,
        ops={"read_calls": len(window.calls), "ranges": ranges, "blocks": len(parts),
             "flushes": len(window.flushes), "true_matches": matches,
             "window_s": window.wall,
             "consolidations": sum(
                 store["consolidations"]
                 for report in reports
                 for store in report.get("stores", {}).values()
             ),
             **workload.size},
    )
    if trace:
        # Only the call-completion offsets outlive the untraced pass: a
        # heap full of its results would tax the traced one's collector.
        untraced_ends = [call.end - window.t0 for call in window.calls]
        del workload, window, reports, ok_calls
        rec = SpanRecorder("driver")
        traced, _, _, traced_window, traced_verdict, traced_reports = _one_pass(
            cls, seed=seed, smoke=smoke, seconds=seconds, share=TRACE_SHARE,
            setups=1, rec=rec, perturb_oracle=perturb_oracle,
        )
        OUT_DIR.mkdir(exist_ok=True)
        result.per_layer = attribution.per_layer(
            workload=traced, window=traced_window, verdict=traced_verdict,
            driver_spans=rec.export(), reports=traced_reports,
            untraced_ends=untraced_ends,
            trace_path=Path(OUT_DIR) / f"trace-{name}.jsonl",
        )
        result.traced_failed = traced_verdict[1]
    return result
