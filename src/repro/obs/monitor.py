"""Live cluster monitor: poll shard stats, derive rates, render a top view.

:class:`ClusterMonitor` owns one pooled transport per shard address,
polls each shard's ``StatsRequest`` frame concurrently (a down shard
marks its row DOWN instead of failing the sweep), and differences
consecutive samples to turn monotonic op counters into rates — QPS is
*measured between polls*, not since boot, which is what an operator
watching a live table wants.

:func:`render_top` turns one sample into the fixed-width refreshing
table behind ``python -m repro.harness.cli top``; ``--once --json``
callers take :meth:`ClusterMonitor.sample` output directly.

The imports of the net layer are deliberately lazy: ``net/server``
imports ``repro.obs`` for its registry, so a module-level import here
would be circular.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor


def _parse_addr(addr) -> "tuple[str, int]":
    """Accept ``(host, port)`` tuples or ``"host:port"`` strings."""
    if isinstance(addr, str):
        host, _, port = addr.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad shard address {addr!r}; want host:port")
        return host, int(port)
    host, port = addr
    return str(host), int(port)


class ClusterMonitor:
    """Polls a fleet of shard servers and derives per-interval rates.

    With ``collect_metrics=True`` every reachable row additionally
    carries the shard's full registry snapshot under ``"metrics"`` —
    the feed an :class:`~repro.obs.slo.FleetSlos` evaluates objectives
    from (it needs raw histogram buckets, not the digested p99).
    """

    def __init__(
        self, addrs, *, timeout_s: float = 5.0, ssl=None,
        collect_metrics: bool = False,
    ) -> None:
        self.addrs = [_parse_addr(a) for a in addrs]
        if not self.addrs:
            raise ValueError("ClusterMonitor needs at least one shard address")
        self.timeout_s = float(timeout_s)
        self.collect_metrics = bool(collect_metrics)
        self._ssl = ssl
        self._transports: "dict[tuple[str, int], object]" = {}
        self._last: "dict[tuple[str, int], tuple[float, int]]" = {}
        self._pool = ThreadPoolExecutor(
            max_workers=min(16, len(self.addrs)),
            thread_name_prefix="repro-mon",
        )

    # -- polling -------------------------------------------------------------

    def _transport(self, addr):
        transport = self._transports.get(addr)
        if transport is None:
            from repro.net.client import NetTransport

            transport = NetTransport(
                addr[0], addr[1], timeout_s=self.timeout_s, ssl=self._ssl
            )
            self._transports[addr] = transport
        return transport

    def _probe(self, addr) -> dict:
        try:
            stats = self._transport(addr).stats()
        except Exception as exc:  # noqa: BLE001 — a down shard is a row, not a crash
            self._transports.pop(addr, None)
            return {"address": f"{addr[0]}:{addr[1]}", "reachable": False,
                    "error": f"{type(exc).__name__}: {exc}"}
        row = {"address": f"{addr[0]}:{addr[1]}", "reachable": True}
        row.update(self._digest(addr, stats))
        return row

    @staticmethod
    def _total_ops(stats: dict) -> int:
        ops = stats.get("net", {}).get("ops", {})
        total = 0
        for entry in ops.values():
            if isinstance(entry, dict):
                total += int(entry.get("count", 0))
        return total

    def _digest(self, addr, stats: dict) -> dict:
        """Flatten one raw stats payload into a monitor row."""
        now = time.perf_counter()
        server = stats.get("server", {})
        net = stats.get("net", {})
        ops = net.get("ops", {})

        total_ops = self._total_ops(stats)
        qps = 0.0
        prev = self._last.get(addr)
        if prev is not None:
            prev_t, prev_ops = prev
            dt = now - prev_t
            if dt > 0 and total_ops >= prev_ops:
                qps = (total_ops - prev_ops) / dt
        self._last[addr] = (now, total_ops)

        search = ops.get("multi-search") or ops.get("search") or {}
        cache = server.get("exec_cache") or {}
        inflight = net.get("inflight_by_index", {})
        metrics = stats.get("metrics") or {}
        counters = metrics.get("counters") or {}
        row = {
            "shard": net.get("shard", ""),
            "schema_v": stats.get("v"),
            "ops_total": total_ops,
            "qps": qps,
            "p50_ms": 1e3 * float(search.get("p50_seconds", 0.0)),
            "p99_ms": 1e3 * float(search.get("p99_seconds", 0.0)),
            "inflight": sum(
                int(entry.get("current", 0))
                for entry in inflight.values()
                if isinstance(entry, dict)
            ),
            "cache_hit_rate": cache.get("hit_rate"),
            "errors": int(net.get("errors", 0)) + int(net.get("framing_errors", 0)),
            "stored_bytes": int(server.get("stored_bytes", 0)),
            # Live-ingest visibility (PR 9 managed stores): the
            # updates.* counter family, keyed without its prefix.
            "updates": {
                name.split(".", 1)[1]: int(value)
                for name, value in counters.items()
                if name.startswith("updates.")
            },
        }
        if self.collect_metrics:
            row["metrics"] = metrics
        return row

    def sample(self) -> dict:
        """One concurrent sweep over every shard; never raises."""
        rows = list(self._pool.map(self._probe, self.addrs))
        return {
            "v": 1,
            "sampled_at_s": time.time(),
            "shard_count": len(rows),
            "reachable": sum(1 for r in rows if r.get("reachable")),
            "shards": rows,
        }

    def close(self) -> None:
        self._pool.shutdown(wait=False)
        for transport in self._transports.values():
            try:
                transport.close()
            except Exception:  # noqa: BLE001
                pass
        self._transports.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_rate(rate) -> str:
    if rate is None:
        return "-"
    return f"{100.0 * rate:5.1f}%"


def fit_cell(text, width: int, align: str = "<") -> str:
    """``text`` at exactly ``width`` columns: truncate with ``…``, pad.

    Every cell in the top/health tables goes through this (or
    :func:`fit_num`), so one hostile value — a 40-char address, a
    runaway counter — can no longer shear a whole fixed-width table
    out of alignment.
    """
    text = str(text)
    if len(text) > width:
        text = text[: max(0, width - 1)] + "…"
    return f"{text:{align}{width}}"


def fit_num(value, width: int, decimals: int = 1) -> str:
    """A number at exactly ``width`` columns, degrading gracefully.

    Normal magnitudes render as fixed-point; values too wide for the
    column fall back to a compact ``k``/``M``/``G`` suffix; anything
    still wider is hard-clipped.  Always exactly ``width`` chars.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        return fit_cell("?", width, ">")
    rendered = f"{number:{width}.{decimals}f}"
    if len(rendered) <= width:
        return rendered
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(number) >= factor:
            compact = f"{number / factor:.1f}{suffix}"
            if len(compact) <= width:
                return f"{compact:>{width}}"
    return fit_cell(f"{number:.0f}", width, ">")


def render_top(sample: dict, alerts: "dict | None" = None) -> str:
    """A fixed-width per-shard table for one monitor sample.

    ``alerts`` (a ``rollup_alerts`` document from
    ``repro.cluster.health``) appends the SLO state lines under the
    table when provided.
    """
    lines = [
        f"{'shard':>6}  {'address':<21} {'state':<5} {'qps':>8} "
        f"{'p50ms':>8} {'p99ms':>8} {'infl':>5} {'cache':>7} "
        f"{'errs':>5}"
    ]
    for row in sample["shards"]:
        if not row.get("reachable"):
            lines.append(
                f"{'?':>6}  {fit_cell(row['address'], 21)} {'DOWN':<5} "
                f"{row.get('error', '')}"
            )
            continue
        lines.append(
            f"{fit_cell(row.get('shard', ''), 6, '>')}  "
            f"{fit_cell(row['address'], 21)} {'UP':<5} "
            f"{fit_num(row['qps'], 8)} {fit_num(row['p50_ms'], 8, 2)} "
            f"{fit_num(row['p99_ms'], 8, 2)} "
            f"{fit_num(row['inflight'], 5, 0)} "
            f"{fit_cell(_fmt_rate(row.get('cache_hit_rate')), 7, '>')} "
            f"{fit_num(row['errors'], 5, 0)}"
        )
    lines.append(
        f"shards {sample['reachable']}/{sample['shard_count']} reachable"
    )
    if alerts is not None:
        from repro.cluster.health import render_alerts

        lines.append(render_alerts(alerts))
    return "\n".join(lines)
