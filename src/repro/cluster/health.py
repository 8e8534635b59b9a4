"""Cluster health: aggregate N per-shard stats replies into one view.

Each shard's :class:`~repro.net.RsseNetServer` already answers a merged
stats document (``{"server": core counters, "net": transport
counters}``); this module rolls those up into the operator's cluster
view — totals across reachable shards, a fleet-weighted exec-cache hit
rate, per-index inflight depths, and an explicit list of unreachable
shards.  Pure data-in/data-out: the router collects, this summarizes,
the CLI renders.

PR 10 adds the alert half: :func:`rollup_alerts` merges the per-shard
SLO evaluations of a :class:`~repro.obs.slo.FleetSlos` into one fleet
alert table (worst state wins per objective, attributed to the shard
burning hottest), and :func:`render_alerts` prints it for ``cli.py
top`` / ``cli.py alerts``.
"""

from __future__ import annotations

from repro.cluster.topology import ShardMap
from repro.obs.monitor import fit_cell, fit_num
from repro.obs.slo import STATE_LEVELS, STATE_OK, worst_state

#: Transport counters summed across reachable shards.
_NET_TOTALS = (
    "connections_total",
    "connections_open",
    "frames_in",
    "frames_out",
    "bytes_in",
    "bytes_out",
    "errors",
    "framing_errors",
)

#: Core-server counters summed across reachable shards.
_SERVER_TOTALS = ("handles", "indexes", "stored_bytes")


def summarize(shard_map: ShardMap, probes: "list[dict]") -> dict:
    """Merge per-shard probe results into the cluster health document.

    ``probes`` is one entry per shard, in shard order:
    ``{"reachable": True, "stats": <stats reply>}`` or
    ``{"reachable": False, "error": <str>}``.
    """
    shards = []
    totals = {key: 0 for key in _NET_TOTALS + _SERVER_TOTALS}
    cache_hits = 0
    cache_lookups = 0
    unreachable = []
    for spec, probe in zip(shard_map.shards, probes):
        entry = {
            "shard": spec.shard,
            "address": f"{spec.host}:{spec.port}",
            "reachable": bool(probe.get("reachable")),
        }
        if not entry["reachable"]:
            entry["error"] = probe.get("error", "unreachable")
            unreachable.append(spec.shard)
            shards.append(entry)
            continue
        stats = probe.get("stats", {})
        net = stats.get("net", {})
        server = stats.get("server", {})
        for key in _NET_TOTALS:
            totals[key] += int(net.get(key, 0))
        for key in _SERVER_TOTALS:
            totals[key] += int(server.get(key, 0))
        cache = server.get("exec_cache")
        if cache:
            cache_hits += int(cache.get("hits", 0))
            cache_lookups += int(cache.get("hits", 0)) + int(
                cache.get("misses", 0)
            )
        ops = net.get("ops", {})
        # Tail latency of the query-serving op (PR-8 histograms): the
        # single number a fleet operator scans first.
        search_op = ops.get("multi-search") or ops.get("search") or {}
        entry.update(
            label=net.get("shard", ""),
            stored_bytes=int(server.get("stored_bytes", 0)),
            frames_in=int(net.get("frames_in", 0)),
            errors=int(net.get("errors", 0)),
            inflight_by_index=net.get("inflight_by_index", {}),
            exec_cache=cache,
            ops=ops,
            search_p99_ms=1e3 * float(search_op.get("p99_seconds", 0.0)),
        )
        shards.append(entry)
    return {
        "topology_version": shard_map.version,
        "shard_count": len(shard_map),
        "reachable": len(shard_map) - len(unreachable),
        "unreachable_shards": unreachable,
        "totals": totals,
        # Fleet-weighted: shards answering more lookups weigh more —
        # the number capacity planning actually wants, as opposed to a
        # mean of per-shard ratios.
        "exec_cache_hit_rate": (
            cache_hits / cache_lookups if cache_lookups else 0.0
        ),
        "shards": shards,
    }


def render_health(health: dict) -> str:
    """Human-readable health table (the ``cluster`` CLI's output)."""
    totals = health["totals"]
    summary = (
        f"cluster topology v{health['topology_version']}: "
        f"{health['reachable']}/{health['shard_count']} shards reachable, "
        f"{totals['stored_bytes']} bytes stored, "
        f"{totals['frames_in']} frames served, "
        f"exec-cache hit rate {health['exec_cache_hit_rate']:.1%}"
    )
    lines = [summary]
    header = f"{'shard':>5}  {'address':<21} {'state':<7} {'stored B':>10} {'frames':>8} {'errors':>7} {'p99 ms':>7}  busiest index"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in health["shards"]:
        if not entry["reachable"]:
            lines.append(
                f"{fit_cell(entry['shard'], 5, '>')}  "
                f"{fit_cell(entry['address'], 21)} "
                f"{'DOWN':<7} {'-':>10} {'-':>8} {'-':>7} {'-':>7}  {entry['error']}"
            )
            continue
        inflight = entry.get("inflight_by_index", {})
        busiest = ""
        if inflight:
            index_id, depth = max(
                inflight.items(), key=lambda kv: kv[1].get("peak", 0)
            )
            busiest = (
                f"{index_id} (now {depth.get('current', 0)}, "
                f"peak {depth.get('peak', 0)})"
            )
        label = f" [{entry['label']}]" if entry.get("label") else ""
        lines.append(
            f"{fit_cell(entry['shard'], 5, '>')}  "
            f"{fit_cell(entry['address'], 21)} "
            f"{fit_cell('up' + label, 7)} "
            f"{fit_num(entry['stored_bytes'], 10, 0)} "
            f"{fit_num(entry['frames_in'], 8, 0)} "
            f"{fit_num(entry['errors'], 7, 0)} "
            f"{fit_num(entry.get('search_p99_ms', 0.0), 7, 2)}  {busiest}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fleet alert rollup (the SLO half)
# ---------------------------------------------------------------------------


def rollup_alerts(evaluation: dict) -> dict:
    """Merge a :meth:`FleetSlos.evaluate` result into one alert table.

    Per shard-level objective the *worst* state across shards wins
    (ties broken by the higher long-window burn), and the winning
    shard's numbers are carried so the operator sees who is burning;
    fleet-level objectives (unreachable) pass through as-is.  Returns
    ``{"v": 1, "alerts": [...], "worst": <state>}`` — ``"worst"`` is
    what a headless ``alerts --once`` caller turns into an exit code.
    """
    merged: "dict[str, dict]" = {}
    for address, results in evaluation.get("per_shard", {}).items():
        for result in results:
            current = merged.get(result["name"])
            if current is None:
                current = merged[result["name"]] = {
                    **result,
                    "shards": {},
                    "worst_shard": address,
                }
            current["shards"][address] = result["state"]
            level = STATE_LEVELS.get(result["state"], 0)
            best_level = STATE_LEVELS.get(current["state"], 0)
            if level > best_level or (
                level == best_level
                and result["burn_long"] > current["burn_long"]
            ):
                for key in ("state", "burn_long", "burn_short", "value",
                            "samples"):
                    current[key] = result[key]
                current["worst_shard"] = address
    alerts = list(merged.values())
    for result in evaluation.get("fleet", []):
        alerts.append({**result, "shards": {}, "worst_shard": ""})
    return {
        "v": 1,
        "alerts": alerts,
        "worst": worst_state(a["state"] for a in alerts),
    }


def render_alerts(doc: dict) -> str:
    """Human-readable alert lines for one :func:`rollup_alerts` doc."""
    if not doc.get("alerts"):
        return "slo: no objectives configured"
    lines = []
    for alert in doc["alerts"]:
        state = alert["state"].upper()
        if alert["kind"] == "latency":
            detail = (
                f"{alert['metric']} {1e3 * alert['value']:.2f}ms "
                f"vs {1e3 * alert['bound']:.2f}ms bound, "
                f"burn {alert['burn_long']:.2f}/{alert['burn_short']:.2f} "
                f"({alert['samples']} obs)"
            )
        elif alert["kind"] == "error-rate":
            detail = (
                f"error rate {100.0 * alert['value']:.2f}% "
                f"vs {100.0 * alert['bound']:.2f}% bound, "
                f"burn {alert['burn_long']:.2f}/{alert['burn_short']:.2f}"
            )
        else:
            detail = (
                f"{alert['value']:.0f} unreachable "
                f"(bound {alert['bound']:.0f})"
            )
        line = f"[{state:>4}] {alert['name']}: {detail}"
        if alert.get("worst_shard") and alert["state"] != STATE_OK:
            line += f" — worst shard {alert['worst_shard']}"
        lines.append(line)
    return "\n".join(lines)
