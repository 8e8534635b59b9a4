"""Per-layer attribution: join the processes' spans, sum by layer.

Input is what the traced pass left behind: the driver's spans, each
server's spans, the window, and a few counters.  The join hangs every
server ``protocol.server`` span under the client ``net.rtt`` span that
caused it (same server, same frame kind, same arrival number),
synthesises one ``cluster.lane`` span per shard and call, and marks
which spans lay on the caller's blocking path.  A layer's ``busy_s``
is summed span time; ``self_s`` is busy minus the interval its child
spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict

from repro.protocol import messages as msg

from benchmarks.e2e.measure import TooFewSamples, now, percentile, self_times

_UPDATE_KINDS = (msg.TAG_UPDATE_REQUEST, msg.TAG_UPDATE_BATCH_REQUEST)


def _join(driver_spans, server_spans, t0: float, t1: float) -> "list[dict]":
    """One span list for the window, parents resolved across processes."""
    spans = []
    for span in list(driver_spans) + list(server_spans):
        span = dict(span)
        span["key"] = (span["proc"], span["id"])
        if span["parent"] is not None:
            span["parent"] = (span["proc"], span["parent"])
        spans.append(span)
    spans = [s for s in spans if t0 <= s["start"] <= t1]
    by_key = {s["key"]: s for s in spans}

    # Client half of the join: (server, kind, seq) -> the rtt span.
    sent = {
        (s["server"], s["kind"], s["seq"]): s
        for s in spans
        if s["name"] == "net.rtt"
    }
    for span in spans:
        if span["name"] != "protocol.server":
            continue
        if span["kind"] in _UPDATE_KINDS:
            span["name"] = "updates.batch"
        cause = sent.get((span["proc"], span["kind"], span["seq"]))
        if cause is None:
            span["orphan"] = True
        else:
            span["parent"] = cause["key"]
            span["op"] = cause["op"]

    # One lane span per (call, shard): from the lane's first span to
    # its last; the lane that ends last is the blocking child.
    lanes = defaultdict(list)
    roots = {}
    for span in spans:
        if span["proc"] != "driver":
            continue
        if span["name"] == "cluster.router":
            roots[span["op"]] = span
        elif span.get("lane") is not None and (
            span["parent"] not in by_key
            or by_key[span["parent"]]["name"] == "cluster.router"
        ):
            lanes[(span["op"], span["lane"])].append(span)
    latest = {}
    for (op, lane), members in lanes.items():
        root = roots.get(op)
        if root is None:
            continue
        key = ("driver", f"lane-{op}-{lane}")
        lane_span = {
            "key": key, "proc": "driver", "id": key[1], "name": "cluster.lane",
            "parent": root["key"], "op": op, "track": "read", "lane": lane,
            "calls": 1,
            "start": min(s["start"] for s in members),
            "end": max(s["end"] for s in members),
        }
        for member in members:
            member["parent"] = key
            member.pop("orphan", None)
        spans.append(lane_span)
        by_key[key] = lane_span
        if op not in latest or lane_span["end"] > latest[op]["end"]:
            latest[op] = lane_span

    # Inherit op / track / blocking down each tree (parents first).
    def resolve(span):
        if "blocking" in span:
            return
        parent = by_key.get(span["parent"]) if span["parent"] is not None else None
        if parent is None:
            span["blocking"] = (
                not span.get("orphan") and span.get("track", "read") == "read"
            )
            span.setdefault("track", "read")
            return
        resolve(parent)
        span["track"] = parent["track"]
        span["op"] = parent["op"]
        span["blocking"] = parent["blocking"]
        if span["name"] == "cluster.lane":
            span["blocking"] = latest[span["op"]] is span

    for span in spans:
        resolve(span)
    return spans


def _codec_replay(transports) -> "tuple[float, float]":
    """Mean encode and decode microseconds per frame, from the frame
    pairs the traced transports captured, replayed after the run."""
    encode = decode = 0.0
    frames = 0
    for transport in transports:
        for request, reply in getattr(transport, "captured", ()):
            for frame, parse in ((request, msg.parse_message), (reply, msg.parse_reply)):
                t = now()
                message = parse(frame)
                decode += now() - t
                t = now()
                message.to_frame()
                encode += now() - t
                frames += 1
    if not frames:
        return 0.0, 0.0
    return encode / frames * 1e6, decode / frames * 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(*, workload, window, verdict, driver_spans, reports,
              untraced_ends, trace_path=None) -> "dict[str, float]":
    """The per-layer table of one traced pass (see ``catalogue.PER_LAYER``).

    Span sums cover the measured window, except the ``storage.write``
    family, which covers set-up too — static workloads only write there.
    """
    t0, t1 = window.t0, window.t0 + window.wall
    server_spans = [s for report in reports for s in report.get("spans", ())]
    spans = _join(driver_spans, server_spans, t0, t1)
    selfs = self_times(spans)

    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)
    blocking_self = unattributed = 0.0
    for span in spans:
        name = span["name"]
        busy[name] += span["end"] - span["start"]
        own[name] += selfs[span["key"]]
        calls[name] += span.get("calls", 1)
        for attr in ("items", "keys", "tokens_expanded", "probes_issued",
                     "probes_coalesced", "bytes_in", "bytes_out"):
            if span.get(attr):
                attrs[f"{name}:{attr}"] += span[attr]
        if span.get("orphan"):
            unattributed += span["end"] - span["start"]
        elif span["blocking"]:
            blocking_self += selfs[span["key"]]
    read_roots = [
        s for s in spans if s["name"] == workload.root_span and s["proc"] == "driver"
    ]
    unattributed += window.wall - sum(s["end"] - s["start"] for s in read_roots)

    # Writes: the whole traced pass, set-up included.
    writes = [
        s
        for s in list(driver_spans) + server_spans
        if s["name"] == "storage.write" and s["start"] <= t1
    ]
    write_bytes = sum(s["bytes"] for s in writes)

    kernel = [n for n in busy if n.startswith("crypto.kernel.")]
    counters = workload.counters
    cache = [counters["cache"]] if "cache" in counters else [
        r["cache"] for r in reports if "cache" in r
    ]
    lookups = sum(c["hits"] + c["misses"] for c in cache)
    stores = [s for r in reports for s in r.get("stores", {}).values()]
    matches = verdict[2]
    ok_calls = [c for c in window.calls if c.error is None]
    ranges = sum(len(c.ranges) for c in ok_calls)
    read_rtt = [s for s in spans if s["name"] == "net.rtt" and s["track"] == "read"]
    flush_ms = [(f.acked - f.due) * 1e3 for f in window.flushes if f.error is None]
    try:
        flush_p50 = percentile(flush_ms, 50, min_beyond=0)
    except TooFewSamples:
        flush_p50 = 0.0
    lane_ends = defaultdict(list)
    for span in spans:
        if span["name"] == "cluster.lane":
            lane_ends[span["op"]].append(span["end"] - span["start"])
    encode_us, decode_us = _codec_replay(workload.transports)

    # Tracing overhead: traced vs untraced time for the same op prefix.
    n = min(len(window.calls), len(untraced_ends))
    traced_prefix = window.calls[n - 1].end - window.t0 if n else 0.0
    untraced_prefix = untraced_ends[n - 1] if n else 0.0

    owner = ("core.search", "core.trapdoor", "core.refine", "cluster.lane")
    table = {
        "core.trapdoor_s": counters.get("core.trapdoor_s", busy["core.trapdoor"]),
        "core.server_s": counters.get("core.server_s", 0.0),
        "core.refine_s": counters.get("core.refine_s", busy["core.refine"]),
        "core.owner_self_s": sum(own[name] for name in owner),
        "core.false_positive_ratio": _ratio(
            counters.get("false_positives", 0), counters.get("raw_results", 0)
        ),
        "crypto.kernel.busy_s": sum(busy[n_] for n_ in kernel),
        "crypto.kernel.calls": sum(calls[n_] for n_ in kernel),
        "crypto.kernel.items": sum(attrs[f"{n_}:items"] for n_ in kernel),
        "crypto.kernel.expand_s": busy["crypto.kernel.expand"],
        "crypto.kernel.subkeys_s": busy["crypto.kernel.subkeys"],
        "crypto.kernel.labels_s": busy["crypto.kernel.labels"],
        "exec.engine.busy_s": busy["exec.engine"],
        "exec.engine.self_s": own["exec.engine"],
        "exec.engine.calls": calls["exec.engine"],
        "exec.tokens_expanded": attrs["exec.engine:tokens_expanded"],
        "exec.probes_issued": attrs["exec.engine:probes_issued"],
        "exec.probes_coalesced": attrs["exec.engine:probes_coalesced"],
        "exec.cache.hit_rate": _ratio(sum(c["hits"] for c in cache), lookups),
        "exec.cache.evictions": sum(c["evictions"] for c in cache),
        "storage.read.busy_s": busy["storage.read"],
        "storage.read.calls": calls["storage.read"],
        "storage.read.keys": attrs["storage.read:keys"],
        "storage.keys_per_result": _ratio(attrs["storage.read:keys"], matches),
        "storage.write.busy_s": sum(s["end"] - s["start"] for s in writes),
        "storage.write.entries": sum(s["entries"] for s in writes),
        "storage.write.bytes": write_bytes,
        "storage.write_amp": _ratio(write_bytes, workload.user_bytes(window)),
        "storage.txn.count": sum(s.get("txn", 0) for s in writes),
        "updates.batch.busy_s": busy["updates.batch"],
        "updates.consolidations": counters.get(
            "consolidations", sum(s["consolidations"] for s in stores)
        ),
        "updates.active_indexes": counters.get(
            "active_indexes", sum(s["active_indexes"] for s in stores)
        ),
        "updates.flush_p50_ms": flush_p50,
        "updates.flush_max_ms": max(flush_ms, default=0.0),
        "updates.writer_lag_max_ms": max(
            ((f.sent - f.due) * 1e3 for f in window.flushes), default=0.0
        ),
        "updates.ingest_ops_per_s": _ratio(
            sum(len(f.ops) for f in window.flushes if f.error is None), window.wall
        ),
        "protocol.server.busy_s": busy["protocol.server"],
        "protocol.server.self_s": own["protocol.server"],
        "protocol.server.frames": calls["protocol.server"] + calls["updates.batch"],
        "protocol.frames_per_call": _ratio(len(read_rtt), len(ok_calls)),
        "protocol.bytes_per_query": _ratio(
            sum(s["bytes_out"] + s.get("bytes_in", 0) for s in read_rtt), ranges
        ),
        "protocol.codec.encode_us_per_frame": encode_us,
        "protocol.codec.decode_us_per_frame": decode_us,
        "net.rtt.busy_s": busy["net.rtt"],
        "net.self_s": own["net.rtt"],
        "net.bytes_out": attrs["net.rtt:bytes_out"],
        "net.bytes_in": attrs["net.rtt:bytes_in"],
        "cluster.router.busy_s": busy["cluster.router"],
        "cluster.router.self_s": own["cluster.router"],
        "cluster.lane.busy_s": busy["cluster.lane"],
        "cluster.straggler_ms": _ratio(
            sum(max(d) - min(d) for d in lane_ends.values()) * 1e3, len(lane_ends)
        ),
        "trace.wall_s": window.wall,
        "trace.overhead_x": _ratio(traced_prefix, untraced_prefix),
        "trace.accounted_share": _ratio(blocking_self + unattributed, window.wall),
        "trace.unattributed_share": _ratio(unattributed, window.wall),
        "trace.spans": len(spans),
    }

    if trace_path is not None:
        with open(trace_path, "w") as fh:
            for span in spans:
                row = {k: v for k, v in span.items() if k != "key"}
                row["self"] = selfs[span["key"]]
                if isinstance(row["parent"], tuple):
                    row["parent"] = list(row["parent"])
                fh.write(json.dumps(row) + "\n")
    return {name: float(value) for name, value in table.items()}
