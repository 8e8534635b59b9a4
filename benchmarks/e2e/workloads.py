"""The four deployment-shape workloads.

Each class owns one shape end to end: it generates its data and
operations from the seed, sets the system up from an empty backend,
drives the measured window, and checks every answer against the
plaintext oracle afterwards (outside the timed region).

Load model: one driver process, searches in a closed loop with one
caller; the churn writer is an open loop on its own connection, each
flush timed from the instant it was due.  Never more than two client
threads or connections.  Sizes are fixed constants (``FULL`` /
``SMOKE``), never adapted to the machine; the measured window lasts
``--seconds``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import RangeStore
from repro.cluster import ClusterRouter, make_shard_map
from repro.core.registry import make_scheme
from repro.exec import QueryExecutor
from repro.net import NetRangeStore, NetTransport
from repro.storage import InMemoryBackend, SqliteBackend
from repro.workloads import datasets, queries

from benchmarks.e2e import wrappers
from benchmarks.e2e.launcher import ServerProcess, stored_bytes
from benchmarks.e2e.measure import now
from benchmarks.e2e.oracle import ChurnOracle, StaticOracle, perturbed

#: Where temp SQLite files live: inside the checkout, ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Client transport settings for both wire workloads.  One connection
#: per client keeps the box (nproc = 2) at two connections in total;
#: everything else is the ``NetTransport`` default.
NET_KWARGS = {"pool_size": 1}

#: A wire workload gives up after this many failed calls in a row — a
#: dead server must read as failed ops, not as a hang.
MAX_FAILURES_IN_A_ROW = 3

#: Ranges generated per refill of a workload's operation stream.
_STREAM_CHUNK = 256


@dataclass
class Call:
    """One read call: its interval, inputs, outputs and failure."""

    start: float
    end: float
    ranges: tuple
    results: "list | None"
    error: "str | None" = None


@dataclass
class Flush:
    """One update batch: when it was due, sent and acked."""

    due: float
    sent: float
    acked: float
    ops: tuple
    error: "str | None" = None


@dataclass
class Window:
    """Everything the measured window produced."""

    t0: float
    wall: float
    calls: "list[Call]"
    response_bytes: int
    flushes: "list[Flush]" = field(default_factory=list)
    #: Update batches the window meant to send (churn only).
    planned_flushes: int = 0


class Workload:
    """Shared lifecycle: ``open`` → ``setup`` (repeatable after
    ``teardown``) → ``window`` → ``verify`` → ``close``."""

    name = ""
    why = ""
    #: Name of the traced root span around one read call.
    root_span = "core.search"
    ranges_per_call = 1

    def __init__(self, *, seed: int, smoke: bool = False, rec=None,
                 perturb_oracle: bool = False) -> None:
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.rec = rec
        self.perturb_oracle = perturb_oracle
        self._op = {"read": None, "write": None}
        self._setups = 0
        self._tmp: "Path | None" = None
        self.servers: "list[ServerProcess]" = []
        self.transports: "list[wrappers.CountingTransport]" = []
        self.counters: "dict[str, float]" = {}

    def current_op(self, track: str):
        """The op index the wrappers tag their spans with."""
        return self._op[track]

    # -- to be provided by each shape ------------------------------------

    def open(self) -> None:
        """Start whatever outlives one setup (servers, temp dirs)."""

    def setup(self) -> None:
        """From an empty backend to the first query answerable."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo :meth:`setup` so it can run again on an empty backend."""
        raise NotImplementedError

    def stored_bytes(self) -> int:
        """Bytes at rest in the server-side backend(s)."""
        raise NotImplementedError

    def call(self, ranges: tuple):
        """One read call: ``(result id-sets per range, reply bytes)``."""
        raise NotImplementedError

    def _release(self) -> None:
        """Close what :meth:`setup` built (stores, routers, engines)."""

    # -- shared machinery ------------------------------------------------

    def _tmp_dir(self) -> Path:
        """This run's temp directory (inside the checkout, git-ignored)."""
        if self._tmp is None:
            OUT_DIR.mkdir(exist_ok=True)
            self._tmp = Path(tempfile.mkdtemp(prefix="sqlite-", dir=OUT_DIR))
        return self._tmp

    def close(self) -> "list[dict]":
        """Release everything — safe after a failed ``open`` or
        ``setup`` — and return the server processes' final reports."""
        reports = []
        try:
            self._release()
            for transport in self.transports:
                transport.close()
        finally:
            for server in self.servers:
                try:
                    reports.append(server.stop())
                except (OSError, EOFError, TimeoutError):
                    reports.append({})  # killed or hung: nothing to hand back
            if self._tmp is not None:
                shutil.rmtree(self._tmp, ignore_errors=True)
        return reports

    def _range_stream(self):
        """Endless, seed-determined stream of per-call range tuples."""
        chunk = 0
        per_call = self.ranges_per_call
        while True:
            ranges = self._ranges(
                _STREAM_CHUNK * per_call, self.seed * 1_000_003 + chunk
            )
            for i in range(0, len(ranges), per_call):
                yield tuple(ranges[i : i + per_call])
            chunk += 1

    def _closed_loop(self, done) -> "tuple[float, float, list[Call], int]":
        """One caller, next call only after the previous one returns."""
        calls: "list[Call]" = []
        response_bytes = 0
        failures = 0
        stream = self._range_stream()
        t0 = now()
        while failures < MAX_FAILURES_IN_A_ROW:
            ranges = next(stream)
            self._op["read"] = len(calls)
            start = now()
            if done(start - t0):
                break
            error = results = None
            try:
                if self.rec is None:
                    results, nbytes = self.call(ranges)
                else:
                    with self.rec.span(
                        self.root_span, root=True, op=len(calls), track="read"
                    ):
                        results, nbytes = self.call(ranges)
                response_bytes += nbytes
                failures = 0
            except Exception as exc:  # noqa: BLE001 — a failed op is a result
                error = repr(exc)
                failures += 1
            calls.append(Call(start, now(), ranges, results, error))
        return t0, now() - t0, calls, response_bytes

    def window(self, seconds: float, share: float = 1.0) -> Window:
        """The measured window: closed-loop reads over the first
        ``share`` of ``seconds`` (the traced pass runs a third)."""
        t0, wall, calls, response_bytes = self._closed_loop(
            lambda elapsed: elapsed >= seconds * share
        )
        return Window(t0, wall, calls, response_bytes)

    def oracle_records(self):
        records = self.records
        if self.perturb_oracle:
            records = perturbed(records, self.size["domain"])
        return records

    def verify(self, window: Window) -> "tuple[int, int, int]":
        """``(checked, failed, true matches)`` over the window's calls."""
        oracle = StaticOracle(self.oracle_records())
        checked = failed = matches = 0
        for call in window.calls:
            checked += 1
            ok = call.error is None
            for (lo, hi), got in zip(call.ranges, call.results or ()):
                ok = ok and oracle.check(lo, hi, got)
                matches += oracle.matches(lo, hi)
            failed += not ok
        return checked, failed, matches

    def user_bytes(self, window: Window) -> int:
        """Encoded bytes of the user's operations (write-amp base):
        17 per op — kind, id, value — as ``UpdateOp.encode`` lays out."""
        return 17 * len(self.records)


# ---------------------------------------------------------------------------
# In-process shapes
# ---------------------------------------------------------------------------


class _LocalStore(Workload):
    """An in-process ``RangeStore`` on a benchmark-provided backend."""

    scheme = ""
    scheme_kwargs: dict = {}

    def open(self) -> None:
        self.executor = (
            wrappers.TimedExecutor(self.rec)
            if self.rec is not None
            else QueryExecutor()
        )
        for key in ("trapdoor_s", "server_s", "refine_s"):
            self.counters[f"core.{key}"] = 0.0
        self.counters["false_positives"] = 0
        self.counters["raw_results"] = 0

    def _make_backend(self):
        raise NotImplementedError

    def setup(self) -> None:
        self._setups += 1
        self.raw_backend = self._make_backend()
        backend = self.raw_backend
        if self.rec is not None:
            backend = wrappers.TimedBackend(backend, self.rec)
        self.store = RangeStore.open(
            self.scheme,
            domain_size=self.size["domain"],
            backend=backend,
            executor=self.executor,
            **self.scheme_kwargs,
        )
        self.store.insert_many(self.records)
        self.store.flush()

    def teardown(self) -> None:
        self.store.close()

    def stored_bytes(self) -> int:
        return stored_bytes(self.raw_backend)

    def call(self, ranges: tuple):
        (lo, hi), = ranges
        outcome = self.store.search(lo, hi)
        counters = self.counters
        counters["core.trapdoor_s"] += outcome.trapdoor_seconds
        counters["core.server_s"] += outcome.server_seconds
        counters["core.refine_s"] += outcome.refine_seconds
        counters["false_positives"] += outcome.false_positives
        counters["raw_results"] += outcome.false_positives + len(outcome.ids)
        return [outcome.ids], outcome.response_bytes

    def _release(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            self.counters["consolidations"] = store.consolidations
            self.counters["active_indexes"] = store.active_indexes
            store.close()
        self.counters["cache"] = self.executor.cache.stats()
        self.executor.close()


class LocalConstMem(_LocalStore):
    name = "local-const-mem"
    why = (
        "In-process constant-brc on memory: GGM expansion and per-leaf label "
        "derivation dominate, no codec or sockets; the working set overflows "
        "the expansion cache."
    )
    scheme = "constant-brc"
    scheme_kwargs = {"intersection_policy": "allow"}
    FULL = {"records": 8_000, "domain": 1 << 18, "percent": 0.1}
    SMOKE = {"records": 300, "domain": 1 << 12, "percent": 1.0}

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        size = self.size
        self.records = datasets.uniform(
            size["records"], size["domain"], seed=self.seed
        )

    def _ranges(self, count: int, seed: int):
        size = self.size
        return queries.percent_of_domain_ranges(
            size["domain"], size["percent"], count, seed=seed
        )

    def _make_backend(self):
        return InMemoryBackend()


class LocalSrciSqlite(_LocalStore):
    name = "local-srci-sqlite"
    why = (
        "In-process logarithmic-src-i on a SQLite file, USPS-like skew: "
        "get_many counter walks, two rounds, false positives to fetch and "
        "decrypt; heavy clusters stretch the tail."
    )
    scheme = "logarithmic-src-i"
    FULL = {"records": 4_000, "domain": 1 << 18, "percent": 2.0}
    SMOKE = {"records": 300, "domain": 1 << 12, "percent": 1.0}
    #: The dataset stands in for the paper's (fixed) USPS table, so it is
    #: drawn once, from this constant; ``--seed`` drives the queries.  A
    #: skewed table's tail cost is set by where its few heavy clusters
    #: fall: redrawn per seed, p99 would measure the table, not the program.
    DATASET_SEED = 2016

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        size = self.size
        self.records = datasets.with_distinct_fraction(
            size["records"], size["domain"], 0.05, skew=1.1,
            seed=self.DATASET_SEED,
        )

    _ranges = LocalConstMem._ranges

    def _make_backend(self):
        return SqliteBackend(self._tmp_dir() / f"store-{self._setups}.db")


# ---------------------------------------------------------------------------
# Wire shapes
# ---------------------------------------------------------------------------


class _Wire(Workload):
    """Shared transport plumbing for the two socket workloads."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._sequences: "dict[str, wrappers.FrameSequence]" = {}

    def _transport(self, server: ServerProcess, *, track: str = "read",
                   lane: "int | None" = None):
        inner = NetTransport(server.host, server.port, **NET_KWARGS)
        if self.rec is None:
            transport = wrappers.CountingTransport(inner)
        else:
            transport = wrappers.TimedTransport(
                inner,
                self.rec,
                server=server.label,
                sequence=self._sequences.setdefault(
                    server.label, wrappers.FrameSequence()
                ),
                track=track,
                current_op=self.current_op,
                lane=lane,
            )
        self.transports.append(transport)
        return transport

    def _bytes_in(self) -> int:
        return sum(t.bytes_in for t in self.transports)

    def stored_bytes(self) -> int:
        return sum(server.ask("stored_bytes") for server in self.servers)


class Cluster2LogBrcSmall(_Wire):
    name = "cluster2-logbrc-small"
    why = (
        "ClusterRouter over two shard processes, logarithmic-brc on memory, "
        "small ranges: router scatter, codec, framing and engine overhead "
        "dominate; the slower shard sets each call's time."
    )
    root_span = "cluster.router"
    FULL = {"records": 8_000, "domain": 1 << 16, "range": 64, "per_call": 4}
    SMOKE = {"records": 300, "domain": 1 << 12, "range": 16, "per_call": 4}
    SHARDS = 2

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        size = self.size
        self.ranges_per_call = size["per_call"]
        self.records = datasets.uniform(
            size["records"], size["domain"], seed=self.seed
        )

    def _ranges(self, count: int, seed: int):
        size = self.size
        return queries.fixed_size_ranges(
            size["domain"], size["range"], count, seed=seed
        )

    def open(self) -> None:
        for shard in range(self.SHARDS):
            self.servers.append(
                ServerProcess(f"shard{shard}", trace=self.rec is not None)
            )

    def setup(self) -> None:
        self._setups += 1
        schemes = [
            make_scheme("logarithmic-brc", self.size["domain"])
            for _ in self.servers
        ]
        if self.rec is not None:
            schemes = [
                wrappers.TimedScheme(
                    scheme, self.rec, lane=lane, current_op=self.current_op
                )
                for lane, scheme in enumerate(schemes)
            ]
        shard_map = make_shard_map(
            [(server.host, server.port) for server in self.servers],
            index_id_base=910_000 + 1_000 * self._setups,
        )
        self.router = ClusterRouter(
            schemes,
            shard_map,
            transport_factory=lambda spec: self._transport(
                self.servers[spec.shard], lane=spec.shard
            ),
            scatter_workers=self.SHARDS,
        )
        self.router.outsource(self.records)

    def teardown(self) -> None:
        self.router.retire()
        self.router.close()

    def call(self, ranges: tuple):
        before = self._bytes_in()
        results = self.router.query_many(ranges)
        return results, self._bytes_in() - before

    def user_bytes(self, window: Window) -> int:
        return 16 * len(self.records)  # encode_record: id and value

    def _release(self) -> None:
        router = getattr(self, "router", None)
        if router is not None:
            router.close()


class ChurnNetSqlite(_Wire):
    name = "churn-net-sqlite"
    why = (
        "NetRangeStore over a server process hosting a managed store on "
        "SQLite: paced update batches beside a closed-loop reader, so builds, "
        "merges and transactions compete with reads."
    )
    #: ``bulk`` batches of ``bulk_size`` inserts are the setup; then
    #: ``batches`` update batches of ``batch_ops`` ops (half deletes of
    #: live ids) come due evenly across the window.
    FULL = {"domain": 1 << 16, "percent": 0.5, "bulk": 16, "bulk_size": 160,
            "batches": 256, "batch_ops": 16}
    SMOKE = {"domain": 1 << 12, "percent": 1.0, "bulk": 4, "bulk_size": 32,
             "batches": 16, "batch_ops": 4}
    STEP = 4

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        size = self.size
        self.records = datasets.uniform(
            size["bulk"] * size["bulk_size"], size["domain"], seed=self.seed
        )
        self.batches = self._make_batches()

    _ranges = LocalConstMem._ranges

    def _make_batches(self) -> "list[tuple]":
        """Update batches as ``(is_delete, id, value)`` triples; each
        delete targets an id live before its batch."""
        size = self.size
        rng = random.Random(self.seed + 7)
        live = dict(self.records)
        next_id = len(live)
        batches = []
        for _ in range(size["batches"]):
            ops = []
            victims = rng.sample(sorted(live), size["batch_ops"] // 2)
            for rid in victims:
                ops.append((True, rid, live.pop(rid)))
            for _ in range(size["batch_ops"] - len(victims)):
                value = rng.randrange(size["domain"])
                ops.append((False, next_id, value))
                next_id += 1
            rng.shuffle(ops)
            batches.append(tuple(ops))
            live.update((rid, value) for deleted, rid, value in ops if not deleted)
        return batches

    def open(self) -> None:
        server = ServerProcess(
            "server",
            sqlite_path=str(self._tmp_dir() / "managed.db"),
            trace=self.rec is not None,
        )
        self.servers.append(server)
        self._writer_transport = self._transport(server, track="write")
        self._reader_transport = self._transport(server)

    def _store(self, transport) -> NetRangeStore:
        return NetRangeStore(
            transport,
            domain_size=self.size["domain"],
            scheme="logarithmic-brc",
            index_id=7_000 + self._setups,
            consolidation_step=self.STEP,
        )

    def setup(self) -> None:
        self._setups += 1
        size = self.size
        self.writer = self._store(self._writer_transport)
        for i in range(size["bulk"]):
            start = i * size["bulk_size"]
            self.writer.insert_many(self.records[start : start + size["bulk_size"]])
            self.writer.flush()
        self.reader = self._store(self._reader_transport)

    def teardown(self) -> None:
        self.writer.drop()

    def call(self, ranges: tuple):
        (lo, hi), = ranges
        outcome = self.reader.search(lo, hi)
        return [outcome.ids], outcome.response_bytes

    def _write_loop(self, t0: float, interval: float, batches, flushes: list) -> None:
        """Open loop: batch ``i`` is due at ``t0 + i·interval`` whether
        or not the previous one is back yet; latency counts from then.
        A failed flush ends the loop (the client would re-send its ops
        with the next batch); the batches never sent count as failed."""
        for i, ops in enumerate(batches):
            due = t0 + i * interval
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            self._op["write"] = i
            for is_delete, rid, value in ops:
                (self.writer.delete if is_delete else self.writer.insert)(rid, value)
            sent = now()
            error = None
            try:
                if self.rec is None:
                    self.writer.flush()
                else:
                    with self.rec.span(
                        "updates.flush", root=True, op=i, track="write"
                    ):
                        self.writer.flush()
            except Exception as exc:  # noqa: BLE001 — a failed op is a result
                error = repr(exc)
            flushes.append(Flush(due, sent, now(), ops, error))
            if error is not None:
                return

    def window(self, seconds: float, share: float = 1.0) -> Window:
        # The pacing is the full window's; a share of it sends the first
        # share of the batches.
        batches = self.batches[: max(1, round(len(self.batches) * share))]
        flushes: "list[Flush]" = []
        t0 = now()
        writer = threading.Thread(
            target=self._write_loop,
            args=(t0, seconds / len(self.batches), batches, flushes),
            name="e2e-writer",
        )
        writer.start()
        try:
            # The reader runs until the last batch is acked.
            _, wall, calls, response_bytes = self._closed_loop(
                lambda elapsed: not writer.is_alive()
            )
        finally:
            writer.join()
        return Window(t0, wall, calls, response_bytes, flushes, len(batches))

    def verify(self, window: Window) -> "tuple[int, int, int]":
        oracle = ChurnOracle(self.oracle_records())
        for flush in window.flushes:
            acked = flush.acked if flush.error is None else float("inf")
            oracle.note_batch(flush.ops, flush.sent, acked)
        checked = len(window.flushes)
        failed = sum(flush.error is not None for flush in window.flushes)
        failed += window.planned_flushes - len(window.flushes)  # never sent
        matches = 0
        for call in window.calls:
            checked += 1
            (lo, hi), = call.ranges
            must, may = oracle.bounds(lo, hi, call.start, call.end)
            failed += call.error is not None or not must <= set(call.results[0]) <= may
            matches += len(must)
        # Drained state: every batch acked, so the bounds coincide and a
        # full-domain search must equal the oracle exactly.
        checked += 1
        try:
            final = self.reader.search(0, self.size["domain"] - 1).ids
        except Exception:  # noqa: BLE001 — a failed op is a result
            final = None
        expected = {rid for rid, _ in oracle.live_records()}
        failed += final is None or set(final) != expected
        return checked, failed, matches

    def user_bytes(self, window: Window) -> int:
        ops = len(self.records) + sum(len(f.ops) for f in window.flushes)
        return 17 * ops


WORKLOADS = {
    cls.name: cls
    for cls in (LocalConstMem, LocalSrciSqlite, Cluster2LogBrcSmall, ChurnNetSqlite)
}
