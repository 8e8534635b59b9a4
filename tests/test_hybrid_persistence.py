"""HybridRangeStore checkpointing: every lane, plus the dispatch brain.

The PR-4 open item: a hybrid store must survive a restart with *all* of
its adaptive state — per-lane scheme keys and indexes, the owner-side
value histogram (the skew knowledge behind SRC pricing), the calibrated
cost model, and any operator-pinned lane.
"""

from __future__ import annotations

import random

import pytest

from repro import HybridRangeStore
from repro.baselines.plaintext import PlaintextRangeIndex
from repro.errors import IntegrityError
from repro.exec.dispatch import calibrate_cost_model
from repro.storage import InMemoryBackend, SqliteBackend

DOMAIN = 1 << 10


def _populated_store(backend=None, rng_seed=5):
    store = HybridRangeStore(
        domain_size=DOMAIN, backend=backend, rng=random.Random(rng_seed)
    )
    rng = random.Random(77)
    records = [(i, 100) for i in range(60)] + [
        (60 + i, rng.randrange(DOMAIN)) for i in range(140)
    ]
    store.insert_many(records)
    store.flush()
    return store, records


@pytest.mark.parametrize("backend_kind", ["memory", "sqlite", "none"])
def test_round_trip_preserves_results(tmp_path, backend_kind):
    def fresh_backend():
        if backend_kind == "memory":
            return InMemoryBackend()
        if backend_kind == "sqlite":
            return SqliteBackend(tmp_path / f"hyb-{fresh_backend.n}.sqlite")
        return None

    fresh_backend.n = 0
    store, records = _populated_store(fresh_backend())
    oracle = PlaintextRangeIndex(records)
    ranges = [(0, DOMAIN - 1), (50, 150), (100, 100), (900, 1000)]
    before = [store.search(lo, hi).ids for lo, hi in ranges]

    path = tmp_path / "hybrid.rsse"
    store.save(path, passphrase="s3cret")
    fresh_backend.n = 1
    restored = HybridRangeStore.load(
        path, passphrase="s3cret", backend=fresh_backend()
    )
    assert restored.schemes == store.schemes
    for (lo, hi), want in zip(ranges, before):
        got = restored.search(lo, hi)
        assert got.ids == want
        assert got.ids == frozenset(oracle.query(lo, hi))
    # The store keeps working as a live store: new writes, new queries.
    restored.insert(9999, 77)
    assert 9999 in restored.search(77, 77).ids


def test_histogram_survives_and_keeps_routing(tmp_path):
    """The snapshot carries the skew knowledge: restored dispatch
    decisions equal pre-save decisions, including SRC false-positive
    pricing that only the histogram knows."""
    store, _ = _populated_store()
    path = tmp_path / "hybrid.rsse"
    probe_ranges = [(0, DOMAIN - 1), (60, 140), (90, 110), (500, 900)]
    want = [store.search(lo, hi).scheme_chosen for lo, hi in probe_ranges]
    want_hist = store.histogram.dump_counts()
    store.save(path)

    restored = HybridRangeStore.load(path)
    assert restored.histogram.dump_counts() == want_hist
    assert restored.histogram.total == store.histogram.total
    got = [restored.search(lo, hi).scheme_chosen for lo, hi in probe_ranges]
    assert got == want


def test_calibrated_cost_model_survives(tmp_path):
    store, _ = _populated_store()
    model = calibrate_cost_model(probe_labels=8, repeats=1)
    store.dispatcher.cost_model = model
    path = tmp_path / "hybrid.rsse"
    store.save(path)
    restored = HybridRangeStore.load(path)
    assert restored.dispatcher.cost_model.calibrated
    assert restored.dispatcher.cost_model == model


def test_pinned_dispatch_survives(tmp_path):
    store, _ = _populated_store()
    store.dispatch = "logarithmic-brc"
    path = tmp_path / "hybrid.rsse"
    store.save(path)
    restored = HybridRangeStore.load(path)
    assert restored.dispatch == "logarithmic-brc"
    assert (
        restored.search(10, 400).scheme_chosen == "logarithmic-brc"
    )
    restored.dispatch = "auto"  # and the pin is still just a pin


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "not-a-hybrid.bin"
    path.write_bytes(b"RSSESTORE1" + b"\x00" * 40)
    with pytest.raises(IntegrityError):
        HybridRangeStore.load(path)


def test_wrong_passphrase_rejected(tmp_path):
    store, _ = _populated_store()
    path = tmp_path / "hybrid.rsse"
    store.save(path, passphrase="right")
    with pytest.raises(IntegrityError):
        HybridRangeStore.load(path, passphrase="wrong")


def test_load_replaces_stale_backend_state(tmp_path):
    """Loading into a backend that already holds hybrid state wipes the
    stale lanes first — the checkpoint is the source of truth."""
    backend = SqliteBackend(tmp_path / "hyb.sqlite")
    store, records = _populated_store(backend)
    path = tmp_path / "hybrid.rsse"
    store.save(path)
    # Diverge the live backend from the checkpoint...
    store.insert(5000, 3)
    store.flush()
    # ...then reload the checkpoint over it.
    restored = HybridRangeStore.load(path, backend=backend)
    assert 5000 not in restored.search(3, 3).ids
    oracle = PlaintextRangeIndex(records)
    assert restored.search(0, DOMAIN - 1).ids == frozenset(
        oracle.query(0, DOMAIN - 1)
    )


def test_truncated_histogram_chunk_rejected(tmp_path):
    """A histogram chunk whose declared bucket count exceeds its actual
    counts must fail loudly — zero-filled tails would silently misprice
    dispatch."""
    from repro.io.snapshot import _Reader, _chunk
    from repro.rangestore import _HYBRID_MAGIC

    store, _ = _populated_store()
    path = tmp_path / "hybrid.rsse"
    store.save(path)
    blob = path.read_bytes()
    reader = _Reader(blob[len(_HYBRID_MAGIC) :])
    domain, dispatch, model = reader.chunk(), reader.chunk(), reader.chunk()
    histogram = reader.chunk()
    rest = blob[len(_HYBRID_MAGIC) + 8 * 4 + len(domain) + len(dispatch)
                + len(model) + len(histogram) :]
    forged = b"".join(
        [
            _HYBRID_MAGIC,
            _chunk(domain),
            _chunk(dispatch),
            _chunk(model),
            _chunk(histogram[:-16]),  # same bucket count, 2 counts short
            rest,
        ]
    )
    bad = tmp_path / "forged.rsse"
    bad.write_bytes(forged)
    with pytest.raises(IntegrityError):
        HybridRangeStore.load(bad)


def test_retired_cost_model_slots_load_and_route_the_same(tmp_path):
    """The cost-model chunk keeps three retired slots.  A snapshot whose
    slots hold a calibrated process-pool model's crossover and rates
    (as older writers stored) loads and routes exactly like one holding
    the ``inf, 0.0, 0.0`` that ``save`` writes today."""
    from repro.io.snapshot import _Reader, _chunk
    from repro.rangestore import _COST_MODEL_PACK, _HYBRID_MAGIC

    store, _ = _populated_store()
    store.dispatcher.cost_model = calibrate_cost_model(
        probe_labels=8, repeats=1
    )
    path = tmp_path / "hybrid.rsse"
    store.save(path)
    blob = path.read_bytes()
    reader = _Reader(blob[len(_HYBRID_MAGIC) :])
    domain, dispatch, model = reader.chunk(), reader.chunk(), reader.chunk()
    fields = _COST_MODEL_PACK.unpack(model)
    assert fields[6:9] == (float("inf"), 0.0, 0.0)
    head = len(_HYBRID_MAGIC) + 8 * 3 + len(domain) + len(dispatch) + len(model)
    rest = blob[head:]

    def forge(retired) -> "HybridRangeStore":
        packed = _COST_MODEL_PACK.pack(*fields[:6], *retired, fields[9])
        out = tmp_path / f"forged-{retired[0]}.rsse"
        out.write_bytes(
            _HYBRID_MAGIC + _chunk(domain) + _chunk(dispatch)
            + _chunk(packed) + rest
        )
        return HybridRangeStore.load(out)

    pooled_era = forge((2048.0, 4.0e-7, 6.5e-7))
    current = forge((float("inf"), 0.0, 0.0))
    assert pooled_era.dispatcher.cost_model == current.dispatcher.cost_model
    assert current.dispatcher.cost_model == store.dispatcher.cost_model
    probe_ranges = [(0, DOMAIN - 1), (60, 140), (90, 110), (500, 900)]
    for lo, hi in probe_ranges:
        got = pooled_era.search(lo, hi)
        want = current.search(lo, hi)
        assert got.scheme_chosen == want.scheme_chosen
        assert got.ids == want.ids
