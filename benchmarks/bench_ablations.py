"""Ablation benchmarks (E-A1…E-A3, see README) plus crypto micro-benches.

These quantify the design choices the paper argues qualitatively:
URC's canonicality premium over BRC, the TDAG blow-up factor, LSM
consolidation cost vs consolidation step, and the primitive costs that
dominate every scheme (PRF, GGM step, semantic encryption).
"""

from __future__ import annotations

import random

import pytest

from repro.core.registry import make_scheme
from repro.crypto.prf import generate_key, prf
from repro.crypto.prg import g
from repro.crypto.symmetric import SemanticCipher
from repro.harness.experiments import ablation_tdag, ablation_urc
from repro.updates import BatchUpdateManager, insert


def test_ablation_urc_canonicality(benchmark):
    rows = benchmark.pedantic(
        ablation_urc,
        kwargs=dict(domain=1 << 16, range_sizes=(100,), trials=100, seed=1),
        rounds=1,
        iterations=1,
    )
    ((_, brc_min, brc_max, urc_min, urc_max),) = rows
    assert urc_min == urc_max, "URC must be canonical"
    assert brc_max - brc_min >= 1, "BRC must vary with position"


def test_ablation_tdag_blowup(benchmark):
    avg, worst = benchmark.pedantic(
        ablation_tdag,
        kwargs=dict(domain=1 << 16, trials=300, seed=1),
        rounds=1,
        iterations=1,
    )
    assert worst <= 4.0, "Lemma 1 violated"


@pytest.mark.parametrize("step", (2, 8))
def test_ablation_consolidation_step(benchmark, step):
    def ingest():
        seeder = random.Random(step)
        mgr = BatchUpdateManager(
            lambda: make_scheme(
                "logarithmic-brc", 1 << 12, rng=random.Random(seeder.randrange(2**62))
            ),
            consolidation_step=step,
            rng=random.Random(3),
        )
        next_id = 0
        for _ in range(8):
            mgr.apply_batch([insert(next_id + i, (next_id + i) % (1 << 12)) for i in range(16)])
            next_id += 16
        return mgr

    mgr = benchmark.pedantic(ingest, rounds=2, iterations=1)
    benchmark.extra_info["active_indexes"] = mgr.active_indexes
    benchmark.extra_info["reencrypted"] = mgr.stats.tuples_reencrypted


class TestPrimitives:
    def test_prf_evaluation(self, benchmark):
        key = generate_key(random.Random(1))
        benchmark(prf, key, b"benchmark-message")

    def test_ggm_step(self, benchmark):
        seed = generate_key(random.Random(2))
        benchmark(g, seed)

    def test_semantic_encrypt(self, benchmark):
        cipher = SemanticCipher(generate_key(random.Random(3)))
        benchmark(cipher.encrypt, b"p" * 64)

    def test_semantic_round_trip(self, benchmark):
        cipher = SemanticCipher(generate_key(random.Random(3)))
        blob = cipher.encrypt(b"p" * 64)
        benchmark(cipher.decrypt, blob)
