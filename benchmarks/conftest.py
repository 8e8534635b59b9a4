"""Shared fixtures for the benchmark suite.

Benchmarks run at laptop scale (hundreds to thousands of tuples); the
scale mapping to the paper's setup is recorded in README § "Reproducing
the paper's evaluation".  Every fixture is deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.plaintext import PlaintextRangeIndex
from repro.core.registry import make_scheme
from repro.workloads.datasets import usps_like, with_distinct_fraction

try:  # absolute when benchmarks/ is on the path, relative under pytest
    from benchmarks import jsonout
except ImportError:  # pragma: no cover - layout fallback
    import jsonout  # type: ignore[no-redef]


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="export pytest-benchmark results through the shared "
        "BENCH_*.json emitter (benchmarks/jsonout.py)",
    )
    parser.addoption(
        "--bench-json-force",
        action="store_true",
        help="allow --bench-json to overwrite a committed BENCH_*.json "
        "baseline",
    )


def pytest_configure(config):
    """Refuse a committed-baseline target *before* the session runs —
    failing in sessionfinish would discard a whole measured run."""
    path = config.getoption("--bench-json")
    if path:
        jsonout.check_baseline_path(path, config.getoption("--bench-json-force"))


def pytest_sessionfinish(session, exitstatus):
    """Funnel pytest-benchmark stats through the shared JSON emitter."""
    path = session.config.getoption("--bench-json")
    if not path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:  # pytest-benchmark not active
        return
    results = []
    for bench in bench_session.benchmarks:
        stats = bench.stats
        results.append(
            jsonout.result(
                bench.name,
                bench.group or "pytest-benchmark",
                params=dict(bench.params or {}),
                mean_seconds=stats.mean,
                stddev_seconds=stats.stddev,
                min_seconds=stats.min,
                rounds=stats.rounds,
                **{
                    f"extra_{k}": v
                    for k, v in bench.extra_info.items()
                    if isinstance(v, (int, float))
                },
            )
        )
    jsonout.emit_json(
        path,
        "pytest-benchmark",
        results,
        force=session.config.getoption("--bench-json-force"),
    )

BENCH_DOMAIN = 1 << 16
BENCH_N = 600
USPS_DOMAIN = 276_841


def fresh_scheme(name, domain=BENCH_DOMAIN, seed=7, **kwargs):
    extra = {"intersection_policy": "allow"} if name.startswith("constant") else {}
    extra.update(kwargs)
    return make_scheme(name, domain, rng=random.Random(seed), **extra)


@pytest.fixture(scope="session")
def gowalla_records():
    """Near-uniform dataset (95% distinct), the Gowalla stand-in."""
    return with_distinct_fraction(BENCH_N, BENCH_DOMAIN, 0.95, seed=42)


@pytest.fixture(scope="session")
def usps_records():
    """Skewed dataset (5% distinct, Zipf masses), the USPS stand-in."""
    return usps_like(BENCH_N, seed=42)


@pytest.fixture(scope="session")
def gowalla_oracle(gowalla_records):
    return PlaintextRangeIndex(gowalla_records)


def built(name, records, domain=BENCH_DOMAIN, seed=7, **kwargs):
    scheme = fresh_scheme(name, domain, seed, **kwargs)
    scheme.build_index(records)
    return scheme
