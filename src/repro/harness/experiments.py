"""Regeneration of every table and figure in the paper's evaluation.

Each ``figN``/``tableN`` function reproduces the corresponding artifact
of Section 8 / Appendix A at laptop scale (the scale factors are the
module constants below; README § "Reproducing the paper's evaluation"
gives the rationale).  They return
:class:`~repro.harness.metrics.Series` objects; the CLI renders them as
the same rows/series the paper plots.

Scheme grouping follows the paper exactly: BRC and URC variants of the
same family have identical index costs (Figures 5, Table 2) and are
reported as one curve there, but appear separately in Figure 8 where the
cover technique changes the token count.
"""

from __future__ import annotations

import random
import time

from repro.baselines.plaintext import PlaintextRangeIndex
from repro.baselines.sse_floor import SseFloor
from repro.core.registry import make_scheme
from repro.covers.brc import best_range_cover
from repro.covers.tdag import Tdag
from repro.covers.urc import uniform_range_cover
from repro.harness.metrics import Series, mib, timed
from repro.updates import BatchUpdateManager, insert
from repro.workloads.datasets import usps_like, with_distinct_fraction
from repro.workloads.queries import fixed_size_ranges, percent_of_domain_ranges

#: Default laptop-scale parameters (the paper's originals in comments).
FIG5_SIZES = (500, 1000, 1500, 2000, 2500)  # paper: 0.5M … 5M
FIG5_DOMAIN = 1 << 20  # paper: 103,017,914 (~2^27)
FIG67_N = 3000  # paper: full datasets
FIG67_GOWALLA_DOMAIN = 1 << 18  # scaled with n; range % is what matters
FIG67_QUERIES_PER_POINT = 5  # paper: 200K total
FIG6_QUERIES_PER_POINT = 20  # FP-rate averaging is cheap; use more
FIG8_DOMAIN = 1 << 20  # paper: 2^20 (identical!)
FIG8_QUERIES_PER_SIZE = 50  # paper: 1000
USPS_N = 2000  # paper: 389,032


def _gowalla(n: int, domain: int = FIG5_DOMAIN, seed: int = 42):
    return with_distinct_fraction(n, domain, 0.95, skew=0.0, seed=seed)


def _usps(n: int = USPS_N, seed: int = 42):
    return usps_like(n, seed=seed)


def _fresh(name: str, domain: int, seed: int = 7, **kwargs):
    scheme_kwargs = dict(rng=random.Random(seed))
    if name.startswith("constant"):
        scheme_kwargs["intersection_policy"] = "allow"
    scheme_kwargs.update(kwargs)
    return make_scheme(name, domain, **scheme_kwargs)


# ---------------------------------------------------------------------------
# Figure 5: index size and construction time vs dataset size (Gowalla)
# ---------------------------------------------------------------------------

#: One representative per cost-identical pair, exactly as the paper plots.
_FIG5_SCHEMES = (
    ("constant-brc/urc", "constant-brc"),
    ("logarithmic-brc/urc", "logarithmic-brc"),
    ("logarithmic-src", "logarithmic-src"),
    ("logarithmic-src-i", "logarithmic-src-i"),
)


def fig5(
    sizes: "tuple[int, ...]" = FIG5_SIZES,
    *,
    domain: int = FIG5_DOMAIN,
    include_pb: bool = True,
    seed: int = 42,
) -> "tuple[Series, Series]":
    """Figure 5(a) index size [MiB] and 5(b) construction time [s]."""
    size_series = Series("Fig 5(a) — Index size (Gowalla-like)", "n", "MiB")
    time_series = Series("Fig 5(b) — Construction time (Gowalla-like)", "n", "seconds")
    for n in sizes:
        records = _gowalla(n, domain, seed)
        sizes_row: dict[str, float] = {}
        times_row: dict[str, float] = {}
        for label, name in _FIG5_SCHEMES:
            scheme = _fresh(name, domain, seed)
            _, build_s = timed(scheme.build_index, records)
            sizes_row[label] = mib(scheme.index_size_bytes())
            times_row[label] = build_s
        if include_pb:
            pb = _fresh("pb", domain, seed)
            _, build_s = timed(pb.build_index, records)
            sizes_row["pb"] = mib(pb.index_size_bytes())
            times_row["pb"] = build_s
        size_series.add(n, sizes_row)
        time_series.add(n, times_row)
    return size_series, time_series


# ---------------------------------------------------------------------------
# Table 2: index costs on the skewed USPS-like dataset
# ---------------------------------------------------------------------------


def table2(
    n: int = USPS_N, *, include_pb: bool = True, seed: int = 42
) -> "list[tuple[str, float, float]]":
    """Table 2 rows: (scheme, index MiB, construction seconds)."""
    records = _usps(n, seed)
    domain = 276_841
    rows: list[tuple[str, float, float]] = []
    for label, name in _FIG5_SCHEMES:
        scheme = _fresh(name, domain, seed)
        _, build_s = timed(scheme.build_index, records)
        rows.append((label, mib(scheme.index_size_bytes()), build_s))
    if include_pb:
        pb = _fresh("pb", domain, seed)
        _, build_s = timed(pb.build_index, records)
        rows.append(("pb", mib(pb.index_size_bytes()), build_s))
    return rows


# ---------------------------------------------------------------------------
# Figure 6: false-positive rate vs range size (SRC vs SRC-i)
# ---------------------------------------------------------------------------


def fig6(
    dataset: str = "gowalla",
    *,
    n: int = FIG67_N,
    queries_per_point: int = FIG6_QUERIES_PER_POINT,
    percents: "tuple[float, ...]" = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    seed: int = 42,
) -> Series:
    """Figure 6(a)/(b): average FP rate per range-size percentage."""
    records, domain = _dataset(dataset, n, seed)
    series = Series(
        f"Fig 6 — False-positive rate ({dataset}-like)",
        "range % of domain",
        "FP rate",
    )
    schemes = {
        "logarithmic-src": _fresh("logarithmic-src", domain, seed),
        "logarithmic-src-i": _fresh("logarithmic-src-i", domain, seed),
    }
    for scheme in schemes.values():
        scheme.build_index(records)
    for i, percent in enumerate(percents):
        queries = percent_of_domain_ranges(
            domain, percent, queries_per_point, seed=seed + i
        )
        row: dict[str, float] = {}
        for label, scheme in schemes.items():
            rates = [scheme.query(lo, hi).false_positive_rate for lo, hi in queries]
            row[label] = sum(rates) / len(rates)
        series.add(percent, row)
    return series


# ---------------------------------------------------------------------------
# Figure 7: search time vs range size (all schemes + SSE floor)
# ---------------------------------------------------------------------------

_FIG7_SCHEMES = (
    ("constant-brc/urc", "constant-brc"),
    ("logarithmic-brc/urc", "logarithmic-brc"),
    ("logarithmic-src", "logarithmic-src"),
    ("logarithmic-src-i", "logarithmic-src-i"),
)


def fig7(
    dataset: str = "gowalla",
    *,
    n: int = FIG67_N,
    queries_per_point: int = FIG67_QUERIES_PER_POINT,
    percents: "tuple[float, ...]" = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    include_pb: bool = True,
    seed: int = 42,
) -> Series:
    """Figure 7(a)/(b): average server search seconds per range size."""
    records, domain = _dataset(dataset, n, seed)
    series = Series(
        f"Fig 7 — Search time ({dataset}-like)", "range % of domain", "seconds"
    )
    schemes = [(label, _fresh(name, domain, seed)) for label, name in _FIG7_SCHEMES]
    for _, scheme in schemes:
        scheme.build_index(records)
    pb = None
    if include_pb:
        pb = _fresh("pb", domain, seed)
        pb.build_index(records)
    oracle = PlaintextRangeIndex(records)
    floor = SseFloor(len(records), rng=random.Random(seed))
    for i, percent in enumerate(percents):
        queries = percent_of_domain_ranges(
            domain, percent, queries_per_point, seed=seed + i
        )
        row: dict[str, float] = {}
        for label, scheme in schemes:
            row[label] = sum(
                scheme.query(lo, hi).server_seconds for lo, hi in queries
            ) / len(queries)
        if pb is not None:
            row["pb"] = sum(
                pb.query(lo, hi).server_seconds for lo, hi in queries
            ) / len(queries)
        # The SSE floor: time to retrieve exactly r postings per query.
        floor_total = 0.0
        for lo, hi in queries:
            r = oracle.count(lo, hi)
            _, seconds = timed(floor.retrieve, r)
            floor_total += seconds
        row["sse-floor"] = floor_total / len(queries)
        series.add(percent, row)
    return series


# ---------------------------------------------------------------------------
# Figure 8: query size and query generation time at the owner
# ---------------------------------------------------------------------------


def fig8(
    *,
    domain: int = FIG8_DOMAIN,
    range_sizes: "tuple[int, ...]" = (1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    queries_per_size: int = FIG8_QUERIES_PER_SIZE,
    seed: int = 42,
) -> "tuple[Series, Series]":
    """Figure 8(a) query bytes and 8(b) trapdoor generation seconds.

    Dataset-independent (the paper stresses this): only the covers and
    token formats matter, so schemes are built over a tiny dataset.
    """
    records = [(0, 0)]
    names = (
        ("constant-brc", "constant-brc"),
        ("constant-urc", "constant-urc"),
        ("logarithmic-brc", "logarithmic-brc"),
        ("logarithmic-urc", "logarithmic-urc"),
        ("logarithmic-src", "logarithmic-src"),
        ("logarithmic-src-i", "logarithmic-src-i"),
    )
    schemes = [(label, _fresh(name, domain, seed)) for label, name in names]
    for _, scheme in schemes:
        scheme.build_index(records)
    size_series = Series("Fig 8(a) — Query size", "range size", "bytes")
    time_series = Series("Fig 8(b) — Query generation time", "range size", "ms")
    for i, range_size in enumerate(range_sizes):
        queries = fixed_size_ranges(domain, range_size, queries_per_size, seed=seed + i)
        bytes_row: dict[str, float] = {}
        ms_row: dict[str, float] = {}
        for label, scheme in schemes:
            total_bytes = 0
            start = time.perf_counter()
            for lo, hi in queries:
                token = scheme.trapdoor(lo, hi)
                total_bytes += scheme.token_size_bytes(token)
            elapsed = time.perf_counter() - start
            if label == "logarithmic-src-i":
                # Interactive: the paper counts both rounds' tokens (2×24B);
                # the round-2 token has identical format and cost.
                total_bytes *= 2
                elapsed *= 2
            bytes_row[label] = total_bytes / len(queries)
            ms_row[label] = elapsed / len(queries) * 1000.0
        size_series.add(range_size, bytes_row)
        time_series.add(range_size, ms_row)
    return size_series, time_series


# ---------------------------------------------------------------------------
# Table 1: empirical validation of the asymptotic claims
# ---------------------------------------------------------------------------


def table1(
    *,
    n_small: int = 600,
    n_large: int = 2400,
    domain: int = 1 << 16,
    seed: int = 42,
) -> "list[tuple[str, str, float, str]]":
    """Empirical growth check of Table 1's storage column.

    Builds each scheme at two dataset sizes and reports the measured
    index growth factor against the asymptotic prediction for a 4×
    increase in n (storage is Θ(n·f(m)) for every scheme, so the factor
    must be ≈ 4).  Returns (scheme, claimed storage, measured factor,
    verdict) rows.
    """
    claims = {
        "constant-brc": "O(n)",
        "logarithmic-brc": "O(n log m)",
        "logarithmic-src": "O(n log m)",
        "logarithmic-src-i": "O(n log m)",
    }
    rows: list[tuple[str, str, float, str]] = []
    growth = n_large / n_small
    for name, claim in claims.items():
        sizes = []
        for n in (n_small, n_large):
            records = _gowalla(n, domain, seed)
            scheme = _fresh(name, domain, seed)
            scheme.build_index(records)
            sizes.append(scheme.index_size_bytes())
        factor = sizes[1] / sizes[0]
        verdict = "linear-in-n ok" if factor < growth * 1.25 else "SUPRALINEAR"
        rows.append((name, claim, factor, verdict))
    return rows


# ---------------------------------------------------------------------------
# Ablations (ours; README § "Reproducing the paper's evaluation", E-A1..E-A3)
# ---------------------------------------------------------------------------


def ablation_urc(
    *, domain: int = 1 << 20, range_sizes: "tuple[int, ...]" = (10, 100, 1000), trials: int = 200, seed: int = 42
) -> "list[tuple[int, int, int, int, int]]":
    """E-A1: BRC token-count variance vs URC canonical counts.

    Rows: (R, brc_min, brc_max, urc_min, urc_max) — URC min == max by
    construction, which is the whole point.
    """
    rng = random.Random(seed)
    rows = []
    for range_size in range_sizes:
        brc_counts, urc_counts = [], []
        for _ in range(trials):
            lo = rng.randrange(domain - range_size + 1)
            hi = lo + range_size - 1
            brc_counts.append(len(best_range_cover(lo, hi)))
            urc_counts.append(len(uniform_range_cover(lo, hi)))
        rows.append(
            (range_size, min(brc_counts), max(brc_counts), min(urc_counts), max(urc_counts))
        )
    return rows


def ablation_tdag(
    *, domain: int = 1 << 20, trials: int = 500, seed: int = 42
) -> "tuple[float, float]":
    """E-A2: measured SRC cover blow-up (subtree size / R); Lemma 1 says ≤ 4."""
    rng = random.Random(seed)
    tdag = Tdag(domain)
    worst = avg = 0.0
    for _ in range(trials):
        a, b = rng.randrange(domain), rng.randrange(domain)
        lo, hi = min(a, b), max(a, b)
        node = tdag.src_cover(lo, hi)
        ratio = node.size / (hi - lo + 1)
        worst = max(worst, ratio)
        avg += ratio / trials
    return avg, worst


def ablation_updates(
    *,
    steps: "tuple[int, ...]" = (2, 4, 8),
    batches: int = 16,
    batch_size: int = 64,
    domain: int = 1 << 16,
    seed: int = 42,
) -> "list[tuple[int, int, int, int]]":
    """E-A3: consolidation step s vs active indexes / merge work.

    Rows: (s, active_indexes_after_b_batches, consolidations,
    tuples_reencrypted).
    """
    rows = []
    for s in steps:
        rng = random.Random(seed)
        seeder = random.Random(seed + s)
        mgr = BatchUpdateManager(
            lambda: make_scheme(
                "logarithmic-brc", domain, rng=random.Random(seeder.randrange(2**62))
            ),
            consolidation_step=s,
            rng=rng,
        )
        next_id = 0
        for _ in range(batches):
            ops = []
            for _ in range(batch_size):
                ops.append(insert(next_id, rng.randrange(domain)))
                next_id += 1
            mgr.apply_batch(ops)
        rows.append(
            (s, mgr.active_indexes, mgr.stats.consolidations, mgr.stats.tuples_reencrypted)
        )
    return rows


def dispatch_demo(
    *,
    records: int = 320,
    domain: int = 1 << 10,
    dispatch: str = "auto",
    seed: int = 5,
) -> "tuple[list[list], dict[str, int]]":
    """Adaptive-dispatch demo: a hybrid store routing a mixed workload.

    Builds a :class:`~repro.rangestore.HybridRangeStore` (BRC + SRC
    lanes) over a skewed dataset — one hot value holds a quarter of the
    mass — runs a mix of point, narrow and wide queries, and reports
    one row per query: range, width, the scheme the cost dispatcher
    chose, its modeled cost, the measured latency, and the result size.
    ``dispatch`` is ``"auto"`` or a lane name to pin (the CLI's
    ``--dispatch`` override).

    Returns ``(rows, chosen_counts)``.
    """
    from repro.rangestore import HybridRangeStore

    rng = random.Random(seed)
    hot = domain // 3
    store = HybridRangeStore(
        domain_size=domain, dispatch=dispatch, rng=random.Random(seed + 1)
    )
    next_id = 0
    for _ in range(records // 4):
        store.insert(next_id, hot)
        next_id += 1
    while next_id < records:
        store.insert(next_id, rng.randrange(domain))
        next_id += 1
    store.flush()
    store.calibrate()

    queries: "list[tuple[int, int]]" = []
    for _ in range(4):  # points (one on the hot value)
        queries.append((rng.randrange(domain),) * 2)
    queries.append((hot, hot))
    for _ in range(4):  # narrow ranges in the sparse region
        lo = rng.randrange(domain - 32)
        queries.append((lo, lo + rng.randrange(1, 16)))
    for _ in range(3):  # wide ranges, some crossing the hot value
        lo = rng.randrange(domain // 2)
        queries.append((lo, min(domain - 1, lo + domain // 4)))

    rows: "list[list]" = []
    chosen: "dict[str, int]" = {}
    for lo, hi in queries:
        t0 = time.perf_counter()
        outcome = store.search(lo, hi)
        elapsed = time.perf_counter() - t0
        chosen[outcome.scheme_chosen] = chosen.get(outcome.scheme_chosen, 0) + 1
        rows.append(
            [
                f"[{lo}, {hi}]",
                hi - lo + 1,
                outcome.scheme_chosen + (" (forced)" if dispatch != "auto" else ""),
                round(outcome.est_cost_chosen * 1e6, 1),
                round(elapsed * 1e3, 3),
                outcome.result_size,
            ]
        )
    return rows, chosen


# ---------------------------------------------------------------------------


def _dataset(name: str, n: int, seed: int) -> "tuple[list, int]":
    """Resolve a dataset label to (records, domain)."""
    if name == "gowalla":
        domain = FIG67_GOWALLA_DOMAIN
        return with_distinct_fraction(n, domain, 0.95, skew=0.0, seed=seed), domain
    if name == "usps":
        return usps_like(n, seed=seed), 276_841
    raise ValueError(f"unknown dataset {name!r}; use 'gowalla' or 'usps'")
