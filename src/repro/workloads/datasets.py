"""Synthetic dataset generators standing in for the paper's real data.

The paper evaluates on two datasets whose *distribution shapes* drive
every experiment:

- **Gowalla** (geo-social check-ins): timestamps over a huge domain
  (~1.03e8), ~95% of values distinct — effectively near-uniform.
- **USPS** (employee salaries): domain 276,840, only ~5% distinct values
  — heavy clustering/skew.

Neither raw dataset ships here (proprietary scraping / dead links), so
:func:`gowalla_like` and :func:`usps_like` synthesize datasets with the
same two controlling properties — domain size and distinct-value
fraction (plus skew of the cluster masses) — which is what Figures 5–7
and Table 2 exercise.  See README § "Reproducing the paper's
evaluation" for the substitution rationale.

All generators take an explicit seed and return ``(id, value)`` lists
with ids ``0 … n-1`` in shuffled value order.
"""

from __future__ import annotations

import random

import numpy as np

#: Domain sizes mirroring the paper (scaled Gowalla keeps 2^27 ≈ 1.3e8).
GOWALLA_DOMAIN = 103_017_914
USPS_DOMAIN = 276_841


def _materialize(values: "list[int]", rng: "random.Random") -> "list[tuple[int, int]]":
    """Attach shuffled ids so id order carries no value information."""
    records = [(i, int(v)) for i, v in enumerate(values)]
    rng.shuffle(records)
    return [(doc_id, value) for doc_id, (_, value) in zip(range(len(records)), records)]


def uniform(n: int, domain_size: int, *, seed: int = 0) -> "list[tuple[int, int]]":
    """n values drawn uniformly at random from the domain."""
    rng = random.Random(seed)
    return _materialize([rng.randrange(domain_size) for _ in range(n)], rng)


def with_distinct_fraction(
    n: int,
    domain_size: int,
    distinct_frac: float,
    *,
    skew: float = 0.0,
    seed: int = 0,
) -> "list[tuple[int, int]]":
    """n values with ≈ ``distinct_frac·n`` distinct values.

    A pool of ``round(distinct_frac·n)`` distinct values is sampled
    uniformly from the domain; each pool value appears at least once and
    the remaining draws are distributed over the pool either uniformly
    (``skew=0``) or Zipf-weighted with exponent ``skew`` — reproducing
    the clustered-salary shape of USPS when skewed.
    """
    if not 0.0 < distinct_frac <= 1.0:
        raise ValueError(f"distinct_frac must be in (0, 1], got {distinct_frac}")
    rng = random.Random(seed)
    pool_size = max(1, min(domain_size, round(distinct_frac * n)))
    if pool_size >= domain_size:
        pool = list(range(domain_size))
    else:
        pool = rng.sample(range(domain_size), pool_size)
    values = list(pool)  # each distinct value occurs at least once
    extra = n - len(values)
    if extra > 0:
        if skew > 0.0:
            weights = np.arange(1, pool_size + 1, dtype=float) ** (-skew)
            weights /= weights.sum()
            rng_np = np.random.default_rng(seed + 1)
            draws = rng_np.choice(pool_size, size=extra, p=weights)
            values.extend(pool[int(i)] for i in draws)
        else:
            values.extend(rng.choice(pool) for _ in range(extra))
    return _materialize(values[:n], rng)


def gowalla_like(
    n: int, *, domain_size: int = GOWALLA_DOMAIN, seed: int = 0
) -> "list[tuple[int, int]]":
    """Near-uniform check-in-timestamp stand-in: ~95% distinct values."""
    return with_distinct_fraction(n, domain_size, 0.95, skew=0.0, seed=seed)


def usps_like(
    n: int, *, domain_size: int = USPS_DOMAIN, seed: int = 0
) -> "list[tuple[int, int]]":
    """Heavily skewed salary stand-in: ~5% distinct values, Zipf masses."""
    return with_distinct_fraction(n, domain_size, 0.05, skew=1.1, seed=seed)


def zipf(
    n: int, domain_size: int, *, exponent: float = 1.2, seed: int = 0
) -> "list[tuple[int, int]]":
    """Classic Zipf-over-domain generator for stress-testing skew."""
    rng_np = np.random.default_rng(seed)
    weights = np.arange(1, domain_size + 1, dtype=float) ** (-exponent)
    weights /= weights.sum()
    draws = rng_np.choice(domain_size, size=n, p=weights)
    return _materialize([int(v) for v in draws], random.Random(seed))


def clustered(
    n: int,
    domain_size: int,
    *,
    clusters: int = 8,
    spread_frac: float = 0.002,
    seed: int = 0,
) -> "list[tuple[int, int]]":
    """Gaussian-mixture values: a few tight clusters over the domain.

    Useful for adversarial SRC tests — a query near a heavy cluster is
    the worst case Lemma 1's slack can hit.
    """
    rng_np = np.random.default_rng(seed)
    centers = rng_np.integers(0, domain_size, size=clusters)
    spread = max(1.0, domain_size * spread_frac)
    assignments = rng_np.integers(0, clusters, size=n)
    raw = rng_np.normal(centers[assignments], spread)
    values = np.clip(np.rint(raw), 0, domain_size - 1).astype(int)
    return _materialize([int(v) for v in values], random.Random(seed))


def distinct_fraction(records: "list[tuple[int, int]]") -> float:
    """Observed distinct-value fraction of a dataset (sanity metric)."""
    if not records:
        return 0.0
    return len({value for _, value in records}) / len(records)
