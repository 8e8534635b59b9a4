"""Cost-model accuracy: plan estimates must track realized engine work.

The dispatcher is only as good as :func:`~repro.exec.plan.plan_range`'s
estimates, so these tests pin them to the realized
:class:`~repro.core.scheme.QueryOutcome` stats (``tokens_expanded``,
``probes_issued``) for sampled ranges, within fixed tolerances.  If the
planner and the engine ever drift apart — a changed walk strategy, a
different expansion path — the tolerance breaks here instead of the
dispatcher silently mispricing every query.
"""

from __future__ import annotations

import random

import pytest

from repro.core.registry import make_scheme
from repro.exec import CostModel, QueryExecutor, calibrate_cost_model, plan_range
from repro.exec.dispatch import STRATEGIES
from repro.storage.backend import InMemoryBackend

DOMAIN = 1 << 10

#: Sampled query shapes: points, narrow, wide, domain-wide.
RANGES = ((5, 5), (100, 131), (40, 700), (0, DOMAIN - 1), (513, 529))


def _built(scheme_name: str, records: int = 400):
    """A built scheme on a cache-free serial engine (deterministic
    stats: every expansion and probe is really performed)."""
    kwargs = {
        "rng": random.Random(3),
        "executor": QueryExecutor(workers=1, cache=False),
    }
    if scheme_name.startswith("constant"):
        kwargs["intersection_policy"] = "allow"
    scheme = make_scheme(scheme_name, DOMAIN, **kwargs)
    rng = random.Random(17)
    scheme.build_index([(rid, rng.randrange(DOMAIN)) for rid in range(records)])
    return scheme


def _plan_for(scheme_name: str, lo: int, hi: int):
    strategy = STRATEGIES[scheme_name]
    return plan_range(
        lo,
        hi,
        cover=strategy.cover,
        domain_size=DOMAIN,
        delegated=strategy.delegated,
        scheme=scheme_name,
    )


class TestDelegatedEstimates:
    """Constant family: expansion counts are exact, probe counts bounded."""

    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_tokens_expanded_matches_expand_stage(self, lo, hi):
        scheme = _built("constant-brc")
        plan = _plan_for("constant-brc", lo, hi)
        outcome = scheme.query(lo, hi)
        # Cache disabled: every cover token must expand exactly once.
        assert outcome.tokens_expanded == plan.stages[0].units
        assert outcome.tokens_expanded == plan.meta["cover_nodes"]

    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_probes_within_tolerance(self, lo, hi):
        scheme = _built("constant-brc")
        plan = _plan_for("constant-brc", lo, hi)
        outcome = scheme.query(lo, hi)
        # Every GGM leaf becomes one walker probing at least once; the
        # geometric counter walk can at most double the touched labels
        # plus speculation slack around each posting list.
        floor = plan.est_leaves
        ceiling = 2 * plan.est_leaves + 4 * len(outcome.raw_ids) + 8
        assert floor <= outcome.probes_issued <= ceiling

    def test_leaf_estimate_is_exact_for_delegation(self):
        plan = _plan_for("constant-brc", 40, 700)
        # BRC over [40, 700] covers exactly 661 leaves: the delegated
        # plan's walker count is the range width, not an estimate.
        assert plan.est_leaves == 700 - 40 + 1


class TestSseEstimates:
    """Logarithmic family: walker count == cover size, probes bounded."""

    @pytest.mark.parametrize("scheme_name", ["logarithmic-brc", "logarithmic-src"])
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_probes_within_tolerance(self, scheme_name, lo, hi):
        scheme = _built(scheme_name)
        plan = _plan_for(scheme_name, lo, hi)
        outcome = scheme.query(lo, hi)
        assert outcome.tokens_expanded == 0  # nothing delegated
        floor = plan.est_leaves
        ceiling = 2 * plan.est_leaves + 4 * len(outcome.raw_ids) + 8
        assert floor <= outcome.probes_issued <= ceiling


class TestCostModelOrdering:
    """The scalar estimate must order plans the way the units order."""

    def test_wider_delegation_costs_more(self):
        model = CostModel()
        narrow = model.estimate(_plan_for("constant-brc", 10, 17))
        wide = model.estimate(_plan_for("constant-brc", 0, DOMAIN - 1))
        assert wide > narrow

    def test_fp_term_penalizes_src(self):
        model = CostModel()
        plan = _plan_for("logarithmic-src", 100, 131)
        clean = model.estimate(plan, expected_matches=4.0)
        fp_heavy = model.estimate(plan, expected_matches=4.0, expected_fps=300.0)
        assert fp_heavy > clean + 200 * model.fetch_seconds

    def test_interactive_round_trip_priced(self):
        model = CostModel()
        plan = _plan_for("logarithmic-src-i", 100, 131)
        one = model.estimate(plan, rounds=1)
        two = model.estimate(plan, rounds=2)
        assert two == pytest.approx(one + model.rtt_seconds)

    @pytest.mark.parametrize("lo,hi", [(10, 17), (40, 700), (0, DOMAIN - 1)])
    def test_crypto_rates_apply_at_every_batch_size(self, lo, hi):
        # One kernel, one rate: a plan's crypto cost is linear in its
        # leaves, however large the expansion batch grows.
        import dataclasses

        base = CostModel()
        bumped = dataclasses.replace(base, derive_seconds=base.derive_seconds * 3)
        plan = _plan_for("constant-brc", lo, hi)
        delta = bumped.estimate(plan) - base.estimate(plan)
        assert delta == pytest.approx(plan.est_leaves * 2 * base.derive_seconds)


class TestCalibration:
    def test_calibrated_weights_are_positive_and_flagged(self):
        model = calibrate_cost_model(InMemoryBackend(), repeats=1)
        assert model.calibrated
        for value in (
            model.expand_seconds,
            model.derive_seconds,
            model.probe_seconds,
            model.round_seconds,
            model.fetch_seconds,
            model.rtt_seconds,
        ):
            assert 0 < value < 1.0

    def test_calibration_leaves_no_state_behind(self):
        backend = InMemoryBackend()
        calibrate_cost_model(backend, repeats=1)
        assert list(backend.namespaces()) == []

    def test_calibration_times_the_given_kernel(self):
        from repro.crypto.kernel import SerialKernel

        kernel = SerialKernel()
        calibrate_cost_model(repeats=1, kernel=kernel)
        stats = kernel.stats()
        assert stats["batches"] > 0
        assert stats["leaves_expanded"] > 0

    def test_default_model_is_uncalibrated(self):
        assert not CostModel().calibrated
