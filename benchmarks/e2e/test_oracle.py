"""Unit tests for the oracle comparators, on synthetic inputs."""

from __future__ import annotations

import math

from benchmarks.e2e.oracle import ChurnOracle, StaticOracle, perturbed

RECORDS = [(1, 10), (2, 20), (3, 20), (4, 35)]


def test_static_oracle_is_exact():
    oracle = StaticOracle(RECORDS)
    assert oracle.matches(10, 20) == 3
    assert oracle.check(10, 20, {1, 2, 3})
    assert oracle.check(10, 20, frozenset([3, 2, 1]))
    assert not oracle.check(10, 20, {1, 2})  # a missing match
    assert not oracle.check(10, 20, {1, 2, 3, 4})  # a false positive left in
    assert not oracle.check(10, 20, None)  # the call failed
    assert oracle.check(21, 34, set())


def test_perturbed_records_make_a_correct_answer_fail():
    oracle = StaticOracle(perturbed(RECORDS, domain_size=64, phantoms=8))
    assert oracle.matches(0, 63) == len(RECORDS) + 8
    assert not oracle.check(0, 63, {1, 2, 3, 4})


def test_churn_bounds_follow_send_and_ack_times():
    oracle = ChurnOracle(RECORDS)
    # id 5 inserted: sent t=10, acked t=12.  id 2 deleted: sent 20, acked 22.
    oracle.note_batch([(False, 5, 20)], sent=10.0, acked=12.0)
    oracle.note_batch([(True, 2, 20)], sent=20.0, acked=22.0)

    # Before anything: bulk records only, exactly.
    assert oracle.bounds(20, 20, 1.0, 2.0) == ({2, 3}, {2, 3})
    # Overlapping the insert: 5 may appear, need not.
    must, may = oracle.bounds(20, 20, 9.0, 11.0)
    assert must == {2, 3} and may == {2, 3, 5}
    assert must <= {2, 3} <= may and must <= {2, 3, 5} <= may
    assert not must <= {3, 5}  # 2 was live throughout
    # Insert acked, delete not yet sent: all three, exactly.
    assert oracle.bounds(20, 20, 13.0, 19.0) == ({2, 3, 5}, {2, 3, 5})
    # Overlapping the delete: 2 may be there or gone.
    must, may = oracle.bounds(20, 20, 19.0, 21.0)
    assert must == {3, 5} and may == {2, 3, 5}
    # Delete acked: 2 must be gone.
    assert oracle.bounds(20, 20, 23.0, 24.0) == ({3, 5}, {3, 5})
    # Ranges filter by value.
    assert oracle.bounds(0, 15, 23.0, 24.0) == ({1}, {1})


def test_churn_unacked_batch_stays_possible_forever():
    oracle = ChurnOracle(RECORDS)
    oracle.note_batch([(False, 9, 10), (True, 1, 10)], sent=5.0, acked=math.inf)
    must, may = oracle.bounds(10, 10, 100.0, 101.0)
    assert must == set() and may == {1, 9}


def test_churn_drained_state_lists_live_records():
    oracle = ChurnOracle(RECORDS)
    oracle.note_batch([(False, 5, 7), (True, 4, 35)], sent=1.0, acked=2.0)
    assert sorted(oracle.live_records()) == [(1, 10), (2, 20), (3, 20), (5, 7)]
