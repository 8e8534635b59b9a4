"""Unit tests for the measurement helpers, on synthetic inputs."""

from __future__ import annotations

import threading

import pytest

from benchmarks.e2e.measure import (
    SpanRecorder,
    TooFewSamples,
    blocks,
    covered,
    percentile,
    self_times,
)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))  # 1..1000
    assert percentile(samples, 50) == 500
    assert percentile(samples, 99) == 990
    assert percentile(reversed(samples), 99) == 990  # order-insensitive


def test_percentile_refuses_a_tail_with_fewer_than_ten_beyond():
    assert percentile(range(1000), 99) == 989  # exactly 10 beyond
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)  # rank 990 of 999 leaves 9
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50, min_beyond=0)
    assert percentile(range(19), 50, min_beyond=0) == 9


def test_percentile_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 0, min_beyond=0)
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 101, min_beyond=0)


def test_covered_unions_overlapping_intervals_and_clips():
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(3, 4), (3, 4)], 0, 10) == 1
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        {"key": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"key": "a", "parent": "root", "start": 1.0, "end": 4.0},
        # overlaps a: the overlap [3, 4] is subtracted once
        {"key": "b", "parent": "root", "start": 3.0, "end": 6.0},
        {"key": "leaf", "parent": "a", "start": 2.0, "end": 3.0},
    ]
    selfs = self_times(spans)
    assert selfs == {"root": 5.0, "a": 2.0, "b": 3.0, "leaf": 1.0}
    # Without overlap the self times of a tree add up to its root.
    spans[2]["start"] = 4.0
    assert sum(self_times(spans).values()) == 10.0


def test_recorder_nests_by_thread_and_inherits_op():
    clock = FakeClock()
    rec = SpanRecorder("p", clock=clock)
    with rec.span("root", root=True, op=7):
        clock.t = 1.0
        with rec.span("child", keys=3) as child:
            clock.t = 2.0
            child["extra"] = 1
        clock.t = 5.0
    root, child = rec.export()
    assert (root["name"], root["start"], root["end"], root["parent"]) == ("root", 0.0, 5.0, None)
    assert (child["parent"], child["op"], child["start"], child["end"]) == (0, 7, 1.0, 2.0)
    assert child["keys"] == 3 and child["extra"] == 1 and child["proc"] == "p"


def _record_on_thread(rec, name):
    def body():
        with rec.span(name):
            pass

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()


def test_pool_thread_span_attaches_to_the_single_open_root():
    rec = SpanRecorder("p")
    with rec.span("handle", root=True, op=1):
        _record_on_thread(rec, "hopped")
    hopped = rec.export()[1]
    assert hopped["parent"] == 0 and hopped["op"] == 1 and "orphan" not in hopped


def test_ambiguous_or_rootless_span_is_an_orphan():
    rec = SpanRecorder("p")
    _record_on_thread(rec, "rootless")
    assert rec.export()[0]["orphan"] is True

    rec = SpanRecorder("p")
    release = threading.Event()
    opened = threading.Event()

    def other_root():
        with rec.span("handle", root=True, op=2):
            opened.set()
            release.wait(5)

    thread = threading.Thread(target=other_root)
    thread.start()
    assert opened.wait(5)
    with rec.span("handle", root=True, op=1):
        _record_on_thread(rec, "hopped")  # two roots open: whose is it?
    release.set()
    thread.join(5)
    assert not thread.is_alive()
    hopped = [s for s in rec.export() if s["name"] == "hopped"][0]
    assert hopped["orphan"] is True and hopped["parent"] is None


def test_coalesce_reopens_the_previous_sibling():
    clock = FakeClock()
    rec = SpanRecorder("p", clock=clock)
    with rec.span("root", root=True, op=0):
        for i in range(3):
            clock.t = float(i)
            with rec.span("decrypt", coalesce=True):
                clock.t = i + 0.5
        with rec.span("other"):
            pass
        with rec.span("decrypt", coalesce=True):  # a sibling came between
            pass
    spans = rec.export()
    assert [s["name"] for s in spans] == ["root", "decrypt", "other", "decrypt"]
    assert spans[1]["calls"] == 3
    assert (spans[1]["start"], spans[1]["end"]) == (0.0, 2.5)
    assert spans[3]["calls"] == 1


def test_blocks_are_consecutive_equal_and_bounded():
    assert blocks(range(10), per_block=3, most=5) == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert blocks(range(10), per_block=1, most=2) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert blocks(range(4), per_block=1000, most=5) == [[0, 1, 2, 3]]  # never none
    assert blocks([], per_block=1000, most=5) == [[]]
