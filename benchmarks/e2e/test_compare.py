"""Unit tests for compare.py and the catalogue ↔ BENCHMARK.json pact."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.e2e import catalogue, compare
from benchmarks.e2e.workloads import WORKLOADS


def _doc(**values):
    """A one-workload result document with the given metric values."""
    info = {
        "p50": ("ms", "lower", 0.10),
        "qps": ("1/s", "higher", 0.10),
        "failed": ("ratio", "lower", 0.0),
    }
    return {
        "workloads": {
            "w": {
                "end_to_end": {
                    name: {"value": value, "unit": info[name][0],
                           "better": info[name][1], "bound": info[name][2]}
                    for name, value in values.items()
                }
            }
        }
    }


def _verdicts(base, candidate):
    rows, regressed = compare.compare(base, candidate)
    return {row[1]: row[-1] for row in rows}, regressed


def test_within_bound_is_ok_and_beyond_is_a_regression():
    verdicts, regressed = _verdicts(
        [_doc(p50=10.0, qps=100.0, failed=0.0)],
        [_doc(p50=10.9, qps=95.0, failed=0.0)],
    )
    assert verdicts == {"p50": "ok", "qps": "ok", "failed": "ok"} and not regressed
    verdicts, regressed = _verdicts(
        [_doc(p50=10.0, qps=100.0, failed=0.0)],
        [_doc(p50=11.5, qps=85.0, failed=0.001)],
    )
    assert verdicts == {
        "p50": "regression", "qps": "regression", "failed": "regression"
    }
    assert regressed


def test_getting_better_is_never_a_regression():
    verdicts, regressed = _verdicts(
        [_doc(p50=10.0, qps=100.0)], [_doc(p50=5.0, qps=300.0)]
    )
    assert verdicts == {"p50": "ok", "qps": "ok"} and not regressed


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    base = [_doc(p50=v) for v in (8.0, 10.0, 12.0, 9.0, 11.0)]
    candidate = [_doc(p50=v) for v in (10.1, 10.2, 10.0, 10.3, 10.1)]
    verdicts, regressed = _verdicts(base, candidate)
    assert verdicts == {"p50": "unresolved"} and not regressed


def test_main_exit_status_and_directory_sets(tmp_path, capsys):
    base, candidate = tmp_path / "base", tmp_path / "cand"
    for directory, values in ((base, (10.0, 10.1)), (candidate, (12.0, 12.1))):
        directory.mkdir()
        for i, value in enumerate(values):
            (directory / f"run{i}.json").write_text(json.dumps(_doc(p50=value)))
    assert compare.main([str(base), str(candidate)]) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.main([str(base), str(base / "run0.json")]) == 0
    assert compare.main([]) == 2


def test_benchmark_json_agrees_with_the_catalogue():
    manifest = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for entry in manifest["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
        if m.contract
    ]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in catalogue.PER_LAYER
    ]
    assert all(0 < m.bound <= 0.25 for m in catalogue.END_TO_END if m.contract)
    assert manifest["paths"] == ["benchmarks/e2e"]
