"""Compare two sets of result documents, metric by metric.

    python3 benchmarks/e2e/compare.py BASE CANDIDATE

Each argument is a result document written by ``run.py`` or a
directory of them (one set of runs of the same code).  For every
workload × end-to-end metric the tool prints the candidate's median
over the base's median (the ratio, with its base), and a verdict:

- ``regression`` — worse than the base by more than the metric's bound;
- ``unresolved`` — within the bound, but one set's own run-to-run
  spread (inter-quartile distance over its median) is wider than the
  bound, so "no change" cannot be claimed;
- ``ok`` — within the bound, and the spread supports saying so.

Exit status is 1 when anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load_set(path: Path) -> "list[dict]":
    """The result documents of one set (a file, or a directory)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result documents under {path}")
    return [json.loads(file.read_text()) for file in files]


def _series(documents, workload: str, metric: str) -> "list[float]":
    return [
        doc["workloads"][workload]["end_to_end"][metric]["value"]
        for doc in documents
        if metric in doc["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def worsening(base: float, candidate: float, better: str, bound: float) -> float:
    """How much worse the candidate is: relative to the base, or — for
    a zero-bound metric, where any worsening counts — absolute."""
    delta = candidate - base if better == "lower" else base - candidate
    if bound == 0.0:
        return delta
    return delta / base if base else (float("inf") if delta > 0 else 0.0)


def compare(base_docs, candidate_docs) -> "tuple[list[tuple], bool]":
    """Rows ``(workload, metric, unit, base, candidate, ratio, spread,
    bound, verdict)`` and whether anything regressed."""
    rows = []
    regressed = False
    for workload, entry in base_docs[0]["workloads"].items():
        for metric, info in entry["end_to_end"].items():
            base = _series(base_docs, workload, metric)
            candidate = _series(candidate_docs, workload, metric)
            if not candidate:
                continue
            base_median = statistics.median(base)
            candidate_median = statistics.median(candidate)
            bound = info["bound"]
            worse = worsening(base_median, candidate_median, info["better"], bound)
            widest = max(spread(base), spread(candidate))
            if worse > bound:
                verdict = "regression"
                regressed = True
            elif widest > bound > 0.0:
                verdict = "unresolved"
            else:
                verdict = "ok"
            ratio = candidate_median / base_median if base_median else float("nan")
            rows.append((workload, metric, info["unit"], base_median,
                         candidate_median, ratio, widest, bound, verdict))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base_docs, candidate_docs = (load_set(Path(arg)) for arg in argv)
    rows, regressed = compare(base_docs, candidate_docs)
    print(f"base: {argv[0]} ({len(base_docs)} runs)   "
          f"candidate: {argv[1]} ({len(candidate_docs)} runs)")
    header = ("workload", "metric", "unit", "base", "candidate",
              "cand/base", "spread", "bound", "verdict")
    table = [header] + [
        (w, m, u, f"{b:.5g}", f"{c:.5g}", f"{r:.3f}", f"{s:.3f}", f"{bd:g}", v)
        for w, m, u, b, c, r, s, bd, v in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
