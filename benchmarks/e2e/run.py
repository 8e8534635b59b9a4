"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --seed 11                 # all four, one table each
    python3 benchmarks/e2e/run.py --seed 11 --trace         # + per-layer tables
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

(also ``PYTHONPATH=src python -m benchmarks.e2e.run``).  Every run
writes one result document (``--out``).  With exactly one
``--workload`` the last stdout line is the PR driver's JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Several workloads run one after another, each in a
fresh interpreter.  Exit status is 1 when any operation failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    # Measure this checkout's program or nothing — never an installed copy.
    sys.exit(f"{_ROOT}/src/repro is missing: no program here to benchmark")
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402

from benchmarks.e2e import catalogue  # noqa: E402
from benchmarks.e2e.hygiene import run_meta, scrub_environment  # noqa: E402
from benchmarks.e2e.runner import Result, run_workload  # noqa: E402
from benchmarks.e2e.workloads import OUT_DIR, WORKLOADS  # noqa: E402

#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 24.0
SMOKE_SECONDS = 1.0


def _table(result: Result) -> str:
    """Metric name, unit, value, sample count — one row each."""
    rows = [(f"== {result.workload}", "unit", "value", "samples")]
    for metric in catalogue.end_to_end_for(result.workload):
        rows.append((
            metric.name, metric.unit,
            f"{result.end_to_end[metric.name]:.6g}",
            str(result.samples[metric.name]),
        ))
    for name, value in result.per_layer.items():
        rows.append((name, catalogue.PER_LAYER_UNITS[name], f"{value:.6g}", "-"))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def _document(result: Result, meta) -> dict:
    return {
        "meta": meta,
        "workloads": {
            result.workload: {
                "why": WORKLOADS[result.workload].why,
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "ops": result.ops,
                "end_to_end": {
                    metric.name: {
                        "value": result.end_to_end[metric.name],
                        "unit": metric.unit,
                        "better": metric.better,
                        "bound": metric.bound,
                        "samples": result.samples[metric.name],
                    }
                    for metric in catalogue.end_to_end_for(result.workload)
                },
                "per_layer": {
                    name: {"value": value, "unit": catalogue.PER_LAYER_UNITS[name]}
                    for name, value in result.per_layer.items()
                },
            }
        },
    }


def _driver_line(result: Result, trace: bool) -> str:
    """The PR driver's contract: one JSON object, last on stdout."""
    if trace:
        metrics = {
            name: {"value": result.per_layer[name], "unit": unit}
            for name, unit, _ in catalogue.PER_LAYER
        }
    else:
        metrics = {
            metric.name: {"value": result.end_to_end[metric.name], "unit": metric.unit}
            for metric in catalogue.END_TO_END
            if metric.contract
        }
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed + result.traced_failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a 1 s window (harness self-test)")
    parser.add_argument("--out", type=Path, default=None,
                        help="result document (default out/result.json here)")
    parser.add_argument("--perturb-oracle", action="store_true",
                        help=argparse.SUPPRESS)  # self-test: must fail
    args = parser.parse_args(argv)

    scrubbed = scrub_environment()
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    )
    names = args.workload or list(WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    out = args.out if args.out is not None else OUT_DIR / "result.json"
    if len(names) > 1:
        return _each_in_its_own_process(names, args, seconds, out, scrubbed)

    result = run_workload(
        names[0], seed=args.seed, seconds=seconds, trace=bool(args.trace),
        smoke=args.smoke, perturb_oracle=args.perturb_oracle,
    )
    print(_table(result), flush=True)
    meta = run_meta(seed=args.seed, seconds=seconds, smoke=args.smoke,
                    scratch_dir=OUT_DIR, scrubbed=scrubbed)
    out.write_text(json.dumps(_document(result, meta), indent=1) + "\n")
    print(f"wrote {out}")
    print(_driver_line(result, bool(args.trace)))
    return 0 if result.correct else 1


def _each_in_its_own_process(names, args, seconds: float, out: Path,
                             scrubbed: "list[str]") -> int:
    """Several workloads: each in a fresh interpreter (as the PR driver
    runs them), so one's heap and RSS high-water mark never colour the
    next one's numbers; their documents are merged into one."""
    status = 0
    merged = None
    for name in names:
        part = OUT_DIR / f"result-{name}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
            "--out", str(part),
        ] + ["--smoke"] * args.smoke + ["--perturb-oracle"] * args.perturb_oracle
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        status = max(status, child.returncode)
        if not part.exists():
            continue  # the child died before writing; its stderr said why
        # Its table, without its own "wrote …" and driver lines.
        print("\n".join(child.stdout.splitlines()[:-2]), flush=True)
        document = json.loads(part.read_text())
        part.unlink()
        if merged is None:
            merged = document
        else:
            merged["workloads"].update(document["workloads"])
    if merged is not None:
        merged["meta"]["scrubbed_env"] = scrubbed  # the children saw none
        out.write_text(json.dumps(merged, indent=1) + "\n")
        print(f"wrote {out}")
    return status


if __name__ == "__main__":
    # A terminated benchmark leaves through its ``finally`` blocks too,
    # so its server subprocesses are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
