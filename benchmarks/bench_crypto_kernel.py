"""Crypto-kernel benchmark: the serial kernel's overhead.

The ``SerialKernel`` batch primitives against the retired inline loops
they replaced — per-leaf ``subkeys_from_secret`` over
``GgmDprf.iter_leaves``, and the per-counter ``posting_label`` loop —
on engine-shaped batches, in interleaved passes.

*Gate:* kernel/direct ratio ≤ ``--overhead-factor`` (default 1.05×) on
both primitives: the batch seam must cost nothing over the loops.
Byte identity of the kernel against the scalar paths is pinned by
``tests/test_kernel_differential.py``, not here.

Run it::

    PYTHONPATH=src python benchmarks/bench_crypto_kernel.py \
        --json bench-crypto.json

Smoke scale (CI)::

    PYTHONPATH=src python benchmarks/bench_crypto_kernel.py --smoke \
        --json bench-crypto-smoke.json
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks import jsonout  # noqa: E402


def _best_pair(fn_a, fn_b, passes: int) -> "tuple[float, float, float]":
    """Two lanes timed in *interleaved* passes; returns
    ``(best_a, best_b, median per-pass b/a ratio)``.

    On a busy single-CPU box an interference burst lasts milliseconds —
    the same order as one lane pass — so back-to-back lane timing (and
    even min-of-N per lane) lets one burst skew the ratio by ~10%.
    Pairing each pass and taking the *median* of per-pass ratios makes
    the comparison robust: a burst lands inside one pass pair and that
    pair's ratio becomes an outlier the median ignores."""
    best_a = best_b = float("inf")
    ratios = []
    for _ in range(passes):
        t0 = time.perf_counter()
        fn_a()
        elapsed_a = time.perf_counter() - t0
        t0 = time.perf_counter()
        fn_b()
        elapsed_b = time.perf_counter() - t0
        best_a = min(best_a, elapsed_a)
        best_b = min(best_b, elapsed_b)
        ratios.append(elapsed_b / elapsed_a)
    ratios.sort()
    return best_a, best_b, ratios[len(ratios) // 2]


def run_overhead(args) -> "dict[str, float]":
    from repro.crypto.dprf import DelegationToken, GgmDprf
    from repro.crypto.kernel import SerialKernel
    from repro.sse.base import subkeys_from_secret
    from repro.sse.pibas import posting_label

    rng = random.Random(args.seed)
    kernel = SerialKernel()

    # Engine-shaped DPRF batch: a handful of mid-size subtrees, the
    # shape one constant-scheme query wave misses into the kernel.
    descriptors = [
        (rng.randbytes(32), args.subtree_level) for _ in range(args.subtrees)
    ]
    tokens = [DelegationToken(seed, level) for seed, level in descriptors]

    def direct_subkeys():
        return [
            tuple(
                subkeys_from_secret(leaf)
                for leaf in GgmDprf.iter_leaves(token)
            )
            for token in tokens
        ]

    direct_subkeys_s, kernel_subkeys_s, subkeys_ratio = _best_pair(
        direct_subkeys,
        lambda: kernel.derive_leaf_subkeys(descriptors),
        args.passes,
    )
    assert kernel.derive_leaf_subkeys(descriptors) == direct_subkeys()

    # Engine-shaped label batch: one coalesced probe round's worth.
    items = [(rng.randbytes(16), i) for i in range(args.labels)]
    direct_labels_s, kernel_labels_s, labels_ratio = _best_pair(
        lambda: [posting_label(key, c) for key, c in items],
        lambda: kernel.derive_labels(items),
        args.passes,
    )

    leaves = args.subtrees << args.subtree_level
    return {
        "subkeys_direct_seconds": direct_subkeys_s,
        "subkeys_kernel_seconds": kernel_subkeys_s,
        "subkeys_overhead_ratio": subkeys_ratio,
        "subkeys_leaves_per_s": leaves / kernel_subkeys_s,
        "labels_direct_seconds": direct_labels_s,
        "labels_kernel_seconds": kernel_labels_s,
        "labels_overhead_ratio": labels_ratio,
        "labels_per_s": args.labels / kernel_labels_s,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--subtrees", type=int, default=6,
                        help="descriptors per batch")
    parser.add_argument("--subtree-level", type=int, default=10,
                        help="GGM level per descriptor")
    parser.add_argument("--labels", type=int, default=4096,
                        help="labels per batch")
    parser.add_argument("--passes", type=int, default=7,
                        help="interleaved passes for paired timed lanes")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--overhead-factor", type=float, default=1.05,
                        help="gate: serial kernel <= factor * direct loop")
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: small batches, fewer passes")
    parser.add_argument("--json", default="bench-crypto.json", metavar="PATH")
    parser.add_argument("--force", action="store_true",
                        help="allow overwriting a committed BENCH_*.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.subtree_level = min(args.subtree_level, 8)
        args.labels = min(args.labels, 1024)
        args.passes = min(args.passes, 3)
    jsonout.check_baseline_path(args.json, args.force)

    print("overhead: serial kernel vs retired inline loops")
    overhead = run_overhead(args)
    print(
        f"  subkeys {overhead['subkeys_overhead_ratio']:.3f}x "
        f"({overhead['subkeys_leaves_per_s']:,.0f} leaves/s) | "
        f"labels {overhead['labels_overhead_ratio']:.3f}x "
        f"({overhead['labels_per_s']:,.0f} labels/s)"
    )
    worst_overhead = max(
        overhead["subkeys_overhead_ratio"], overhead["labels_overhead_ratio"]
    )
    results = [
        jsonout.result(
            "overhead/serial-kernel",
            "crypto_kernel",
            {"subtrees": args.subtrees, "level": args.subtree_level,
             "labels": args.labels, "passes": args.passes},
            **overhead,
        ),
        jsonout.result(
            "acceptance",
            "crypto_kernel",
            {"overhead_factor": args.overhead_factor},
            overhead_ratio=worst_overhead,
        ),
    ]
    jsonout.emit_json(
        args.json,
        "crypto_kernel",
        results,
        meta={"cpus": os.cpu_count(), "smoke": args.smoke},
        force=args.force,
    )
    print(f"wrote {args.json}")

    if worst_overhead > args.overhead_factor:
        print(
            f"GATE FAIL: serial kernel overhead {worst_overhead:.3f}x "
            f"(allowed {args.overhead_factor}x)"
        )
        return 1
    print(
        f"gate pass: serial overhead {worst_overhead:.3f}x <= "
        f"{args.overhead_factor}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
