#!/usr/bin/env python3
"""Re-measure the "Current state" table of ROADMAP.md: build_report times.

Run from the repository root (takes about two minutes, most of it the
201-leaf caterpillar):

    python3 perfbench/baseline.py

For each instance it prints the untraced ``build_report`` wall time (the
matrix is built beforehand, as in the table), then, from a traced run, the
number of exact inversions and the share of the time spent in them.
"""

from __future__ import annotations

import random
import statistics
import time

import run  # puts the checkout's src/ on sys.path
import rootlink.report
from rootlink import build_matrix, build_report, random_instance
from spans import Tracer
from workloads import caterpillar_tree, strict_values


def random_strict(seed: int, leaves: int):
    return random_instance(seed, leaves, "strict", min_leaves=leaves)


def caterpillar(seed: int, leaves: int):
    tree = caterpillar_tree(leaves)
    return tree, strict_values(tree, random.Random(seed))


INSTANCES = (
    ("random strict", random_strict, 32, 5),
    ("random strict", random_strict, 64, 3),
    ("random strict", random_strict, 96, 3),
    ("caterpillar", caterpillar, 101, 1),
    ("caterpillar", caterpillar, 201, 1),
)


def main() -> None:
    print(f"{'instance':<14} {'leaves':>6} {'build_report s':>15} "
          f"{'inversions':>10} {'distinct':>8} {'in inversions':>13}")
    for label, generate, leaves, repeats in INSTANCES:
        tm = build_matrix(*generate(1, leaves))
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            build_report(tm)
            times.append(time.perf_counter() - start)
        tracer = Tracer()
        with tracer:
            tracer.start_request(0)
            # Through the module, so the call reaches the installed wrappers.
            rootlink.report.build_report(tm)
        metrics = tracer.metrics()
        calls = metrics["kernels.inverse_scaled.calls"]
        share = metrics["kernels.inverse_scaled.s"] / metrics["report.build_report.s"]
        print(f"{label:<14} {leaves:>6} {statistics.median(times):>15.3f} "
              f"{calls:>10} {calls - metrics['kernels.inverse_scaled.dup_calls']:>8} "
              f"{share:>12.0%}")


if __name__ == "__main__":
    main()
