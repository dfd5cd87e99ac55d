#!/usr/bin/env python3
"""Measure how rectification cost scales with input size.

For each gate budget, generates one random theory over a fixed feature
set, times the construction alone (no enumeration happens anywhere on
that path) `--trials` times on that one input, keeps the fastest, and
fits elapsed time against the combined input arc count.  Each trial
rebuilds the input from the same seed in a fresh pool, so every trial
times the same work and none finds the output's gates already made.  A
slope with R^2 near 1 is the empirical face of the linear-time claim; a
flat cost per input arc is the stricter one, so each row also gives
microseconds per arc, and the last line the ratio of the largest to the
smallest of them over the sizes of at least 1000 arcs.

Usage: python scripts/timing_sweep.py [--seed N] [--trials K]
"""

import argparse
import gc
import random
import time
from statistics import correlation, linear_regression

from monorect import Pool, rectify
from monorect.randgen import random_circuit, random_classifier, random_problem

BUDGETS = (100, 300, 1000, 3000, 10000, 30000, 100000, 300000)


def timed_construction(gate_budget: int, seed: int) -> tuple[int, float, int]:
    """Input arcs, seconds and output arcs of one `rectify` of the seed's input, in a new pool."""
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, 14)
    clf = random_classifier(pool, problem, 60, rng)
    theory = random_circuit(pool, problem.all_vars, gate_budget, rng)
    gc.disable()
    begin = time.perf_counter()
    result = rectify(clf, theory)
    elapsed = time.perf_counter() - begin
    gc.enable()
    return clf.circuit.size + theory.size, elapsed, result.rectified.circuit.size


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trials", type=int, default=3, help="timed runs of the one input per size (fastest kept)"
    )
    args = parser.parse_args()

    print(f"{'budget':>8} {'input arcs':>11} {'output arcs':>12} {'time':>10} {'us/arc':>7}")
    arcs, times = [], []
    for budget in BUDGETS:
        # one input per size, timed --trials times: the fastest is the least-noise estimate
        input_arcs, elapsed, output_arcs = min(
            (timed_construction(budget, args.seed + budget) for _ in range(args.trials)),
            key=lambda row: row[1],
        )
        arcs.append(input_arcs)
        times.append(elapsed)
        print(
            f"{budget:>8} {input_arcs:>11} {output_arcs:>12} {elapsed * 1000:>8.2f}ms"
            f" {elapsed * 1e6 / input_arcs:>7.2f}"
        )

    slope, intercept = linear_regression(arcs, times)
    fit = correlation(arcs, times) ** 2
    print()
    print(f"fit: time = {slope * 1e6:.3f}us/arc * arcs + {intercept * 1000:.3f}ms")
    print(f"R^2 = {fit:.4f}")
    per_arc = [t / a for a, t in zip(arcs, times) if a >= 1000]
    print(f"us/arc max/min over sizes of 1000+ arcs = {max(per_arc) / min(per_arc):.2f}")
    return 0 if fit >= 0.95 else 1


if __name__ == "__main__":
    raise SystemExit(main())
