#!/usr/bin/env python3
"""Reference figures for bench/README.md: each layer's share of the traced
operation time, and the tracing overhead, per workload.

    python3 bench/report.py

For each workload, runs three untraced and three traced runs of seed 1
at the 40 s of BENCHMARK.json, alternating which goes first, and prints
a Markdown section.  Shares are the last traced run's self times over
its summed operation time.  The overhead compares the medians of
op_p50_ms (scaled to the fixed host speed, as in run.py) over the
traced and the untraced runs; all values are printed too.
"""

from __future__ import annotations

import gzip
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("circuit-large", "desk-cli", "tree-pipeline")
SEED = 1
SECONDS = 40
PAIRS = 3


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    subprocess.run(cmd, check=True, cwd=HERE.parent, capture_output=True)
    stem = f"{workload}-s{SEED}"
    if trace:
        with gzip.open(HERE / "out" / f"trace-{stem}.json.gz", "rt", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads((HERE / "out" / f"result-{stem}.json").read_text())


def main() -> int:
    for workload in WORKLOADS:
        plain, traced = [], []
        for k in range(PAIRS):
            for trace in ((0, 1) if k % 2 == 0 else (1, 0)):
                run = bench(workload, trace)
                (traced if trace else plain).append(run)
        p50_plain = [r["op_p50_ms"] for r in plain]
        p50_traced = [r["op_p50_ms"] for r in traced]
        overhead = statistics.median(p50_traced) / statistics.median(p50_plain) - 1
        last = traced[-1]
        total = last["op_s_total"]
        print(f"### {workload} (seed {SEED})\n")
        print("op_p50_ms untraced " + ", ".join(f"{v:.1f}" for v in p50_plain)
              + "; traced " + ", ".join(f"{v:.1f}" for v in p50_traced)
              + f"; overhead of the medians {100 * overhead:+.0f}%.  Last traced run: "
              f"operation time {total:.2f} s, self times sum to {last['self_s_total']:.2f} s.\n")
        print("| span | self time share |\n|---|---|")
        for name, seconds in sorted(last["self_s"].items(), key=lambda kv: -kv[1]):
            if seconds > 0:
                label = "op.other" if name == "op" else name
                print(f"| {label} | {100 * seconds / total:.1f}% |")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
