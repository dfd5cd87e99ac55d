#!/usr/bin/env python3
"""Fixed-work benchmark for monorect.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One process, one thread, closed loop: each operation starts
when the previous one has ended.  Every input is generated from --seed
by the benchmark's own generator.

A run is max(3, round(S / ROUND_SECONDS)) rounds.  Each round is the
workload's fixed list of operations on fresh inputs of the same sizes,
so slot i of every round does the same kind and amount of work.  Every
operation of every round counts in the timing figures.  The run never
stops on a time budget, so every count and size repeats exactly for a
given seed and S.

The timing metrics are given at a fixed host speed.  A fixed reference
loop runs, untimed, REFERENCE_SAMPLES times after each set-up and spread
over each round; each set-up's and each round's wall times are scaled by
REFERENCE_S over the median of its own samples.  On a shared machine
the host's speed drifts by up to 1.5x within seconds to minutes, far
more than a change is judged by, and the reference loop slows with it.
The wall-clock figures are in the details file.

Every answer is checked, outside the timed region, against the reference
in check.py.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`, the end-to-end metrics
with --trace 0 and the per-layer metrics (per operation) with --trace 1.
Details of the run, and with --trace 1 every span, go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import check  # noqa: E402  (bench/ is the script's directory, first on sys.path)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Operation time of one round of every list, on a 2-core machine with
# Python 3.11; --seconds asks for that many seconds' worth of rounds.
ROUND_SECONDS = 2
MIN_ROUNDS = 3
SETUP_REPEATS = 3
# About the reference loop's time on the 2-core machine of
# bench/README.md, so that the scaled figures read close to wall time there.
REFERENCE_S = 0.010
REFERENCE_LOOPS = 50_000
REFERENCE_SAMPLES = 8


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop.  It makes no object the
    collector tracks, so it starts no collection and adds no span."""
    start = time.perf_counter()
    table = [0] * 1024
    acc = 0
    for i in range(REFERENCE_LOOPS):
        j = i & 1023
        table[j] = acc = (acc + table[j] * 31 + i) & 0xFFFFF
    return time.perf_counter() - start


class Program:
    """The monorect modules, imported afresh (every monorect module is
    dropped from sys.modules first, so each set-up pays the import)."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "monorect" or n.startswith("monorect.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("monorect.cli")
        self.formats = importlib.import_module("monorect.formats")
        self.classifier = importlib.import_module("monorect.classifier")
        self.rectify = importlib.import_module("monorect.rectify")
        self.dtree = importlib.import_module("monorect.dtree")


def _digest(h, ops) -> None:
    """Adds every operation's kind and inputs to the hash; drops the input
    texts, so that one round's texts at most are alive at a time."""
    for op in ops:
        h.update(op.kind.encode())
        for item in op.inputs:
            h.update(b"\0" + item.encode())
        op.inputs.clear()


def set_up(workload: str, seed: int, rounds: int, size: dict, tiny: dict, directory: Path):
    """Import, generate, write and warm up once; returns (seconds, program,
    ops by round, SHA-256 of all inputs)."""
    build = WORKLOADS[workload][0]
    start = time.perf_counter()
    program = Program()
    if directory.exists():
        shutil.rmtree(directory)
    ops = []
    h = hashlib.sha256()
    for r in range(rounds):
        (directory / f"r{r}").mkdir(parents=True)
        ops.append(build(f"{seed}.{r}", size, directory / f"r{r}"))
        _digest(h, ops[-1])
    (directory / "warm").mkdir()
    for op in build(f"{seed}.warm", tiny, directory / "warm"):
        try:
            op.run(program)
        except Exception:  # the deep inputs fail today; warm-up only needs the calls made
            pass
    return time.perf_counter() - start, program, ops, h.hexdigest()


def run(workload: str, seed: int, seconds: float, traced: bool, tiny_run: bool = False) -> dict:
    """One benchmark run; returns the result line plus the run's details."""
    _, full_size, tiny_size = WORKLOADS[workload]
    size = tiny_size if tiny_run else full_size
    directory = OUT / "inputs" / f"{workload}-s{seed}"
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_SECONDS))
    setups, setup_scales = [], []
    digests = set()
    for _ in range(SETUP_REPEATS):
        ops = program = None  # the last set-up's go before the next set-up makes its own
        spent, program, ops, digest = set_up(workload, seed, rounds, size, tiny_size, directory)
        setups.append(spent)
        setup_scales.append(REFERENCE_S / statistics.median(reference() for _ in range(REFERENCE_SAMPLES)))
        digests.add(digest)
    if len(digests) != 1:
        raise RuntimeError("set-up generated different inputs from one seed")

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    gc.collect()
    times, kinds, failures, errors, round_scales = [], [], [], [], []
    out_arcs = in_arcs = 0
    layer_out = {"circuit": 0, "tree": 0}
    every = max(1, len(ops[0]) // REFERENCE_SAMPLES)
    try:
        for round_ops in ops:
            samples = []
            for i, op in enumerate(round_ops):
                if i % every == 0:
                    samples.append(reference())
                failure = None
                start = time.perf_counter()
                if tracer:
                    tracer.op_begin()
                try:
                    output = op.run(program)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failure = _describe(exc)
                    output = None
                if tracer:
                    elapsed = tracer.op_end()
                    for kind, obj in tracer.take_results():
                        layer_out[kind] += obj.size if kind == "circuit" else _tree_nodes(obj)
                else:
                    elapsed = time.perf_counter() - start
                times.append(elapsed)
                kinds.append(op.kind)
                failures.append(failure)
                if failure is not None:
                    print(f"failed: {op.kind}: {failure}", file=sys.stderr)
                    continue
                try:
                    sizes = op.check(output)
                except check.CheckError as exc:
                    errors.append(f"{op.kind}: {exc}")
                    print(f"wrong answer: {op.kind}: {exc}", file=sys.stderr)
                else:
                    if sizes is not None:
                        out_arcs += sizes[0]
                        in_arcs += sizes[1]
                output = None  # the next operation starts without this one's objects
            round_scales.append(REFERENCE_S / statistics.median(samples))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(directory, ignore_errors=True)

    attempted = len(times)
    failed = sum(f is not None for f in failures)
    slots = len(ops[0])
    scaled = [t * round_scales[k // slots] for k, t in enumerate(times)]
    done = [t for t, f in zip(scaled, failures) if f is None]
    details = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "traced": traced,
        "input_sha256": digests.pop(),
        "setup_s": setups,
        "setup_scales": setup_scales,
        "round_scales": round_scales,
        "op_kinds": kinds,
        "op_s": times,
        "failures": [f for f in failures if f is not None],
        "wrong_answers": errors,
        "out_arcs": out_arcs,
        "in_arcs": in_arcs,
        "op_p50_ms": 1000 * statistics.median(done) if done else None,
    }
    if tracer:
        metrics = _layer_metrics(tracer, attempted, layer_out)
        details["self_s"] = {name: tracer.self_seconds(name) for name in tracer.names}
        details["self_s_total"] = sum(tracer.self_time.values())
        details["op_s_total"] = sum(times)
    else:
        metrics = {
            "setup_s": (statistics.median(t * k for t, k in zip(setups, setup_scales)), "s"),
            "op_p50_ms": (details["op_p50_ms"], "ms"),
            "ops_per_s": (len(done) / sum(scaled), "1/s"),
            "out_arcs_per_in_arc": (out_arcs / in_arcs if in_arcs else None, "arc/arc"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"result": result, "details": details, "tracer": tracer}


def _describe(exc: BaseException) -> str:
    """Exception type plus the innermost frame it came from."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" in {Path(frames[-1].filename).name}:{frames[-1].name}" if frames else ""
    return f"{type(exc).__name__}{where}"


def _tree_nodes(tree) -> int:
    """All nodes of a program tree, leaves included, counted iteratively."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if hasattr(node, "low"):
            stack.append(node.low)
            stack.append(node.high)
    return count


def _layer_metrics(tracer: Tracer, ops: int, layer_out: dict) -> dict:
    """Per-operation means of every layer's self time and counts."""
    out = {}

    def seconds(name, span):
        out[name] = (tracer.self_seconds(span) / ops, "s")

    def calls(name, span):
        out[name] = (tracer.call_count(span) / ops, "count")

    parse_total = tracer.total_seconds("formats.parse")
    parsed = tracer.counts["formats.parse_chars"]
    seconds("formats.parse_s", "formats.parse")
    out["formats.parse_mb_per_s"] = (parsed / 1e6 / parse_total if parse_total else 0.0, "MB/s")
    seconds("formats.print_s", "formats.print")
    out["formats.print_kchars"] = (tracer.counts["formats.print_chars"] / 1000 / ops, "kchar")
    seconds("circuit.build_s", "circuit.build")
    seconds("circuit.condition_s", "circuit.condition")
    calls("circuit.condition_calls", "circuit.condition")
    out["circuit.traversals"] = (tracer.counts["circuit.traversals"] / ops, "count")
    out["circuit.gates_visited"] = (tracer.counts["circuit.gates_visited"] / ops, "count")
    seconds("classifier.certify_s", "classifier.certify")
    calls("classifier.certify_calls", "classifier.certify")
    seconds("classifier.fact_formula_s", "classifier.fact_formula")
    calls("classifier.fact_formula_calls", "classifier.fact_formula")
    seconds("rectify.rectify_s", "rectify.rectify")
    seconds("rectify.decisive_s", "rectify.decisive")
    out["rectify.out_arcs"] = (layer_out["circuit"] / ops, "arc")
    seconds("semantics.evaluate_s", "semantics.evaluate")
    calls("semantics.evaluate_calls", "semantics.evaluate")
    seconds("semantics.truth_mask_s", "semantics.truth_mask")
    calls("semantics.truth_mask_calls", "semantics.truth_mask")
    seconds("dtree.certify_s", "dtree.certify")
    seconds("dtree.simplify_s", "dtree.simplify")
    calls("dtree.simplify_calls", "dtree.simplify")
    seconds("dtree.circuit_to_dt_s", "dtree.circuit_to_dt")
    seconds("dtree.rectify_s", "dtree.rectify")
    out["dtree.nodes_out"] = (layer_out["tree"] / ops, "count")
    seconds("verify.postulates_s", "verify.postulates")
    seconds("gc.pause_s", "gc.pause")
    out["gc.gen2_collections"] = (tracer.counts["gc.gen2_collections"] / ops, "count")
    seconds("op.other_s", "op")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "monorect" / "__init__.py").is_file():
        print(f"error: no monorect sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    details = dict(outcome["details"], result=outcome["result"])
    if outcome["tracer"] is not None:
        outcome["tracer"].write(OUT / f"trace-{stem}.json.gz", details)
    else:
        (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
