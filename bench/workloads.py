"""The benchmark's three workloads: fixed, seeded lists of operations.

A workload's function generates one round's inputs from a seed string,
writes the files the program reads, and returns that round's list of
operations; every round has the same operations on inputs of the same
sizes.  An operation's `run` is the timed part: inputs in, the
program's answer out.  Its `check` runs afterwards, untimed, against
the reference in check.py.  For the operations `out_arcs_per_in_arc`
counts (circuits from the linear construction, and tree-pipeline trees)
it returns the arcs of the rectified output and of the inputs; for the
others, None.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen


@dataclass
class Op:
    kind: str
    run: Callable  # (program modules) -> output
    check: Callable  # (output) -> (output arcs, input arcs) or None
    inputs: list  # texts and words, until set-up digests them


def _rng(seed: str, stream: str, k: int = 0) -> random.Random:
    return random.Random(f"{seed}/{stream}/{k}")


def _write(directory: Path, name: str, content: str) -> str:
    path = directory / name
    path.write_text(content, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# circuit-large: parse_problem -> Classifier -> rectify -> classify_rectified

LARGE = dict(ops=2, features=16, sigma_gates=40, theory_gates=12000,
             label_share=0.3, instances=6, candidates=256)
LARGE_TINY = dict(ops=2, features=8, sigma_gates=10, theory_gates=300,
                  label_share=0.3, instances=4, candidates=64)


def _pick_instances(problem: check.Problem, rng: random.Random, size: dict):
    """Instance words with their expected verdicts: up to half of them
    flipped by the theory and the rest kept, at least one of each; None
    when the candidates hold no flip or no keep."""
    n = size["features"]
    words = ["".join(rng.choice("01") for _ in range(n)) for _ in range(size["candidates"])]
    v = problem.verdicts(words)
    flips = [k for k in range(len(words)) if check.bit(v.flipped, k)]
    keeps = [k for k in range(len(words)) if not check.bit(v.flipped, k)]
    if not flips or not keeps:
        return None
    half = size["instances"] // 2
    chosen = sorted(flips[:half] + keeps[: size["instances"] - len(flips[:half])])
    return [words[k] for k in chosen], [check.bit(v.rectified, k) for k in chosen]


def _large_run(path: str, words: list[str]):
    def run(m):
        pf = m.formats.parse_problem(Path(path).read_text(encoding="utf-8"))
        clf = m.classifier.Classifier(pf.problem, pf.sigma)
        result = m.rectify.rectify(clf, pf.theory)
        return result, [m.rectify.classify_rectified(result, w) for w in words]
    return run


def _large_check(words, want, sigma_arcs: int, theory_arcs: int):
    def check_out(out):
        result, got = out
        check.expect(got == want, f"verdicts {got} at {words}, expected {want}")
        positive = result.positive.size
        bound = sigma_arcs + 2 * theory_arcs + check.SIZE_SLACK
        check.expect(positive <= bound, f"output has {positive} arcs, over the bound {bound}")
        return result.rectified.circuit.size, sigma_arcs + theory_arcs
    return check_out


def circuit_large(seed: str, size: dict, directory: Path) -> list[Op]:
    ops = []
    for i in range(size["ops"]):
        for attempt in range(100):
            rng = _rng(seed, "large", i * 100 + attempt)
            content = gen.large_problem(rng, size["features"], size["sigma_gates"],
                                        size["theory_gates"], size["label_share"])
            problem = check.Problem(content)
            picked = _pick_instances(problem, rng, size)
            if picked is not None:
                break
        else:
            raise RuntimeError("no non-vacuous large problem in 100 draws")
        words, want = picked
        path = _write(directory, f"large{i}.sexp", content)
        sigma_arcs = problem.dag.arcs(problem.sigma)
        theory_arcs = problem.dag.arcs(problem.theory)
        ops.append(Op("pipeline", _large_run(path, words),
                      _large_check(words, want, sigma_arcs, theory_arcs), [content, *words]))
    return ops


# ----------------------------------------------------------------------
# desk-cli: monorect.cli.main(argv) on desk-scale files

# `table` and `check` enumerate every instance, so they run up to
# table_upto features; above that they would take most of the round.
DESK = dict(features=(5, 6, 7, 8, 9, 10), table_upto=8, sigma_gates=30, rule_gates=15,
            printable=(5, 6), printable_ops=8, tree_depth_extra=2, tree_nodes=8)
DESK_TINY = dict(features=(5,), table_upto=5, sigma_gates=10, rule_gates=5,
                 printable=(5,), printable_ops=4, tree_depth_extra=2, tree_nodes=4)


def _cli_op(kind: str, argv: list[str], check_out: Callable, inputs) -> Op:
    """A `monorect.cli.main(argv)` call with its output captured.

    A raised exception fails the operation; a non-zero exit code is a
    wrong answer (exit 1 from `check` means the postulate battery failed,
    2 and 3 a refused input), so the check requires exit code 0 before
    it looks at the printed text.
    """
    def run(m):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check_cli(output):
        code, printed, err = output
        check.expect(code == 0, f"{argv[0]} exited with {code}: {err.strip()!r}")
        return check_out(printed)

    return Op(kind, run, check_cli, list(inputs))


def _desk_problem(seed: str, k: int, n: int, size: dict):
    """A desk problem and four instance words: two flipped verdicts, two kept."""
    for attempt in range(100):
        rng = _rng(seed, "desk", k * 100 + attempt)
        content = gen.desk_problem(rng, n, size["sigma_gates"], size["rule_gates"])
        v = check.Problem(content).verdicts()
        flips = [i for i in range(1 << n) if check.bit(v.flipped, i)]
        keeps = [i for i in range(1 << n) if not check.bit(v.flipped, i)]
        if len(flips) >= 2 and len(keeps) >= 2:
            chosen = rng.sample(flips, 2) + rng.sample(keeps, 2)
            return content, [f"{i:0{n}b}" for i in chosen]
    raise RuntimeError("no non-vacuous desk problem in 100 draws")


# Checks read the reference's inputs back from the files when they run, so
# the operations of all rounds hold no reference structures meanwhile:
# those would count in the process's peak_rss_mb.


def _problem_from(path: str) -> check.Problem:
    return check.Problem(Path(path).read_text(encoding="utf-8"))


def _pair_from(sigma_path: str, theory_path: str) -> check.TreePair:
    return check.TreePair(Path(sigma_path).read_text(encoding="utf-8"),
                          Path(theory_path).read_text(encoding="utf-8"))


def _problem_ops(path: str, content: str, words, enumerate_all: bool) -> list[Op]:
    ops = [
        _cli_op("classify", ["classify", "--problem", path, "--instance", w],
                lambda out, w=w: check.check_classify(_problem_from(path), w, out), [w])
        for w in words
    ]
    if enumerate_all:
        ops.append(_cli_op("table", ["table", "--problem", path],
                           lambda out: check.check_table(_problem_from(path), out), []))
        ops.append(_cli_op("check", ["check", "--problem", path], check.check_postulates_output, []))
    ops.append(_cli_op("rectify-dtree", ["rectify", "--problem", path, "--out", "dtree"],
                       lambda out: check.check_rectify_dtree(_problem_from(path), out), []))
    ops[0].inputs.insert(0, content)
    return ops


def _tree_op(kind: str, directory: Path, stem: str, sigma: str, theory: str) -> Op:
    """`dt-rectify` on a tree pair; checked, but it counts no size: a desk
    tree's expansion follows the random function, not the construction."""
    s_path = _write(directory, f"{stem}.sigma.tree", sigma)
    t_path = _write(directory, f"{stem}.theory.tree", theory)

    def check_out(out):
        check.check_dt_rectify(_pair_from(s_path, t_path), out)

    return _cli_op(kind, ["dt-rectify", "--sigma", s_path, "--theory", t_path], check_out,
                   [sigma, theory])


def _circuit_check(path: str):
    def check_out(out):
        problem = _problem_from(path)
        return check.check_rectify_circuit(problem, out), problem.in_arcs
    return check_out


def desk_cli(seed: str, size: dict, directory: Path) -> list[Op]:
    ops = []
    k = 0
    for n in size["features"]:
        content, words = _desk_problem(seed, k, n, size)
        path = _write(directory, f"desk{k}.sexp", content)
        ops.extend(_problem_ops(path, content, words, n <= size["table_upto"]))
        sigma, theory = gen.tree_pair(_rng(seed, "desk-tree", k), n, n + size["tree_depth_extra"],
                                      size["tree_nodes"] * n, size["tree_nodes"] * n // 2)
        ops.append(_tree_op("dt-rectify", directory, f"desk{k}", sigma, theory))
        k += 1
    for j in range(size["printable_ops"]):
        n = size["printable"][j % len(size["printable"])]
        content = gen.printable_problem(_rng(seed, "printable", k), n, 8)
        path = _write(directory, f"small{k}.sexp", content)
        ops.append(_cli_op("rectify-circuit", ["rectify", "--problem", path, "--out", "circuit"],
                           _circuit_check(path), [content]))
        k += 1
    ops.extend(_deep_ops(directory))
    return ops


def _deep_ops(directory: Path) -> list[Op]:
    """The two deep-nesting inputs; their texts do not depend on the seed.

    Their outputs are checked like any other once the program reads them,
    but they count for no output size: they probe robustness, not size.
    """
    content = gen.deep_not_problem()
    word = "11010"
    path = _write(directory, "deep_not.sexp", content)
    sigma, theory = gen.deep_theory_tree()
    return [
        _cli_op("deep-classify", ["classify", "--problem", path, "--instance", word],
                lambda out: check.check_classify(_problem_from(path), word, out), [content, word]),
        _tree_op("deep-dt-rectify", directory, "deep", sigma, theory),
    ]


# ----------------------------------------------------------------------
# tree-pipeline: parse_tree_file x2 -> dt_rectify -> print_dtree

# (features, depth, classifier nodes, theory nodes); one op of each in turn.
# Equal node counts keep the largest class from dominating the output ratio.
TREES = dict(cycles=3, classes=((8, 14, 2000, 1000), (10, 16, 2000, 1000), (12, 18, 2000, 1000)))
TREES_TINY = dict(cycles=2, classes=((5, 7, 40, 20),))


def _tree_run(sigma_path: str, theory_path: str):
    def run(m):
        sigma = m.formats.parse_tree_file(Path(sigma_path).read_text(encoding="utf-8"))
        theory = m.formats.parse_tree_file(Path(theory_path).read_text(encoding="utf-8"))
        out = m.dtree.dt_rectify(sigma.tree, theory.tree, sigma.problem)
        return m.formats.print_dtree(out)
    return run


def _tree_check(sigma_path: str, theory_path: str):
    def check_out(out):
        pair = _pair_from(sigma_path, theory_path)
        return check.check_dt_rectify(pair, out), pair.in_arcs
    return check_out


def tree_pipeline(seed: str, size: dict, directory: Path) -> list[Op]:
    ops = []
    k = 0
    for _ in range(size["cycles"]):
        for n, depth, sigma_nodes, theory_nodes in size["classes"]:
            sigma, theory = gen.tree_pair(_rng(seed, "tree", k), n, depth, sigma_nodes, theory_nodes)
            s_path = _write(directory, f"tree{k}.sigma.tree", sigma)
            t_path = _write(directory, f"tree{k}.theory.tree", theory)
            ops.append(Op("dt-pipeline", _tree_run(s_path, t_path), _tree_check(s_path, t_path),
                          [sigma, theory]))
            k += 1
    return ops


WORKLOADS = {
    "circuit-large": (circuit_large, LARGE, LARGE_TINY),
    "desk-cli": (desk_cli, DESK, DESK_TINY),
    "tree-pipeline": (tree_pipeline, TREES, TREES_TINY),
}
