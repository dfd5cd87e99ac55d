"""Tests of the benchmark itself: the reference checker and repeatability.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402

# Three features, one label: sigma accepts !x1&!x2 or x1&x3; the theory
# forces y under x1&!x3 and !y under !x2.
DEMO = """
(features x1 x2 x3)
(labels y)
(sigma (iff (or (and (not x1) (not x2)) (and x1 x3)) y))
(theory (and (imp (and x1 (not x3)) y) (imp (not x2) (not y))))
"""
DEMO_TABLE = """000 y !y !y !y
001 y !y !y !y
010 !y T T !y
011 !y T T !y
100 !y F T !y
101 y !y !y !y
110 !y y y y
111 y T T y
"""
SIGMA_TREE = "(features x1 x2 x3)\n(labels y)\n(tree (x1 (x2 (y 0 1) (y 1 0)) (x3 (y 1 0) (y 0 1))))\n"
THEORY_TREE = "(features x1 x2 x3)\n(labels y)\n(tree (y (x1 1 (x3 0 1)) (x2 0 1)))\n"
# accepted region of the demo after rectification: x1 & x2
RECTIFIED_TREE = "(x1 (y 1 0) (x2 (y 1 0) (y 0 1)))"


@pytest.fixture
def demo():
    return check.Problem(DEMO)


def test_reference_reproduces_the_worked_example(demo):
    check.check_table(demo, DEMO_TABLE)
    check.check_classify(demo, "110", "sigma: neg, rectified: pos\n")
    pair = check.TreePair(SIGMA_TREE, THEORY_TREE)
    assert check.check_dt_rectify(pair, RECTIFIED_TREE) == 10


def test_rejects_a_flipped_verdict(demo):
    with pytest.raises(check.CheckError):
        check.check_classify(demo, "110", "sigma: neg, rectified: neg\n")
    rows = DEMO_TABLE.replace("110 !y y y y", "110 !y y y !y")
    with pytest.raises(check.CheckError):
        check.check_table(demo, rows)
    pair = check.TreePair(SIGMA_TREE, THEORY_TREE)
    with pytest.raises(check.CheckError, match="flip rule"):
        check.check_dt_rectify(pair, "(x1 (y 1 0) (x2 (y 0 1) (y 1 0)))")


def test_rejects_an_output_over_the_size_bound(demo):
    bound = demo.dag.arcs(demo.sigma) + 2 * demo.dag.arcs(demo.theory) + check.SIZE_SLACK
    check.check_size_bound(demo, bound)
    with pytest.raises(check.CheckError):
        check.check_size_bound(demo, bound + 1)
    # a correct but padded circuit: x1 & x2 once per even number of negations
    padded = "(or " + " ".join(
        "(and " + "(not " * (2 * k) + "x1" + ")" * (2 * k) + " x2)" for k in range(30)
    ) + ")"
    printed = f"positive: {padded}\nrectified: (dec y (not {padded}) {padded})\n"
    with pytest.raises(check.CheckError, match="over the bound"):
        check.check_rectify_circuit(demo, printed)


def test_rejects_a_tree_with_identical_children():
    pair = check.TreePair(SIGMA_TREE, THEORY_TREE)
    redundant = "(x3 (x1 (y 1 0) (x2 (y 1 0) (y 0 1))) (x1 (y 1 0) (x2 (y 1 0) (y 0 1))))"
    with pytest.raises(check.CheckError, match="identical children"):
        check.check_dt_rectify(pair, redundant)
    repeated = "(x1 (y 1 0) (x1 (y 1 0) (x2 (y 1 0) (y 0 1))))"
    with pytest.raises(check.CheckError, match="repeats on a path"):
        check.check_dt_rectify(pair, repeated)


def test_reader_takes_deep_nesting():
    depth = 5000
    text = "(features x1)\n(labels y)\n(sigma (iff " + "(not " * depth + "x1" + ")" * depth + " y))\n(theory y)\n"
    problem = check.Problem(text)
    assert problem.verdicts(["1"]).sigma == 1


def test_a_failed_postulate_battery_is_a_wrong_answer(monkeypatch):
    """`check` exiting 1 with `postulate battery failed` makes `correct` false,
    even where its standard output alone would pass."""

    class Broken(run.Program):
        def __init__(self):
            super().__init__()
            real = self.cli.main

            def main(argv):
                code = real(argv)
                if argv[0] == "check":
                    print("postulate battery failed", file=sys.stderr)
                    return 1
                return code

            self.cli = SimpleNamespace(main=main)

    monkeypatch.setattr(run, "Program", Broken)
    result = run.run("desk-cli", 3, 1, False, tiny_run=True)
    assert result["result"]["correct"] is False
    assert result["result"]["failed"] == 2 * run.MIN_ROUNDS  # the deep inputs only
    assert any("postulate battery failed" in e for e in result["details"]["wrong_answers"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_runs_repeat_exactly(workload):
    """Two tiny runs from one seed: same inputs, counts, sizes and failures."""
    first = run.run(workload, 3, 1, False, tiny_run=True)
    second = run.run(workload, 3, 1, True, tiny_run=True)
    a, b = first["details"], second["details"]
    assert a["input_sha256"] == b["input_sha256"]
    assert a["op_kinds"] == b["op_kinds"]
    assert (a["out_arcs"], a["in_arcs"]) == (b["out_arcs"], b["in_arcs"])
    assert a["failures"] == b["failures"]
    for key in ("correct", "attempted", "failed"):
        assert first["result"][key] == second["result"][key]
    assert first["result"]["correct"]
    ratio = first["result"]["metrics"]["out_arcs_per_in_arc"]["value"]
    assert ratio == a["out_arcs"] / a["in_arcs"] > 0
    # the traced run's self times add up to its operation time
    assert b["self_s_total"] == pytest.approx(b["op_s_total"], rel=1e-9)
