import contextlib
import dataclasses
import importlib
import io
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monorect import (
    Classifier,
    check_xy_property,
    circuit,
    classifier,
    cli,
    label_blocks,
    negate,
    parse_circuit,
    parse_problem,
    positive_circuit,
    print_circuit,
    rectify,
    semantics,
)
from monorect.cli import main
from monorect.dtree import circuit_to_dt

from conftest import desk_pairs, reference_simplify, var_walks

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DEMO = str(PROBLEMS / "demo.sexp")

GOLDEN_TABLE = """\
000 y !y !y !y
001 y !y !y !y
010 !y T T !y
011 !y T T !y
100 !y F T !y
101 y !y !y !y
110 !y y y y
111 y T T y
"""


UNCERTIFIED = "sigma is not a classification circuit: some instance lacks a unique label assignment"
SINGLE_LABEL = "rectification is defined for single-label classifiers only"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_is_byte_exact(capsys):
    code, out, err = run(capsys, "table", "--problem", DEMO)
    assert code == 0
    assert out == GOLDEN_TABLE
    assert err == ""


def test_table_is_stable_across_runs(capsys):
    first = run(capsys, "table", "--problem", DEMO)
    second = run(capsys, "table", "--problem", DEMO)
    assert first == second


def test_classify_highlighted_instance(capsys):
    code, out, _ = run(capsys, "classify", "--problem", DEMO, "--instance", "110")
    assert code == 0
    assert out == "sigma: neg, rectified: pos\n"


def test_classify_unchanged_instance(capsys):
    code, out, _ = run(capsys, "classify", "--problem", DEMO, "--instance", "111")
    assert code == 0
    assert out == "sigma: pos, rectified: pos\n"


def test_classify_instances_file(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("110\n\n  111 \n110\n")
    code, out, err = run(capsys, "classify", "--problem", DEMO, "--instances", str(words))
    assert (code, err) == (0, "")
    assert out == (
        "110 sigma: neg, rectified: pos\n"
        "111 sigma: pos, rectified: pos\n"
        "110 sigma: neg, rectified: pos\n"
    )


def test_classify_instances_bad_word_names_its_line(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("110\n\n0x1\n")
    code, out, err = run(capsys, "classify", "--problem", DEMO, "--instances", str(words))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {words}, line 3: instance word must be 3 characters of 0/1, got '0x1'\n"
    )


def test_classify_instance_and_instances_exclude_each_other(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("110\n")
    with pytest.raises(SystemExit) as info:
        main(["classify", "--problem", DEMO, "--instance", "110", "--instances", str(words)])
    assert info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_classify_builds_no_rectified_circuit(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("classify built a rectified circuit")

    monkeypatch.setattr(cli, "rectify", refuse)
    monkeypatch.setattr(importlib.import_module("monorect.rectify"), "cofactors", refuse)
    code, out, err = run(capsys, "classify", "--problem", DEMO, "--instance", "110")
    assert (code, out, err) == (0, "sigma: neg, rectified: pos\n", "")


def test_table_builds_no_rectified_circuit(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("table built a rectified circuit")

    monkeypatch.setattr(cli, "rectify", refuse)
    monkeypatch.setattr(importlib.import_module("monorect.rectify"), "cofactors", refuse)
    assert run(capsys, "table", "--problem", DEMO) == (0, GOLDEN_TABLE, "")


@pytest.mark.parametrize("out", [["--out", "dtree"], ["--simplify"]])
def test_rectify_expands_one_circuit(monkeypatch, capsys, out):
    expanded = []

    def expand(circ, order, cap):
        expanded.append(tuple(order))
        return circuit_to_dt(circ, order, cap=cap)

    monkeypatch.setattr(cli, "circuit_to_dt", expand)
    code, _, _ = run(capsys, "rectify", "--problem", DEMO, *out)
    assert code == 0
    assert [[v.name for v in order] for order in expanded] == [["x1", "x2", "x3"]]


def test_rectify_dtree_output(capsys):
    code, out, _ = run(capsys, "rectify", "--problem", DEMO, "--out", "dtree")
    assert code == 0
    assert out == (
        "positive: (x1 0 (x2 0 1))\n"
        "rectified: (x1 (y 1 0) (x2 (y 1 0) (y 0 1)))\n"
    )


def test_rectify_circuit_output_parses_back(capsys):
    from monorect import equivalent, parse_circuit, parse_problem

    code, out, _ = run(capsys, "rectify", "--problem", DEMO)
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    pf = parse_problem(Path(DEMO).read_text())
    accepted = parse_circuit(lines["positive"], pf.pool)
    assert equivalent(accepted, pf.pool.build(["and", "x1", "x2"]))
    full = parse_circuit(lines["rectified"], pf.pool)
    assert equivalent(full, pf.pool.build(["iff", ["and", "x1", "x2"], "y"]))


def test_rectify_simplified_circuit_output(capsys):
    code, out, _ = run(capsys, "rectify", "--problem", DEMO, "--simplify")
    assert code == 0
    assert out.splitlines()[0] == "positive: (dec x1 false (dec x2 false true))"


def test_simplify_names_label_gates_in_the_order_they_are_first_reached(tmp_path, capsys):
    # the first leaf reached is a 1-leaf, and both label gates are shared:
    # the printer names shared gates by uid, so this pins the order they are created in
    path = tmp_path / "letorder.sexp"
    path.write_text(
        "(features x1 x2 x3)\n(labels y)\n"
        "(sigma (iff (dec x1 (not x2) (not x3)) y))\n(theory true)\n"
    )
    code, out, err = run(capsys, "rectify", "--problem", str(path), "--out", "circuit", "--simplify")
    assert (code, err) == (0, "")
    assert out == (
        "positive: (dec x1 (dec x2 true false) (dec x3 true false))\n"
        "rectified: (let ((g0 (dec y false true)) (g1 (dec y true false)))"
        " (dec x1 (dec x2 g0 g1) (dec x3 g0 g1)))\n"
    )


def _problem_text(problem, clf, theory) -> str:
    names = lambda vs: " ".join(v.name for v in vs)
    return (
        f"(features {names(problem.features)})\n(labels {names(problem.labels)})\n"
        f"(sigma {print_circuit(clf.circuit)})\n(theory {print_circuit(theory)})\n"
    )


def _run_on(text, *argv):
    """Exit code and standard output of a command on a problem file holding `text`."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.sexp"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--problem", str(path)])
    return code, out.getvalue()


BLOCK_TEXT = ("F", "!y", "y", "T")


@given(pair=desk_pairs())
def test_table_rows_end_with_the_rectified_circuit(pair):
    _, problem, clf, theory = pair
    text = _problem_text(problem, clf, theory)
    code, out = _run_on(text, "table")
    pf = parse_problem(text)
    result = rectify(Classifier(pf.problem, pf.sigma), pf.theory)
    blocks = (label_blocks(c, pf.problem) for c in (pf.sigma, pf.theory, result.rectified.circuit))
    n = len(problem.features)
    expected = [
        f"{x:0{n}b} {BLOCK_TEXT[before]} {BLOCK_TEXT[allowed]} "
        f"{BLOCK_TEXT[allowed] if allowed in (1, 2) else 'T'} {BLOCK_TEXT[after]}"
        for x, (before, allowed, after) in enumerate(zip(*blocks))
    ]
    assert code == 0
    assert out.splitlines() == expected


@given(pair=desk_pairs())
def test_simplify_prints_what_two_expansions_print(pair):
    _, problem, clf, theory = pair
    text = _problem_text(problem, clf, theory)
    code, out = _run_on(text, "rectify", "--out", "circuit", "--simplify")
    pf = parse_problem(text)
    accepted, full = reference_simplify(pf, rectify(Classifier(pf.problem, pf.sigma), pf.theory))
    assert code == 0
    assert out == f"positive: {print_circuit(accepted)}\nrectified: {print_circuit(full)}\n"


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "--problem", DEMO)
    assert code == 0
    assert "all postulates hold" in out
    for name in ("RE1", "RE2", "RE3", "RE4", "RE5", "RE6"):
        assert name in out


def test_dt_rectify(capsys):
    code, out, _ = run(
        capsys,
        "dt-rectify",
        "--sigma",
        str(PROBLEMS / "demo_sigma.tree"),
        "--theory",
        str(PROBLEMS / "demo_theory.tree"),
    )
    assert code == 0
    assert out == "(x1 (y 1 0) (x2 (y 1 0) (y 0 1)))\n"


def test_check_passes_in_either_section_order_and_with_more_rewrites(capsys):
    for argv in (
        ("--problem", str(PROBLEMS / "demo_reversed.sexp")),
        ("--problem", DEMO, "--rewrites", "8", "--seed", "3"),
    ):
        code, out, err = run(capsys, "check", *argv)
        assert (code, err) == (0, ""), argv
        assert "all postulates hold" in out, argv


DEMO_TREES = tuple(str(PROBLEMS / f"demo_{side}.tree") for side in ("sigma", "theory"))


def _messy(text):
    """In the tree section: a ';' comment holding a '(', a blank and a tab after
    each '(' before a name, and nodes glued to the next '('."""
    head, tree = text.split("(tree ")
    tree = re.sub(r"(x\d) \(", r"\1(", tree).replace(") (", ")(").replace("(x", "( \t x")
    return head + "(tree ; c (x 0\n" + tree


_LAYOUTS = {
    # one node a line, each indented by a tab, every line ended by CRLF
    "crlf-and-tabs": lambda text: text.replace(" (", "\n\t(").replace("\n", "\r\n"),
    "messy": _messy,
}


@pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS)
def test_tree_files_laid_out_otherwise_rectify_as_before(tmp_path, capsys, layout):
    copies = []
    for path in map(Path, DEMO_TREES):
        copy = tmp_path / path.name
        copy.write_bytes(layout(path.read_text(encoding="utf-8")).encode("utf-8"))
        copies.append(str(copy))
    expected = run(capsys, "dt-rectify", "--sigma", DEMO_TREES[0], "--theory", DEMO_TREES[1])
    assert expected == (0, "(x1 (y 1 0) (x2 (y 1 0) (y 0 1)))\n", "")
    assert run(capsys, "dt-rectify", "--sigma", copies[0], "--theory", copies[1]) == expected


def test_a_no_break_space_in_a_tree_name_is_an_input_error(tmp_path, capsys):
    # not one of the four blanks, so part of the name
    sigma = tmp_path / "sigma.tree"
    text = Path(DEMO_TREES[0]).read_text(encoding="utf-8")
    sigma.write_text(text.replace("(x2 ", "(x2\xa0z ", 1), encoding="utf-8")
    assert run(capsys, "dt-rectify", "--sigma", str(sigma), "--theory", DEMO_TREES[1]) == (
        2, "", "error: unknown identifier 'x2\\xa0z'\n"
    )


def test_dt_rectify_walks_no_tree_it_read(monkeypatch, capsys):
    from monorect import dt_rectify, parse_tree_file, print_dtree

    sigma_path, theory_path = PROBLEMS / "demo_sigma.tree", PROBLEMS / "demo_theory.tree"
    walks = var_walks(monkeypatch)
    code, out, _ = run(capsys, "dt-rectify", "--sigma", str(sigma_path), "--theory", str(theory_path))
    assert (code, out) == (0, "(x1 (y 1 0) (x2 (y 1 0) (y 0 1)))\n")
    assert walks == []
    # nor one built by hand: its pool declares only the problem's variables
    sigma, theory = (parse_tree_file(path.read_text()) for path in (sigma_path, theory_path))
    pool = sigma.pool
    x1, x2, x3, y = pool.variables
    zero, one = pool.const(0), pool.const(1)
    positive, negative = pool.decision(y, zero, one), pool.decision(y, one, zero)
    hand_built = pool.decision(
        x1, pool.decision(x2, positive, negative), pool.decision(x3, negative, positive)
    )
    assert hand_built == sigma.tree
    assert print_dtree(dt_rectify(hand_built, theory.tree, sigma.problem)) + "\n" == out
    assert walks == []


def test_dt_rectify_mismatched_files(tmp_path, capsys):
    other = tmp_path / "other.tree"
    other.write_text("(features a b)\n(labels y)\n(tree 1)\n")
    code, _, err = run(
        capsys,
        "dt-rectify",
        "--sigma",
        str(PROBLEMS / "demo_sigma.tree"),
        "--theory",
        str(other),
    )
    assert code == 2
    assert "different variables" in err


def test_dt_rectify_rejects_an_uncertified_classifier_tree(tmp_path, capsys):
    # x1=0 allows both labels
    sigma = tmp_path / "sigma.tree"
    sigma.write_text("(features x1)\n(labels y)\n(tree (x1 (y 1 1) (y 0 1)))\n")
    code, out, err = run(capsys, "dt-rectify", "--sigma", str(sigma), "--theory", str(sigma))
    assert (code, out) == (2, "")
    assert err == f"error: {UNCERTIFIED}\n"


# One refused classifier written twice, as a problem file and as a tree file:
# x1=0 allows both labels, or the file declares two labels.
_BOTH_ROUTES = {
    UNCERTIFIED: (
        "(features x1)\n(labels y)\n",
        "(sigma (dec x1 (dec y true true) (dec y false true)))\n(theory true)\n",
        "(tree (x1 (y 1 1) (y 0 1)))\n",
    ),
    SINGLE_LABEL: (
        "(features x1)\n(labels y z)\n",
        "(sigma (and (iff x1 y) (not z)))\n(theory true)\n",
        "(tree (x1 (y (z 1 0) 0) (y 0 (z 1 0))))\n",
    ),
}


@pytest.mark.parametrize("message", _BOTH_ROUTES, ids=("uncertified", "two labels"))
def test_both_routes_refuse_one_input_with_one_line(tmp_path, capsys, message):
    head, sections, tree = _BOTH_ROUTES[message]
    problem, sigma, theory = (tmp_path / name for name in ("p.sexp", "sigma.tree", "theory.tree"))
    problem.write_text(head + sections)
    sigma.write_text(head + tree)
    theory.write_text(head + "(tree 1)\n")
    runs = [
        ("rectify", "--problem", str(problem)),
        ("classify", "--problem", str(problem), "--instance", "0"),
        ("table", "--problem", str(problem)),
        ("check", "--problem", str(problem)),
        ("dt-rectify", "--sigma", str(sigma), "--theory", str(theory)),
        ("dt-rectify", "--sigma", str(sigma), "--theory", str(sigma)),
    ]
    for argv in runs:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


@pytest.mark.parametrize(
    "theory_head, message",
    [
        ("(features x1 x3)\n(labels y)\n", "sigma and theory trees declare different variables"),
        # the same variables in the same order, one of them declared a label
        ("(features x1)\n(labels x2 y)\n", SINGLE_LABEL),
    ],
    ids=("other features", "two labels"),
)
def test_dt_rectify_refuses_tree_files_that_declare_other_variables(
    tmp_path, capsys, theory_head, message
):
    sigma, theory = tmp_path / "sigma.tree", tmp_path / "theory.tree"
    sigma.write_text("(features x1 x2)\n(labels y)\n(tree (x1 (y 1 0) (y 0 1)))\n")
    theory.write_text(theory_head + "(tree (x1 1 (y 0 1)))\n")
    code, out, err = run(capsys, "dt-rectify", "--sigma", str(sigma), "--theory", str(theory))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fuzz_clean_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--vars", "4", "--iters", "25", "--seed", "3")
    assert code == 0
    assert "no mismatches" in out
    slack = re.search(r"size-bound slack min (-?\d+), mean (-?\d+\.\d) arcs$", out.strip())
    assert slack is not None
    low, mean = int(slack[1]), float(slack[2])
    assert 0 <= low <= mean


@pytest.mark.parametrize(
    "argv, option, least",
    [
        (("check", "--problem", DEMO, "--rewrites", "-2"), "--rewrites", 0),
        (("fuzz", "--vars", "4", "--iters", "-3"), "--iters", 0),
        (("fuzz", "--iters", "0", "--vars", "-5"), "--vars", 1),
        (("fuzz", "--iters", "0", "--vars", "0"), "--vars", 1),
    ],
    ids=["check-rewrites", "fuzz-iters", "fuzz-vars", "fuzz-no-vars"],
)
def test_negative_counts_are_input_errors(capsys, argv, option, least):
    # rejected by the argument parser, like --max-vars, before the file is read
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert f"argument {option}: must be at least {least}, got {argv[-1]}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("rectify", "--problem", DEMO),
        ("classify", "--problem", DEMO, "--instance", "110"),
        ("table", "--problem", DEMO),
        ("check", "--problem", DEMO),
        ("fuzz", "--vars", "4", "--iters", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_cap_is_an_input_error(capsys, argv):
    # rejected by the argument parser, which exits 2 before the command runs
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--max-vars", "-1"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert "argument --max-vars: must be at least 0, got -1" in captured.err


def test_fuzz_size_bound_violation_is_a_failure(monkeypatch, capsys):
    def bloated_rectify(clf, theory):
        # an equivalent rectified classifier, padded past the size bound
        result = rectify(clf, theory)
        pool = theory.pool
        var = pool.literal(clf.problem.features[0])
        padding = pool.or_([var, pool.not_(var)])
        for _ in range(300):
            padding = pool.or_([padding, var])
        padded = pool.and_([result.positive, padding])
        bloated = Classifier.from_positive_circuit(clf.problem, padded)
        return dataclasses.replace(result, rectified=bloated)

    monkeypatch.setattr(cli, "rectify", bloated_rectify)
    code, out, err = run(capsys, "fuzz", "--vars", "4", "--iters", "3", "--seed", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("size bound exceeded at iteration 0 by ")


def test_fuzz_mismatch_names_the_instance(monkeypatch, capsys):
    def inverted_rectify(clf, theory):
        # the complement of the right answer: wrong at every instance
        result = rectify(clf, theory)
        wrong = Classifier.from_positive_circuit(clf.problem, negate(result.positive))
        return dataclasses.replace(result, rectified=wrong)

    monkeypatch.setattr(cli, "rectify", inverted_rectify)
    code, out, err = run(capsys, "fuzz", "--vars", "4", "--iters", "3", "--seed", "3")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert lines[:2] == [
        "mismatch at iteration 0: construction != instance oracle at instance 0000",
        "mismatch at iteration 0: construction != distance oracle at instance 0000",
    ]
    assert "instance oracle != distance oracle" not in err


def test_fuzz_failure_report_names_each_region(monkeypatch, capsys):
    seen = []

    def inverted_rectify(clf, theory):
        result = rectify(clf, theory)
        wrong = Classifier.from_positive_circuit(clf.problem, negate(result.positive))
        seen.append((clf, theory, wrong))
        return dataclasses.replace(result, rectified=wrong)

    monkeypatch.setattr(cli, "rectify", inverted_rectify)
    code, out, err = run(capsys, "fuzz", "--vars", "3", "--iters", "1")
    [(clf, theory, wrong)] = seen
    assert (code, out) == (1, "")
    assert err.splitlines()[-3:] == [
        f"sigma positive region: {print_circuit(positive_circuit(clf))}",
        f"rectified positive region: {print_circuit(positive_circuit(wrong))}",
        f"theory: {print_circuit(theory)}",
    ]


def _walks(monkeypatch) -> list[int]:
    """The root uid of every circuit the gate interpreter walks from now on."""
    walked = []
    real = semantics._table

    def spy(circ, masks, full, *rest):
        walked.append(circ.uid)
        return real(circ, masks, full, *rest)

    for module in (semantics, classifier):
        monkeypatch.setattr(module, "_table", spy)
    return walked


def _traversals(monkeypatch) -> list[int]:
    """The root uid of every `iter_gates` walk from now on, in whichever module."""
    walked = []
    real = circuit.iter_gates

    def spy(circ):
        walked.append(circ.uid)
        return real(circ)

    for name, module in list(sys.modules.items()):
        if name.startswith("monorect") and getattr(module, "iter_gates", None) is real:
            monkeypatch.setattr(module, "iter_gates", spy)
    return walked


@pytest.mark.parametrize(
    "argv, walks",
    [
        # sigma certified, then sigma's and the theory's blocks at the instance
        (("classify", "--problem", DEMO, "--instance", "101"), 3),
        # sigma certified, then sigma's and the theory's full tables
        (("table", "--problem", DEMO), 3),
        # sigma certified, the theory's cofactors, sigma's positive cofactor, two prints
        (("rectify", "--problem", DEMO), 5),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else None,
)
def test_a_pool_of_the_problem_file_is_walked_for_work_only(monkeypatch, capsys, argv, walks):
    walked = _traversals(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert len(walked) == walks


def test_check_walks_no_circuit_to_list_its_variables_outside_re6(monkeypatch, capsys):
    walked = _traversals(monkeypatch)
    assert run(capsys, "check", "--problem", DEMO)[0] == 0
    # the battery's work, plus RE6's variable checks: its scratch pool declares a dummy
    assert len(walked) == 42


def test_fuzz_walks_no_region_to_list_its_variables(monkeypatch, capsys):
    walked = _traversals(monkeypatch)
    code, _, _ = run(capsys, "fuzz", "--vars", "6", "--iters", "10", "--seed", "0")
    assert code == 0
    # the generator builds each classifier from a region over the features, unchecked
    assert len(walked) == 8 * 10


def test_check_certifies_only_the_problem_file(monkeypatch, capsys):
    certified = []
    real = classifier.check_xy_property

    def spy(circ, problem, cap=semantics.DEFAULT_VAR_CAP):
        certified.append(circ.uid)
        return real(circ, problem, cap)

    monkeypatch.setattr(classifier, "check_xy_property", spy)
    assert run(capsys, "check", "--problem", DEMO)[0] == 0
    # RE5's and RE6's rewrites of sigma are classifiers by construction
    assert len(certified) == 1


def test_fuzz_walks_each_circuit_once_per_iteration(monkeypatch, capsys):
    walked = _walks(monkeypatch)
    code, _, _ = run(capsys, "fuzz", "--vars", "6", "--iters", "10", "--seed", "0")
    assert code == 0
    # sigma's and the theory's blocks feed both references; the construction's are the third
    assert len(walked) == 3 * 10


def test_check_compares_the_blocks_it_holds(monkeypatch, capsys):
    walked = _walks(monkeypatch)
    code, _, _ = run(capsys, "check", "--problem", DEMO)
    assert code == 0
    # sigma certified, three block reads, then one block read per rewrite (5)
    # and one for RE6; no rewrite certified, no second table of the outcome
    assert len(walked) == 10


def test_check_without_rewrites_walks_for_re1_to_re4_and_re6(monkeypatch, capsys):
    walked = _walks(monkeypatch)
    code, _, _ = run(capsys, "check", "--problem", DEMO, "--rewrites", "0")
    assert code == 0
    assert len(walked) == 5


def test_a_failed_battery_exits_1(monkeypatch, capsys):
    def complemented_rectify(clf, theory):
        result = rectify(clf, theory)
        wrong = Classifier.from_positive_circuit(clf.problem, negate(result.positive))
        return dataclasses.replace(result, rectified=wrong)

    monkeypatch.setattr(cli, "rectify", complemented_rectify)
    code, out, err = run(capsys, "check", "--problem", DEMO)
    assert code == 1
    assert "FAIL" in out
    assert "all postulates hold" not in out
    assert err == "postulate battery failed\n"


def test_fuzz_without_iterations_checks_nothing(capsys):
    code, out, err = run(capsys, "fuzz", "--vars", "4", "--iters", "0")
    assert (code, out, err) == (0, "fuzz: 0 iterations over 4 features, nothing checked\n", "")


@pytest.mark.parametrize(
    "error", [RuntimeError, RecursionError, MemoryError, TypeError, ValueError]
)
def test_unexpected_exception_is_internal_error(monkeypatch, capsys, error):
    def broken(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_table", broken)
    code, out, err = run(capsys, "table", "--problem", DEMO)
    assert code == 4
    assert out == ""
    assert err == f"internal error: {error.__name__}: boom\n"


def test_parser_is_built_once(capsys):
    run(capsys, "table", "--problem", DEMO)
    parser = cli._parser()
    code, out, _ = run(capsys, "classify", "--problem", DEMO, "--instance", "110")
    assert code == 0 and out == "sigma: neg, rectified: pos\n"
    assert cli._parser() is parser


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "table", "--problem", "no-such-file.sexp")
    assert code == 2
    assert "error:" in err


def test_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.sexp"
    bad.write_text("(features x1\n")
    code, _, err = run(capsys, "table", "--problem", str(bad))
    assert code == 2
    assert "error:" in err


def test_bad_instance_word_is_input_error(capsys):
    code, _, err = run(capsys, "classify", "--problem", DEMO, "--instance", "11")
    assert code == 2
    assert "error:" in err


def test_uncertified_sigma_is_input_error(tmp_path, capsys):
    bad = tmp_path / "loose.sexp"
    bad.write_text("(features x1)\n(labels y)\n(sigma true)\n(theory true)\n")
    for argv in (["rectify"], ["classify", "--instance", "1"], ["table"], ["check"]):
        code, out, err = run(capsys, argv[0], "--problem", str(bad), *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err == (
            "error: sigma is not a classification circuit: "
            "some instance lacks a unique label assignment\n"
        ), argv


def test_cap_exceeded_exit_code(tmp_path, capsys):
    names = " ".join(f"v{i}" for i in range(21))
    big = tmp_path / "big.sexp"
    big.write_text(f"(features {names})\n(labels y)\n(sigma (iff v0 y))\n(theory true)\n")
    code, _, err = run(capsys, "table", "--problem", str(big))
    assert code == 3
    assert "cap" in err


def test_cap_can_be_raised(tmp_path, capsys):
    names = " ".join(f"v{i}" for i in range(21))
    big = tmp_path / "big.sexp"
    big.write_text(f"(features {names})\n(labels y)\n(sigma (iff v0 y))\n(theory true)\n")
    word = "1" + "0" * 20
    code, out, _ = run(
        capsys, "classify", "--problem", str(big), "--instance", word, "--max-vars", "22"
    )
    assert code == 0
    assert out == "sigma: pos, rectified: pos\n"


WIDE_WORD = "1" + "0" * 29


@pytest.mark.parametrize("argv", [["rectify"], ["classify", "--instance", WIDE_WORD]])
def test_wide_circuit_problem_exceeds_the_cap(tmp_path, capsys, argv):
    # circuit certification still reads a truth table over features plus label
    names = " ".join(f"v{i}" for i in range(30))
    wide = tmp_path / "wide.sexp"
    wide.write_text(
        f"(features {names})\n(labels y)\n"
        "(sigma (iff (or (and v0 v1) v29) y))\n(theory (imp (and v2 v3) (not y)))\n"
    )
    code, out, err = run(capsys, argv[0], "--problem", str(wide), *argv[1:])
    assert code == 3
    assert out == ""
    assert err == "error: 31 variables exceed the enumeration cap of 20\n"


@pytest.mark.parametrize("width", [30, 64])
def test_wide_tree_pair_rectifies(tmp_path, capsys, width):
    from monorect import ClassificationProblem, Pool, attach_label, dt_rectify, print_dtree
    from monorect.randgen import random_tree

    pool = Pool()
    features = pool.declare(*(f"x{i}" for i in range(width)))
    problem = ClassificationProblem(features, pool.declare("y"))
    rng = random.Random(width)
    sigma = attach_label(random_tree(pool, features, rng, depth=10), problem.label)
    theory = random_tree(pool, problem.all_vars, rng, depth=10)
    head = f"(features {' '.join(v.name for v in features)})\n(labels y)\n"
    sigma_path = tmp_path / "sigma.tree"
    theory_path = tmp_path / "theory.tree"
    sigma_path.write_text(head + f"(tree {print_dtree(sigma)})\n")
    theory_path.write_text(head + f"(tree {print_dtree(theory)})\n")
    code, out, err = run(
        capsys, "dt-rectify", "--sigma", str(sigma_path), "--theory", str(theory_path)
    )
    assert (code, err) == (0, "")
    assert out == print_dtree(dt_rectify(sigma, theory, problem)) + "\n"


def test_multilabel_table_rejected(capsys):
    code, out, err = run(capsys, "table", "--problem", str(PROBLEMS / "twolabel.sexp"))
    assert (code, out) == (2, "")
    assert err == "error: rectification is defined for single-label classifiers only\n"


@pytest.mark.parametrize(
    "argv",
    [["rectify"], ["classify", "--instance", "0" * 25], ["check"], ["table"]],
    ids=lambda a: a[0],
)
def test_wide_multilabel_file_is_an_input_error(tmp_path, monkeypatch, capsys, argv):
    # rejected for its second label before sigma's 27-variable truth table is tried
    names = " ".join(f"x{i}" for i in range(1, 26))
    wide = tmp_path / "wide.sexp"
    wide.write_text(
        f"(features {names}) (labels y1 y2) (sigma (and (iff x1 y1) (not y2))) (theory true)\n"
    )
    certified = []
    monkeypatch.setattr(classifier, "check_xy_property", lambda *a, **k: certified.append(a))
    code, out, err = run(capsys, argv[0], "--problem", str(wide), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: rectification is defined for single-label classifiers only\n"
    assert certified == []


def _with_bom(tmp_path, name):
    copy = tmp_path / name
    copy.write_bytes(b"\xef\xbb\xbf" + (PROBLEMS / name).read_bytes())
    return str(copy)


def test_inputs_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    sigma, theory = (str(PROBLEMS / f"demo_{part}.tree") for part in ("sigma", "theory"))
    instances = str(PROBLEMS / "demo.instances")
    commands = [
        ["table", "--problem", DEMO],
        ["rectify", "--problem", DEMO],
        ["classify", "--problem", DEMO, "--instances", instances],
        ["dt-rectify", "--sigma", sigma, "--theory", theory],
    ]
    copies = {
        path: _with_bom(tmp_path, Path(path).name) for path in (DEMO, sigma, theory, instances)
    }
    for argv in commands:
        expected = run(capsys, *argv)
        assert expected[0] == 0 and expected[1]
        assert run(capsys, *(copies.get(word, word) for word in argv)) == expected


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    # a stray 0xff byte, say from a Latin-1 editor, is malformed text: one line, exit 2
    sigma, theory = DEMO_TREES
    instances = str(PROBLEMS / "demo.instances")
    commands = [
        ["table", "--problem", DEMO],
        ["dt-rectify", "--sigma", sigma, "--theory", theory],
        ["classify", "--problem", DEMO, "--instances", instances],
    ]
    for argv, path in zip(commands, (DEMO, sigma, instances)):
        copy = tmp_path / Path(path).name
        copy.write_bytes(b"; \xff\n" + Path(path).read_bytes())
        code, out, err = run(capsys, *(str(copy) if word == path else word for word in argv))
        assert (code, out) == (2, ""), argv
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n"
        ), argv


def test_deep_not_chain_classifies(tmp_path, capsys):
    from monorect import Classifier, classify, classify_rectified, parse_problem, rectify

    depth = 100_000  # even, so the chain stands for x1
    chain = "(not " * depth + "x1" + ")" * depth
    text = (
        "(features x1 x2 x3)\n(labels y)\n"
        f"(sigma (iff (or {chain} x3) y))\n"
        "(theory (imp (and x2 (not x3)) (not y)))\n"
    )
    pf = parse_problem(text)
    clf = Classifier(pf.problem, pf.sigma)
    assert check_xy_property(clf.circuit, clf.problem)
    result = rectify(clf, pf.theory)
    # the theory forces a negative verdict at 110 only among these two
    assert classify(clf, "110").word == "1" and classify_rectified(result, "110") == 0
    assert classify(clf, "101").word == "1" and classify_rectified(result, "101") == 1
    deep = tmp_path / "deep.sexp"
    deep.write_text(text)
    code, out, _ = run(capsys, "classify", "--problem", str(deep), "--instance", "110")
    assert code == 0
    assert out == "sigma: pos, rectified: neg\n"


def test_deep_theory_tree_rectifies(tmp_path, capsys):
    from monorect import dt_rectify, truth_mask
    from monorect import parse_dtree, parse_tree_file, print_dtree

    depth = 100_000
    head = "(features x1 x2 x3)\n(labels y)\n"
    # the chain goes on where every variable is 1; its 1-leaf is met at 111 with y=1
    names = ("x1", "x2", "x3", "y")
    chain = "".join(f"({names[i % 4]} {i % 2} " for i in range(depth)) + "1" + ")" * depth
    sigma_text = head + "(tree (x1 (x2 (y 0 1) (y 1 0)) (x3 (y 1 0) (y 0 1))))\n"
    theory_text = head + f"(tree {chain})\n"
    sigma = parse_tree_file(sigma_text)
    theory = parse_tree_file(theory_text)
    out = dt_rectify(sigma.tree, theory.tree, sigma.problem)
    text = print_dtree(out)
    assert print_dtree(parse_dtree(text, sigma.pool)) == text

    # the same verdicts as rectifying by the theory's truth table, as a full tree
    over = sigma.problem.all_vars

    pool = sigma.pool
    table = truth_mask(theory.tree, over)

    def full(k=0, i=0):
        # the subtree below the first k variables set as the k bits of i
        if k == len(over):
            return pool.const(table >> i & 1)
        return pool.decision(over[k], full(k + 1, 2 * i), full(k + 1, 2 * i + 1))

    shallow = dt_rectify(sigma.tree, full(), sigma.problem)
    assert truth_mask(out, over) == truth_mask(shallow, over)

    sigma_path = tmp_path / "sigma.tree"
    theory_path = tmp_path / "theory.tree"
    sigma_path.write_text(sigma_text)
    theory_path.write_text(theory_text)
    code, printed, _ = run(
        capsys, "dt-rectify", "--sigma", str(sigma_path), "--theory", str(theory_path)
    )
    assert code == 0
    assert printed == text + "\n"


def test_a_cap_that_is_no_number_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["table", "--problem", DEMO, "--max-vars", "abc"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: argument --max-vars: invalid int value: 'abc'\n")


# ----------------------------------------------------------------------
# Typed rejection: every command either works on a token mutant of a
# shipped input or rejects it with a documented exit code and one line.

_INPUTS = sorted(PROBLEMS.iterdir())
_SPARE_TOKENS = (
    *"()012",
    *("true", "false", "not", "and", "or", "imp", "iff", "dec", "let", "x1", "y", "zz"),
    *("features", "labels", "sigma", "theory", "tree", "forest", "110", "10"),
)


def _input_tokens(path: Path) -> list[str]:
    text = re.sub(r";[^\n]*", "", path.read_text(encoding="utf-8"))
    return re.findall(r"[()]|[^\s()]+", text)


@st.composite
def _mutants(draw):
    """A shipped input and the text of its tokens after one to three edits."""
    path = draw(st.sampled_from(_INPUTS))
    tokens = _input_tokens(path)
    spare = st.sampled_from(_SPARE_TOKENS + tuple(tokens))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
        if kind == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(spare))
            continue
        if not tokens:
            continue
        i = draw(st.integers(0, len(tokens) - 1))
        if kind == "delete":
            del tokens[i]
        elif kind == "replace":
            tokens[i] = draw(spare)
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return path, "\n".join(tokens)  # a line per token keeps the instance words apart


def _commands(path: Path, mutant: str) -> list[list[str]]:
    if path.suffix == ".sexp":
        problem = ["--problem", mutant]
        return [
            ["rectify", *problem, "--out", "circuit"],
            ["rectify", *problem, "--out", "dtree"],
            ["rectify", *problem, "--out", "circuit", "--simplify"],
            ["classify", *problem, "--instance", "110"],
            ["table", *problem],
            ["check", *problem, "--rewrites", "1"],
        ]
    if path.suffix == ".tree":
        sigma, theory = (
            mutant if path.name == name else str(PROBLEMS / name)
            for name in ("demo_sigma.tree", "demo_theory.tree")
        )
        return [["dt-rectify", "--sigma", sigma, "--theory", theory]]
    return [["classify", "--problem", DEMO, "--instances", mutant]]


@settings(max_examples=200, deadline=None)
@given(case=_mutants())
def test_a_mutated_input_works_or_is_rejected_with_one_typed_line(case):
    path, text = case
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / path.name
        mutant.write_text(text, encoding="utf-8")
        for argv in _commands(path, str(mutant)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, text, err.getvalue())
            assert "internal error" not in err.getvalue(), (argv, text)
            if code:
                assert len(err.getvalue().splitlines()) == 1, (argv, text, err.getvalue())
            elif argv[0] == "rectify" and argv[-1] == "circuit":  # the linear size bound
                pf = parse_problem(text)
                rectified = parse_circuit(out.getvalue().splitlines()[1][len("rectified: ") :], pf.pool)
                assert rectified.size <= pf.sigma.size + 2 * pf.theory.size + 16, text

