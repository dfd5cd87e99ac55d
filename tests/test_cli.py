import contextlib
import dataclasses
import importlib
import io
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given

from monorect import (
    Classifier,
    check_xy_property,
    cli,
    label_blocks,
    negate,
    parse_problem,
    print_circuit,
    rectify,
)
from monorect.cli import main
from monorect.dtree import circuit_to_dt

from conftest import desk_pairs, reference_simplify

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


def test_fuzz_clean_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--vars", "4", "--iters", "25", "--seed", "3")
    assert code == 0
    assert "no mismatches" in out
    slack = re.search(r"size-bound slack min (-?\d+), mean (-?\d+\.\d) arcs$", out.strip())
    assert slack is not None
    low, mean = int(slack[1]), float(slack[2])
    assert 0 <= low <= mean


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--problem", DEMO, "--rewrites", "-2"),
        ("fuzz", "--vars", "4", "--iters", "-3"),
    ],
    ids=["check-rewrites", "fuzz-iters"],
)
def test_negative_counts_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least 0" in err


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


def test_fuzz_without_iterations_checks_nothing(capsys):
    code, out, err = run(capsys, "fuzz", "--vars", "4", "--iters", "0")
    assert (code, out, err) == (0, "fuzz: 0 iterations over 4 features, nothing checked\n", "")


@pytest.mark.parametrize("error", [RuntimeError, RecursionError, MemoryError])
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
    sigma = attach_label(random_tree(features, rng, depth=10), problem.label)
    theory = random_tree(problem.all_vars, rng, depth=10)
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
    code, _, err = run(capsys, "table", "--problem", str(PROBLEMS / "twolabel.sexp"))
    assert code == 2
    assert "single-label" in err


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
    from monorect import Assignment, DTLeaf, DTNode, dt_eval, dt_rectify
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

    def full(bits=()):
        if len(bits) == len(over):
            return DTLeaf(dt_eval(theory.tree, Assignment(over, bits)))
        return DTNode(over[len(bits)], full(bits + (0,)), full(bits + (1,)))

    shallow = dt_rectify(sigma.tree, full(), sigma.problem)
    for i in range(1 << len(over)):
        omega = Assignment.from_index(i, over)
        assert dt_eval(out, omega) == dt_eval(shallow, omega)

    sigma_path = tmp_path / "sigma.tree"
    theory_path = tmp_path / "theory.tree"
    sigma_path.write_text(sigma_text)
    theory_path.write_text(theory_text)
    code, printed, _ = run(
        capsys, "dt-rectify", "--sigma", str(sigma_path), "--theory", str(theory_path)
    )
    assert code == 0
    assert printed == text + "\n"
