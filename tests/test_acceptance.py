"""End-to-end acceptance checks, one test per criterion.

Each test prints a ``criterion N: PASS`` line once its assertions hold,
so running ``pytest tests/test_acceptance.py -v -s`` gives a one-line
verdict per criterion.  Random corpora are seeded and regenerated
identically on every run.
"""

import gc
import random
import time
from pathlib import Path
from statistics import correlation, linear_regression

import pytest

from monorect import (
    Assignment,
    Classifier,
    Literal,
    Pool,
    Term,
    attach_label,
    check_postulates,
    check_xy_property,
    dalal_rectify,
    dt_condition,
    dt_eval,
    dt_rectify,
    dt_simplify,
    dt_to_circuit,
    equivalent,
    fact_formula,
    is_fact_compliant,
    is_read_once,
    label_blocks,
    oracle_rectify,
    parse_dtree,
    rectify,
    rf_rectify,
)
from monorect.cli import main as cli_main
from monorect.dtree import RandomForest, has_identical_children
from monorect.randgen import (
    random_circuit,
    random_classifier,
    random_problem,
    random_theory,
    random_tree,
)

from conftest import REDUCED_TREE_TEXT, SIGMA_TREE_TEXT, THEORY_TREE_TEXT

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

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

CORPUS_SEED = 20260810
CORPUS_SIZE = 1000


def _report(criterion, message):
    print(f"criterion {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded random single-label pairs: 3..8 features, <= 40 gates."""
    rng = random.Random(CORPUS_SEED)
    pairs = []
    for _ in range(CORPUS_SIZE):
        pool = Pool()
        problem = random_problem(pool, rng.randint(3, 8))
        clf = random_classifier(pool, problem, rng.randint(5, 40), rng)
        theory = random_theory(pool, problem, rng.randint(5, 40), rng)
        pairs.append((pool, problem, clf, theory, rectify(clf, theory)))
    return pairs


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = cli_main(["table", "--problem", str(PROBLEMS / "demo.sexp")])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN_TABLE
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "table output is byte-identical, 8 rows in %.3fs" % elapsed)


def test_criterion_2_worked_example_construction(demo):
    start = time.perf_counter()
    clf = Classifier(demo.problem, demo.sigma)
    result = rectify(clf, demo.theory)
    assert equivalent(result.positive, demo.pool.build(["and", "x1", "x2"]))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "accepted region is equivalent to (and x1 x2)")


def test_criterion_3_two_label_fact_machinery(twolabel):
    start = time.perf_counter()
    pool, problem, theory = twolabel.pool, twolabel.problem, twolabel.theory
    y1, y2 = problem.labels
    expectations = {
        "11": Term([Literal(y1), Literal(y2)]),
        "10": Term(),
        "01": Term([Literal(y2, False)]),
        "00": Term(),
    }
    for word, expected in expectations.items():
        assert fact_formula(theory, word, problem).term == expected
    clf = Classifier(problem, twolabel.sigma)
    for word in ("00", "10", "11"):
        assert is_fact_compliant(clf, theory, word)
    assert not is_fact_compliant(clf, theory, "01")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, "forced facts and compliance match on all four instances")


def test_criterion_4_three_routes_agree(corpus):
    start = time.perf_counter()
    mismatches = 0
    for pool, problem, clf, theory, result in corpus:
        # each route's rectified label block at every instance
        reference = oracle_rectify(clf, theory)
        distance = dalal_rectify(clf, theory)
        if not label_blocks(result.rectified.circuit, problem) == reference == distance:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0
    _report(4, f"{len(corpus)} pairs, all three routes agree at every instance in {elapsed:.1f}s")


def test_criterion_5_postulate_battery(corpus):
    start = time.perf_counter()
    failures = []
    for i, (pool, problem, clf, theory, result) in enumerate(corpus):
        report = check_postulates(
            clf, theory, result, rewrites=5, rng=random.Random(CORPUS_SEED + i)
        )
        if not report.all_passed:
            failures.append((i, report.render()))
    elapsed = time.perf_counter() - start
    assert not failures, failures[:3]
    assert elapsed < 60.0
    _report(5, f"six postulates hold on all {len(corpus)} pairs in {elapsed:.1f}s")


def test_criterion_6_linear_size_and_time(corpus):
    for pool, problem, clf, theory, result in corpus:
        assert result.rectified.circuit.size <= clf.circuit.size + 2 * theory.size + 16

    def construction_time(gate_budget, seed):
        rng = random.Random(seed)
        pool = Pool()
        problem = random_problem(pool, 14)
        clf = random_classifier(pool, problem, 60, rng)
        theory = random_circuit(pool, problem.all_vars, gate_budget, rng)
        gc.disable()
        begin = time.perf_counter()
        rectify(clf, theory)
        duration = time.perf_counter() - begin
        gc.enable()
        return clf.circuit.size + theory.size, duration

    arcs, times = [], []
    for budget in (100, 300, 1000, 3000, 10000, 30000, 100000):
        # fastest of three runs: the least-noise estimate of the true cost
        best = min(
            (construction_time(budget, CORPUS_SEED + budget + k) for k in range(3)),
            key=lambda pair: pair[1],
        )
        arcs.append(best[0])
        times.append(best[1])
    slope, _ = linear_regression(arcs, times)
    fit = correlation(arcs, times) ** 2
    assert slope > 0
    assert fit >= 0.95
    _report(
        6,
        f"size bound holds on all pairs; time fit R^2={fit:.4f} "
        f"({slope * 1e6:.2f}us per arc) over 1e2..1e5 gates",
    )


def test_criterion_7_tree_pipeline(demo):
    start = time.perf_counter()
    # the worked example, stage by stage
    parse = lambda text: parse_dtree(text, demo.pool)
    label = demo.problem.label
    sigma_tree = parse(SIGMA_TREE_TEXT)
    theory_tree = parse(THEORY_TREE_TEXT)
    out = dt_rectify(sigma_tree, theory_tree, demo.problem)
    accepted_tree = dt_condition(out, Literal(label, True))
    assert accepted_tree == parse(REDUCED_TREE_TEXT)
    clf = Classifier(demo.problem, demo.sigma)
    result = rectify(clf, demo.theory)
    assert equivalent(dt_to_circuit(accepted_tree, demo.pool), result.positive)

    # random cross-check of the tree route against the circuit route
    rng = random.Random(CORPUS_SEED)
    mismatches = 0
    for _ in range(500):
        pool = Pool()
        problem = random_problem(pool, rng.randint(3, 8))
        region_tree = random_tree(problem.features, rng, depth=5)
        sigma_dt = attach_label(region_tree, problem.label)
        theory_dt = random_tree(problem.all_vars, rng, depth=5)
        tree_route = dt_rectify(sigma_dt, theory_dt, problem)
        clf = Classifier(problem, dt_to_circuit(sigma_dt, pool))
        circuit_route = rectify(clf, dt_to_circuit(theory_dt, pool))
        if not equivalent(
            dt_to_circuit(tree_route, pool), circuit_route.rectified.circuit
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    _report(7, f"worked example exact; 500 random tree pairs agree in {elapsed:.1f}s")


def test_criterion_8_simplification_normal_form():
    rng = random.Random(CORPUS_SEED)
    failures = 0
    for _ in range(1000):
        pool = Pool()
        over = pool.declare(*(f"v{i}" for i in range(rng.randint(3, 8))))
        tree = random_tree(over, rng, depth=7, leaf_prob=0.2, identical_prob=0.25)
        reduced = dt_simplify(tree)
        same = all(
            dt_eval(reduced, Assignment.from_index(i, over))
            == dt_eval(tree, Assignment.from_index(i, over))
            for i in range(1 << len(over))
        )
        if not (is_read_once(reduced) and not has_identical_children(reduced) and same):
            failures += 1
    assert failures == 0
    _report(8, "1000 redundant trees reduced to normal form, all equivalent")


def test_criterion_9_forest_rectification():
    rng = random.Random(CORPUS_SEED)
    checked = 0
    for _ in range(150):
        pool = Pool()
        problem = random_problem(pool, rng.randint(3, 6))
        forest = RandomForest(
            tuple(
                attach_label(random_tree(problem.features, rng, depth=4), problem.label)
                for _ in range(3)
            )
        )
        theory_dt = random_tree(problem.all_vars, rng, depth=4)
        theory_circuit = dt_to_circuit(theory_dt, pool)
        rectified = rf_rectify(forest, theory_dt, problem)
        for tree in rectified.trees:
            clf = Classifier(problem, dt_to_circuit(tree, pool))
            assert check_xy_property(clf.circuit, clf.problem)
            for i in range(1 << len(problem.features)):
                inst = Assignment.from_index(i, problem.features)
                assert is_fact_compliant(clf, theory_circuit, inst)
                checked += 1
    _report(9, f"every rectified forest tree fact-compliant ({checked} instance checks)")
