import random

import pytest

from monorect import (
    Assignment,
    CapExceededError,
    CertificationError,
    Classifier,
    Pool,
    classify_rectified,
    condition,
    conjoin,
    decisive_circuits,
    equivalent,
    evaluate,
    is_consistent,
    is_fact_compliant,
    positive_circuit,
    preprocess_project,
    rectify,
)
from monorect.randgen import random_classifier, random_problem, random_theory


@pytest.fixture
def demo_result(demo):
    clf = Classifier(demo.problem, demo.sigma)
    return clf, rectify(clf, demo.theory)


class TestDecisiveCircuits:
    def test_demo_shapes(self, demo):
        forces_pos, forces_neg = decisive_circuits(demo.theory, demo.problem)
        pos_expected = demo.pool.build(
            ["and", "x2", ["not", ["or", ["not", "x1"], "x3"]]]
        )
        neg_expected = demo.pool.build(
            ["and", ["or", ["not", "x1"], "x3"], ["not", "x2"]]
        )
        assert equivalent(forces_pos, pos_expected)
        assert equivalent(forces_neg, neg_expected)

    def test_demo_highlighted_instance(self, demo):
        forces_pos, _ = decisive_circuits(demo.theory, demo.problem)
        inst = Assignment.from_word("110", demo.problem.features)
        assert evaluate(forces_pos, inst) == 1

    def test_contradictory_theory_forces_nothing(self, demo):
        absurd = demo.pool.const(0)
        forces_pos, forces_neg = decisive_circuits(absurd, demo.problem)
        assert not is_consistent(forces_pos)
        assert not is_consistent(forces_neg)


class TestRectify:
    def test_demo_accepted_region(self, demo_result, demo):
        _, result = demo_result
        assert equivalent(result.positive, demo.pool.build(["and", "x1", "x2"]))

    def test_contradictory_theory_changes_nothing(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        absurd = demo.pool.build(["and", "x1", ["not", "x1"]])
        result = rectify(clf, absurd)
        assert equivalent(result.positive, positive_circuit(clf))
        assert equivalent(result.rectified.circuit, clf.circuit)

    def test_tautological_theory_changes_nothing(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        result = rectify(clf, demo.pool.const(1))
        assert equivalent(result.positive, positive_circuit(clf))

    def test_rejects_uncertified_and_multilabel(self, demo, twolabel):
        bad = Classifier(twolabel.problem, twolabel.theory)
        with pytest.raises(CertificationError):
            rectify(bad, twolabel.theory)
        good = Classifier(twolabel.problem, twolabel.sigma)
        with pytest.raises(ValueError, match="single-label"):
            rectify(good, twolabel.theory)

    def test_rejects_unprojected_extras(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        (aux,) = demo.pool.declare("helper")
        noisy = conjoin(demo.theory, demo.pool.literal(aux))
        with pytest.raises(ValueError, match="preprocess_project"):
            rectify(clf, noisy)


class TestPreprocessProject:
    def test_identity_without_extras(self, demo):
        assert preprocess_project(demo.theory, demo.problem) == demo.theory

    def test_tautological_conjunct_vanishes(self, demo):
        (aux,) = demo.pool.declare("spare")
        noisy = conjoin(
            demo.theory,
            demo.pool.build(["or", "spare", ["not", "spare"]]),
        )
        projected = preprocess_project(noisy, demo.problem)
        assert projected.vars() <= set(demo.problem.all_vars)
        assert equivalent(projected, demo.theory)

    def test_defined_auxiliary_vanishes(self, demo):
        (aux,) = demo.pool.declare("alias")
        linked = demo.pool.build(
            [
                "and",
                ["iff", "alias", "x2"],
                ["imp", ["and", "x1", ["not", "x3"]], "y"],
                ["imp", ["not", "alias"], ["not", "y"]],
            ]
        )
        projected = preprocess_project(linked, demo.problem)
        assert equivalent(projected, demo.theory)

    def test_forgetting_cap(self, demo):
        extras = demo.pool.declare(*(f"e{i}" for i in range(9)))
        noisy = demo.theory
        for v in extras:
            noisy = conjoin(noisy, demo.pool.build(["or", v.name, ["not", v.name]]))
        with pytest.raises(CapExceededError):
            preprocess_project(noisy, demo.problem)

    def test_rectify_with_projection(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        baseline = rectify(clf, demo.theory)
        (aux,) = demo.pool.declare("scratch")
        noisy = conjoin(
            demo.theory, demo.pool.build(["or", "scratch", ["not", "scratch"]])
        )
        projected = rectify(clf, preprocess_project(noisy, demo.problem))
        assert equivalent(projected.positive, baseline.positive)


class TestClassifyRectified:
    @pytest.mark.parametrize(
        "word,expected", [("110", 1), ("101", 0), ("000", 0), ("111", 1)]
    )
    def test_demo_rows(self, demo_result, word, expected):
        _, result = demo_result
        assert classify_rectified(result, word) == expected


def _random_pair(seed, n_features=4, gates=25):
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, n_features)
    clf = random_classifier(pool, problem, gates, rng)
    theory = random_theory(pool, problem, gates, rng)
    return pool, problem, clf, theory


@pytest.mark.parametrize("seed", range(40))
def test_semantic_characterization(seed):
    # accepted exactly when (previously accepted and not forced negative)
    # or forced positive
    pool, problem, clf, theory = _random_pair(seed)
    result = rectify(clf, theory)
    region = positive_circuit(clf)
    for i in range(1 << len(problem.features)):
        inst = Assignment.from_index(i, problem.features)
        was = evaluate(region, inst) == 1
        f_pos = evaluate(result.forces_positive, inst) == 1
        f_neg = evaluate(result.forces_negative, inst) == 1
        assert (classify_rectified(result, inst) == 1) == ((was and not f_neg) or f_pos)


@pytest.mark.parametrize("seed", range(40))
def test_forced_regions_are_disjoint(seed):
    pool, problem, clf, theory = _random_pair(seed)
    result = rectify(clf, theory)
    assert not is_consistent(conjoin(result.forces_positive, result.forces_negative))


@pytest.mark.parametrize("seed", range(25))
def test_rectification_is_a_fixpoint(seed):
    pool, problem, clf, theory = _random_pair(seed)
    first = rectify(clf, theory)
    second = rectify(first.rectified, theory)
    assert equivalent(second.positive, first.positive)


@pytest.mark.parametrize("seed", range(25))
def test_knowledge_compliance(seed):
    # wherever the theory is satisfiable, the rectified verdict entails it
    pool, problem, clf, theory = _random_pair(seed)
    result = rectify(clf, theory)
    for i in range(1 << len(problem.features)):
        inst = Assignment.from_index(i, problem.features)
        at_x = condition(theory, inst.to_term())
        if not is_consistent(at_x):
            continue
        verdict = condition(result.rectified.circuit, inst.to_term())
        assert equivalent(conjoin(verdict, at_x), verdict)
        assert is_fact_compliant(result.rectified, theory, inst)


@pytest.mark.parametrize("seed", range(50))
def test_size_stays_linear(seed):
    pool, problem, clf, theory = _random_pair(seed, n_features=5, gates=35)
    result = rectify(clf, theory)
    region = positive_circuit(clf)
    assert result.positive.size <= region.size + 2 * theory.size + 16
    assert result.rectified.circuit.size <= clf.circuit.size + 2 * theory.size + 16
