import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from monorect import (
    Assignment,
    CapExceededError,
    CertificationError,
    Circuit,
    ClassificationProblem,
    Classifier,
    Pool,
    RandomForest,
    check_postulates,
    check_xy_property,
    circuit_to_dt,
    classify,
    classify_batch,
    classify_rectified,
    condition,
    conjoin,
    decisive_circuits,
    dt_rectify,
    equivalent,
    evaluate,
    fact_formula,
    is_fact_compliant,
    label_blocks,
    oracle_rectify,
    parse_circuit,
    parse_problem,
    positive_circuit,
    preprocess_project,
    print_circuit,
    rectify,
    rf_classify,
    truth_mask,
)
from monorect.cli import main
from monorect.randgen import random_classifier, random_problem, random_theory

from conftest import desk_pairs, gate_count, oracle_args, to_term, var_walks

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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
        assert truth_mask(forces_pos, demo.problem.features) == 0
        assert truth_mask(forces_neg, demo.problem.features) == 0


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
        # no Classifier holds an uncertified circuit, so none reaches rectify
        with pytest.raises(CertificationError):
            Classifier(twolabel.problem, twolabel.theory)
        good = Classifier(twolabel.problem, twolabel.sigma)
        with pytest.raises(ValueError, match="single-label"):
            rectify(good, twolabel.theory)

    def test_rejects_unprojected_extras(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        (aux,) = demo.pool.declare("helper")
        noisy = conjoin(demo.theory, demo.pool.literal(aux))
        with pytest.raises(ValueError, match="preprocess_project"):
            rectify(clf, noisy)


# Every operation that needs one label reaches `ClassificationProblem.label`, the one guard.
_SINGLE_LABEL_CALLS = {
    "problem.label": lambda f, clf: f.problem.label,
    "rectify": lambda f, clf: rectify(clf, f.theory),
    "classify_batch": lambda f, clf: classify_batch(clf, f.theory, ["00"]),
    "decisive_circuits": lambda f, clf: decisive_circuits(f.theory, f.problem),
    "positive_circuit": lambda f, clf: positive_circuit(clf),
    "from_positive_circuit": lambda f, clf: Classifier.from_positive_circuit(f.problem, f.sigma),
    "dt_rectify": lambda f, clf: dt_rectify(f.sigma, f.theory, f.problem),
    "rf_classify": lambda f, clf: rf_classify(RandomForest((f.sigma,)), "00", f.problem),
    "oracle_rectify": lambda f, clf: oracle_rectify([], [], f.problem),
}


@pytest.mark.parametrize("call", _SINGLE_LABEL_CALLS.values(), ids=_SINGLE_LABEL_CALLS)
def test_every_single_label_operation_raises_the_one_message(twolabel, call):
    clf = Classifier(twolabel.problem, twolabel.sigma)
    with pytest.raises(ValueError) as err:
        call(twolabel, clf)
    assert str(err.value) == "rectification is defined for single-label classifiers only"


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


DEMO_VERDICTS = {
    "000": (1, 0), "001": (1, 0), "010": (0, 0), "011": (0, 0),
    "100": (0, 0), "101": (1, 0), "110": (0, 1), "111": (1, 1),
}


class TestClassifyBatch:
    def test_demo_words(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        words = list(DEMO_VERDICTS)
        assert classify_batch(clf, demo.theory, words) == list(DEMO_VERDICTS.values())

    def test_order_duplicates_and_empty(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        words = ["110", "000", "110", "111", "000"]
        assert classify_batch(clf, demo.theory, words) == [DEMO_VERDICTS[w] for w in words]
        assert classify_batch(clf, demo.theory, []) == []

    def test_instance_forms(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        inst = Assignment.from_word("110", demo.problem.features)
        assert classify_batch(clf, demo.theory, [inst, to_term(inst), (1, 1, 0)]) == [(0, 1)] * 3

    def test_adds_no_gate(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        before = gate_count(demo.pool)
        classify_batch(clf, demo.theory, list(DEMO_VERDICTS))
        assert gate_count(demo.pool) == before

    def test_rejections_match_rectify(self, demo, twolabel):
        # the problem's checks come before any instance is read
        (aux,) = demo.pool.declare("helper")
        cases = [
            (Classifier(twolabel.problem, twolabel.sigma), twolabel.theory),
            (Classifier(demo.problem, demo.sigma), conjoin(demo.theory, demo.pool.literal(aux))),
        ]
        for clf, theory in cases:
            with pytest.raises(Exception) as batch:
                classify_batch(clf, theory, ["not a word"])
            with pytest.raises(Exception) as whole:
                rectify(clf, theory)
            assert (type(batch.value), str(batch.value)) == (type(whole.value), str(whole.value))

    def test_bad_word_is_rejected(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        with pytest.raises(ValueError, match="3 characters"):
            classify_batch(clf, demo.theory, ["110", "11"])


def _words(problem):
    n = len(problem.features)
    return [format(i, f"0{n}b") for i in range(1 << n)]


@given(pair=desk_pairs())
def test_classify_batch_matches_the_construction_and_the_oracle(pair):
    pool, problem, clf, theory = pair
    words = _words(problem)
    gates = gate_count(pool)
    got = classify_batch(clf, theory, words)
    assert gate_count(pool) == gates
    result = rectify(clf, theory)
    assert got == [(classify(clf, w).bits[0], classify_rectified(result, w)) for w in words]
    # 2-bit blocks: bit 1 is the positive label
    reference = oracle_rectify(*oracle_args(clf, theory))
    assert [after for _, after in got] == [b >> 1 for b in reference]


@given(pair=desk_pairs(), data=st.data())
def test_a_batch_equals_its_singletons(pair, data):
    _, problem, clf, theory = pair
    words = data.draw(st.lists(st.sampled_from(_words(problem)), max_size=12))
    singles = [classify_batch(clf, theory, [w])[0] for w in words]
    assert classify_batch(clf, theory, words) == singles


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
    assert truth_mask(conjoin(result.forces_positive, result.forces_negative), problem.features) == 0


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
        at_x = condition(theory, to_term(inst))
        if truth_mask(at_x, problem.labels) == 0:
            continue
        verdict = condition(result.rectified.circuit, to_term(inst))
        assert equivalent(conjoin(verdict, at_x), verdict)
        assert is_fact_compliant(result.rectified, theory, inst)


@pytest.mark.parametrize("seed", range(50))
def test_size_stays_linear(seed):
    pool, problem, clf, theory = _random_pair(seed, n_features=5, gates=35)
    result = rectify(clf, theory)
    region = positive_circuit(clf)
    assert result.positive.size <= region.size + 2 * theory.size + 16
    assert result.rectified.circuit.size <= clf.circuit.size + 2 * theory.size + 16


# Each variable check compares the pool's declarations with the allowed
# variables first and walks the circuit only when the pool declares more.
# Cases: the declared names, the region R of the subject circuit
# (dec y (not R) R) over features x1 x2 and label y, and whether one more
# variable is declared after the circuit is built.
DECLARATIONS = {
    "exact": (("x1", "x2", "y"), "(and x1 x2)", False),
    "unused extra": (("x1", "x2", "y", "z"), "(and x1 x2)", False),
    "used extra": (("x1", "x2", "y", "z"), "(and x1 z)", False),
    "extra declared first": (("z", "x1", "x2", "y"), "(or x2 z)", False),
    "two used extras": (("x1", "x2", "y", "w", "z"), "(or (and x1 z) w)", False),
    "one of two extras used": (("x1", "x2", "y", "w", "z"), "(and z x2)", False),
    "extra declared after": (("x1", "x2", "y"), "(and x1 x2)", True),
}

# Each site's use of the subject circuit, given the problem and a clean classifier.
SITES = {
    "Classifier": lambda problem, circ, clf: print_circuit(Classifier(problem, circ).circuit),
    "rectify": lambda problem, circ, clf: print_circuit(rectify(clf, circ).rectified.circuit),
    "classify_batch": lambda problem, circ, clf: classify_batch(clf, circ, ["10", "01"]),
    "label_blocks": lambda problem, circ, clf: label_blocks(circ, problem),
    "label_blocks at instances": lambda problem, circ, clf: label_blocks(circ, problem, ["11"]),
    "truth_mask": lambda problem, circ, clf: truth_mask(circ, problem.all_vars),
    "preprocess_project": lambda problem, circ, clf: print_circuit(preprocess_project(circ, problem)),
    "evaluate": lambda problem, circ, clf: evaluate(circ, Assignment(problem.all_vars, (1, 0, 1))),
    "fact_formula": lambda problem, circ, clf: fact_formula(circ, "10", problem),
    "circuit_to_dt": lambda problem, circ, clf: print_circuit(circuit_to_dt(circ, problem.all_vars)),
    # the accepted region R, the decision's high branch
    "from_positive_circuit": lambda problem, circ, clf: print_circuit(
        Classifier.from_positive_circuit(problem, circ.children[1]).circuit
    ),
}


def _outcome(site, case):
    """What the site returns on the case, or the type and message of what it raises."""
    names, region, declare_after = DECLARATIONS[case]
    pool = Pool()
    pool.declare(*names)
    problem = ClassificationProblem((pool.var("x1"), pool.var("x2")), (pool.var("y"),))
    clf = Classifier.from_positive_circuit(problem, parse_circuit("(or x1 x2)", pool))
    circ = parse_circuit(f"(dec y (not {region}) {region})", pool)
    if declare_after:
        pool.fresh()
    try:
        return SITES[site](problem, circ, clf)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", DECLARATIONS)
@pytest.mark.parametrize("site", SITES)
def test_the_declarations_shortcut_agrees_with_the_walk(monkeypatch, site, case):
    shortcut = _outcome(site, case)
    monkeypatch.setattr(Circuit, "vars_outside", lambda c, allowed: c.vars() - frozenset(allowed))
    assert shortcut == _outcome(site, case)


@pytest.mark.parametrize("case", DECLARATIONS)
def test_only_a_used_extra_variable_is_refused(case):
    used = sorted(set(re.findall(r"\b[wz]\b", DECLARATIONS[case][1])))
    outcomes = {site: _outcome(site, case) for site in SITES}
    refusals = {site: out for site, out in outcomes.items() if isinstance(out, tuple)}
    if not used:
        assert refusals == {}
        return
    # every site but preprocess_project, which forgets them, names exactly the used ones
    assert sorted(refusals) == sorted(set(SITES) - {"preprocess_project"})
    names = ", ".join(used)
    assert refusals["Classifier"] == (
        ValueError,
        f"classifier circuit mentions variables outside features and labels ({names}); "
        "forget them first",
    )
    assert refusals["rectify"] == refusals["classify_batch"] == (
        ValueError,
        f"theory mentions variables outside the problem ({names}); apply preprocess_project first",
    )
    assert refusals["truth_mask"] == (
        ValueError, f"circuit mentions variables outside the order: {names}"
    )
    assert refusals["label_blocks"] == refusals["label_blocks at instances"] == (
        ValueError,
        f"circuit mentions variables outside features and labels ({names}); forget them first",
    )
    assert refusals["evaluate"] == (
        ValueError, f"assignment is not total over the circuit's variables (missing {names})"
    )
    assert refusals["fact_formula"] == (
        ValueError,
        f"theory mentions variables outside features and labels ({names}); forget them first",
    )
    assert refusals["circuit_to_dt"] == (ValueError, f"expansion order does not cover: {names}")
    assert refusals["from_positive_circuit"] == (
        ValueError, f"positive circuit mentions non-features: {names}"
    )


def test_a_pool_declaring_only_the_problem_is_not_walked(monkeypatch):
    pool = Pool()
    problem = ClassificationProblem(pool.declare("x1", "x2"), pool.declare("y"))
    circ = parse_circuit("(dec y (not (and x1 x2)) (and x1 x2))", pool)
    walked = []
    monkeypatch.setattr(Circuit, "vars", lambda c: walked.append(c) or frozenset())
    assert circ.vars_outside(problem.all_vars) == frozenset()
    assert walked == []
    pool.fresh()
    assert circ.vars_outside(problem.all_vars) == frozenset()
    assert walked == [circ]


def test_each_call_lists_a_circuit_s_variables_once_at_most(monkeypatch, capsys):
    # one more declaration than the problem, so every variable check walks; still,
    # no call lists one root twice: the gate interpreter's own lookup is the second check
    demo = PROBLEMS / "demo.sexp"
    pf = parse_problem(demo.read_text())
    problem, sigma, theory = pf.problem, pf.sigma, pf.theory
    sigma.pool.fresh()
    clf = Classifier(problem, sigma)
    result = rectify(clf, theory)
    calls = {
        "Classifier": lambda: Classifier(problem, sigma),
        "check_xy_property": lambda: check_xy_property(sigma, problem),
        "truth_mask": lambda: truth_mask(sigma, problem.all_vars),
        "label_blocks": lambda: label_blocks(theory, problem),
        "label_blocks at instances": lambda: label_blocks(theory, problem, ["101", "010"]),
        "classify_batch": lambda: classify_batch(clf, theory, ["101", "010"]),
        "fact_formula": lambda: fact_formula(theory, "101", problem),
        "is_fact_compliant": lambda: is_fact_compliant(clf, theory, "101"),
        "equivalent": lambda: equivalent(sigma, theory),
        "circuit_to_dt": lambda: circuit_to_dt(result.positive, problem.features),
        "check_postulates": lambda: check_postulates(clf, theory, result),
        "rectify --out dtree": lambda: main(["rectify", "--problem", str(demo), "--out", "dtree"]),
        "check": lambda: main(["check", "--problem", str(demo)]),
    }
    walks = var_walks(monkeypatch)
    for name, call in calls.items():
        walks.clear()
        call()
        assert max(Counter(walks).values(), default=0) <= 1, name
    assert capsys.readouterr().err == ""  # both commands exit 0
