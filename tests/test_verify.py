import hashlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from monorect import (
    Assignment,
    BuildError,
    ClassificationProblem,
    Classifier,
    Pool,
    RectificationResult,
    check_postulates,
    check_xy_property,
    cofactors,
    condition,
    conjoin,
    dalal_rectify,
    disjoin,
    equivalent,
    is_fact_compliant,
    label_blocks,
    negate,
    oracle_rectify,
    parse_circuit,
    parse_problem,
    preprocess_project,
    print_circuit,
    rectify,
    syntactic_rewrite,
    truth_mask,
)
from monorect import verify
from monorect.randgen import random_classifier, random_problem, random_theory
from monorect.verify import _dalal_mask

from conftest import ast_exprs, build_with_vars, desk_pairs, gate_count, oracle_args, store, to_term


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PROBLEM_FILES = sorted(PROBLEMS.glob("*.sexp"))
# sha256 of the four scratch stores the battery has built on problems/demo.sexp
SCRATCH_DIGEST = "a1a63b2c6efd35b729826b0e5e79d07a8e49b8d34fadc740000028367d64589a"


@pytest.fixture
def demo_clf(demo):
    return Classifier(demo.problem, demo.sigma)


class TestOracleRectify:
    def test_demo_accepted_words(self, demo, demo_clf):
        reference = oracle_rectify(*oracle_args(demo_clf, demo.theory))
        # 2-bit blocks: 2 is the positive label
        assert [format(x, "03b") for x, b in enumerate(reference) if b == 2] == [
            "110",
            "111",
        ]

    def test_contradictory_theory_keeps_classifier(self, demo, demo_clf):
        absurd = demo.pool.build(["and", "x1", ["not", "x1"]])
        reference = oracle_rectify(*oracle_args(demo_clf, absurd))
        assert reference == label_blocks(demo_clf.circuit, demo.problem)


    def test_multi_label_problem_is_rejected(self, twolabel):
        clf = Classifier(twolabel.problem, twolabel.sigma)
        with pytest.raises(ValueError, match="single-label"):
            oracle_rectify(*oracle_args(clf, twolabel.theory))

    @pytest.mark.parametrize("oracle", [oracle_rectify, dalal_rectify])
    def test_block_lists_of_unequal_length_are_rejected(self, demo, oracle):
        with pytest.raises(ValueError):
            oracle([1, 2, 1], [3, 3], demo.problem)

    # single-label blocks: sigma's verdict is 1 (negative) or 2 (positive);
    # the theory's block is any subset of the two labels
    @given(st.lists(st.tuples(st.sampled_from((1, 2)), st.integers(0, 3)), max_size=16))
    def test_the_two_references_agree_on_single_label_blocks(self, pairs):
        sigma, allowed = [s for s, _ in pairs], [a for _, a in pairs]
        problem = _problem(1)
        assert dalal_rectify(sigma, allowed, problem) == oracle_rectify(sigma, allowed, problem)


def _problem(m):
    """One feature and m labels: the oracles read only the label count off it."""
    pool = Pool()
    return ClassificationProblem(pool.declare("x1"), pool.declare(*(f"y{i}" for i in range(m))))


def _complies(block, allowed, m):
    """Does every label word of `block` keep each label literal that all allowed words share?"""
    words = [w for w in range(1 << m) if allowed >> w & 1]
    for w in range(1 << m):
        if block >> w & 1 and words:
            for i in range(m):  # label i is bit m - 1 - i of a word
                values = {u >> (m - 1 - i) & 1 for u in words}
                if len(values) == 1 and w >> (m - 1 - i) & 1 not in values:
                    return False
    return True


@given(data=st.data(), m=st.integers(1, 3))
def test_dalal_rectify_complies_and_keeps_compliant_verdicts(data, m):
    problem = _problem(m)
    # sigma's block holds one label word, its verdict; the theory's any set of words
    verdicts = st.integers(0, (1 << m) - 1).map(lambda w: 1 << w)
    pairs = data.draw(
        st.lists(st.tuples(verdicts, st.integers(0, (1 << (1 << m)) - 1)), max_size=8)
    )
    sigma, allowed = [s for s, _ in pairs], [a for _, a in pairs]
    for s, a, r in zip(sigma, allowed, dalal_rectify(sigma, allowed, problem)):
        assert r and _complies(r, a, m)
        if _complies(s, a, m):
            assert r == s


class TestDalalRevise:
    # _dalal_mask revises truth tables over the same variables; dalal_rectify
    # calls it per instance, over the labels
    def test_forced_move_picks_nearest(self):
        pool, prior, incoming, nearest = build_with_vars(
            ("y1", "y2"),
            ["and", ["not", "y1"], "y2"],
            ["not", "y2"],
            ["and", ["not", "y1"], ["not", "y2"]],
        )
        over = pool.variables
        phi, alpha, want = (truth_mask(c, over) for c in (prior, incoming, nearest))
        assert _dalal_mask(phi, alpha, 2) == want

    def test_revision_by_itself_is_identity(self):
        pool, prior = build_with_vars(("y1", "y2"), ["or", "y1", ["not", "y2"]])
        phi = truth_mask(prior, pool.variables)
        assert _dalal_mask(phi, phi, 2) == phi

    def test_single_label_flip(self):
        # over (y): bit 1 is y, bit 0 is not y
        assert _dalal_mask(0b10, 0b01, 1) == 0b01

    def test_inconsistent_incoming_returned(self):
        assert _dalal_mask(0b10, 0, 1) == 0

    @given(
        prior=ast_exprs(("y1", "y2", "y3"), max_leaves=8),
        incoming=ast_exprs(("y1", "y2", "y3"), max_leaves=8),
    )
    def test_revision_entails_incoming(self, prior, incoming):
        pool, cp, ci = build_with_vars(("y1", "y2", "y3"), prior, incoming)
        over = pool.variables
        alpha = truth_mask(ci, over)
        assert _dalal_mask(truth_mask(cp, over), alpha, 3) & ~alpha == 0


class TestDalalRectify:
    def test_demo_matches_construction(self, demo, demo_clf):
        result = rectify(demo_clf, demo.theory)
        reference = dalal_rectify(*oracle_args(demo_clf, demo.theory))
        assert reference == label_blocks(result.rectified.circuit, demo.problem)

    def test_trivial_facts_keep_the_verdict(self, demo, demo_clf):
        reference = dalal_rectify(*oracle_args(demo_clf, demo.theory))
        for word in ("010", "011", "100", "111"):  # rows with no forced facts
            inst = Assignment.from_word(word, demo.problem.features)
            sig_at = condition(demo_clf.circuit, to_term(inst))
            assert reference[int(word, 2)] == truth_mask(sig_at, demo.problem.labels)

    def test_two_label_forced_fact(self, twolabel):
        clf = Classifier(twolabel.problem, twolabel.sigma)
        reference = dalal_rectify(*oracle_args(clf, twolabel.theory))
        labels = twolabel.problem.labels
        not_y2 = truth_mask(twolabel.pool.literal(labels[1], False), labels)
        assert reference[0b01] & ~not_y2 == 0

    def test_two_label_compliant_rows_unchanged(self, twolabel):
        clf = Classifier(twolabel.problem, twolabel.sigma)
        reference = dalal_rectify(*oracle_args(clf, twolabel.theory))
        for word in ("00", "10", "11"):
            inst = Assignment.from_word(word, twolabel.problem.features)
            sig_at = condition(clf.circuit, to_term(inst))
            assert reference[int(word, 2)] == truth_mask(sig_at, twolabel.problem.labels)


class TestSyntacticRewrite:
    @given(ast=ast_exprs(("a", "b", "c"), max_leaves=10))
    @settings(max_examples=60)
    def test_rewrites_preserve_semantics(self, ast):
        pool, circ = build_with_vars(("a", "b", "c"), ast)
        rng = random.Random(5)
        for _ in range(3):
            assert equivalent(syntactic_rewrite(circ, rng, pool), circ)

    @given(ast=ast_exprs(("a", "b", "c"), max_leaves=10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_a_rewrite_matches_variables_by_name(self, ast, seed):
        # another order of the same names, plus one the circuit does not use
        pool, circ = build_with_vars(("a", "b", "c"), ast)
        other = Pool()
        other.declare("c", "extra", "a", "b")
        rewrite = syntactic_rewrite(circ, random.Random(seed), other)
        assert rewrite.pool is other
        by_name = tuple(other.var(v.name) for v in pool.variables)
        assert truth_mask(rewrite, by_name) == truth_mask(circ, pool.variables)

    def test_a_rewrite_needs_only_the_variables_the_circuit_mentions(self):
        pool, circ = build_with_vars(("a", "b", "c"), ["or", "a", ["dec", "b", "a", "true"]])
        other = Pool()
        other.declare("b", "a")
        rewrite = syntactic_rewrite(circ, random.Random(0), other)
        assert truth_mask(rewrite, other.variables) == truth_mask(circ, (pool.var("b"), pool.var("a")))
        with pytest.raises(BuildError, match="unknown identifier 'c'"):
            syntactic_rewrite(pool.build(["and", "a", "c"]), random.Random(0), other)

    @given(pair=desk_pairs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_a_rewrite_of_a_classifier_is_one(self, pair, seed):
        # why the battery builds its rewrites' classifiers without certifying them
        pool, problem, clf, _ = pair
        scratch = Pool()
        names = (scratch.declare(*map(str, vs)) for vs in (problem.features, problem.labels))
        rng = random.Random(seed)
        for target, over in ((pool, problem), (scratch, ClassificationProblem(*names))):
            assert check_xy_property(syntactic_rewrite(clf.circuit, rng, target), over)

    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.name)
    def test_a_rewrite_reads_as_the_printed_text(self, path):
        pf = parse_problem(path.read_text(encoding="utf-8"))
        scratch = Pool()
        for vs in (pf.problem.features, pf.problem.labels):  # the pool's order, which the battery declares
            scratch.declare(*map(str, vs))
        rng = random.Random(0)
        never = SimpleNamespace(random=lambda: 1.0)  # no child shuffled, no negation added
        for circ in (pf.sigma, pf.theory):
            parsed = parse_circuit(print_circuit(circ), scratch)
            assert equivalent(syntactic_rewrite(circ, rng, scratch), parsed)
            size = gate_count(scratch)
            # interning: equal kinds, variable names and child order give the parsed root
            assert syntactic_rewrite(circ, never, scratch) == parsed
            assert gate_count(scratch) == size

    def test_the_battery_builds_the_same_scratch_store(self, monkeypatch):
        # every gate of the scratch pool of `check --seed 0..3` on the demo problem, in uid
        # order: the rewrites draw from the rng in one order and intern in one order
        pf = parse_problem((PROBLEMS / "demo.sexp").read_text(encoding="utf-8"))
        clf = Classifier(pf.problem, pf.sigma)
        result = rectify(clf, pf.theory)
        made = []

        class Recorded(Pool):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(verify, "Pool", Recorded)
        digest = hashlib.sha256()
        for seed in range(4):
            assert check_postulates(clf, pf.theory, result, rng=random.Random(seed)).all_passed
            digest.update(repr(store(made[-1])).encode())
        assert len(made) == 4
        assert digest.hexdigest() == SCRATCH_DIGEST


class TestPostulates:
    def test_demo_all_pass(self, demo, demo_clf):
        result = rectify(demo_clf, demo.theory)
        report = check_postulates(demo_clf, demo.theory, result)
        assert report.all_passed
        assert [c.name for c in report.checks] == [
            "RE1",
            "RE2",
            "RE3",
            "RE4",
            "RE5",
            "RE6",
        ]

    def test_corrupted_result_is_caught_with_witness(self, demo, demo_clf):
        from monorect import conjoin, disjoin, negate

        result = rectify(demo_clf, demo.theory)
        # flip the class of one instance (the decisively positive one)
        flip = demo.pool.build(["and", "x1", "x2", ["not", "x3"]])
        xor = disjoin(
            conjoin(result.positive, negate(flip)),
            conjoin(negate(result.positive), flip),
        )
        corrupted = RectificationResult(
            xor,
            Classifier.from_positive_circuit(demo.problem, xor),
            result.forces_positive,
            result.forces_negative,
        )
        report = check_postulates(demo_clf, demo.theory, corrupted)
        assert not report.all_passed
        failures = {c.name: c for c in report.checks if not c.passed}
        assert "RE3" in failures or "RE2" in failures
        bad = failures.get("RE3") or failures.get("RE2")
        assert "110" in bad.detail

    def test_change_on_a_compliant_instance_fails_re2(self, demo, demo_clf):
        from monorect import conjoin, disjoin, negate

        result = rectify(demo_clf, demo.theory)
        # 100 is the third compliant instance (after 010 and 011); the
        # theory is contradictory there, so RE3 still holds
        flip = demo.pool.build(["and", "x1", ["not", "x2"], ["not", "x3"]])
        xor = disjoin(
            conjoin(result.positive, negate(flip)),
            conjoin(negate(result.positive), flip),
        )
        corrupted = RectificationResult(
            xor,
            Classifier.from_positive_circuit(demo.problem, xor),
            result.forces_positive,
            result.forces_negative,
        )
        re1, re2, re3 = check_postulates(demo_clf, demo.theory, corrupted).checks[:3]
        assert re1.passed and re3.passed
        assert (re2.passed, re2.checked) == (False, 3)
        assert re2.detail == "verdict changed on compliant instance 100"

    def test_non_classification_result_fails_re1_with_witness(self, demo, demo_clf):
        from monorect import disjoin

        result = rectify(demo_clf, demo.theory)
        # instance 110 allows both labels
        both = disjoin(
            result.rectified.circuit, demo.pool.build(["and", "x1", "x2", ["not", "x3"]])
        )
        # no Classifier can hold it: RE1 reads the circuit's blocks, not its type
        stand_in = SimpleNamespace(problem=demo.problem, circuit=both)
        broken = RectificationResult(
            result.positive, stand_in, result.forces_positive, result.forces_negative
        )
        report = check_postulates(demo_clf, demo.theory, broken)
        re1 = report.checks[0]
        assert (re1.name, re1.passed, re1.checked) == ("RE1", False, 8)
        assert re1.detail == "instance 110 has no unique label"

    def test_inconsistent_theory_exercises_re4(self, demo, demo_clf):
        absurd = demo.pool.build(["and", "x1", ["not", "x1"]])
        result = rectify(demo_clf, absurd)
        report = check_postulates(demo_clf, absurd, result)
        assert report.all_passed
        re4 = next(c for c in report.checks if c.name == "RE4")
        assert re4.checked == 1

    def test_re4_reads_consistency_off_the_theory_blocks(self, demo, demo_clf):
        from monorect import conjoin, disjoin, negate

        # the demo theory is contradictory at 100 only, so RE4 is vacuous
        result = rectify(demo_clf, demo.theory)
        re4 = check_postulates(demo_clf, demo.theory, result).checks[3]
        assert (re4.passed, re4.checked) == (True, 0)
        absurd = demo.pool.build(["and", "x1", ["not", "x1"]])
        flip = demo.pool.build(["and", "x1", "x2", "x3"])
        kept = rectify(demo_clf, absurd).positive
        xor = disjoin(conjoin(kept, negate(flip)), conjoin(negate(kept), flip))
        corrupted = RectificationResult(
            xor, Classifier.from_positive_circuit(demo.problem, xor), flip, flip
        )
        re4 = check_postulates(demo_clf, absurd, corrupted).checks[3]
        assert (re4.name, re4.passed, re4.checked) == ("RE4", False, 1)
        assert re4.detail == "rectified classifier differs from the original"

    def test_a_wrong_outcome_fails_re5_and_re6(self, demo, demo_clf):
        from monorect import negate

        result = rectify(demo_clf, demo.theory)
        flipped = negate(result.positive)
        wrong = RectificationResult(
            flipped,
            Classifier.from_positive_circuit(demo.problem, flipped),
            result.forces_positive,
            result.forces_negative,
        )
        re5, re6 = check_postulates(demo_clf, demo.theory, wrong).checks[4:]
        assert (re5.passed, re5.detail) == (False, "rewrite 0 produced a different classifier")
        assert (re6.passed, re6.detail) == (False, "projected dummy variable changed the outcome")

    def test_the_callers_pool_gains_no_variable(self, demo, demo_clf):
        before = demo.pool.variables
        result = rectify(demo_clf, demo.theory)
        for _ in range(2):
            assert check_postulates(demo_clf, demo.theory, result).all_passed
        assert demo.pool.variables == before

    def test_the_callers_pool_gains_no_gate(self, demo, demo_clf):
        result = rectify(demo_clf, demo.theory)
        size = gate_count(demo.pool)
        assert check_postulates(demo_clf, demo.theory, result, rewrites=8).all_passed
        assert gate_count(demo.pool) == size

    def test_re6_holds_in_a_pool_declared_in_another_order(self):
        # the label first and an unused variable among the features
        pool, sigma, theory = build_with_vars(
            ("y", "x1", "z", "x2", "x3", "aux_0"),
            ["iff", ["or", ["and", ["not", "x1"], ["not", "x2"]], ["and", "x1", "x3"]], "y"],
            ["and", ["imp", ["and", "x1", ["not", "x3"]], "y"], ["imp", ["not", "x2"], ["not", "y"]]],
        )
        problem = ClassificationProblem(
            tuple(pool.var(v) for v in ("x1", "x2", "x3")), (pool.var("y"),)
        )
        clf = Classifier(problem, sigma)
        report = check_postulates(clf, theory, rectify(clf, theory))
        assert report.all_passed
        assert report.checks[5].render() == "RE6 (variable relevance): pass [1 checks]"

    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.name)
    def test_re6_projection_folds_back_to_the_circuit_itself(self, path):
        # a tautological dummy would never reach rectify, so RE6 splits on the
        # label instead: its projection is equivalent to the circuit but not it
        pf = parse_problem(path.read_text(encoding="utf-8"))
        d = pf.pool.fresh()
        dummy = pf.pool.literal(d)
        tautology = disjoin(dummy, negate(dummy))
        y = pf.pool.literal(pf.problem.labels[0])
        for circ in (pf.sigma, pf.theory):
            conjoined = conjoin(circ, tautology)
            assert conjoined != circ
            assert preprocess_project(conjoined, pf.problem) == circ
            split = pf.pool.decision(d, conjoin(circ, negate(y)), conjoin(circ, y))
            projected = preprocess_project(split, pf.problem)
            assert projected != circ
            assert equivalent(projected, circ)

    @pytest.mark.parametrize("side", [0, 1], ids=["low", "high"])
    @pytest.mark.parametrize("name", ["demo.sexp", "demo_reversed.sexp"])
    def test_re6_fails_where_projection_keeps_one_cofactor(self, monkeypatch, name, side):
        def one_cofactor(circ, vs):
            for v in vs:
                circ = cofactors(circ, v)[side]
            return circ

        # `monorect.rectify` is the function; the module is looked up by name
        monkeypatch.setattr(sys.modules["monorect.rectify"], "forget", one_cofactor)
        pf = parse_problem((PROBLEM_FILES[0].parent / name).read_text(encoding="utf-8"))
        clf = Classifier(pf.problem, pf.sigma)
        report = check_postulates(clf, pf.theory, rectify(clf, pf.theory))
        assert [c.name for c in report.checks if not c.passed] == ["RE6"]
        assert report.checks[5].detail == "projected dummy variable changed the outcome"

    def test_negative_rewrite_count_is_rejected(self, demo, demo_clf):
        result = rectify(demo_clf, demo.theory)
        with pytest.raises(ValueError, match="rewrites must be at least 0"):
            check_postulates(demo_clf, demo.theory, result, rewrites=-1)

    def test_render_mentions_every_postulate(self, demo, demo_clf):
        result = rectify(demo_clf, demo.theory)
        text = check_postulates(demo_clf, demo.theory, result).render()
        for name in ("RE1", "RE2", "RE3", "RE4", "RE5", "RE6"):
            assert name in text


@pytest.mark.parametrize("seed", range(30))
def test_three_routes_agree(seed):
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, 4)
    clf = random_classifier(pool, problem, 30, rng)
    theory = random_theory(pool, problem, 30, rng)
    result = rectify(clf, theory)
    args = oracle_args(clf, theory)
    reference = oracle_rectify(*args)
    assert dalal_rectify(*args) == reference
    assert label_blocks(result.rectified.circuit, problem) == reference
    # the accepted region read without label blocks, so a fault in the block
    # splitter cannot hide by permuting both sides alike
    accepted = truth_mask(result.positive, problem.features)
    assert [accepted >> x & 1 for x in range(len(reference))] == [b >> 1 for b in reference]


@pytest.mark.parametrize("seed", range(30))
def test_keep_or_switch_dichotomy(seed):
    # every instance is either compliant (kept) or in decisive conflict
    # (switched); never both, never neither
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, 4)
    clf = random_classifier(pool, problem, 30, rng)
    theory = random_theory(pool, problem, 30, rng)
    result = rectify(clf, theory)
    from monorect import classify, evaluate

    for i in range(1 << len(problem.features)):
        inst = Assignment.from_index(i, problem.features)
        compliant = is_fact_compliant(clf, theory, inst)
        forces_pos = evaluate(result.forces_positive, inst) == 1
        forces_neg = evaluate(result.forces_negative, inst) == 1
        was_positive = classify(clf, inst).word == "1"
        conflict = (forces_pos and not was_positive) or (forces_neg and was_positive)
        assert compliant != conflict
