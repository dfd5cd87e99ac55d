import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from monorect import (
    Assignment,
    Classifier,
    Pool,
    RectificationResult,
    check_postulates,
    condition,
    dalal_rectify,
    equivalent,
    is_fact_compliant,
    label_blocks,
    oracle_rectify,
    rectify,
    syntactic_rewrite,
    truth_mask,
)
from monorect.randgen import random_classifier, random_problem, random_theory
from monorect.verify import _dalal_mask

from conftest import ast_exprs, build_with_vars, to_term


@pytest.fixture
def demo_clf(demo):
    return Classifier(demo.problem, demo.sigma)


class TestOracleRectify:
    def test_demo_accepted_words(self, demo, demo_clf):
        reference = oracle_rectify(demo_clf, demo.theory)
        # 2-bit blocks: 2 is the positive label
        assert [format(x, "03b") for x, b in enumerate(reference) if b == 2] == [
            "110",
            "111",
        ]

    def test_contradictory_theory_keeps_classifier(self, demo, demo_clf):
        absurd = demo.pool.build(["and", "x1", ["not", "x1"]])
        reference = oracle_rectify(demo_clf, absurd)
        assert reference == label_blocks(demo_clf.circuit, demo.problem)


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
        reference = dalal_rectify(demo_clf, demo.theory)
        assert reference == label_blocks(result.rectified.circuit, demo.problem)

    def test_trivial_facts_keep_the_verdict(self, demo, demo_clf):
        reference = dalal_rectify(demo_clf, demo.theory)
        for word in ("010", "011", "100", "111"):  # rows with no forced facts
            inst = Assignment.from_word(word, demo.problem.features)
            sig_at = condition(demo_clf.circuit, to_term(inst))
            assert reference[int(word, 2)] == truth_mask(sig_at, demo.problem.labels)

    def test_two_label_forced_fact(self, twolabel):
        clf = Classifier(twolabel.problem, twolabel.sigma)
        reference = dalal_rectify(clf, twolabel.theory)
        labels = twolabel.problem.labels
        not_y2 = truth_mask(twolabel.pool.literal(labels[1], False), labels)
        assert reference[0b01] & ~not_y2 == 0

    def test_two_label_compliant_rows_unchanged(self, twolabel):
        clf = Classifier(twolabel.problem, twolabel.sigma)
        reference = dalal_rectify(clf, twolabel.theory)
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
            assert equivalent(syntactic_rewrite(circ, rng), circ)


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
    reference = oracle_rectify(clf, theory)
    assert dalal_rectify(clf, theory) == reference
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
