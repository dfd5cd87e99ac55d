import pytest
from hypothesis import given, settings, strategies as st

from monorect import (
    Assignment,
    CapExceededError,
    Literal,
    Pool,
    Term,
    condition,
    equivalent,
    evaluate,
    forget,
    truth_mask,
)
from monorect import semantics
from monorect.semantics import ensure_within

from conftest import (
    DEMO_SIGMA_AST,
    ast_exprs,
    brute_equivalent,
    build_with_vars,
    reference_evaluate,
    to_term,
)

NAMES = ("a", "b", "c")


class TestAssignment:
    def test_word_round_trip(self):
        pool = Pool()
        over = pool.declare("x1", "x2", "x3")
        omega = Assignment.from_word("110", over)
        assert omega.bits == (1, 1, 0)
        assert omega.word == "110"
        assert omega.value(over[0]) == 1 and omega.value(over[2]) == 0
        assert Assignment.from_index(6, over) == omega

    def test_to_term(self):
        pool = Pool()
        over = pool.declare("x1", "x2")
        term = to_term(Assignment.from_word("01", over))
        assert term.value(over[0]) is False
        assert term.value(over[1]) is True

    def test_bad_words(self):
        pool = Pool()
        over = pool.declare("x1", "x2")
        with pytest.raises(ValueError):
            Assignment.from_word("1", over)
        with pytest.raises(ValueError):
            Assignment.from_word("12", over)

    @pytest.mark.parametrize("bad", [0.7, 1.0, "1", 2, -1, None])
    def test_bits_must_be_the_ints_0_or_1(self, bad):
        pool = Pool()
        over = pool.declare("x1", "x2")
        with pytest.raises(ValueError, match="ints 0 or 1"):
            Assignment(over, (1, bad))

    def test_bool_bits_become_ints(self):
        pool = Pool()
        over = pool.declare("x1", "x2")
        omega = Assignment(over, (True, False))
        assert omega.bits == (1, 0) and omega.word == "10"

    def test_an_assignment_prints_as_its_word(self):
        pool = Pool()
        over = pool.declare("x1", "x2", "x3")
        assert str(Assignment.from_word("011", over)) == "011"


class TestEvaluate:
    def test_conjunction(self):
        pool, circ = build_with_vars(("x1", "x2"), ["and", "x1", "x2"])
        assert evaluate(circ, Assignment.from_word("11", pool.variables)) == 1
        assert evaluate(circ, Assignment.from_word("10", pool.variables)) == 0

    def test_accepted_region_of_demo(self, demo):
        region = demo.pool.build(
            ["or", ["and", ["not", "x1"], ["not", "x2"]], ["and", "x1", "x3"]]
        )
        feats = demo.problem.features
        assert evaluate(region, Assignment.from_word("110", feats)) == 0
        assert evaluate(region, Assignment.from_word("111", feats)) == 1

    def test_partial_assignment_rejected(self):
        pool, circ = build_with_vars(("x1", "x2"), ["and", "x1", "x2"])
        with pytest.raises(ValueError, match="not total"):
            evaluate(circ, Assignment((pool.var("x1"),), (1,)))

    def test_a_missing_variable_is_named(self):
        pool = Pool()
        x1, x2 = pool.declare("x1", "x2")
        with pytest.raises(ValueError) as raised:
            evaluate(pool.decision(x2, pool.const(0), pool.const(1)), Assignment((x1,), (1,)))
        assert str(raised.value) == "assignment is not total over the circuit's variables (missing x2)"


class TestModels:
    def test_inconsistent_has_none(self):
        pool = Pool()
        (x1,) = pool.declare("x1")
        assert truth_mask(pool.const(0), (x1,)) == 0

    def test_conjunction_over_three_vars(self):
        pool, circ = build_with_vars(("x1", "x2", "x3"), ["and", "x1", "x2"])
        # bit i is the word format(i, "03b"): the models 110 and 111
        assert truth_mask(circ, pool.variables) == 1 << 0b110 | 1 << 0b111

    def test_two_label_theory_slice(self, twolabel):
        x1, x2 = twolabel.problem.features
        at_x = condition(twolabel.theory, Term([Literal(x1, True), Literal(x2, False)]))
        assert truth_mask(at_x, twolabel.problem.labels).bit_count() == 3


class TestChecks:
    def test_decision_gate_equivalent_to_expansion(self):
        pool = Pool()
        pool.declare("x", "u", "v")
        dec = pool.build(["dec", "x", "u", "v"])
        expanded = pool.build(["or", ["and", ["not", "x"], "u"], ["and", "x", "v"]])
        assert equivalent(dec, expanded)

    def test_everything_entails_truth(self, demo):
        at_011 = condition(
            demo.theory, to_term(Assignment.from_word("011", demo.problem.features))
        )
        over = demo.pool.variables
        assert truth_mask(at_011, over) & ~truth_mask(demo.pool.const(1), over) == 0

    def test_consistency(self):
        pool, circ = build_with_vars(("a",), ["and", "a", ["not", "a"]])
        assert truth_mask(circ, pool.variables) == 0
        # over no variables the table has one row, the empty word
        assert truth_mask(pool.const(1), ()) == 1

    @pytest.mark.parametrize("check", [equivalent])
    def test_one_circuit_is_not_walked(self, demo, monkeypatch, check):
        walked = []
        real = semantics._table

        def spy(circ, masks, full, *rest):
            walked.append(circ.uid)
            return real(circ, masks, full, *rest)

        monkeypatch.setattr(semantics, "_table", spy)
        again = demo.pool.build(DEMO_SIGMA_AST)  # interned: the same root
        assert check(demo.sigma, again)
        assert walked == []
        check(demo.sigma, demo.theory)
        assert walked == [demo.sigma.uid, demo.theory.uid]

    @pytest.mark.parametrize("check", [equivalent])
    def test_one_circuit_over_the_cap_needs_no_table(self, demo, monkeypatch, check):
        # the same circuit twice is equivalent before the cap is read; two over it still raise
        monkeypatch.setattr(semantics, "DEFAULT_VAR_CAP", 3)
        assert check(demo.sigma, demo.sigma)
        with pytest.raises(CapExceededError):
            check(demo.sigma, demo.theory)

    def test_a_25_variable_circuit_is_equivalent_to_itself(self):
        pool = Pool()
        xs = pool.declare(*(f"x{i}" for i in range(25)))
        circ = pool.and_([pool.literal(x) for x in xs])
        assert len(circ.vars()) > semantics.DEFAULT_VAR_CAP
        assert equivalent(circ, pool.and_([pool.literal(x) for x in xs]))  # interned: one root
        with pytest.raises(CapExceededError, match="25 variables exceed the enumeration cap of 20"):
            equivalent(circ, pool.or_([pool.literal(x) for x in xs]))

    def test_two_pools_must_declare_the_same_variables(self):
        xy, yx, again = Pool(), Pool(), Pool()
        for pool, names in ((xy, "xy"), (yx, "yx"), (again, "xy")):
            pool.declare(*names)
        x = xy.literal(xy.var("x"))
        # a VarId is its index and name: x of (y, x) is another variable that shares the name
        with pytest.raises(ValueError, match="^circuits of two pools that declare different variables$") as err:
            equivalent(x, yx.literal(yx.var("x")))
        assert type(err.value) is ValueError
        assert equivalent(x, again.literal(again.var("x")))
        assert not equivalent(x, again.literal(again.var("y")))


class TestForget:
    def test_nothing_to_forget(self, demo):
        assert forget(demo.sigma, ()) == demo.sigma

    def test_biconditional_collapses(self):
        pool, circ = build_with_vars(("x", "y"), ["iff", "x", "y"])
        gone = forget(circ, {pool.var("y")})
        assert equivalent(gone, pool.const(1))

    def test_conjunct_survives(self):
        pool, circ = build_with_vars(("x1", "y"), ["and", "x1", "y"])
        gone = forget(circ, {pool.var("y")})
        assert brute_equivalent(gone, pool.build("x1"), (pool.var("x1"),))


@given(ast=ast_exprs(NAMES, max_leaves=10), name=st.sampled_from(NAMES))
def test_forgetting_is_entailed_and_independent(ast, name):
    pool, circ = build_with_vars(NAMES, ast)
    v = pool.var(name)
    gone = forget(circ, {v})
    assert truth_mask(circ, pool.variables) & ~truth_mask(gone, pool.variables) == 0
    assert v not in gone.vars()
    low = condition(gone, Term([Literal(v, False)]))
    high = condition(gone, Term([Literal(v, True)]))
    assert equivalent(low, high)


@given(
    a=ast_exprs(NAMES, max_leaves=8),
    b=ast_exprs(NAMES, max_leaves=8),
    c=ast_exprs(NAMES, max_leaves=8),
)
@settings(max_examples=60)
def test_equivalence_and_entailment_interact(a, b, c):
    pool, ca, cb, cc = build_with_vars(NAMES, a, b, c)
    ma, mb = truth_mask(ca, pool.variables), truth_mask(cb, pool.variables)
    assert equivalent(ca, ca)
    assert equivalent(ca, cb) == equivalent(cb, ca)
    # equivalence is entailment both ways
    assert equivalent(ca, cb) == (ma & ~mb == 0 and mb & ~ma == 0)
    if equivalent(ca, cb) and equivalent(cb, cc):
        assert equivalent(ca, cc)


@given(ast=ast_exprs(NAMES, max_leaves=10))
def test_truth_mask_matches_evaluate(ast):
    pool, circ = build_with_vars(NAMES, ast)
    over = pool.variables
    mask = truth_mask(circ, over)
    for i in range(1 << len(over)):
        assert (mask >> i) & 1 == reference_evaluate(circ, Assignment.from_index(i, over))


@given(ast=ast_exprs(NAMES, max_leaves=12, allow_dec=True), data=st.data())
def test_evaluate_agrees_with_the_reference_walk(ast, data):
    pool, circ = build_with_vars(NAMES, ast)
    over = pool.variables
    for i in range(1 << len(over)):
        omega = Assignment.from_index(i, over)
        assert evaluate(circ, omega) == reference_evaluate(circ, omega)
    if circ.vars():
        missing = data.draw(st.sampled_from(sorted(circ.vars())))
        rest = tuple(v for v in over if v != missing)
        partial = Assignment(rest, data.draw(st.tuples(*(st.sampled_from((0, 1)) for _ in rest))))
        with pytest.raises(ValueError, match="not total"):
            evaluate(circ, partial)
        with pytest.raises(ValueError):
            reference_evaluate(circ, partial)


def test_ensure_within_names_the_extra_variables_sorted():
    pool = Pool()
    a, b, c = pool.declare("a", "b", "c")
    ensure_within(frozenset(), "unused {names}")
    with pytest.raises(ValueError, match=r"^outside \(b, c\)!$"):
        ensure_within([c, b], "outside ({names})!")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda pool, x1: Assignment((x1, pool.var("x2")), (1,)),
         "assignment needs one bit per variable"),
        (lambda pool, x1: Assignment((x1, x1), (1, 0)), "duplicate variable in assignment"),
        (lambda pool, x1: truth_mask(pool.literal(x1), (x1, x1)),
         "duplicate variables in enumeration order"),
    ],
    ids=["wrong-length", "duplicate-assignment", "duplicate-order"],
)
def test_rejected_orders(make, message):
    pool = Pool()
    x1, _ = pool.declare("x1", "x2")
    with pytest.raises(ValueError) as raised:
        make(pool, x1)
    assert str(raised.value) == message
