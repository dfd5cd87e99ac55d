"""The uid kernels against object-graph references over `Circuit` handles.

`reference_substitute` and `reference_table` are the gate-object kernels
of `condition`/`cofactors` and of the gate interpreter, written over
`Circuit.kind`, `Circuit.payload` and `Circuit.children` (circuits too),
and walking the DAG with a seen set instead of `iter_gates`.  They build
through the pool's public constructors, so a kernel that reads the store
wrongly, or creates gates in another order, shows as a different pool.
"""

import operator
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from monorect import Literal, Pool, Term, cofactors, condition, label_blocks, truth_mask, var_masks
from monorect import circuit as circuit_module, classifier, semantics
from monorect.circuit import AND, CONST, DEC, NOT, OR, VAR
from monorect.randgen import random_circuit, random_problem, random_tree

from conftest import gate_count, store


def reached(circ):
    """The gates reachable from the root, by a depth-first walk, in ascending uid order."""
    seen = {}
    todo = [circ]
    while todo:
        gate = todo.pop()
        if gate.uid not in seen:
            seen[gate.uid] = gate
            todo.extend(gate.children)
    return [seen[uid] for uid in sorted(seen)]


def reference_substitute(circ, values):
    """The root of `condition` under each of `values` (variable -> True/False/None)."""
    pool = circ.pool
    true_gate, false_gate = pool.const(1), pool.const(0)
    sides = [(value, {}) for value in values]
    for gate in reached(circ):
        kind, kids = gate.kind, gate.children
        for value, memo in sides:
            if kind == CONST:
                new = gate
            elif kind == VAR:
                fixed = value(gate.payload)
                new = gate if fixed is None else true_gate if fixed else false_gate
            elif kind == NOT:
                child = memo[kids[0]]
                if child.kind == CONST:
                    new = false_gate if child.payload else true_gate
                elif child == kids[0]:
                    new = gate
                else:
                    new = pool.not_(child)
            elif kind == DEC:
                fixed = value(gate.payload)
                low, high = memo[kids[0]], memo[kids[1]]
                if fixed is not None:
                    new = high if fixed else low
                elif low == kids[0] and high == kids[1]:
                    new = gate
                else:
                    new = pool.decision(gate.payload, low, high)
            else:
                absorbing, neutral = (false_gate, true_gate) if kind == AND else (true_gate, false_gate)
                parts = [memo[child] for child in kids]
                kept = [part for part in parts if part != neutral]
                if absorbing in parts:
                    new = absorbing
                elif len(kept) == len(kids) and all(map(operator.eq, parts, kids)):
                    new = gate
                elif not kept:
                    new = neutral
                else:
                    build = pool.and_ if kind == AND else pool.or_
                    new = build(kept)
            memo[gate] = new
    return [memo[circ] for _, memo in sides]


def reference_table(circ, masks, full):
    """The root's mask, each gate the bitwise operation on its children's masks."""
    memo = {}
    for gate in reached(circ):
        kind, kids = gate.kind, gate.children
        if kind == CONST:
            m = full if gate.payload else 0
        elif kind == VAR:
            m = masks[gate.payload]
        elif kind == NOT:
            m = full ^ memo[kids[0]]
        elif kind == AND:
            m = full
            for child in kids:
                m &= memo[child]
        elif kind == OR:
            m = 0
            for child in kids:
                m |= memo[child]
        else:  # DEC
            sel = masks[gate.payload]
            m = (memo[kids[1]] & sel) | (memo[kids[0]] & ~sel & full)
        memo[gate] = m
    return memo[circ]


def setting(seed, n, gates, tree, padded=False):
    """A fresh pool, its problem, and a random circuit (or tree) over all its variables.

    A padded circuit sits below an and/or gate with a neutral constant child,
    which conditioning drops while the other child may stay as it is.  The
    circuit then takes one of `SHAPES`, drawn from the seed: cases a random
    circuit seldom has, on the variable the tests cofactor on,
    `all_vars[seed % len(all_vars)]`, or on another one.
    """
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, n)
    if tree:
        return pool, problem, random_tree(pool, problem.all_vars, rng, depth=5, leaf_prob=0.2)
    over = problem.all_vars
    var, other = over[seed % len(over)], over[(seed + 1) % len(over)]
    shape = rng.choice(SHAPES)
    rest = [v for v in over if v != var] if shape in ("without the variable", "at the root only") else over
    circ = random_circuit(pool, rest, gates, rng)
    if shape == "not over a constant":
        circ = pool.or_([pool.not_(pool.const(rng.randint(0, 1))), circ])
    elif shape == "absorbing constant":
        circ = pool.or_([pool.and_([circ, pool.const(0)]), pool.literal(other)])
    elif shape == "dec over constants":
        circ = pool.and_([circ, pool.decision(other, pool.const(0), pool.const(1))])
    elif shape == "at the root only":
        circ = pool.decision(var, circ, pool.not_(circ))
    if padded:
        circ = pool.or_([pool.and_([circ, pool.const(1)]), pool.const(0)])
    return pool, problem, circ


SHAPES = ("plain", "not over a constant", "absorbing constant", "dec over constants",
          "without the variable", "at the root only")


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    gates=st.integers(0, 40),
    tree=st.booleans(),
    padded=st.booleans(),
    fixed=st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=4),
)
@settings(max_examples=120)
def test_condition_and_cofactors_match_the_object_graph_kernel(seed, n, gates, tree, padded, fixed):
    # two pools built alike: the kernel runs in one, the reference in the other
    (a, problem, circ), (b, _, twin) = (setting(seed, n, gates, tree, padded) for _ in range(2))
    over = problem.all_vars
    term = Term(Literal(var, bit) for var, bit in {over[i % len(over)]: bit for i, bit in fixed}.items())
    var = over[seed % len(over)]
    # condition: one root, and the same gates created in the same order
    got = condition(circ, term)
    if len(term):
        (want,) = reference_substitute(twin, (term.value,))
    else:
        want = twin
    assert got.uid == want.uid and store(a) == store(b)
    # cofactors: both roots of the one sweep, also on a variable the circuit does not mention
    (unmentioned,) = a.declare("z")
    b.declare("z")
    for var in (var, unmentioned):
        low, high = cofactors(circ, var)
        want_low, want_high = reference_substitute(twin, ({var: False}.get, {var: True}.get))
        assert (low.uid, high.uid) == (want_low.uid, want_high.uid)
        assert store(a) == store(b)


def label_free(pool, problem, gates, rng):
    """A random circuit over the features, its constants folded away: no gate of it is live."""
    circ = random_circuit(pool, problem.features, gates, rng)
    return cofactors(circ, problem.label)[0]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), gates=st.integers(0, 60))
@settings(max_examples=60)
def test_a_circuit_without_the_variable_comes_back_as_itself(seed, n, gates):
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, n)
    circ = label_free(pool, problem, gates, rng)
    size = gate_count(pool)
    assert cofactors(circ, problem.label) == (circ, circ)
    assert condition(circ, Term([Literal(problem.label, seed % 2 == 0)])) == circ
    assert gate_count(pool) == size


def test_cofactors_work_on_the_cone_only():
    # (and B (imp C y)) with label-free B and C: the label's cone is three gates at every
    # size, so one cofactors call folds the same number of and/or gates at 1e2 and 1e4
    folds = []
    for gates in (100, 1000, 10000):
        rng = random.Random(gates)
        pool = Pool()
        problem = random_problem(pool, 6)
        b, c = (label_free(pool, problem, gates, rng) for _ in range(2))
        theory = pool.and_([b, pool.or_([pool.not_(c), pool.literal(problem.label)])])
        with mock.patch.object(circuit_module, "_fold_nary", wraps=circuit_module._fold_nary) as spy:
            low, high = cofactors(theory, problem.label)
        folds.append(spy.call_count)
        assert (low, high) == (pool.and_([b, pool.not_(c)]), b)
    assert folds == [4, 4, 4]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    gates=st.integers(0, 40),
    tree=st.booleans(),
    instances=st.lists(st.integers(0, 31), max_size=6),
)
@settings(max_examples=120)
def test_masks_match_the_object_graph_interpreter(seed, n, gates, tree, instances):
    pool, problem, circ = setting(seed, n, gates, tree)
    size = gate_count(pool)
    over = problem.all_vars
    full = (1 << (1 << len(over))) - 1
    assert truth_mask(circ, over) == reference_table(circ, var_masks(over), full)
    words = [format(i % (1 << n), f"0{n}b") for i in instances]
    got = (label_blocks(circ, problem), label_blocks(circ, problem, words))
    def reference(circ, masks, full, message):
        return reference_table(circ, masks, full)

    with mock.patch.object(semantics, "_table", reference), \
            mock.patch.object(classifier, "_table", reference):
        want = (label_blocks(circ, problem), label_blocks(circ, problem, words))
    assert got == want
    assert gate_count(pool) == size  # reading masks makes no gate
