"""Binary decision trees and the tree-level rectification pipeline.

Trees follow the drawing convention low = variable 0, high = variable 1.
Conjunction grafts the second tree onto the first tree's 1-leaves,
disjunction onto its 0-leaves; both can duplicate variables along paths,
so `dt_simplify` (read-once paths, no node with two identical children)
runs after every combination step to keep the pipeline polynomial.

The one enumerating step is certifying the classifier tree
(`dt_check_classification`): a bit-sliced walk that builds the tree's
truth table over features plus labels as one integer, so it is capped
like every other enumeration (DEFAULT_VAR_CAP variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .circuit import Circuit, CONST, Literal, Pool, Term, VarId, condition
from .classifier import ClassificationProblem, as_instance, one_label_per_instance
from .errors import CertificationError
from .semantics import DEFAULT_VAR_CAP, Assignment, ensure_cap, ensure_within, evaluate, var_masks


@dataclass(frozen=True)
class DTLeaf:
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("leaf value must be 0 or 1")


@dataclass(frozen=True)
class DTNode:
    var: VarId
    low: "DecisionTree"
    high: "DecisionTree"


DecisionTree = Union[DTLeaf, DTNode]

LEAF0 = DTLeaf(0)
LEAF1 = DTLeaf(1)


def node_count(tree: DecisionTree) -> int:
    """All nodes, leaves included."""
    if isinstance(tree, DTLeaf):
        return 1
    return 1 + node_count(tree.low) + node_count(tree.high)


def decision_count(tree: DecisionTree) -> int:
    """Internal (variable) nodes only."""
    if isinstance(tree, DTLeaf):
        return 0
    return 1 + decision_count(tree.low) + decision_count(tree.high)


def dt_vars(tree: DecisionTree) -> frozenset[VarId]:
    return frozenset(_vars_below([tree]))


def _vars_below(stack: list) -> set[VarId]:
    """Variables of every subtree on the stack (consumed), walked iteratively."""
    found = set()
    while stack:
        node = stack.pop()
        if isinstance(node, DTNode):
            found.add(node.var)
            stack.append(node.low)
            stack.append(node.high)
    return found


def dt_eval(tree: DecisionTree, omega: Assignment) -> int:
    while isinstance(tree, DTNode):
        try:
            bit = omega.value(tree.var)
        except KeyError:
            raise ValueError(
                f"assignment is not total over the tree's variables (missing {tree.var.name})"
            ) from None
        tree = tree.high if bit else tree.low
    return tree.value


def dt_condition(tree: DecisionTree, lit: Literal) -> DecisionTree:
    """Drop every node over the literal's variable, keeping the branch it selects."""
    if isinstance(tree, DTLeaf):
        return tree
    if tree.var == lit.var:
        return dt_condition(tree.high if lit.positive else tree.low, lit)
    low = dt_condition(tree.low, lit)
    high = dt_condition(tree.high, lit)
    if low is tree.low and high is tree.high:
        return tree
    return DTNode(tree.var, low, high)


def dt_negate(tree: DecisionTree) -> DecisionTree:
    """Swap the leaves; the branching shape is untouched."""
    if isinstance(tree, DTLeaf):
        return DTLeaf(1 - tree.value)
    return DTNode(tree.var, dt_negate(tree.low), dt_negate(tree.high))


def _graft(tree: DecisionTree, target: int, replacement: DecisionTree) -> DecisionTree:
    if isinstance(tree, DTLeaf):
        return replacement if tree.value == target else tree
    low = _graft(tree.low, target, replacement)
    high = _graft(tree.high, target, replacement)
    if low is tree.low and high is tree.high:
        return tree
    return DTNode(tree.var, low, high)


def dt_conjoin(a: DecisionTree, b: DecisionTree) -> DecisionTree:
    """Conjunction: every 1-leaf of the first tree becomes a copy of the second."""
    return _graft(a, 1, b)


def dt_disjoin(a: DecisionTree, b: DecisionTree) -> DecisionTree:
    """Disjunction: every 0-leaf of the first tree becomes a copy of the second."""
    return _graft(a, 0, b)


def dt_simplify(tree: DecisionTree) -> DecisionTree:
    """Equivalent reduced tree: read-once on every path, no identical children.

    One recursive pass carries the branch decisions taken so far (killing
    repeated variables on a path) and merges structurally equal children
    on the way back up.  A pass normally suffices; the loop re-runs it
    until nothing changes rather than assuming so.
    """
    while True:
        reduced = _reduce(tree, {})
        if reduced == tree:
            return tree
        tree = reduced


def _reduce(tree: DecisionTree, path: dict[VarId, int]) -> DecisionTree:
    if isinstance(tree, DTLeaf):
        return tree
    forced = path.get(tree.var)
    if forced is not None:
        return _reduce(tree.high if forced else tree.low, path)
    path[tree.var] = 0
    low = _reduce(tree.low, path)
    path[tree.var] = 1
    high = _reduce(tree.high, path)
    del path[tree.var]
    if low == high:
        return low
    if low is tree.low and high is tree.high:
        return tree
    return DTNode(tree.var, low, high)


def is_read_once(tree: DecisionTree, _seen: frozenset = frozenset()) -> bool:
    if isinstance(tree, DTLeaf):
        return True
    if tree.var in _seen:
        return False
    seen = _seen | {tree.var}
    return is_read_once(tree.low, seen) and is_read_once(tree.high, seen)


def has_identical_children(tree: DecisionTree) -> bool:
    if isinstance(tree, DTLeaf):
        return False
    return (
        tree.low == tree.high
        or has_identical_children(tree.low)
        or has_identical_children(tree.high)
    )


def is_simplified(tree: DecisionTree) -> bool:
    return is_read_once(tree) and not has_identical_children(tree)


def attach_label(tree: DecisionTree, label: VarId) -> DecisionTree:
    """Turn a feature-space tree into a classification tree.

    Each leaf becomes a decision on the label that is satisfied exactly
    when the label agrees with the leaf's class: a 1-leaf turns into
    (label 0 1) and a 0-leaf into (label 1 0).
    """
    if isinstance(tree, DTLeaf):
        return DTNode(label, DTLeaf(1 - tree.value), DTLeaf(tree.value))
    return DTNode(tree.var, attach_label(tree.low, label), attach_label(tree.high, label))


def dt_classify(tree: DecisionTree, x, problem: ClassificationProblem) -> int:
    """Class assigned by a single-label classification tree at an instance."""
    inst = as_instance(problem, x)
    return dt_eval(tree, inst.extended(problem.label, 1))


def dt_check_classification(
    tree: DecisionTree, problem: ClassificationProblem, cap: int = DEFAULT_VAR_CAP
) -> bool:
    """Label uniqueness for a tree over features plus labels, bit-sliced.

    Still an enumeration of all assignments to `problem.all_vars`, hence
    the cap, but over packed integers: one top-down walk gives each node
    the mask of the assignments that reach it (the parent's mask and the
    branch variable's truth-table mask for the high child, its complement
    for the low one), and the masks of the 1-leaves OR together into the
    tree's truth table.  A subtree that no assignment reaches is skipped;
    only its variables are still checked against the problem.
    """
    over = problem.all_vars
    ensure_cap(len(over), cap)
    full = (1 << (1 << len(over))) - 1
    branch = {v: (full ^ m, m) for v, m in var_masks(over).items()}
    table = 0
    unreached = []
    stack = [(tree, full)]
    while stack:
        node, reach = stack.pop()
        if isinstance(node, DTLeaf):
            if node.value:
                table |= reach
            continue
        masks = branch.get(node.var)
        if masks is None:
            unreached.append(node)
            continue
        low = reach & masks[0]
        high = reach & masks[1]
        if low:
            stack.append((node.low, low))
        else:
            unreached.append(node.low)
        if high:
            stack.append((node.high, high))
        else:
            unreached.append(node.high)
    ensure_within(
        _vars_below(unreached), branch, "tree mentions variables outside the problem: {names}"
    )
    return one_label_per_instance(table, problem)


def dt_rectify(
    sigma_tree: DecisionTree,
    theory_tree: DecisionTree,
    problem: ClassificationProblem,
    *,
    cap: int = DEFAULT_VAR_CAP,
) -> DecisionTree:
    """Tree-level rectification; returns a classification tree.

    The pipeline mirrors the circuit construction: condition the
    classifier tree on a positive label to get its accepted region,
    condition the theory both ways, combine with negation / conjunction /
    disjunction (simplifying after each step), and finally re-attach the
    label to the resulting feature-space tree.
    """
    label = problem.label
    allowed = problem.features + (label,)
    for what, tree in (("classifier", sigma_tree), ("theory", theory_tree)):
        ensure_within(
            dt_vars(tree), allowed, what + " tree mentions variables outside the problem: {names}"
        )
    if not dt_check_classification(sigma_tree, problem, cap=cap):
        raise CertificationError(
            "classifier tree is not certified: some instance has no unique label"
        )
    pos = Literal(label, True)
    neg = Literal(label, False)
    accepted = dt_simplify(dt_condition(sigma_tree, pos))
    th_pos = dt_simplify(dt_condition(theory_tree, pos))
    th_neg = dt_simplify(dt_condition(theory_tree, neg))
    forces_neg = dt_simplify(dt_conjoin(th_neg, dt_negate(th_pos)))
    forces_pos = dt_simplify(dt_conjoin(th_pos, dt_negate(th_neg)))
    kept = dt_simplify(dt_conjoin(accepted, dt_negate(forces_neg)))
    out = dt_simplify(dt_disjoin(kept, forces_pos))
    return attach_label(out, label)


def dt_to_circuit(tree: DecisionTree, pool: Pool) -> Circuit:
    """Decision gates for nodes, constants for leaves; sharing via interning."""
    if isinstance(tree, DTLeaf):
        return pool.const(tree.value)
    return pool.decision(
        tree.var, dt_to_circuit(tree.low, pool), dt_to_circuit(tree.high, pool)
    )


def circuit_to_dt(
    circ: Circuit, order, cap: int = DEFAULT_VAR_CAP
) -> DecisionTree:
    """Cofactor expansion of a circuit into a reduced tree along the given order."""
    order = tuple(order)
    ensure_cap(len(circ.vars()), cap)
    ensure_within(circ.vars(), order, "expansion order does not cover: {names}")
    return dt_simplify(_expand(circ, order, 0))


def _expand(circ: Circuit, order, start: int) -> DecisionTree:
    if circ.root.kind == CONST:
        return DTLeaf(circ.root.payload)
    live = circ.vars()
    if not live:
        # constant in disguise (unfolded constants in a raw circuit)
        return DTLeaf(evaluate(circ, Assignment((), ())))
    j = start
    while order[j] not in live:
        j += 1
    var = order[j]
    low = _expand(condition(circ, Term([Literal(var, False)])), order, j + 1)
    high = _expand(condition(circ, Term([Literal(var, True)])), order, j + 1)
    return DTNode(var, low, high)


@dataclass(frozen=True)
class RandomForest:
    """Majority vote over classification trees sharing one problem."""

    trees: tuple[DecisionTree, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise ValueError("a forest needs at least one tree")


def rf_classify(forest: RandomForest, x, problem: ClassificationProblem) -> int:
    """Strict majority of positive votes; ties count as negative."""
    inst = as_instance(problem, x)
    votes = sum(dt_classify(tree, inst, problem) for tree in forest.trees)
    return 1 if 2 * votes > len(forest.trees) else 0


def rf_rectify(
    forest: RandomForest,
    theory_tree: DecisionTree,
    problem: ClassificationProblem,
    *,
    cap: int = DEFAULT_VAR_CAP,
) -> RandomForest:
    """Rectify every tree of the forest; the vote rule is unchanged."""
    return RandomForest(
        tuple(dt_rectify(tree, theory_tree, problem, cap=cap) for tree in forest.trees)
    )
