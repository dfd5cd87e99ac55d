"""Binary decision trees and the tree-level rectification pipeline.

Trees follow the drawing convention low = variable 0, high = variable 1.
Every combination grafts trees onto leaves (`_graft`), which can repeat
variables along paths, so one `_reduce` pass (read-once paths, no node
with two identical children) follows each step to keep the pipeline
polynomial.

Nodes are plain slotted classes, immutable by convention (nothing sets
a field after `__init__`), so trees share subtrees freely.  Equality is
structural, with an identity shortcut for shared subtrees.  Every walk
uses an explicit stack, so depth is bounded by memory only.  Grafting,
conditioning, hashing, counting and conversion to a circuit are one
bottom-up walk, `_fold`; `_reduce` (forced bits on the path),
`is_read_once` (the path), equality (a pair of nodes), `repr` (text)
and certification (reach masks) carry more state and keep their own
loops.  Variables are `VarId` named tuples, hashed and compared in C;
ids from two pools that declare the same names in the same order are
equal, which lets `dt_rectify` combine trees read from two files.

Certifying the classifier tree (`dt_check_classification`, a bit-sliced
walk building the tree's truth table over features plus labels) and
expanding a circuit (`circuit_to_dt`, read off its truth table) enumerate,
so both are capped like every other enumeration (DEFAULT_VAR_CAP variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .circuit import Circuit, Literal, Pool, VarId
from .classifier import ClassificationProblem, as_instance, one_label_per_instance
from .errors import CertificationError
from .semantics import DEFAULT_VAR_CAP, Assignment, ensure_cap, ensure_within
from .semantics import truth_mask, var_masks


class DTLeaf:
    """A 0- or 1-leaf."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if value not in (0, 1):
            raise ValueError("leaf value must be 0 or 1")
        self.value = value

    def __eq__(self, other):
        if isinstance(other, DTLeaf):
            return self.value == other.value
        return False if isinstance(other, DTNode) else NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"DTLeaf(value={self.value})"


class DTNode:
    """A decision on `var`: `low` where it is 0, `high` where it is 1."""

    __slots__ = ("var", "low", "high")

    def __init__(self, var: VarId, low: "DecisionTree", high: "DecisionTree"):
        self.var = var
        self.low = low
        self.high = high

    def __eq__(self, other):
        if isinstance(other, DTNode):
            return self is other or _same(self, other)
        return False if isinstance(other, DTLeaf) else NotImplemented

    def __hash__(self):
        return _fold(self, hash, lambda node, low, high: hash((node.var, low, high)))

    def __repr__(self):
        out: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, DTNode):
                out.append(f"DTNode(var={item.var!r}, low=")
                todo.extend((")", item.high, ", high=", item.low))
            else:
                out.append(repr(item))
        return "".join(out)


def _same(a: "DecisionTree", b: "DecisionTree") -> bool:
    """Structural equality over an explicit stack; shared subtrees are skipped."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if isinstance(x, DTNode):
            if not isinstance(y, DTNode) or x.var != y.var:
                return False
            todo.append((x.high, y.high))
            todo.append((x.low, y.low))
        elif isinstance(y, DTNode) or x.value != y.value:
            return False
    return True


DecisionTree = Union[DTLeaf, DTNode]

LEAF0 = DTLeaf(0)
LEAF1 = DTLeaf(1)


def _fold(tree: DecisionTree, leaf, node):
    """Bottom-up over an explicit stack: `leaf(l)` at each leaf, and
    `node(n, low, high)` at each decision once both children's results
    are in (the low child's first)."""
    done: list = []
    todo: list = [tree]
    while todo:
        item = todo.pop()
        if item is None:
            item = todo.pop()
            high = done.pop()
            done.append(node(item, done.pop(), high))
        elif isinstance(item, DTNode):
            todo.extend((item, None, item.high, item.low))
        else:
            done.append(leaf(item))
    return done[0]


def _keep(node: DTNode, low: DecisionTree, high: DecisionTree) -> DTNode:
    """`node` itself when both are its own children, so unchanged subtrees
    stay shared with the input; a new node over them otherwise."""
    if low is node.low and high is node.high:
        return node
    return DTNode(node.var, low, high)


def node_count(tree: DecisionTree) -> int:
    """All nodes, leaves included."""
    return _fold(tree, lambda leaf: 1, lambda node, low, high: low + high + 1)


def decision_count(tree: DecisionTree) -> int:
    """Internal (variable) nodes only."""
    # every decision node has two children, so leaves outnumber them by one
    return (node_count(tree) - 1) // 2


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
    var, positive = lit.var, lit.positive

    def step(node, low, high):
        if node.var == var:
            return high if positive else low
        return _keep(node, low, high)

    return _fold(tree, lambda leaf: leaf, step)


def dt_negate(tree: DecisionTree) -> DecisionTree:
    """Swap the leaves; the branching shape is untouched."""
    return _graft(tree, LEAF1, LEAF0)


def _graft(tree: DecisionTree, on0: DecisionTree, on1: DecisionTree) -> DecisionTree:
    """Every 0-leaf becomes `on0`, every 1-leaf `on1`."""
    return _fold(tree, lambda leaf: on1 if leaf.value else on0, _keep)


def dt_conjoin(a: DecisionTree, b: DecisionTree) -> DecisionTree:
    """Conjunction: every 1-leaf of the first tree becomes a copy of the second."""
    return _graft(a, LEAF0, b)


def dt_disjoin(a: DecisionTree, b: DecisionTree) -> DecisionTree:
    """Disjunction: every 0-leaf of the first tree becomes a copy of the second."""
    return _graft(a, b, LEAF1)


def dt_simplify(tree: DecisionTree) -> DecisionTree:
    """Equivalent reduced tree: read-once on every path, no identical children."""
    return _reduce(tree, {})


def _reduce(tree: DecisionTree, path: dict[VarId, int]) -> DecisionTree:
    """`tree` conditioned on `path` (variable -> bit) and reduced in one pass.

    Children come back reduced and free of every variable on their path,
    so one pass gives the normal form; a reduced tree comes back as itself.
    The walk keeps its own stack of open nodes, and the bit `path` holds
    for an open node's variable says which branch is being reduced.
    """
    done: list[DecisionTree] = []
    open_nodes: list[DTNode] = []
    node = tree
    while True:
        while isinstance(node, DTNode):
            forced = path.get(node.var)
            if forced is None:
                path[node.var] = 0
                open_nodes.append(node)
                node = node.low
            else:
                node = node.high if forced else node.low
        done.append(node)
        while open_nodes:
            node = open_nodes[-1]
            if not path[node.var]:
                path[node.var] = 1
                node = node.high
                break
            open_nodes.pop()
            del path[node.var]
            high = done.pop()
            low = done.pop()
            done.append(low if low == high else _keep(node, low, high))
        else:
            return done[0]


def is_read_once(tree: DecisionTree) -> bool:
    """No variable twice on any root-to-leaf path."""
    path: set = set()
    todo: list = [tree]
    while todo:
        node = todo.pop()
        if node is None:
            path.remove(todo.pop().var)
        elif isinstance(node, DTNode):
            if node.var in path:
                return False
            path.add(node.var)
            todo.extend((node, None, node.high, node.low))
    return True


def has_identical_children(tree: DecisionTree) -> bool:
    return _fold(
        tree, lambda leaf: False, lambda node, low, high: low or high or node.low == node.high
    )


def is_simplified(tree: DecisionTree) -> bool:
    return is_read_once(tree) and not has_identical_children(tree)


def attach_label(tree: DecisionTree, label: VarId) -> DecisionTree:
    """Turn a feature-space tree into a classification tree.

    Each leaf becomes a decision on the label that is satisfied exactly
    when the label agrees with the leaf's class: a 1-leaf turns into
    (label 0 1) and a 0-leaf into (label 1 0).
    """
    return _graft(tree, DTNode(label, LEAF1, LEAF0), DTNode(label, LEAF0, LEAF1))


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

    With A the classifier tree conditioned on a positive label and T+,
    T- the theory conditioned both ways, the rectified region is
    (A and not F-) or F+ for the disjoint F+ = T+ and not T- and
    F- = T- and not T+: F+ below A's 0-leaves and not F- = not T- or T+
    below its 1-leaves.  Each conditioning and graft is one reduce pass;
    the label is then re-attached to the feature-space tree.
    """
    label = problem.label
    ensure_within(
        dt_vars(theory_tree),
        problem.features + (label,),
        "theory tree mentions variables outside the problem: {names}",
    )
    # certification rejects the classifier tree's variables outside the problem
    if not dt_check_classification(sigma_tree, problem, cap=cap):
        raise CertificationError(
            "classifier tree is not certified: some instance has no unique label"
        )
    accepted = _reduce(sigma_tree, {label: 1})
    th_pos = _reduce(theory_tree, {label: 1})
    th_neg = _reduce(theory_tree, {label: 0})
    forces_pos = dt_simplify(_graft(th_pos, LEAF0, dt_negate(th_neg)))
    not_forces_neg = dt_simplify(_graft(th_neg, LEAF1, th_pos))
    out = dt_simplify(_graft(accepted, forces_pos, not_forces_neg))
    return attach_label(out, label)


def dt_to_circuit(tree: DecisionTree, pool: Pool) -> Circuit:
    """Decision gates for nodes, constants for leaves; sharing via interning."""
    return _fold(
        tree,
        lambda leaf: pool.const(leaf.value),
        lambda node, low, high: pool.decision(node.var, low, high),
    )


def circuit_to_dt(
    circ: Circuit, order, cap: int = DEFAULT_VAR_CAP
) -> DecisionTree:
    """Reduced tree of a circuit, ordered along `order`.

    Reduced ordered trees are canonical (Bryant 1986), so the tree is
    read off one truth table over the circuit's own variables (in
    `order`, duplicates dropped): halve the table, one variable at a
    time, and skip a variable wherever the two halves agree.
    """
    order = tuple(order)
    live = circ.vars()
    ensure_cap(len(live), cap)
    ensure_within(live, order, "expansion order does not cover: {names}")
    over = tuple(v for v in dict.fromkeys(order) if v in live)
    return _from_table(truth_mask(circ, over), over, 0)


def _from_table(table: int, over: tuple, k: int) -> DecisionTree:
    # `table` is over over[k:]; the first variable's 0-half is the low half
    if k == len(over):
        return LEAF1 if table else LEAF0
    half = 1 << (len(over) - k - 1)
    low = table & ((1 << half) - 1)
    high = table >> half
    if low == high:
        return _from_table(low, over, k + 1)
    return DTNode(over[k], _from_table(low, over, k + 1), _from_table(high, over, k + 1))


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
