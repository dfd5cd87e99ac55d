"""Binary decision trees and the tree-level rectification pipeline.

Trees follow the drawing convention low = variable 0, high = variable 1.
Every combination grafts trees onto leaves, which can repeat variables
along paths, so each step is one `_reduce` pass (read-once paths, no
node with two identical children) to keep the pipeline polynomial;
`_reduce` takes the graft's two trees itself, so the grafted tree is
never built.

Nodes are plain slotted classes, immutable by convention (nothing sets
a field after `__init__`), so trees share subtrees freely.  Equality is
structural, with an identity shortcut for shared subtrees.  Every walk
uses an explicit stack, so depth is bounded by memory only.  Grafting,
conditioning, hashing and conversion to a circuit are one bottom-up
walk, `_fold`; `_reduce` (forced bits on the path),
`is_read_once` (the path), equality (a pair of nodes) and `repr` (text)
carry more state and keep their own loops.  Variables are `VarId` named
tuples, hashed and compared in C; ids from two pools that declare the
same names in the same order are equal, which lets `dt_rectify` combine
trees read from two files, whose roots record their variables (`dt_vars`).

Certifying the classifier tree (`dt_check_classification`) is structural:
it reduces the tree's label cofactors and combines them by grafts, so it
runs at any width.  Only expanding a circuit (`circuit_to_dt`, read off
its truth table) enumerates, and it is capped like every other
enumeration (DEFAULT_VAR_CAP variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Union

from .circuit import Circuit, Literal, Pool, VarId
from .classifier import ClassificationProblem, as_instance
from .errors import CertificationError
from .semantics import DEFAULT_VAR_CAP, Assignment, ensure_cap, ensure_within, truth_mask


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


class _ReadRoot(DTNode):
    """A read tree's root, with the variables the reader resolved: exactly the tree's."""

    __slots__ = ("variables",)

    def __init__(self, node: DTNode, variables: frozenset[VarId]):
        super().__init__(node.var, node.low, node.high)
        self.variables = variables


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


def dt_vars(tree: DecisionTree) -> frozenset[VarId]:
    """The tree's variables, reached or not; walked unless the reader recorded them."""
    if type(tree) is _ReadRoot:
        return tree.variables
    return _var_walk(tree)


def _var_walk(tree: DecisionTree) -> frozenset[VarId]:
    found = set()
    todo = [tree] if isinstance(tree, DTNode) else []
    while todo:
        node = todo.pop()
        found.add(node.var)
        if isinstance(node.low, DTNode):
            todo.append(node.low)
        if isinstance(node.high, DTNode):
            todo.append(node.high)
    return frozenset(found)


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


def _graft(tree: DecisionTree, on0: DecisionTree, on1: DecisionTree) -> DecisionTree:
    """Every 0-leaf becomes `on0`, every 1-leaf `on1`."""
    return _fold(tree, lambda leaf: on1 if leaf.value else on0, _keep)


def dt_simplify(tree: DecisionTree) -> DecisionTree:
    """Equivalent reduced tree: read-once on every path, no identical children."""
    return _reduce(tree, {})


def _reduce(
    tree: DecisionTree,
    path: dict[VarId, int],
    grafts: tuple[DecisionTree, DecisionTree] | None = None,
) -> DecisionTree:
    """`tree` conditioned on `path` (variable -> bit) and reduced in one pass.

    Children come back reduced and free of every variable on their path,
    so one pass gives the normal form; a reduced tree comes back as itself.
    The walk keeps its own stack of open nodes, and the bit `path` holds
    for an open node's variable says which branch is being reduced.

    With `grafts=(on0, on1)` it reduces `_graft(tree, on0, on1)` without
    building it: a reached 0-leaf continues as `_reduce(on0, path)`, a
    reached 1-leaf as `_reduce(on1, path)`.
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
        done.append(node if grafts is None else _reduce(grafts[node.value], path))
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


def attach_label(tree: DecisionTree, label: VarId) -> DecisionTree:
    """Turn a feature-space tree into a classification tree.

    Each leaf becomes a decision on the label that is satisfied exactly
    when the label agrees with the leaf's class: a 1-leaf turns into
    (label 0 1) and a 0-leaf into (label 1 0).
    """
    return _graft(tree, DTNode(label, LEAF1, LEAF0), DTNode(label, LEAF0, LEAF1))


def dt_check_classification(tree: DecisionTree, problem: ClassificationProblem) -> bool:
    """Label uniqueness for a tree over features plus labels, by reduction.

    Each label word's cofactor, reduced, must be disjoint from the union
    of the words before it (their reduced conjunction is the 0-leaf), and
    the union of all of them must be the 1-leaf.  A reduced tree is
    read-once, so every path is consistent and only the 0-leaf is
    unsatisfiable (Bryant 1986).  Only the label words are enumerated,
    never an assignment to the features.
    """
    return _certified_top(tree, problem) is not None


def _certified_top(tree: DecisionTree, problem: ClassificationProblem):
    """Certify as `dt_check_classification` does.

    Returns the reduced cofactor at the last label word (every label 1;
    for a single label, the accepted region) if the tree is certified,
    and None if it is not.
    """
    ensure_within(
        dt_vars(tree), problem.all_vars, "tree mentions variables outside the problem: {names}"
    )
    union = None
    for word in product((0, 1), repeat=len(problem.labels)):
        part = top = _reduce(tree, dict(zip(problem.labels, word)))
        if union is not None:
            if _reduce(part, {}, (LEAF0, union)) != LEAF0:
                return None
            part = _reduce(part, {}, (union, LEAF1))
        union = part
    return top if union == LEAF1 else None


def dt_rectify(
    sigma_tree: DecisionTree, theory_tree: DecisionTree, problem: ClassificationProblem
) -> DecisionTree:
    """Tree-level rectification; returns a classification tree.

    With A the classifier tree conditioned on a positive label and T+,
    T- the theory conditioned both ways, the rectified region is
    (A and not F-) or F+ for the disjoint F+ = T+ and not T- and
    F- = T- and not T+: F+ below A's 0-leaves and not F- = not T- or T+
    below its 1-leaves.  Each conditioning, graft and negation is one
    reduce pass; the label is then re-attached to the feature-space tree.
    """
    label = problem.label
    ensure_within(
        dt_vars(theory_tree),
        problem.features + (label,),
        "theory tree mentions variables outside the problem: {names}",
    )
    # certification rejects the classifier tree's variables outside the problem
    # and already reduces the accepted region, the cofactor at label 1
    accepted = _certified_top(sigma_tree, problem)
    if accepted is None:
        raise CertificationError(
            "classifier tree is not certified: some instance has no unique label"
        )
    th_pos = _reduce(theory_tree, {label: 1})
    th_neg = _reduce(theory_tree, {label: 0})
    forces_pos = _reduce(th_pos, {}, (LEAF0, _reduce(th_neg, {}, (LEAF1, LEAF0))))
    not_forces_neg = _reduce(th_neg, {}, (LEAF1, th_pos))
    return attach_label(_reduce(accepted, {}, (forces_pos, not_forces_neg)), label)


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
    """Strict majority of positive votes; ties count as negative.

    A tree votes positive when it accepts the instance with the label set to 1.
    """
    point = as_instance(problem, x).extended(problem.label, 1)
    votes = sum(dt_eval(tree, point) for tree in forest.trees)
    return 1 if 2 * votes > len(forest.trees) else 0


def rf_rectify(
    forest: RandomForest, theory_tree: DecisionTree, problem: ClassificationProblem
) -> RandomForest:
    """Rectify every tree of the forest; the vote rule is unchanged."""
    return RandomForest(tuple(dt_rectify(tree, theory_tree, problem) for tree in forest.trees))
