"""Decision trees and the tree-level rectification pipeline.

A decision tree is a `Circuit` made of `dec` gates and constants only,
with the drawing convention low = variable 0, high = variable 1.  Its
gates live in a `Pool` like any circuit's, so an equal subtree is one
gate, equality is root identity, and a tree's variables are checked
as every circuit's are, by `classifier._check_problem_vars`, with no
walk when the pool declares only the problem's.  Trees are built with
`Pool.decision` and `Pool.const`, or read with `formats.parse_dtree`.
A function here that reaches any other gate raises RectifyError there.

Every combination grafts trees onto leaves, which can repeat variables
along paths, so each step is one `_reduce` pass (read-once paths, no
node with two identical children) to keep the pipeline polynomial;
`_reduce` walks on from each leaf into its graft, so the grafted tree is
never built.  `_reduce` depends on the path, so it walks every path and
meets a shared subtree once per path; `attach_label`, a graft, visits
each gate once.  Every walk uses an explicit stack, so depth is bounded
by memory only.

Certifying the classifier tree (`dt_check_classification`) checks the
label cofactors by graft walks, so it runs at any width, and builds only
the accepted region of a certified one-label tree.  Only expanding a
circuit (`circuit_to_dt`, read off its truth table) enumerates, and it is
capped like every other enumeration (DEFAULT_VAR_CAP variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .circuit import AND, DEC, OR, Circuit, VarId
from .classifier import _UNCERTIFIED, ClassificationProblem, _check_problem_vars
from .classifier import as_instance, label_blocks
from .errors import CertificationError, RectifyError
from .semantics import (
    DEFAULT_VAR_CAP,
    ensure_cap,
    ensure_within,
    truth_mask,
)


def _not_a_tree(kind: str) -> RectifyError:
    """The error for a gate of `kind`, neither a decision nor a constant."""
    article = "an" if kind in (AND, OR) else "a"
    return RectifyError(f"not a decision tree: found {article} {kind!r} gate")


def _graft(tree: Circuit, leaf) -> Circuit:
    """Every c-leaf becomes the gate `leaf(c)`, a uid asked for where a c-leaf is first reached.

    Memoised by uid, so each gate is rebuilt once.  The walk takes the low
    child first and builds a node after its children, so gates are
    created in the order of a recursive descent.
    """
    pool = tree.pool
    kinds, payloads, children = pool._kinds, pool._payloads, pool._children
    intern = pool._gate
    new: dict[int, int] = {}
    todo = [tree.uid]
    while todo:
        gate = todo.pop()
        if gate < 0:  # ~gate, whose two subtrees are grafted
            low, high = children[~gate]
            new[~gate] = intern(DEC, payloads[~gate], (new[low], new[high]))
        elif gate not in new:
            if kinds[gate] == DEC:
                low, high = children[gate]
                todo += (~gate, high, low)
            elif gate < 2:  # a constant: its uid is its value
                new[gate] = leaf(gate)
            else:
                raise _not_a_tree(kinds[gate])
    return Circuit(pool, new[tree.uid])


def dt_simplify(tree: Circuit) -> Circuit:
    """Equivalent reduced tree: read-once on every path, no identical children."""
    return _reduce(tree, {})


def _reduce(
    tree: Circuit,
    path: dict[VarId, int],
    grafts: tuple[Circuit, Circuit] | None = None,
    leaves: tuple[tuple[Circuit, Circuit], tuple[Circuit, Circuit]] | None = None,
) -> Circuit:
    """`tree` conditioned on `path` (variable -> bit) and reduced in one pass.

    Children come back reduced and free of every variable on their path,
    so one pass gives the normal form, and a node whose two children are
    one gate is that gate; a reduced tree comes back as itself.  The walk
    keeps its own stack of open nodes, and the bit `path` holds for an
    open node's variable says which branch is being reduced.

    With `grafts=(on0, on1)` it reduces the graft of `tree` without
    building it: the walk goes on from a reached c-leaf into `on_c` and
    resumes in `tree` once that is reduced.  `leaves=(map0, map1)` maps
    the leaves of `on_c` to the gates `map_c` (for 0, for 1), taken as
    they are.  With no grafts each constant is grafted onto itself.  A
    leaf is read through the leaf map of the tree being walked, where
    `tree`'s maps a leaf whose graft is no constant to None.  The result
    is built in the pool of the grafts (all in one pool), or in the
    tree's when it grafts nothing; the tree is read in its own pool's
    store, which may be another.
    """
    store = pool = tree.pool
    onto = (0, 1)  # each leaf of `tree`: the gate it becomes if its graft is a constant, else None
    if grafts is not None:
        pool = grafts[0].pool
        maps = ([leaf.uid for leaf in m] for m in leaves) if leaves else [(0, 1)] * 2
        grafts = [(g.uid, m) for g, m in zip(grafts, maps)]  # each graft's root and leaf map
        onto = [m[g] if g < 2 else None for g, m in grafts]
    relabel = onto  # the leaf map of the tree being walked
    paused = None  # `tree`'s open nodes while a graft is walked
    intern = pool._gate
    kinds, payloads, children = store._kinds, store._payloads, store._children
    done: list[int] = []
    open_nodes: list[int] = []
    node = tree.uid
    while True:
        while kinds[node] == DEC:
            var = payloads[node]
            forced = path.get(var)
            if forced is None:
                path[var] = 0
                open_nodes.append(node)
                node = children[node][0]
            else:
                node = children[node][forced]
        if node > 1:
            raise _not_a_tree(kinds[node])
        leaf = relabel[node]
        if leaf is None:  # a leaf of `tree` whose graft is no constant: on into the graft
            node, relabel = grafts[node]
            paused, open_nodes = open_nodes, []
            kinds, payloads, children = pool._kinds, pool._payloads, pool._children
            continue
        done.append(leaf)
        while True:
            if open_nodes:
                node = open_nodes[-1]
                var = payloads[node]
                if not path[var]:
                    path[var] = 1
                    node = children[node][1]
                    break
                open_nodes.pop()
                del path[var]
                high = done.pop()
                low = done.pop()
                done.append(low if low == high else intern(DEC, var, (low, high)))
            elif paused:  # the graft is reduced: back to `tree`
                open_nodes, paused, relabel = paused, None, onto
                kinds, payloads, children = store._kinds, store._payloads, store._children
            else:
                return Circuit(pool, done[0])


def attach_label(tree: Circuit, label: VarId) -> Circuit:
    """Turn a feature-space tree into a classification tree.

    Each leaf becomes a decision on the label that is satisfied exactly
    when the label agrees with the leaf's class: a 1-leaf turns into
    (label 0 1) and a 0-leaf into (label 1 0).
    """
    pool = tree.pool
    return _graft(tree, lambda c: pool.decision(label, pool.const(1 - c), pool.const(c)).uid)


def dt_check_classification(tree: Circuit, problem: ClassificationProblem) -> bool:
    """Label uniqueness for a tree over features plus labels, by reduction.

    Each label word's cofactor, reduced, must be disjoint from the union
    of the words before it, and the last word's must be the union's
    complement: their conjunction, or equivalence, is the 0-leaf.  A
    reduced tree's paths split the instances, and the union (for one
    label, the tree under label 0, never built) is walked under each
    path, so every leaf reached holds for some instance.  Only the label
    words are enumerated, never an assignment to the features.
    """
    return _certified_top(tree, problem) is not None


def _certified_top(tree: Circuit, problem: ClassificationProblem):
    """Certify as `dt_check_classification` does, after the scope check of a classifier circuit.

    Returns the reduced cofactor at the last label word (every label 1;
    for a single label, the accepted region) if the tree is certified,
    and None if it is not.
    """
    _check_problem_vars(tree, problem, "classifier circuit")
    zero, one = Circuit(tree.pool, 0), Circuit(tree.pool, 1)
    words = [dict(zip(problem.labels, bits)) for bits in product((0, 1), repeat=len(problem.labels))]
    union, under = tree, words[0]  # the union of the words so far: `union` under `under`
    for word in words[1:-1]:
        part = _reduce(tree, word)
        if _reduce(part, under, (zero, union)) != zero:
            return None
        union, under = _reduce(union, under, (part, one)), {}
    top = _reduce(tree, words[-1])
    return top if _reduce(top, under, (union, union), ((one, zero), (zero, one))) == zero else None


def dt_rectify(
    sigma_tree: Circuit, theory_tree: Circuit, problem: ClassificationProblem
) -> Circuit:
    """Tree-level rectification; returns a classification tree in the theory's pool.

    With A the classifier tree conditioned on a positive label and T+,
    T- the theory conditioned both ways, the rectified region is
    (A and not F-) or F+ for the disjoint F+ = T+ and not T- and
    F- = T- and not T+: F+ below A's 0-leaves and not F- = not T- or T+
    below its 1-leaves.  Each conditioning and graft is one reduce pass;
    F+'s reads T-'s leaves negated, and the last one attaches the label
    at the leaves, as `attach_label` does.

    The two trees may come from two pools, as from two tree files, if
    both pools declare the same variables in the same order: the walks
    read the classifier's gates in its pool's store and build every node
    in the theory's pool, so neither tree is copied.  After the label
    guard and the pools, the circuit route's checks run in its order:
    sigma's scope and certification, then the theory's scope.
    """
    label = problem.label
    pool = theory_tree.pool
    if pool is not sigma_tree.pool and pool.variables != sigma_tree.pool.variables:
        raise RectifyError("sigma and theory trees declare different variables")
    # certification also reduces the accepted region, the cofactor at label 1
    accepted = _certified_top(sigma_tree, problem)
    if accepted is None:
        raise CertificationError(_UNCERTIFIED)
    _check_problem_vars(theory_tree, problem, "theory")
    zero, one = Circuit(pool, 0), Circuit(pool, 1)
    th_pos = _reduce(theory_tree, {label: 1})
    th_neg = _reduce(theory_tree, {label: 0})
    forces_pos = _reduce(th_pos, {}, (zero, th_neg), ((zero, one), (one, zero)))  # T- read negated
    not_forces_neg = _reduce(th_neg, {}, (one, th_pos))
    labelled = (pool.decision(label, one, zero), pool.decision(label, zero, one))
    return _reduce(accepted, {}, (forces_pos, not_forces_neg), (labelled, labelled))


def circuit_to_dt(circ: Circuit, order, cap: int = DEFAULT_VAR_CAP) -> Circuit:
    """Reduced tree of a circuit, ordered along `order`, in the circuit's pool.

    Reduced ordered trees are canonical (Bryant 1986), so the tree is
    read off one truth table over the circuit's own variables (in
    `order`, duplicates dropped): halve the table, one variable at a
    time, and skip a variable wherever the two halves agree.
    """
    order = tuple(order)
    live = circ.vars()
    ensure_cap(len(live), cap)
    ensure_within(live.difference(order), "expansion order does not cover: {names}")
    over = tuple(v for v in dict.fromkeys(order) if v in live)
    return Circuit(circ.pool, _from_table(circ.pool, truth_mask(circ, over), over, 0))


def _from_table(pool, table: int, over: tuple, k: int) -> int:
    # `table` is over over[k:]; the first variable's 0-half is the low half
    if k == len(over):
        return 1 if table else 0  # the constant's uid
    half = 1 << (len(over) - k - 1)
    low = table & ((1 << half) - 1)
    high = table >> half
    if low == high:
        return _from_table(pool, low, over, k + 1)
    children = (_from_table(pool, low, over, k + 1), _from_table(pool, high, over, k + 1))
    return pool._gate(DEC, over[k], children)


@dataclass(frozen=True)
class RandomForest:
    """Majority vote over classification trees sharing one problem."""

    trees: tuple[Circuit, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise ValueError("a forest needs at least one tree")


def rf_classify(forest: RandomForest, x, problem: ClassificationProblem) -> int:
    """Strict majority of positive votes; ties count as negative.

    A tree votes positive when it accepts the instance with the label set
    to 1: bit 1 of its label block at the instance.
    """
    problem.label  # raises RectifyError unless the problem is single-label
    inst = as_instance(problem, x)
    votes = sum(label_blocks(tree, problem, [inst])[0] >> 1 for tree in forest.trees)
    return 1 if 2 * votes > len(forest.trees) else 0


def rf_rectify(
    forest: RandomForest, theory_tree: Circuit, problem: ClassificationProblem
) -> RandomForest:
    """Rectify every tree of the forest; the vote rule is unchanged."""
    return RandomForest(tuple(dt_rectify(tree, theory_tree, problem) for tree in forest.trees))
