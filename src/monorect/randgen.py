"""Seeded random circuits, classifiers and trees.

Used by the fuzz command, the property-test suites, and the timing
sweeps.  Everything is driven by a caller-supplied random.Random, so runs
are reproducible from a seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .circuit import Circuit, Pool, VarId
from .classifier import Classifier, ClassificationProblem


def random_problem(pool: Pool, n_features: int) -> ClassificationProblem:
    features = pool.declare(*(f"x{i + 1}" for i in range(n_features)))
    labels = pool.declare("y")
    return ClassificationProblem(features, labels)


def random_circuit(pool: Pool, over: Sequence[VarId], gates: int, rng: random.Random) -> Circuit:
    """A random DAG built from roughly `gates` gate creations over `over`.

    Gates accumulate onto a running root, so everything created stays
    reachable and the realized arc count tracks the budget (interning may
    still merge duplicates).  Earlier gates are reused as extra children,
    which keeps the result a DAG rather than a tree.
    """
    over = tuple(over)
    nodes = [pool.literal(v) for v in over]
    acc = rng.choice(nodes)
    for _ in range(gates):
        if rng.random() < 0.03:
            nodes.append(pool.const(rng.randint(0, 1)))
        kind = rng.choice(("not", "and", "or", "dec"))
        if kind == "not":
            acc = pool.not_(acc)
        elif kind == "dec":
            low, high = acc, rng.choice(nodes)
            if rng.random() < 0.5:
                low, high = high, low
            acc = pool.decision(rng.choice(over), low, high)
        else:
            parts = [acc] + [rng.choice(nodes) for _ in range(rng.randint(1, 2))]
            rng.shuffle(parts)
            acc = pool.and_(parts) if kind == "and" else pool.or_(parts)
        nodes.append(acc)
    return acc


def random_classifier(
    pool: Pool, problem: ClassificationProblem, gates: int, rng: random.Random
) -> Classifier:
    """A classifier by construction: a random accepted region over the features."""
    return Classifier._of_region(problem, random_circuit(pool, problem.features, gates, rng))


def random_theory(
    pool: Pool, problem: ClassificationProblem, gates: int, rng: random.Random
) -> Circuit:
    return random_circuit(pool, problem.all_vars, gates, rng)


def random_tree(
    pool: Pool,
    over: Sequence[VarId],
    rng: random.Random,
    depth: int = 6,
    leaf_prob: float = 0.25,
    identical_prob: float = 0.0,
) -> Circuit:
    """A random decision tree in the pool; repeated variables along paths arise naturally.

    With identical_prob > 0 some nodes get two identical children, which
    together with the path repetitions gives the redundancy the
    simplifier is supposed to remove.
    """
    if depth == 0 or rng.random() < leaf_prob:
        return pool.const(rng.randint(0, 1))
    var = rng.choice(tuple(over))
    if rng.random() < identical_prob:
        child = random_tree(pool, over, rng, depth - 1, leaf_prob, identical_prob)
        return pool.decision(var, child, child)
    return pool.decision(
        var,
        random_tree(pool, over, rng, depth - 1, leaf_prob, identical_prob),
        random_tree(pool, over, rng, depth - 1, leaf_prob, identical_prob),
    )
