"""Seeded input generators for the benchmark's workloads.

Everything is drawn from a random.Random the caller seeds, so one seed
always gives the same texts.  The texts are what the program reads:
problem files (circuit expressions, shared gates written as `let`
bindings so the text stays linear in the gate count) and decision-tree
files.  Nothing here imports monorect.
"""

from __future__ import annotations

import random


def names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def header(features, label="y") -> str:
    return f"(features {' '.join(features)})\n(labels {label})\n"


def text(form) -> str:
    """The s-expression text of a nested-list form."""
    if isinstance(form, str):
        return form
    return "(" + " ".join(text(item) for item in form) + ")"


def let_text(bindings, body) -> str:
    """A `let` form with one binding per line."""
    lines = "\n".join(f" ({name} {text(expr)})" for name, expr in bindings)
    return f"(let (\n{lines})\n {text(body)})"


# ----------------------------------------------------------------------
# circuits


def chain_dag(rng: random.Random, leaves, gates: int, prefix: str, label=None, label_from=1.0):
    """Bindings of a shared DAG in which every gate is reachable from the last.

    Gate i always takes gate i-1 as a child, so the whole list hangs off
    the root, and takes one more operand drawn from all earlier gates
    (sharing) or from the leaves.  Gates at positions >= label_from*gates
    may decide on the label, which makes exactly that upper part of the
    DAG depend on it.  No constants are written, so conditioning on the
    label folds nothing away.  `iff` and `dec` keep the functions near
    balanced so the DAG does not collapse to a constant function.
    """
    bindings = []
    gate_names: list[str] = []
    prev = rng.choice(leaves)
    first_label = int(gates * label_from)
    for i in range(gates):
        if gate_names and rng.random() < 0.7:
            other = rng.choice(gate_names)
        else:
            other = rng.choice(leaves)
        a, b = (prev, other) if rng.random() < 0.5 else (other, prev)
        r = rng.random()
        if label is not None and i >= first_label and r < 0.3:
            # both branches keep gate i-1, so conditioning on the label
            # rebuilds the gates above instead of cutting the chain
            expr = ["dec", label, ["and", a, b], ["or", a, b]]
        elif r < 0.45:
            expr = ["dec", rng.choice(leaves), a, b]
        elif r < 0.6:
            expr = ["and", a, b]
        elif r < 0.75:
            expr = ["or", a, b]
        elif r < 0.9:
            expr = ["iff", a, b]
        else:
            expr = ["not", prev]
        name = f"{prefix}{i}"
        bindings.append((name, expr))
        gate_names.append(name)
        prev = name
    return bindings, prev


def expr_tree(rng: random.Random, leaves, ops: int):
    """A random expression with `ops` operators and no sharing."""
    if ops == 0:
        return rng.choice(leaves)
    kind = rng.choice(("and", "or", "not", "dec", "iff"))
    if kind == "not":
        return ["not", expr_tree(rng, leaves, ops - 1)]
    left = rng.randint(0, ops - 1)
    a = expr_tree(rng, leaves, left)
    b = expr_tree(rng, leaves, ops - 1 - left)
    if kind == "dec":
        return ["dec", rng.choice(leaves), a, b]
    return [kind, a, b]


def large_problem(rng: random.Random, n_features: int, sigma_gates: int, theory_gates: int, label_share: float) -> str:
    """A problem whose theory is one shared DAG of `theory_gates` bindings.

    The label occurs only in the top `label_share` of the theory's DAG,
    so that share of it is rebuilt by each conditioning on the label.
    """
    feats = names(n_features)
    s_bind, s_root = chain_dag(rng, feats, sigma_gates, "s")
    t_bind, t_root = chain_dag(rng, feats, theory_gates, "g", "y", 1.0 - label_share)
    sigma = let_text(s_bind, ["iff", s_root, "y"])
    theory = let_text(t_bind, t_root)
    return header(feats) + f"(sigma {sigma})\n(theory {theory})\n"


def desk_problem(rng: random.Random, n_features: int, sigma_gates: int, rule_gates: int) -> str:
    """A desk-scale problem: sigma is (iff R y), the theory a few label rules.

    Each rule body is its own shared DAG over the features; the rules
    force y, force !y, or tie y to a feature decision, so some instances
    are decided one way, some the other, and some not at all.
    """
    feats = names(n_features)
    s_bind, s_root = chain_dag(rng, feats, sigma_gates, "s")
    t_bind = []
    bodies = []
    for k in range(4):
        b_bind, b_root = chain_dag(rng, feats, rule_gates, f"r{k}_")
        t_bind.extend(b_bind)
        bodies.append(b_root)
    rules = [
        ["imp", bodies[0], "y"],
        ["imp", bodies[1], ["not", "y"]],
        ["or", bodies[2], ["dec", "y", bodies[3], ["not", bodies[3]]]],
    ]
    return (
        header(feats)
        + f"(sigma {let_text(s_bind, ['iff', s_root, 'y'])})\n"
        + f"(theory {let_text(t_bind, ['and', *rules])})\n"
    )


def printable_problem(rng: random.Random, n_features: int, ops: int) -> str:
    """A small problem written without sharing, so printed circuits stay short."""
    feats = names(n_features)
    sigma = ["iff", expr_tree(rng, feats, ops), "y"]
    theory = [
        "and",
        ["imp", expr_tree(rng, feats, ops // 2), "y"],
        ["imp", expr_tree(rng, feats, ops // 2), ["not", "y"]],
    ]
    return header(feats) + f"(sigma {text(sigma)})\n(theory {text(theory)})\n"


def deep_not_problem(depth: int = 3000) -> str:
    """Sigma behind a `depth`-deep chain of nots; the same text for every seed."""
    feats = names(5)
    chain = "(not " * depth + "x1" + ")" * depth
    theory = "(and (imp (and x2 x3) y) (imp (not x4) (not y)))"
    return header(feats) + f"(sigma (iff (or {chain} x5) y))\n(theory {theory})\n"


# ----------------------------------------------------------------------
# trees


def sized_tree(rng: random.Random, variables, depth: int, internal: int, leaf):
    """A random tree with exactly `internal` decision nodes and depth <= `depth`.

    Variables repeat along paths (the simplifier's work); `leaf(rng)`
    draws the leaves.  Built iteratively, children before parents.
    """
    if internal > (1 << depth) - 1:
        raise ValueError("too many nodes for the depth")
    out: list[str] = []
    todo = [(False, depth, internal, None)]
    while todo:
        ready, d, budget, var = todo.pop()
        if ready:
            high = out.pop()
            low = out.pop()
            out.append(f"({var} {low} {high})")
        elif budget == 0:
            out.append(leaf(rng))
        else:
            cap = (1 << (d - 1)) - 1
            rest = budget - 1
            k = rng.randint(max(0, rest - cap), min(cap, rest))
            todo.append((True, d, 0, rng.choice(variables)))
            todo.append((False, d - 1, rest - k, None))
            todo.append((False, d - 1, k, None))
    (tree,) = out
    return tree


def class_leaf(rng: random.Random) -> str:
    """A classification leaf: the label decision for class 0 or class 1."""
    return rng.choice(("(y 1 0)", "(y 0 1)"))


def bool_leaf(rng: random.Random) -> str:
    return rng.choice("01")


def tree_pair(rng: random.Random, n_features: int, depth: int, sigma_nodes: int, theory_nodes: int) -> tuple[str, str]:
    """A classifier tree file and a theory tree file over the same variables.

    The classifier's leaves decide the label, so it is certified by
    construction; the theory branches on the label as often as on any
    one feature.
    """
    feats = names(n_features)
    sigma = sized_tree(rng, feats, depth, sigma_nodes, class_leaf)
    theory = sized_tree(rng, feats + ["y"], depth, theory_nodes, bool_leaf)
    head = header(feats)
    return head + f"(tree {sigma})\n", head + f"(tree {theory})\n"


def deep_theory_tree(depth: int = 2000) -> tuple[str, str]:
    """A small classifier and a `depth`-deep theory chain; the same for every seed."""
    variables = names(5) + ["y"]
    head = header(names(5))
    opening, closing = [], []
    for i in range(depth):
        var = variables[i % len(variables)]
        # the chain continues on the high branch, or on the low one every third node
        if i % 3:
            opening.append(f"({var} {i % 2} ")
            closing.append(")")
        else:
            opening.append(f"({var} ")
            closing.append(f" {i % 2})")
    tree = "".join(opening) + "1" + "".join(reversed(closing))
    sigma = "(x1 (x2 (y 0 1) (y 1 0)) (x3 (y 1 0) (y 0 1)))"
    return head + f"(tree {sigma})\n", head + f"(tree {tree})\n"
