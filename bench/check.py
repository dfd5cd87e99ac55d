"""Independent reference for the benchmark's answers.

Nothing here imports monorect.  The module has its own iterative reader
for s-expressions (so deep nesting is no problem), its own hash-consed
circuit and tree tables, a bit-sliced evaluator (bit k of a mask is
instance k), and the flip rule of single-label rectification:

    if the theory allows exactly one label at x, the answer is that label;
    otherwise the answer is the classifier's verdict at x.

Circuit expressions are expanded the way the problem-file format defines
them (imp a b = (or (not a) b); iff a b = (or (and a b) (and (not a)
(not b))); one-argument and/or is its argument), so arc counts of an
input text agree with the program's own count for the same text.
"""

from __future__ import annotations

import re
from functools import lru_cache

CONST, VAR, NOT, AND, OR, DEC = "const", "var", "not", "and", "or", "dec"

# Output arcs may exceed sigma arcs + 2 * theory arcs by at most this many:
# the construction adds a fixed handful of gates on top of the cofactors.
SIZE_SLACK = 16


class CheckError(Exception):
    """An answer of the program disagrees with the reference, or bad text."""


# ----------------------------------------------------------------------
# reading


_TOKEN = re.compile(r"[()]|[^\s();]+")
_COMMENT = re.compile(r";[^\n]*")


def read_all(text: str) -> list:
    """Every top-level form of an s-expression text; atoms are strings."""
    forms: list = []
    stack: list[list] = [forms]
    for tok in _TOKEN.findall(_COMMENT.sub("", text)):
        if tok == "(":
            item: list = []
            stack[-1].append(item)
            stack.append(item)
        elif tok == ")":
            if len(stack) == 1:
                raise CheckError("unexpected ')'")
            stack.pop()
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise CheckError("missing ')'")
    return forms


def sections(text: str) -> dict:
    """Top-level (keyword ...) forms of a problem or tree file, by keyword."""
    out = {}
    for form in read_all(text):
        out[form[0]] = form[1:]
    return out


# ----------------------------------------------------------------------
# circuits


class Dag:
    """Hash-consed gates over named variables; ids are in creation order,
    so every gate's children have smaller ids than the gate itself."""

    def __init__(self, names):
        self.names = list(names)
        self.kind: list[str] = []
        self.payload: list = []
        self.kids: list[tuple] = []
        self._interned: dict = {}

    def gate(self, kind, payload, kids=()) -> int:
        key = (kind, payload, kids)
        gid = self._interned.get(key)
        if gid is None:
            gid = len(self.kind)
            self.kind.append(kind)
            self.payload.append(payload)
            self.kids.append(kids)
            self._interned[key] = gid
        return gid

    def nary(self, kind, kids) -> int:
        return kids[0] if len(kids) == 1 else self.gate(kind, None, tuple(kids))

    def build(self, expr) -> int:
        """Gate id of a circuit expression, iteratively (any nesting depth)."""
        values: list[int] = []
        todo: list = [("eval", expr, {})]
        while todo:
            op, a, b = todo.pop()
            if op == "apply":
                self._apply(a, b, values)
                continue
            if op == "bind":
                b[a] = values.pop()
                continue
            expr, env = a, b
            if isinstance(expr, str):
                if expr in ("true", "false"):
                    values.append(self.gate(CONST, int(expr == "true")))
                elif expr in env:
                    values.append(env[expr])
                elif expr in self.names:
                    values.append(self.gate(VAR, expr))
                else:
                    raise CheckError(f"unknown name {expr!r}")
                continue
            head, args = expr[0], expr[1:]
            if head == "let":
                bindings, body = args
                inner = dict(env)
                todo.append(("eval", body, inner))
                for name, sub in reversed(bindings):
                    todo.append(("bind", name, inner))
                    todo.append(("eval", sub, inner))
                continue
            if head == "dec":
                todo.append(("apply", (DEC, args[0]), 2))
                args = args[1:]
            else:
                todo.append(("apply", (head, None), len(args)))
            for sub in reversed(args):
                todo.append(("eval", sub, env))
        (root,) = values
        return root

    def _apply(self, op, count, values):
        head, var = op
        args = values[len(values) - count:]
        del values[len(values) - count:]
        if head == NOT:
            out = self.gate(NOT, None, (args[0],))
        elif head in (AND, OR):
            out = self.nary(head, args)
        elif head == "imp":
            out = self.gate(OR, None, (self.gate(NOT, None, (args[0],)), args[1]))
        elif head == "iff":
            a, b = args
            both = self.gate(AND, None, (a, b))
            neither = self.gate(
                AND, None, (self.gate(NOT, None, (a,)), self.gate(NOT, None, (b,)))
            )
            out = self.gate(OR, None, (both, neither))
        elif head == DEC:
            if var not in self.names:
                raise CheckError(f"decision on unknown variable {var!r}")
            out = self.gate(DEC, var, tuple(args))
        else:
            raise CheckError(f"unknown operator {head!r}")
        values.append(out)

    def reachable(self, root: int) -> list[int]:
        """Gate ids reachable from the root, in increasing (topological) order."""
        seen = {root}
        stack = [root]
        while stack:
            for kid in self.kids[stack.pop()]:
                if kid not in seen:
                    seen.add(kid)
                    stack.append(kid)
        return sorted(seen)

    def arcs(self, root: int) -> int:
        """Arcs of the DAG under the root, a shared gate's arcs counted once."""
        return sum(len(self.kids[g]) for g in self.reachable(root))

    def eval_masks(self, root: int, masks: dict, full: int) -> int:
        """Bit-sliced value of the root: masks maps each variable to its mask."""
        val: dict[int, int] = {}
        kind, payload, kids = self.kind, self.payload, self.kids
        for g in self.reachable(root):
            k = kind[g]
            if k == CONST:
                v = full if payload[g] else 0
            elif k == VAR:
                v = masks[payload[g]]
            elif k == NOT:
                v = full ^ val[kids[g][0]]
            elif k == AND:
                v = full
                for c in kids[g]:
                    v &= val[c]
            elif k == OR:
                v = 0
                for c in kids[g]:
                    v |= val[c]
            else:
                sel = masks[payload[g]]
                low, high = kids[g]
                v = (val[high] & sel) | (val[low] & (full ^ sel))
            val[g] = v
        return val[root]


# ----------------------------------------------------------------------
# trees


class Trees:
    """Hash-consed decision trees: structurally equal subtrees get one id.

    A leaf is ("leaf", 0|1); a node is (var, low id, high id).
    """

    def __init__(self):
        self.nodes: list[tuple] = []
        self._interned: dict = {}

    def make(self, node: tuple) -> int:
        tid = self._interned.get(node)
        if tid is None:
            tid = len(self.nodes)
            self.nodes.append(node)
            self._interned[node] = tid
        return tid

    def build(self, form) -> int:
        """Tree id of a tree form, iteratively (any depth)."""
        values: list[int] = []
        todo: list = [(False, form)]
        while todo:
            ready, item = todo.pop()
            if ready:
                high = values.pop()
                low = values.pop()
                values.append(self.make((item, low, high)))
            elif isinstance(item, str):
                if item not in ("0", "1"):
                    raise CheckError(f"tree leaf must be 0 or 1, got {item!r}")
                values.append(self.make(("leaf", int(item))))
            else:
                if len(item) != 3:
                    raise CheckError("tree node must be (variable low high)")
                todo.append((True, item[0]))
                todo.append((False, item[2]))
                todo.append((False, item[1]))
        (root,) = values
        return root

    def below(self, root: int) -> list[int]:
        """Distinct subtree ids under the root, children before parents."""
        seen = {root}
        stack = [root]
        while stack:
            node = self.nodes[stack.pop()]
            if node[0] != "leaf":
                for kid in node[1:]:
                    if kid not in seen:
                        seen.add(kid)
                        stack.append(kid)
        return sorted(seen)

    def arcs(self, root: int) -> int:
        """Child edges of the tree (not of its shared form): two per node."""
        internal: dict[int, int] = {}
        for t in self.below(root):
            node = self.nodes[t]
            internal[t] = 0 if node[0] == "leaf" else 1 + internal[node[1]] + internal[node[2]]
        return 2 * internal[root]

    def normal_form_fault(self, root: int) -> str | None:
        """Why the tree is not read-once with distinct children, or None."""
        names: dict[int, frozenset] = {}
        for t in self.below(root):
            node = self.nodes[t]
            if node[0] == "leaf":
                names[t] = frozenset()
                continue
            var, low, high = node
            if low == high:
                return f"node on {var} has two identical children"
            under = names[low] | names[high]
            if var in under:
                return f"variable {var} repeats on a path"
            names[t] = under | {var}
        return None

    def eval_masks(self, root: int, masks: dict, full: int) -> int:
        val: dict[int, int] = {}
        for t in self.below(root):
            node = self.nodes[t]
            if node[0] == "leaf":
                val[t] = full if node[1] else 0
            else:
                sel = masks[node[0]]
                val[t] = (val[node[2]] & sel) | (val[node[1]] & (full ^ sel))
        return val[root]


# ----------------------------------------------------------------------
# instances and the flip rule


@lru_cache(maxsize=None)
def _table_masks(features: tuple) -> tuple[dict, int]:
    n = len(features)
    size = 1 << n
    masks = {}
    for j, name in enumerate(features):
        shift = n - 1 - j
        masks[name] = sum(1 << i for i in range(size) if (i >> shift) & 1)
    return masks, (1 << size) - 1


def table_masks(features) -> tuple[dict, int]:
    """Masks over all 2**n instances in word order (first feature = leftmost bit)."""
    return _table_masks(tuple(features))


def word_masks(features, words) -> tuple[dict, int]:
    """Masks over a list of instance words: bit k is words[k]."""
    masks = {}
    for j, name in enumerate(features):
        masks[name] = sum(1 << k for k, w in enumerate(words) if w[j] == "1")
    return masks, (1 << len(words)) - 1


def with_label(masks: dict, label: str, value: int, full: int) -> dict:
    out = dict(masks)
    out[label] = full if value else 0
    return out


class Verdicts:
    """Sigma's verdict and the theory's allowed labels over a set of instances."""

    def __init__(self, sigma_pos: int, sigma_neg: int, allows_pos: int, allows_neg: int, full: int):
        if sigma_pos ^ sigma_neg != full:
            raise CheckError("sigma does not assign exactly one label to every instance")
        self.full = full
        self.sigma = sigma_pos
        self.allows_pos = allows_pos
        self.allows_neg = allows_neg

    @property
    def rectified(self) -> int:
        """The flip rule, for every instance at once."""
        only_pos = self.allows_pos & ~self.allows_neg
        undecided = self.full ^ (self.allows_pos ^ self.allows_neg)
        return only_pos | (self.sigma & undecided)

    @property
    def flipped(self) -> int:
        return self.rectified ^ self.sigma


def label_verdicts(evaluate, sigma: int, theory: int, label: str, masks: dict, full: int) -> Verdicts:
    """Verdicts from a circuit or tree evaluator (Dag.eval_masks, Trees.eval_masks)."""
    pos, neg = with_label(masks, label, 1, full), with_label(masks, label, 0, full)
    return Verdicts(
        evaluate(sigma, pos, full),
        evaluate(sigma, neg, full),
        evaluate(theory, pos, full),
        evaluate(theory, neg, full),
        full,
    )


def bit(mask: int, k: int) -> int:
    return (mask >> k) & 1


# ----------------------------------------------------------------------
# problems and tree files


class Problem:
    """A problem file read by the reference reader."""

    def __init__(self, text: str):
        sec = sections(text)
        self.features = list(sec["features"])
        (self.label,) = sec["labels"]
        self.dag = Dag(self.features + [self.label])
        self.sigma = self.dag.build(sec["sigma"][0])
        self.theory = self.dag.build(sec["theory"][0])

    @property
    def in_arcs(self) -> int:
        return self.dag.arcs(self.sigma) + self.dag.arcs(self.theory)

    def verdicts(self, words=None) -> Verdicts:
        if words is None:
            masks, full = table_masks(self.features)
        else:
            masks, full = word_masks(self.features, words)
        return label_verdicts(self.dag.eval_masks, self.sigma, self.theory, self.label, masks, full)

    def table(self) -> str:
        """The rows `monorect table` must print, per the flip rule."""
        v = self.verdicts()
        n = len(self.features)
        rows = []
        for i in range(1 << n):
            pos, neg = bit(v.allows_pos, i), bit(v.allows_neg, i)
            theory = {(1, 1): "T", (1, 0): "y", (0, 1): "!y", (0, 0): "F"}[pos, neg]
            forced = "y" if pos and not neg else "!y" if neg and not pos else "T"
            before = "y" if bit(v.sigma, i) else "!y"
            after = "y" if bit(v.rectified, i) else "!y"
            rows.append(f"{i:0{n}b} {before} {theory} {forced} {after}")
        return "\n".join(rows) + "\n"


class TreePair:
    """A classifier tree file and a theory tree file over the same variables."""

    def __init__(self, sigma_text: str, theory_text: str):
        s, t = sections(sigma_text), sections(theory_text)
        self.features = list(s["features"])
        (self.label,) = s["labels"]
        self.trees = Trees()
        self.sigma = self.trees.build(s["tree"][0])
        self.theory = self.trees.build(t["tree"][0])

    @property
    def in_arcs(self) -> int:
        return self.trees.arcs(self.sigma) + self.trees.arcs(self.theory)

    def verdicts(self) -> Verdicts:
        masks, full = table_masks(self.features)
        return label_verdicts(self.trees.eval_masks, self.sigma, self.theory, self.label, masks, full)


# ----------------------------------------------------------------------
# checks of printed answers; each returns the output's arc count


def expect(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


def check_classify(problem: Problem, word: str, printed: str):
    v = problem.verdicts([word])
    want = "sigma: {}, rectified: {}\n".format(
        "pos" if v.sigma else "neg", "pos" if v.rectified else "neg"
    )
    expect(printed == want, f"classify {word}: printed {printed!r}, expected {want!r}")


def check_table(problem: Problem, printed: str):
    want = problem.table()
    if printed != want:
        for got_row, want_row in zip(printed.splitlines(), want.splitlines()):
            expect(got_row == want_row, f"table row {got_row!r}, expected {want_row!r}")
        raise CheckError("table has the wrong number of rows")


def check_postulates_output(printed: str):
    lines = printed.splitlines()
    expect(lines[-1:] == ["all postulates hold"], f"check printed {lines[-1:]!r}")


def _labelled(printed: str) -> dict:
    out = {}
    for line in printed.splitlines():
        key, _, rest = line.partition(": ")
        out[key] = rest
    return out


def check_tree_classifier(trees: Trees, root: int, label: str, rectified: int, masks: dict, full: int):
    """A classification tree in normal form whose class is `rectified` everywhere."""
    fault = trees.normal_form_fault(root)
    expect(fault is None, f"output tree not in normal form: {fault}")
    pos = trees.eval_masks(root, with_label(masks, label, 1, full), full)
    neg = trees.eval_masks(root, with_label(masks, label, 0, full), full)
    expect(pos == rectified, "output tree disagrees with the flip rule")
    expect(neg == full ^ rectified, "output tree does not assign exactly one label")


def check_rectify_dtree(problem: Problem, printed: str):
    lines = _labelled(printed)
    masks, full = table_masks(problem.features)
    want = problem.verdicts().rectified
    trees = Trees()
    positive = trees.build(read_all(lines["positive"])[0])
    fault = trees.normal_form_fault(positive)
    expect(fault is None, f"positive tree not in normal form: {fault}")
    expect(trees.eval_masks(positive, masks, full) == want, "positive tree disagrees with the flip rule")
    rectified = trees.build(read_all(lines["rectified"])[0])
    check_tree_classifier(trees, rectified, problem.label, want, masks, full)


def check_rectify_circuit(problem: Problem, printed: str) -> int:
    lines = _labelled(printed)
    masks, full = table_masks(problem.features)
    want = problem.verdicts().rectified
    dag = Dag(problem.features + [problem.label])
    positive = dag.build(read_all(lines["positive"])[0])
    expect(dag.eval_masks(positive, masks, full) == want, "positive circuit disagrees with the flip rule")
    rectified = dag.build(read_all(lines["rectified"])[0])
    pos = dag.eval_masks(rectified, with_label(masks, problem.label, 1, full), full)
    neg = dag.eval_masks(rectified, with_label(masks, problem.label, 0, full), full)
    expect(pos == want and neg == full ^ want, "rectified circuit disagrees with the flip rule")
    check_size_bound(problem, dag.arcs(positive))
    return dag.arcs(rectified)


def check_size_bound(problem: Problem, out_arcs: int):
    bound = problem.dag.arcs(problem.sigma) + 2 * problem.dag.arcs(problem.theory) + SIZE_SLACK
    expect(out_arcs <= bound, f"output has {out_arcs} arcs, over the bound {bound}")


def check_dt_rectify(pair: TreePair, printed: str) -> int:
    masks, full = table_masks(pair.features)
    want = pair.verdicts().rectified
    trees = Trees()
    root = trees.build(read_all(printed)[0])
    check_tree_classifier(trees, root, pair.label, want, masks, full)
    return trees.arcs(root)
