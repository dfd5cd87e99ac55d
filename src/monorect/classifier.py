"""Classification semantics over a feature/label variable split.

A classifier is a circuit over features X and labels Y that assigns every
feature vector exactly one label assignment (the label-uniqueness
property).  Checking that property for a circuit enumerates all
2**(|X|+|Y|) assignments, bit-sliced: the classifier's truth table is one
integer (see semantics.truth_mask), and `one_label_per_instance` tests
it whole, with a popcount and one shift per label.  Being enumeration,
it stays under the variable cap; classifier trees are certified without
enumeration, in `dtree.dt_check_classification`.  A `Classifier` is a
classification circuit by construction: its constructor raises
CertificationError otherwise, so no operation on one checks again.
Labels come last in the table's order, so each instance owns one block
of 2**|Y| bits, and `label_blocks` is the one reader of those blocks:
at every instance, or at a listed batch in one bitsliced walk of the gate
interpreter, `semantics._table`, that builds no gates.  Every query at
an instance (`classify`, `fact_formula`, `is_fact_compliant`,
`rectify.classify_batch`) reads its blocks there.  One kernel, `_forced`,
finds the label literals a theory forces at an instance: it maps the
theory's block there to the label words those literals allow.
`fact_formula`, `is_fact_compliant`, the postulate battery (`verify`)
and `monorect table` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .circuit import Circuit, Literal, Term, VarId, condition, negate
from .errors import CertificationError
from .semantics import (
    DEFAULT_VAR_CAP,
    Assignment,
    _table,
    ensure_cap,
    ensure_within,
    truth_mask,
    var_masks,
)

Instance = Union[Assignment, Term, str, Sequence[int]]


@dataclass(frozen=True)
class ClassificationProblem:
    """Ordered feature variables and ordered label variables, each variable once."""

    features: tuple[VarId, ...]
    labels: tuple[VarId, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.features:
            raise ValueError("a classification problem needs at least one feature")
        if not self.labels:
            raise ValueError("a classification problem needs at least one label")
        if len(set(self.all_vars)) != len(self.all_vars):
            raise ValueError("features and labels must be distinct variables")

    @property
    def mono_label(self) -> bool:
        return len(self.labels) == 1

    @property
    def label(self) -> VarId:
        """The one label; the single-label guard of every operation that needs one."""
        if not self.mono_label:
            raise ValueError("rectification is defined for single-label classifiers only")
        return self.labels[0]

    @property
    def all_vars(self) -> tuple[VarId, ...]:
        return self.features + self.labels


def as_instance(problem: ClassificationProblem, x: Instance) -> Assignment:
    """Normalize a word, bit sequence, canonical term, or assignment to the feature order."""
    feats = problem.features
    if isinstance(x, Assignment):
        if x.vars == feats:
            return x
        if set(x.vars) == set(feats):
            return Assignment(feats, tuple(x.value(v) for v in feats))
        raise ValueError("instance assignment must cover exactly the features")
    if isinstance(x, Term):
        if x.vars() != set(feats):
            raise ValueError("instance term must mention every feature exactly once")
        return Assignment(feats, tuple(1 if x.value(v) else 0 for v in feats))
    if isinstance(x, str):
        return Assignment.from_word(x, feats)
    if isinstance(x, Sequence):
        return Assignment(feats, tuple(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as an instance")


# The one text of each input rule of both routes: scope, and certification
_OUTSIDE = " mentions variables outside features and labels ({names}); forget them first"
_UNCERTIFIED = "sigma is not a classification circuit: some instance lacks a unique label assignment"


def _check_problem_vars(circ: Circuit, problem: ClassificationProblem, what: str):
    """The one scope check of circuits and trees: `what` mentions only the problem's variables."""
    ensure_within(circ.vars_outside(problem.all_vars), what + _OUTSIDE)


def _full_table(circ: Circuit, problem: ClassificationProblem, what: str, cap: int) -> int:
    """The circuit's truth table over `problem.all_vars`: variables, then the cap, then the table."""
    _check_problem_vars(circ, problem, what)
    ensure_cap(len(problem.all_vars), cap)
    return truth_mask(circ, problem.all_vars)


# The 2-bit (resp. 4-bit) blocks of every byte, lowest bits first.
_BYTE_BLOCKS = {
    w: [tuple(byte >> s & (1 << w) - 1 for s in range(0, 8, w)) for byte in range(256)]
    for w in (2, 4)
}


def one_label_per_instance(table: int, problem: ClassificationProblem) -> bool:
    """The label-uniqueness rule, read off a truth table over `problem.all_vars`.

    Labels come last in that order, so each instance owns one aligned
    block of 2**len(labels) bits; the table passes when every block
    holds exactly one set bit, that is, when it holds one set bit per
    block and no block is empty.  One shift per label folds each block
    onto its lowest bit, so one mask tests every block at once (bitsliced;
    Biham 1997).  Serves `check_xy_property`.
    """
    n_blocks = 1 << len(problem.features)
    width = 1 << len(problem.labels)
    if table.bit_count() != n_blocks:
        return False
    for p in range(len(problem.labels)):
        table |= table >> (1 << p)
    lowest = ((1 << width * n_blocks) - 1) // ((1 << width) - 1)
    return table & lowest == lowest


def label_blocks(
    circ: Circuit,
    problem: ClassificationProblem,
    instances: Sequence[Instance] | None = None,
    cap: int = DEFAULT_VAR_CAP,
) -> list[int]:
    """The circuit's truth table over `problem.all_vars`, one block per instance.

    Block k holds the circuit's value under every label assignment at
    instance k: bit j is the j-th label assignment in word order.  For a
    classification circuit each block has exactly one set bit, the
    instance's verdict.  With `instances` None the blocks cover every
    instance in word order, with the circuit's variables checked before
    the variable cap; otherwise they follow the listed instances, read in
    one walk with no cap, which finds a variable outside the problem.
    """
    if instances is None:
        n_blocks, table = 1 << len(problem.features), _full_table(circ, problem, "circuit", cap)
    else:
        insts = [as_instance(problem, x) for x in instances]
        n_blocks, table = len(insts), _table(circ, *_at_instances(problem, insts), "circuit" + _OUTSIDE)
    block_bits = 1 << len(problem.labels)
    data = table.to_bytes((n_blocks * block_bits + 7) // 8, "little")
    if block_bits < 8:
        split = _BYTE_BLOCKS[block_bits]
        return [b for byte in data for b in split[byte]][:n_blocks]
    span = block_bits // 8
    return [int.from_bytes(data[i : i + span], "little") for i in range(0, len(data), span)]


def check_xy_property(
    circ: Circuit, problem: ClassificationProblem, cap: int = DEFAULT_VAR_CAP
) -> bool:
    """Bit-sliced label uniqueness: every instance fixes exactly one label assignment."""
    return one_label_per_instance(_full_table(circ, problem, "classifier circuit", cap), problem)


class Classifier:
    """A classification circuit: every instance gets exactly one label assignment.

    Only circuits from outside, such as a problem file's sigma, are
    certified: the plain constructor runs `check_xy_property` (variables,
    cap, then table) once and raises CertificationError if it fails, so
    no operation on a Classifier checks again.  Every other classifier is
    a classification circuit by construction and is built unchecked by
    `_trusted`: the postulate battery's rewrites of a certified sigma,
    and the decision gates on the label over an accepted region that
    `from_positive_circuit` (after checking the region's variables),
    `rectify` and `randgen` build.
    """

    __slots__ = ("problem", "circuit")

    def __init__(
        self,
        problem: ClassificationProblem,
        circuit: Circuit,
        *,
        cap: int = DEFAULT_VAR_CAP,
    ):
        if not check_xy_property(circuit, problem, cap=cap):
            raise CertificationError(_UNCERTIFIED)
        self.problem = problem
        self.circuit = circuit

    @classmethod
    def from_positive_circuit(
        cls, problem: ClassificationProblem, positive: Circuit
    ) -> "Classifier":
        """Single-label classifier accepting exactly the models of `positive`.

        Encoded as a decision gate on the label whose high branch is the
        accepted region and whose low branch is its complement, which has
        the uniqueness property structurally.
        """
        problem.label  # raises ValueError unless the problem is single-label
        ensure_within(
            positive.vars_outside(problem.features), "positive circuit mentions non-features: {names}"
        )
        return cls._of_region(problem, positive)

    @classmethod
    def _of_region(cls, problem: ClassificationProblem, positive: Circuit) -> "Classifier":
        """`from_positive_circuit` without its check, for a region over the features by construction."""
        circuit = positive.pool.decision(problem.label, negate(positive), positive)
        return cls._trusted(problem, circuit)

    @classmethod
    def _trusted(cls, problem: ClassificationProblem, circuit: Circuit) -> "Classifier":
        """The constructor without its check, for a classification circuit by construction."""
        clf = object.__new__(cls)
        clf.problem = problem
        clf.circuit = circuit
        return clf

    def __repr__(self):
        return f"<Classifier {len(self.problem.features)}+{len(self.problem.labels)} vars>"


def _at_instances(problem: ClassificationProblem, insts: Sequence[Assignment]) -> tuple[dict, int]:
    """Bitsliced masks (Biham 1997) under which `_table` returns the instances' label blocks.

    Block k, of 2**len(labels) bits, is instance k's: each label's mask
    repeats in every block, and each feature's fills the blocks where it is 1.
    """
    width = 1 << len(problem.labels)
    full = (1 << width * len(insts)) - 1
    repeat = full // ((1 << width) - 1)
    masks = {v: m * repeat for v, m in var_masks(problem.labels).items()}
    cells = ("0" * width, "1" * width)
    for j, v in enumerate(problem.features):
        masks[v] = int("".join(cells[inst.bits[j]] for inst in reversed(insts)) or "0", 2)
    return masks, full


def classify(clf: Classifier, x: Instance) -> Assignment:
    """The unique label assignment for the instance."""
    [block] = label_blocks(clf.circuit, clf.problem, [x])
    return Assignment.from_index(block.bit_length() - 1, clf.problem.labels)


def _forced(block: int, label_masks: Sequence[int]) -> int:
    """The label words allowed by every label literal a theory block forces.

    `block` holds the label words the theory allows at one instance, and
    `label_masks` each label's word mask in that block.  A literal is
    forced when every allowed word has it; an empty block forces none.
    """
    forced = (1 << (1 << len(label_masks))) - 1
    if block:
        for holds in label_masks:
            if block & ~holds == 0:
                forced &= holds
            elif block & holds == 0:
                forced &= ~holds
    return forced


def _forced_at(theory: Circuit, problem: ClassificationProblem, x: Instance) -> tuple[dict, int]:
    """Each label's word mask in a block, and the label words the theory forces at x."""
    ensure_cap(len(problem.labels), DEFAULT_VAR_CAP)
    _check_problem_vars(theory, problem, "theory")
    [block] = label_blocks(theory, problem, [x])
    label_masks = var_masks(problem.labels)
    return label_masks, _forced(block, list(label_masks.values()))


def fact_formula(theory: Circuit, x: Instance, problem: ClassificationProblem) -> Term:
    """The term of all label literals the theory forces at the instance.

    If the theory is contradictory at the instance the term is empty (no
    constraint); otherwise it conjoins every label literal true in every
    label assignment the theory's block at the instance allows.
    """
    label_masks, forced = _forced_at(theory, problem, x)
    found = []
    for label in problem.labels:
        inside = forced & label_masks[label]
        if inside in (0, forced):
            found.append(Literal(label, inside == forced))
    return Term(found)


def is_fact_compliant(clf: Classifier, theory: Circuit, x: Instance) -> bool:
    """Does the classifier's verdict at x entail every fact the theory forces there?"""
    _, forced = _forced_at(theory, clf.problem, x)
    [verdict] = label_blocks(clf.circuit, clf.problem, [x])
    return verdict & ~forced == 0


def positive_circuit(clf: Classifier) -> Circuit:
    """Feature-space circuit whose models are the positively classified instances.

    Single-label only: conditioning the classifier on a positive label
    leaves exactly the accepted region.
    """
    label = clf.problem.label
    return condition(clf.circuit, Term([Literal(label, True)]))
