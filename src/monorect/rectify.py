"""The single-label rectification construction.

Rectifying a certified classifier against a trusted theory yields the
unique classifier that adopts the theory's verdict wherever the theory
decides an instance one way only, and keeps the original verdict
everywhere else.  The construction is purely structural: the theory's
two label cofactors (one sweep), a handful of fixed gates, and no model
enumeration, so both the work and the output size are linear in the
input sizes.  That classifier is unique, so `classify_batch` reads its
verdicts at a batch of instances pointwise off sigma and the theory:
one bitsliced walk of each, and no rectified circuit built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, cofactors, conjoin, disjoin, negate
from .classifier import Classifier, ClassificationProblem, as_instance, label_blocks
from .classifier import positive_circuit
from .errors import CapExceededError
from .semantics import ensure_within, evaluate, forget


@dataclass(frozen=True)
class RectificationResult:
    """Outcome of one rectification.

    positive         circuit over the features; its models are the instances
                     the rectified classifier accepts
    rectified        the rectified classifier itself (positive <=> label)
    forces_positive  instances the theory decisively classifies as positive
    forces_negative  instances the theory decisively classifies as negative
    """

    positive: Circuit
    rectified: Classifier
    forces_positive: Circuit
    forces_negative: Circuit


def decisive_circuits(
    theory: Circuit, problem: ClassificationProblem
) -> tuple[Circuit, Circuit]:
    """Feature-space circuits for the instances the theory decides.

    An instance is forced positive when the theory is satisfiable there
    with a positive label but not with a negative one; forced negative is
    the mirror image.  Instances where the theory allows both labels or
    neither are decided by neither circuit.
    """
    _check_theory(theory, problem)
    with_neg, with_pos = cofactors(theory, problem.label)
    forces_pos = conjoin(with_pos, negate(with_neg))
    forces_neg = conjoin(with_neg, negate(with_pos))
    return forces_pos, forces_neg


def rectify(clf: Classifier, theory: Circuit) -> RectificationResult:
    """Build the rectified classifier.

    The accepted region is (old positives minus the theory's forced
    negatives) plus the theory's forced positives.  A contradictory or
    tautological theory forces nothing, so the classifier comes back
    unchanged.  Theory variables outside the problem are an error;
    `preprocess_project` forgets them first.
    """
    problem = _single_label(clf)
    forces_pos, forces_neg = decisive_circuits(theory, problem)
    kept = conjoin(positive_circuit(clf), negate(forces_neg))
    accepted = disjoin(kept, forces_pos)
    rectified = Classifier.from_positive_circuit(problem, accepted)
    return RectificationResult(accepted, rectified, forces_pos, forces_neg)


def classify_batch(clf: Classifier, theory: Circuit, instances) -> list[tuple[int, int]]:
    """The (sigma verdict, rectified verdict) pair at each instance, in order.

    The rectified verdict is positive where the theory allows only the
    positive label, negative where it allows only the negative one, and
    sigma's elsewhere.  One label-block walk of each circuit reads every
    instance; no gate is created.  Raises what `rectify` raises, before
    reading any instance.
    """
    problem = _single_label(clf)
    _check_theory(theory, problem)
    insts = [as_instance(problem, x) for x in instances]
    sigma, allowed = (label_blocks(c, problem, insts) for c in (clf.circuit, theory))
    # 2-bit blocks: bit 0 allows the negative label, bit 1 the positive
    return [(s >> 1, (a if a in (1, 2) else s) >> 1) for s, a in zip(sigma, allowed)]


def _single_label(clf: Classifier) -> ClassificationProblem:
    if not clf.problem.mono_label:
        raise ValueError("rectification is defined for single-label classifiers only")
    return clf.problem


def _check_theory(theory: Circuit, problem: ClassificationProblem):
    ensure_within(
        theory.vars(),
        problem.features + (problem.label,),
        "theory mentions variables outside the problem ({names}); "
        "apply preprocess_project first",
    )


# Each forgotten variable can double the circuit, hence a hard cap.
_MAX_FORGET = 8


def preprocess_project(circ: Circuit, problem: ClassificationProblem) -> Circuit:
    """Forget every variable outside the problem's features and labels."""
    extra = sorted(circ.vars() - set(problem.all_vars), key=lambda v: v.index)
    if not extra:
        return circ
    if len(extra) > _MAX_FORGET:
        raise CapExceededError(
            f"{len(extra)} auxiliary variables exceed the forgetting cap of {_MAX_FORGET}"
        )
    return forget(circ, extra)


def classify_rectified(result: RectificationResult, x) -> int:
    """Model-check the accepted region at the instance; `classify_batch` needs no result."""
    return evaluate(result.positive, as_instance(result.rectified.problem, x))
