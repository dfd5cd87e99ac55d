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
from .classifier import _check_problem_vars, positive_circuit
from .errors import CapExceededError
from .semantics import evaluate, forget


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
    unchanged.  Theory variables outside the problem are an error
    (`_check_problem_vars`); `preprocess_project` forgets them first.
    """
    problem = clf.problem
    forces_pos, forces_neg = decisive_circuits(theory, problem)
    kept = conjoin(positive_circuit(clf), negate(forces_neg))
    accepted = disjoin(kept, forces_pos)
    # made of label cofactors of sigma and of the checked theory, so over the features
    rectified = Classifier._of_region(problem, accepted)
    return RectificationResult(accepted, rectified, forces_pos, forces_neg)


def classify_batch(clf: Classifier, theory: Circuit, instances) -> list[tuple[int, int]]:
    """The (sigma verdict, rectified verdict) pair at each instance, in order.

    The rectified verdict is positive where the theory allows only the
    positive label, negative where it allows only the negative one, and
    sigma's elsewhere.  One label-block walk of each circuit reads every
    instance; no gate is created.  Raises what `rectify` raises, before
    reading any instance.
    """
    problem = clf.problem
    _check_theory(theory, problem)
    insts = [as_instance(problem, x) for x in instances]
    sigma, allowed = (label_blocks(c, problem, insts) for c in (clf.circuit, theory))
    return [(s >> 1, _rectified_block(s, a) >> 1) for s, a in zip(sigma, allowed)]


def _rectified_block(sigma: int, allowed: int) -> int:
    """The rectified 2-bit block: the theory's where it allows one label only, else sigma's."""
    return allowed if allowed in (1, 2) else sigma


def _check_theory(theory: Circuit, problem: ClassificationProblem):
    problem.label  # the single-label guard raises before the theory is walked
    _check_problem_vars(theory, problem, "theory")


# Each forgotten variable can double the circuit, hence a hard cap.
_MAX_FORGET = 8


def preprocess_project(circ: Circuit, problem: ClassificationProblem) -> Circuit:
    """Forget every variable outside the problem's features and labels."""
    extra = circ.vars_outside(problem.all_vars)
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
