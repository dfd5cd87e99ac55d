"""Brute-force oracles and the postulate battery.

Everything here enumerates instances on purpose: these are the slow,
independent reference paths that the structural construction is checked
against.  The two oracles deliberately return the flat
disjunction-of-canonical-terms representation, which is exponential in
the number of features and exactly what the compact construction avoids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuit import AND, CONST, NOT, OR, VAR
from .circuit import Circuit, Gate, Pool, VarId, conjoin, disjoin, iter_gates, negate
from .classifier import Classifier, label_blocks
from .rectify import RectificationResult, preprocess_project, rectify
from .semantics import (
    DEFAULT_VAR_CAP,
    _position_mask,
    ensure_cap,
    ensure_within,
    equivalent,
    truth_mask,
    var_masks,
)


def _term_circuit(idx: int, over: tuple[VarId, ...], pool: Pool) -> Circuit:
    n = len(over)
    parts = [pool.literal(v, bool((idx >> (n - 1 - j)) & 1)) for j, v in enumerate(over)]
    if not parts:
        return pool.const(1)
    return parts[0] if len(parts) == 1 else pool.and_(parts)


def _mask_to_circuit(mask: int, over: tuple[VarId, ...], pool: Pool) -> Circuit:
    """Disjunction of canonical terms, one per set bit (ascending)."""
    terms = []
    while mask:
        low = mask & -mask
        terms.append(_term_circuit(low.bit_length() - 1, over, pool))
        mask ^= low
    if not terms:
        return pool.const(0)
    return terms[0] if len(terms) == 1 else pool.or_(terms)


def oracle_rectify(
    clf: Classifier, theory: Circuit, cap: int = DEFAULT_VAR_CAP
) -> Circuit:
    """Instance-by-instance reference rectification (single label).

    For every instance: keep the classifier's verdict when the theory is
    trivial or contradictory there, or agrees with it; switch the class
    when the theory decides the instance the other way.  Returns the
    accepted instances as a disjunction of canonical terms.
    """
    clf.require_certified()
    problem = clf.problem
    feats = problem.features
    label = problem.label
    sigma = label_blocks(clf.circuit, problem, cap=cap)
    ensure_within(
        theory.vars(), feats + (label,), "theory mentions variables outside the problem: {names}"
    )
    allowed = label_blocks(theory, problem, cap=cap)
    accepted = 0
    for x, (verdict, allows) in enumerate(zip(sigma, allowed)):
        # 2-bit blocks: bit 0 allows the negative label, bit 1 the positive.
        # A decisive theory (one label allowed) wins, switching the class on
        # conflict; a trivial (3) or contradictory (0) one keeps the verdict.
        if allows in (1, 2):
            verdict = allows
        accepted |= (verdict >> 1) << x
    return _mask_to_circuit(accepted, feats, clf.circuit.pool)


def _flip_step(mask: int, n: int, full: int) -> int:
    """Grow a set of assignments by Hamming distance one."""
    out = mask
    for p in range(n):
        width = 1 << p
        pos = _position_mask(p, n)
        out |= ((mask & pos) >> width) | ((mask & ~pos & full) << width)
    return out


def _dalal_mask(phi_mask: int, alpha_mask: int, n: int) -> int:
    """Models of alpha closest in Hamming distance to the models of phi."""
    if alpha_mask == 0:
        return 0
    if phi_mask == 0:
        return alpha_mask
    full = (1 << (1 << n)) - 1
    reach = phi_mask
    while reach & alpha_mask == 0:
        reach = _flip_step(reach, n, full)
    return reach & alpha_mask


# Dalal revision enumerates the union of both circuits' variables.
_DALAL_CAP = 12


def dalal_revise(phi: Circuit, alpha: Circuit) -> Circuit:
    """Distance-minimal revision: keep alpha's models closest to phi's.

    Revision by an inconsistent alpha returns alpha itself; an
    inconsistent phi imposes no distance constraint, so alpha wins whole.
    """
    if phi.pool is not alpha.pool:
        raise ValueError("circuits belong to different pools")
    over = tuple(sorted(phi.vars() | alpha.vars(), key=lambda v: v.index))
    ensure_cap(len(over), _DALAL_CAP)
    alpha_mask = truth_mask(alpha, over)
    if alpha_mask == 0:
        return alpha
    phi_mask = truth_mask(phi, over)
    if phi_mask == 0:
        return alpha
    chosen = _dalal_mask(phi_mask, alpha_mask, len(over))
    return _mask_to_circuit(chosen, over, phi.pool)


def _entailed_mask(y_mask: int, m: int, label_masks: list[int]) -> int:
    """Mask of the fact formula: conjunction of the label literals y_mask entails."""
    full = (1 << (1 << m)) - 1
    if y_mask == 0:
        return full
    out = full
    for holds in label_masks:
        if y_mask & ~holds & full == 0:
            out &= holds
        elif y_mask & holds == 0:
            out &= ~holds & full
    return out


def _forced_masks(blocks: list[int], problem) -> list[int]:
    """Per instance, the mask of the label literals the theory's block there forces."""
    label_masks = list(var_masks(problem.labels).values())
    return [_entailed_mask(b, len(label_masks), label_masks) for b in blocks]


def dalal_rectify(clf: Classifier, theory: Circuit, cap: int = DEFAULT_VAR_CAP) -> Circuit:
    """Reference rectification via per-instance distance-minimal revision.

    Works for any number of labels at desk scale: for each instance,
    revise the classifier's verdict by the facts the theory forces there,
    then return the disjunction over instances of (canonical instance term
    AND revised verdict).
    """
    clf.require_certified()
    problem = clf.problem
    feats = problem.features
    labels = problem.labels
    m = len(labels)
    sigma = label_blocks(clf.circuit, problem, cap=cap)
    ensure_within(
        theory.vars(), problem.all_vars, "theory mentions variables outside the problem: {names}"
    )
    pool = clf.circuit.pool
    parts = []
    forced = _forced_masks(label_blocks(theory, problem, cap=cap), problem)
    for x, (verdict, facts) in enumerate(zip(sigma, forced)):
        revised = _dalal_mask(verdict, facts, m)
        parts.append(
            conjoin(_term_circuit(x, feats, pool), _mask_to_circuit(revised, labels, pool))
        )
    return parts[0] if len(parts) == 1 else pool.or_(parts)


def syntactic_rewrite(circ: Circuit, rng: random.Random) -> Circuit:
    """Equivalent syntactic variant: commuted n-ary children, double negations."""
    pool = circ.pool
    memo: list[Gate] = [None] * (circ.root.uid + 1)
    for gate in iter_gates(circ):
        kids = tuple(memo[c.uid] for c in gate.children)
        if gate.kind in (AND, OR) and len(kids) > 1 and rng.random() < 0.5:
            shuffled = list(kids)
            rng.shuffle(shuffled)
            kids = tuple(shuffled)
        if gate.kind in (CONST, VAR):
            new = gate
        else:
            new = pool._gate(gate.kind, gate.payload, kids)
        if rng.random() < 0.25:
            new = pool._gate(NOT, None, (pool._gate(NOT, None, (new,)),))
        memo[gate.uid] = new
    return Circuit(pool, memo[circ.root.uid])


@dataclass(frozen=True)
class PostulateCheck:
    name: str
    description: str
    passed: bool
    checked: int
    detail: str | None = None

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name} ({self.description}): {status} [{self.checked} checks]"
        if self.detail:
            line += f" -- {self.detail}"
        return line


@dataclass(frozen=True)
class PostulateReport:
    checks: tuple[PostulateCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)


def check_postulates(
    clf: Classifier,
    theory: Circuit,
    result: RectificationResult,
    *,
    cap: int = DEFAULT_VAR_CAP,
    rewrites: int = 5,
    rng: random.Random | None = None,
) -> PostulateReport:
    """Run the six-postulate battery against a rectification result.

    Per-instance postulates are exhaustive over the feature space; syntax
    independence samples equivalent rewrites of both inputs; variable
    relevance adjoins one fresh tautological variable and checks that
    projecting it away leaves the outcome untouched.
    """
    if rewrites < 0:
        raise ValueError(f"rewrites must be at least 0, got {rewrites}")
    rng = rng if rng is not None else random.Random(0)
    problem = clf.problem
    n = len(problem.features)
    n_inst = 1 << n
    checks = []

    # RE1-RE4 read one truth table per circuit, a block per instance; the
    # facts forced at an instance are the label literals its theory block
    # entails (none where the theory is contradictory).
    clf.require_certified()
    sigma = label_blocks(clf.circuit, problem, cap=cap)
    after = label_blocks(result.rectified.circuit, problem, cap=cap)
    allowed = label_blocks(theory, problem, cap=cap)
    forced = _forced_masks(allowed, problem)

    # RE1: the rectified circuit is still a classification circuit.
    bad = next((x for x, b in enumerate(after) if b.bit_count() != 1), None)
    detail = None if bad is None else f"instance {bad:0{n}b} has no unique label"
    checks.append(PostulateCheck("RE1", "classification property", bad is None, n_inst, detail))

    # RE2: verdicts stay put wherever the original classifier already complies.
    compliant = [x for x in range(n_inst) if not sigma[x] & ~forced[x]]
    k = next((k for k, x in enumerate(compliant) if after[x] != sigma[x]), None)
    detail = None if k is None else f"verdict changed on compliant instance {compliant[k]:0{n}b}"
    checked = len(compliant) if k is None else k + 1
    checks.append(PostulateCheck("RE2", "minimal change", k is None, checked, detail))

    # RE3: the rectified classifier complies with the theory everywhere.
    bad = next((x for x in range(n_inst) if after[x] & ~forced[x]), None)
    detail = None if bad is None else f"forced facts violated at instance {bad:0{n}b}"
    checks.append(PostulateCheck("RE3", "success", bad is None, n_inst, detail))

    # RE4: a contradictory theory (every block empty) changes nothing.
    if any(allowed):
        ok, checked, detail = True, 0, "vacuous: theory is consistent"
    else:
        ok, checked = after == sigma, 1
        detail = None if ok else "rectified classifier differs from the original"
    checks.append(PostulateCheck("RE4", "inconsistent theory", ok, checked, detail))

    # RE5: the outcome depends on semantics only, not on how inputs are written.
    ok, detail = True, None
    for k in range(rewrites):
        sigma_variant = syntactic_rewrite(clf.circuit, rng)
        theory_variant = syntactic_rewrite(theory, rng)
        variant_clf = Classifier(problem, sigma_variant, cap=cap)
        variant = rectify(variant_clf, theory_variant)
        if not equivalent(variant.positive, result.positive, cap=cap):
            ok, detail = False, f"rewrite {k} produced a different classifier"
            break
    checks.append(PostulateCheck("RE5", "syntax independence", ok, rewrites, detail))

    # RE6: variables outside the problem are irrelevant once projected away.
    pool = clf.circuit.pool
    dummy = pool.fresh()
    tautology = disjoin(pool.literal(dummy), negate(pool.literal(dummy)))
    sigma_aux = preprocess_project(conjoin(clf.circuit, tautology), problem)
    theory_aux = preprocess_project(conjoin(theory, tautology), problem)
    aux_clf = Classifier(problem, sigma_aux, cap=cap)
    aux = rectify(aux_clf, theory_aux)
    ok = equivalent(aux.positive, result.positive, cap=cap)
    detail = None if ok else "projected dummy variable changed the outcome"
    checks.append(PostulateCheck("RE6", "variable relevance", ok, 1, detail))

    return PostulateReport(tuple(checks))
