"""Brute-force oracles and the postulate battery.

Everything here enumerates instances on purpose: these are the slow,
independent reference paths that the structural construction is checked
against.  The two oracles read no circuit: they map sigma's and the
theory's label blocks at every instance, which the caller's
`label_blocks` enumerates under its cap, to the rectified classifier's
block there: a table exponential in the number of features, exactly
what the compact construction avoids.  The battery certifies nothing:
its rewrites of a certified sigma are classifiers by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuit import AND, DEC, NOT, OR, VAR
from .circuit import Circuit, Pool, VarId, conjoin, iter_gates, negate
from .classifier import Classifier, _forced, label_blocks
from .rectify import RectificationResult, preprocess_project, rectify
from .semantics import DEFAULT_VAR_CAP, _position_mask, var_masks


def oracle_rectify(sigma: list[int], allowed: list[int], problem) -> list[int]:
    """Instance-by-instance reference rectification (single label).

    `sigma` and `allowed` are sigma's and the theory's label blocks at
    every instance.  At each one: keep the classifier's verdict when the
    theory is trivial or contradictory there, or agrees with it; switch
    the class when the theory decides the instance the other way.
    Returns the rectified label block at each instance.
    """
    problem.label  # raises ValueError unless the problem is single-label
    # 2-bit blocks: bit 0 allows the negative label, bit 1 the positive.
    # A decisive theory (one label allowed) wins, switching the class on
    # conflict; a trivial (3) or contradictory (0) one keeps the verdict.
    return [a if a in (1, 2) else verdict for verdict, a in zip(sigma, allowed, strict=True)]


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


def _forced_masks(blocks: list[int], problem) -> list[int]:
    """Per instance, the label words allowed by the literals the theory's block there forces."""
    label_masks = list(var_masks(problem.labels).values())
    return [_forced(b, label_masks) for b in blocks]


def dalal_rectify(sigma: list[int], allowed: list[int], problem) -> list[int]:
    """Reference rectification via per-instance distance-minimal revision.

    Works for any number of labels at desk scale: at each instance,
    revise sigma's verdict block by the facts the theory's block forces
    there, and return the revised label block at each instance.
    """
    forced = _forced_masks(allowed, problem)
    m = len(problem.labels)
    return [_dalal_mask(verdict, facts, m) for verdict, facts in zip(sigma, forced, strict=True)]


def syntactic_rewrite(circ: Circuit, rng: random.Random, pool: Pool) -> Circuit:
    """An equivalent variant in `pool`: commuted n-ary children, double negations.

    Variables are matched by name, so `pool` may declare them in any order;
    each is looked up once, where the circuit first mentions it.
    """
    kinds, payloads, children = circ.pool._kinds, circ.pool._payloads, circ.pool._children
    memo: dict[int, int] = {}
    renamed: dict[VarId, VarId] = {}
    for gate in iter_gates(circ):
        kind = kinds[gate]
        kids = tuple(map(memo.__getitem__, children[gate]))
        if kind in (AND, OR) and len(kids) > 1 and rng.random() < 0.5:
            shuffled = list(kids)
            rng.shuffle(shuffled)
            kids = tuple(shuffled)
        payload = payloads[gate]
        if kind == VAR or kind == DEC:
            var = renamed.get(payload)
            if var is None:
                var = renamed[payload] = pool.var(payload.name)
            payload = var
        new = gate if gate < 2 else pool._gate(kind, payload, kids)  # a constant has its uid in every pool
        if rng.random() < 0.25:
            new = pool._gate(NOT, None, (pool._gate(NOT, None, (new,)),))
        memo[gate] = new
    return Circuit(pool, memo[circ.uid])


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
    relevance splits a rewrite of each on one fresh variable and checks
    that projecting it away leaves the outcome untouched.  The rewrites go
    into one scratch pool, which declares the caller's variables, and none
    is certified: a rewrite of the certified sigma is a classifier by
    construction.
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

    # RE5 and RE6 rewrite into a scratch pool, so the caller's pool gains no
    # gate and no variable.  It declares the caller's variables in their
    # order, so its ids equal the caller's and `problem` serves it too.
    scratch = Pool()
    scratch.declare(*map(str, clf.circuit.pool.variables))

    def outcome(sigma_copy: Circuit, theory_copy: Circuit) -> list[int]:
        rectified = rectify(Classifier._trusted(problem, sigma_copy), theory_copy).rectified
        return label_blocks(rectified.circuit, problem, cap=cap)

    # RE5: the outcome depends on semantics only, not on how inputs are written.
    # The pool declares only the caller's names yet: for a problem file no variable check walks.
    ok, detail = True, None
    for k in range(rewrites):
        if outcome(*(syntactic_rewrite(c, rng, scratch) for c in (clf.circuit, theory))) != after:
            ok, detail = False, f"rewrite {k} produced a different classifier"
            break
    checks.append(PostulateCheck("RE5", "syntax independence", ok, rewrites, detail))

    # RE6: variables outside the problem are irrelevant once projected away.
    # The dummy d, declared only now, after RE5, splits each rewrite c along
    # the label: (dec d (and c !y) (and c y)).  Forgetting d gives a circuit
    # equivalent to c but not c; a cofactor on d alone is c with the label
    # fixed, so a projection that keeps one changes the outcome.
    dummy, y = scratch.fresh(), scratch.literal(problem.label)
    projected = []
    for c in (clf.circuit, theory):
        c = syntactic_rewrite(c, rng, scratch)
        split = scratch.decision(dummy, conjoin(c, negate(y)), conjoin(c, y))
        projected.append(preprocess_project(split, problem))
    ok = outcome(*projected) == after
    detail = None if ok else "projected dummy variable changed the outcome"
    checks.append(PostulateCheck("RE6", "variable relevance", ok, 1, detail))

    return PostulateReport(tuple(checks))
