"""Command-line interface.

Exit codes: 0 success (and, for check/fuzz, all checks passed);
1 verification failure; 2 input error; 3 enumeration cap exceeded
(rectify, classify, table, check and fuzz only: they certify or check
circuits by truth table; dt-rectify enumerates nothing and cannot exit 3);
4 internal error (any other exception, `RecursionError` and
`MemoryError` included).

The argument parser is built once, on the first call of `main`; each
call then runs the module's `_cmd_<command>` function of the moment, so
a handler replaced after that first call (as tests do) is the one run.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
from pathlib import Path

from .circuit import Pool
from .classifier import Classifier, as_instance, label_blocks, positive_circuit
from .dtree import attach_label, circuit_to_dt, dt_rectify
from .errors import CapExceededError, RectifyError
from .formats import (
    parse_problem,
    parse_tree_file,
    print_circuit,
    print_dtree,
)
from .randgen import random_classifier, random_problem, random_theory
from .rectify import classify_batch, rectify
from .semantics import DEFAULT_VAR_CAP
from .verify import check_postulates, dalal_rectify, oracle_rectify


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RectifyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monorect",
        description="Rectify single-label Boolean classifiers against background knowledge.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-vars",
        type=_at_least(0),
        default=DEFAULT_VAR_CAP,
        help=f"enumeration cap for brute-force checks (default {DEFAULT_VAR_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rectify", parents=[common], help="print the rectified classifier")
    p.add_argument("--problem", required=True, help="problem file")
    p.add_argument("--out", choices=("circuit", "dtree"), default="circuit")
    p.add_argument(
        "--simplify",
        action="store_true",
        help="print semantically reduced output (both circuits are rebuilt from the "
        "accepted region's decision tree; dtree output is always reduced)",
    )

    p = sub.add_parser("classify", parents=[common], help="classify instances")
    p.add_argument("--problem", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--instance", help="instance word such as 110")
    which.add_argument("--instances", help="file of instance words, one per line")

    p = sub.add_parser("table", parents=[common], help="one row per instance")
    p.add_argument("--problem", required=True)

    p = sub.add_parser("check", parents=[common], help="run the postulate battery")
    p.add_argument("--problem", required=True)
    p.add_argument("--rewrites", type=_at_least(0), default=5, help="syntactic variants to try")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dt-rectify", help="rectify a decision tree")
    p.add_argument("--sigma", required=True, help="classifier tree file")
    p.add_argument("--theory", required=True, help="background-knowledge tree file")

    p = sub.add_parser("fuzz", parents=[common], help="random oracle and size-bound battery")
    p.add_argument("--vars", type=_at_least(1), default=6, help="number of features")
    p.add_argument("--iters", type=_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _at_least(low: int):
    """An argument type: a whole number that is not below `low`."""
    def whole(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return whole


def _text(path: str) -> str:
    """An input file's text; a UTF-8 byte-order mark, which some editors write, is dropped."""
    return Path(path).read_text(encoding="utf-8-sig")


def _load(args):
    """Parse, check for one label, certify sigma: the start of every command on a problem file."""
    pf = parse_problem(_text(args.problem))
    pf.problem.label  # before sigma's truth table: a wide two-label file is exit 2, not 3
    return pf, Classifier(pf.problem, pf.sigma, cap=args.max_vars)


def _cmd_rectify(args) -> int:
    pf, clf = _load(args)
    result = rectify(clf, pf.theory)
    accepted, full = result.positive, result.rectified.circuit
    if args.out == "dtree" or args.simplify:
        # one expansion: the rectified tree is the accepted one with the label at its leaves
        accepted = circuit_to_dt(accepted, pf.problem.features, cap=args.max_vars)
        full = attach_label(accepted, pf.problem.label)
    show = print_dtree if args.out == "dtree" else print_circuit
    print(f"positive: {show(accepted)}")
    print(f"rectified: {show(full)}")
    return 0


def _cmd_classify(args) -> int:
    pf, clf = _load(args)
    if args.instances is None:
        prefixes, insts = [""], [args.instance]
    else:
        lines = _text(args.instances).splitlines()
        words = [(n, line.strip()) for n, line in enumerate(lines, 1) if line.strip()]
        prefixes = [word + " " for _, word in words]
        # parsed lazily, so the problem's own checks come first, as for one instance
        insts = (_instance_at(pf.problem, args.instances, n, word) for n, word in words)
    for prefix, (before, after) in zip(prefixes, classify_batch(clf, pf.theory, insts)):
        print(f"{prefix}sigma: {'pos' if before else 'neg'}, rectified: {'pos' if after else 'neg'}")
    return 0


def _instance_at(problem, path, n, word):
    try:
        return as_instance(problem, word)
    except ValueError as exc:
        raise ValueError(f"{path}, line {n}: {exc}") from None


# A single-label block: bit 0 allows the negative label, bit 1 the positive.
_BLOCK_TEXT = ("F", "!y", "y", "T")


def _cmd_table(args) -> int:
    pf, clf = _load(args)
    blocks = (
        label_blocks(circ, pf.problem, cap=args.max_vars) for circ in (clf.circuit, pf.theory)
    )
    n = len(pf.problem.features)
    for x, (before, allowed) in enumerate(zip(*blocks)):
        forced = allowed if allowed in (1, 2) else 3  # the theory's facts at x as a block; 3: none
        after = before if forced == 3 else forced  # the rectified verdict, read pointwise
        print(f"{x:0{n}b} " + " ".join(_BLOCK_TEXT[b] for b in (before, allowed, forced, after)))
    return 0


def _cmd_check(args) -> int:
    pf, clf = _load(args)
    result = rectify(clf, pf.theory)
    report = check_postulates(
        clf,
        pf.theory,
        result,
        cap=args.max_vars,
        rewrites=args.rewrites,
        rng=random.Random(args.seed),
    )
    print(report.render())
    if report.all_passed:
        print("all postulates hold")
        return 0
    print("postulate battery failed", file=sys.stderr)
    return 1


def _cmd_dt_rectify(args) -> int:
    sigma_file = parse_tree_file(_text(args.sigma))
    theory_file = parse_tree_file(_text(args.theory))
    if sigma_file.problem != theory_file.problem:
        raise ValueError("sigma and theory files declare different variables")
    print(print_dtree(dt_rectify(sigma_file.tree, theory_file.tree, sigma_file.problem)))
    return 0


def _cmd_fuzz(args) -> int:
    rng = random.Random(args.seed)
    slack = []
    for i in range(args.iters):
        pool = Pool()
        problem = random_problem(pool, args.vars)
        clf = random_classifier(pool, problem, 40, rng)
        theory = random_theory(pool, problem, 40, rng)
        result = rectify(clf, theory)
        sigma, allowed = (label_blocks(c, problem, cap=args.max_vars) for c in (clf.circuit, theory))
        routes = {  # the rectified label block at each instance, three ways
            "construction": label_blocks(result.rectified.circuit, problem, cap=args.max_vars),
            "instance oracle": oracle_rectify(sigma, allowed, problem),
            "distance oracle": dalal_rectify(sigma, allowed, problem),
        }
        failures = []
        for (name_a, a), (name_b, b) in itertools.combinations(routes.items(), 2):
            x = next((x for x, (u, v) in enumerate(zip(a, b)) if u != v), None)
            if x is not None:
                word = format(x, f"0{len(problem.features)}b")
                failures.append(
                    f"mismatch at iteration {i}: {name_a} != {name_b} at instance {word}"
                )
        # the construction's linear size bound, in arcs
        slack.append(clf.circuit.size + 2 * theory.size + 16 - result.rectified.circuit.size)
        if slack[-1] < 0:
            failures.append(f"size bound exceeded at iteration {i} by {-slack[-1]} arcs")
        if failures:
            print("\n".join(failures), file=sys.stderr)
            print(f"sigma positive region: {print_circuit(positive_circuit(clf))}", file=sys.stderr)
            rectified_region = print_circuit(positive_circuit(result.rectified))
            print(f"rectified positive region: {rectified_region}", file=sys.stderr)
            print(f"theory: {print_circuit(theory)}", file=sys.stderr)
            return 1
    if slack:
        print(
            f"fuzz: {args.iters} iterations over {args.vars} features, no mismatches, "
            f"size-bound slack min {min(slack)}, mean {sum(slack) / len(slack):.1f} arcs"
        )
    else:
        print(f"fuzz: 0 iterations over {args.vars} features, nothing checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
