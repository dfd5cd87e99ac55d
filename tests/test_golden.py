"""Byte-exact command output on every shipped problem file.

Each file under `tests/golden/` holds the exit code, standard output and
standard error of `rectify --out circuit`, `rectify --out dtree`, `table`
and `classify` (every instance word) on one problem of `problems/`;
`classify --instances` on `problems/demo.instances` prints the same
single-instance lines, each after its word.  The circuit printer names
shared gates in uid order, so these outputs also pin the order in which
the reader interns gates.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from monorect import parse_problem
from monorect.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _commands(path: Path) -> list[list[str]]:
    problem = ["--problem", str(path)]
    commands = [
        ["rectify", *problem, "--out", "circuit"],
        ["rectify", *problem, "--out", "dtree"],
        ["table", *problem],
    ]
    n = len(parse_problem(path.read_text(encoding="utf-8")).problem.features)
    for x in range(2**n):
        commands.append(["classify", *problem, "--instance", f"{x:0{n}b}"])
    return commands


def render(path: Path) -> str:
    """Every command's exit code and output on one problem file."""
    out = []
    for argv in _commands(path):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        shown = [word for word in argv if word != str(path) and word != "--problem"]
        out.append(f"$ {' '.join(shown)}\nexit {code}\n{stdout.getvalue()}")
        out.extend(f"stderr: {line}\n" for line in stderr.getvalue().splitlines())
    return "".join(out)


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.sexp")), ids=lambda p: p.name)
def test_output_matches_golden(path):
    assert render(path) == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")


def test_section_order_does_not_change_output():
    assert render(PROBLEMS / "demo_reversed.sexp") == render(PROBLEMS / "demo.sexp")


def test_instances_file_matches_the_single_instance_lines():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["classify", "--problem", str(PROBLEMS / "demo.sexp"),
                     "--instances", str(PROBLEMS / "demo.instances")])
    golden = (GOLDEN / "demo.txt").read_text(encoding="utf-8")
    singles = re.findall(r"^\$ classify --instance (\w+)\nexit 0\n(.*\n)", golden, re.M)
    assert len(singles) == 8
    assert code == 0
    assert stdout.getvalue() == "".join(f"{word} {line}" for word, line in singles)
