import functools
import gc
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from monorect import (
    BuildError,
    ParseError,
    Pool,
    formats,
    parse_circuit,
    parse_dtree,
    parse_problem,
    parse_tree_file,
    print_circuit,
    print_dtree,
)
from monorect.circuit import CONST, DEC, VarId
from monorect.cli import main
from monorect.formats import _tokens
from monorect.randgen import random_circuit

from conftest import (
    DEMO_SIGMA_AST,
    DEMO_THEORY_AST,
    REDUCED_TREE_TEXT,
    SIGMA_TREE_TEXT,
    ast_exprs,
    gate_count,
    pool_gates,
    reference_build,
    reference_tokens,
    shared_exprs,
    store,
    tree_from_spec,
    tree_specs,
)

NAMES = ("x1", "x2", "x3")
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# Pieces of texts for the tokeniser: names, parentheses, the four blanks,
# comments, and characters that `str.split()` or Unicode takes for blanks.
_TEXT_PIECES = ["x1", "dec", "y", "(", ")", " ", "\t", "\r", "\n", "\r\n", ";", "; c (x"]
_ODD_PIECES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\x85", "\u2028", "\u3000"]


def fresh_pool():
    pool = Pool()
    pool.declare("x1", "x2", "x3")
    pool.declare("y")
    return pool


class TestParseCircuit:
    def test_demo_sigma(self):
        pool = fresh_pool()
        text = "(iff (or (and (not x1) (not x2)) (and x1 x3)) y)"
        assert parse_circuit(text, pool) == pool.build(DEMO_SIGMA_AST)

    def test_demo_theory(self):
        pool = fresh_pool()
        text = "(and (imp (and x1 (not x3)) y) (imp (not x2) (not y)))"
        assert parse_circuit(text, pool) == pool.build(DEMO_THEORY_AST)

    def test_constants(self):
        pool = fresh_pool()
        assert parse_circuit("true", pool) == pool.const(1)
        assert parse_circuit("false", pool) == pool.const(0)

    def test_comments_and_whitespace(self):
        pool = fresh_pool()
        text = "; heading\n(and x1 ; inline\n  x2)\n"
        assert parse_circuit(text, pool) == pool.build(["and", "x1", "x2"])

    def test_syntax_errors_carry_positions(self):
        pool = fresh_pool()
        with pytest.raises(ParseError, match=r"line 2, column 3"):
            parse_circuit("(and x1\n  (or x2", pool)
        with pytest.raises(ParseError, match="unexpected '\\)'"):
            parse_circuit(")", pool)
        with pytest.raises(ParseError, match="exactly one"):
            parse_circuit("x1 x2", pool)

    def test_error_positions_are_exact(self):
        pool = fresh_pool()
        with pytest.raises(ParseError) as err:
            parse_circuit("(and x1)\n  (or x2))", pool)
        assert "unexpected ')'" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 10)
        # a missing ')' points at the innermost unclosed '('
        with pytest.raises(ParseError) as err:
            parse_circuit("(and x1\n (or x2\n   (not x3)", pool)
        assert "missing ')'" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 2)
        with pytest.raises(ParseError) as err:
            parse_circuit("(and x1\r\n\t(or x2", pool)
        assert (err.value.line, err.value.col) == (2, 2)

    def test_comment_on_last_line_without_newline(self):
        pool = fresh_pool()
        expected = pool.build(["and", "x1", "x2"])
        assert parse_circuit("(and x1 x2) ; last (not x3", pool) == expected
        assert parse_circuit("(and x1 x2)\n;last", pool) == expected
        with pytest.raises(ParseError, match="empty input"):
            parse_circuit("; only a comment", pool)

    def test_crlf_line_endings(self):
        text = TestProblemFiles.GOOD.replace("\n", "\r\n")
        pf = parse_problem(text)
        assert pf.sigma == pf.pool.build(DEMO_SIGMA_AST)
        assert pf.theory == pf.pool.build(DEMO_THEORY_AST)

    def test_build_errors(self):
        pool = fresh_pool()
        with pytest.raises(BuildError, match="unknown identifier"):
            parse_circuit("(and x1 mystery)", pool)
        with pytest.raises(BuildError, match="duplicate let binding"):
            parse_circuit("(let ((p x1) (p x2)) p)", pool)
        with pytest.raises(BuildError, match="zero-arity"):
            parse_circuit("(or)", pool)

    def test_a_let_with_no_binding_reads_as_its_body(self):
        # the grammar's binding*: the reader and the reference reader take (let () x) as x
        pool = fresh_pool()
        body = pool.build(["and", "x1", "x2"])
        assert parse_circuit("(let () (and x1 x2))", pool) == body
        assert reference_build(pool, ["let", [], ["and", "x1", "x2"]]) == body


class TestPrintCircuit:
    def test_shared_gates_are_bound_once(self):
        pool = fresh_pool()
        x1, x2, x3 = (pool.literal(pool.var(name)) for name in NAMES)
        chain = x1
        for _ in range(18):
            chain = pool.or_([pool.and_([chain, x2]), pool.and_([chain, x3])])
        text = print_circuit(chain)
        assert len(text) <= 8 * chain.size
        assert parse_circuit(text, pool) == chain

    def test_binding_names_skip_variable_names(self):
        pool = Pool()
        g0, g1, x = pool.declare("g0", "g1", "x")
        shared = pool.build(["and", "g0", "g1"])
        circ = pool.or_([pool.and_([shared, pool.literal(x)]), pool.not_(shared)])
        text = print_circuit(circ)
        assert text == "(let ((g2 (and g0 g1))) (or (and g2 x) (not g2)))"
        assert parse_circuit(text, pool) == circ

    def test_binding_name_declared_by_the_reading_pool_is_reported(self):
        pool = fresh_pool()
        x1, x2, x3 = (pool.literal(pool.var(name)) for name in NAMES)
        shared = pool.and_([x1, x2])
        text = print_circuit(pool.or_([pool.and_([shared, x3]), pool.not_(shared)]))
        assert text.startswith("(let ((g0 ")
        reader = fresh_pool()
        reader.declare("g0")
        with pytest.raises(BuildError, match="duplicate let binding 'g0': a declared variable"):
            parse_circuit(text, reader)

    def test_deep_chain_prints_and_parses_back(self):
        depth = 100_000
        pool = fresh_pool()
        circ = pool.literal(pool.var("x1"))
        for _ in range(depth):
            circ = pool.not_(circ)
        text = print_circuit(circ)
        assert text == "(not " * depth + "x1" + ")" * depth
        assert parse_circuit(text, pool) == circ


class TestParseDtree:
    def test_reduced_example(self):
        pool = fresh_pool()
        tree = parse_dtree(REDUCED_TREE_TEXT, pool)
        assert print_dtree(tree) == REDUCED_TREE_TEXT

    def test_bare_leaf(self):
        pool = fresh_pool()
        assert parse_dtree("1", pool) == pool.const(1)

    def test_bad_leaf_token(self):
        pool = fresh_pool()
        with pytest.raises(ParseError, match="leaf must be 0 or 1"):
            parse_dtree("(x1 2 1)", pool)

    def test_names_against_parentheses(self):
        pool = fresh_pool()
        tight = parse_dtree("(x1(x2 0 1)1)", pool)
        assert tight == parse_dtree("(x1 (x2 0 1) 1)", pool)
        assert print_dtree(tight) == "(x1 (x2 0 1) 1)"

    def test_deep_tree_parses(self):
        depth = 100_000
        text = "(x1 0 " * depth + "1" + ")" * depth
        pool = fresh_pool()
        gate = parse_dtree(text, pool)
        seen = 0
        while gate.kind == DEC:
            assert gate.children[0] == pool.const(0)
            gate = gate.children[1]
            seen += 1
        assert seen == depth
        assert gate == pool.const(1)

    def test_deep_tree_prints_and_parses_back(self):
        depth = 100_000
        text = "(x1 0 " * depth + "(x2 1 0)" + ")" * depth
        printed = print_dtree(parse_dtree(text, fresh_pool()))
        assert printed == text
        assert print_dtree(parse_dtree(printed, fresh_pool())) == text

    def test_canonical_whitespace(self):
        pool = fresh_pool()
        messy = "( x1   0\n  ( x2 0   1 ) )"
        assert print_dtree(parse_dtree(messy, pool)) == REDUCED_TREE_TEXT

    def test_empty_and_extra_input(self):
        pool = fresh_pool()
        with pytest.raises(ParseError, match="empty input"):
            parse_dtree("", pool)
        with pytest.raises(ParseError, match="exactly one expression"):
            parse_dtree("0 1", pool)

    @pytest.mark.parametrize("odd", _ODD_PIECES)
    def test_only_four_blanks_split_names(self, odd):
        # vertical tab, no-break space and the like are name characters, not blanks
        with pytest.raises(BuildError, match=re.escape(f"unknown identifier {'x1' + odd + 'x2'!r}")):
            parse_dtree(f"(x1{odd}x2 0 1)", fresh_pool())
        with pytest.raises(BuildError, match="invalid variable name"):
            parse_tree_file(f"(features x1{odd}x2)(labels y)(tree 0)")


class TestProblemFiles:
    GOOD = (
        "(features x1 x2 x3)\n"
        "(labels y)\n"
        "(sigma (iff (or (and (not x1) (not x2)) (and x1 x3)) y))\n"
        "(theory (and (imp (and x1 (not x3)) y) (imp (not x2) (not y))))\n"
    )

    def test_round_trip(self):
        pf = parse_problem(self.GOOD)
        assert [v.name for v in pf.problem.features] == ["x1", "x2", "x3"]
        assert [v.name for v in pf.problem.labels] == ["y"]
        assert pf.sigma == pf.pool.build(DEMO_SIGMA_AST)

    def test_missing_section(self):
        with pytest.raises(ParseError, match="missing section 'theory'"):
            parse_problem("(features x1)\n(labels y)\n(sigma (iff x1 y))\n")

    def test_duplicate_section(self):
        with pytest.raises(ParseError, match="duplicate section"):
            parse_problem(self.GOOD + "(labels z)\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_problem(self.GOOD + "(notes hello)\n")

    def test_overlapping_names_rejected(self):
        bad = "(features x1)\n(labels x1)\n(sigma true)\n(theory true)\n"
        with pytest.raises(BuildError, match="duplicate variable"):
            parse_problem(bad)

    def test_empty_feature_list_rejected(self):
        bad = "(features)\n(labels y)\n(sigma true)\n(theory true)\n"
        with pytest.raises(ParseError, match="non-empty"):
            parse_problem(bad)

    def test_shipped_problem_files_load(self):
        for name in ("demo.sexp", "twolabel.sexp"):
            parse_problem((PROBLEMS / name).read_text())
        for name in ("demo_sigma.tree", "demo_theory.tree"):
            parse_tree_file((PROBLEMS / name).read_text())

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.sexp")), ids=lambda p: p.name)
    def test_shipped_problem_files_round_trip(self, path):
        first = parse_problem(path.read_text())
        text = _print_problem(first)
        second = parse_problem(text)
        assert _print_problem(second) == text
        assert second.problem == first.problem


def _header(problem) -> str:
    names = lambda vs: " ".join(v.name for v in vs)
    return f"(features {names(problem.features)})\n(labels {names(problem.labels)})\n"


def _print_problem(pf) -> str:
    return _header(pf.problem) + (
        f"(sigma {print_circuit(pf.sigma)})\n(theory {print_circuit(pf.theory)})\n"
    )


class TestTreeFiles:
    GOOD = "(features x1 x2 x3)\n(labels y)\n(tree (x1 0 (x2 0 1)))\n"

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.tree")), ids=lambda p: p.name)
    def test_shipped_tree_files_round_trip(self, path):
        first = parse_tree_file(path.read_text())
        second = parse_tree_file(_header(first.problem) + f"(tree {print_dtree(first.tree)})\n")
        assert second.problem == first.problem
        assert print_dtree(second.tree) == print_dtree(first.tree)

    def test_round_trip(self):
        tf = parse_tree_file(self.GOOD)
        assert print_dtree(tf.tree) == REDUCED_TREE_TEXT

    @pytest.mark.parametrize("order", [(2, 0, 1), (0, 2, 1), (1, 2, 0)])
    def test_sections_in_any_order(self, order):
        sections = self.GOOD.splitlines()
        text = "\n".join(sections[k] for k in order)
        tf = parse_tree_file(text)
        assert tf.pool.variables == parse_tree_file(self.GOOD).pool.variables
        assert print_dtree(tf.tree) == REDUCED_TREE_TEXT
        assert tf.tree == parse_dtree(REDUCED_TREE_TEXT, tf.pool)

    def test_unbalanced_text_reported_before_other_errors(self):
        with pytest.raises(ParseError) as err:
            parse_tree_file("(features x1)(labels y)(tree (z 0 1)")
        assert "missing ')'" in str(err.value)
        assert (err.value.line, err.value.col) == (1, 24)

    def test_deep_tree_file(self):
        depth = 100_000
        text = "(features x1)\n(labels y)\n(tree " + "(x1 0 " * depth + "1" + ")" * depth + ")\n"
        gate = parse_tree_file(text).tree
        seen = 0
        while gate.kind == DEC:
            gate = gate.children[1]
            seen += 1
        assert seen == depth
        assert gate.kind == CONST

    def test_single_label_enforced(self):
        with pytest.raises(ParseError, match="exactly one label"):
            parse_tree_file("(features x1)\n(labels y1 y2)\n(tree 0)\n")


@given(ast=ast_exprs(NAMES, max_leaves=10))
def test_circuit_print_parse_round_trip(ast):
    pool = Pool()
    pool.declare(*NAMES)
    circ = pool.build(ast)
    text = print_circuit(circ)
    assert parse_circuit(text, pool) == circ
    other = Pool()
    other.declare(*NAMES)
    assert print_circuit(parse_circuit(text, other)) == text


@given(spec=tree_specs(NAMES, max_leaves=10))
def test_dtree_print_parse_round_trip(spec):
    pool = Pool()
    pool.declare(*NAMES)
    tree = tree_from_spec(pool, spec)
    assert parse_dtree(print_dtree(tree), pool) == tree


# ----------------------------------------------------------------------
# Differential checks against the earlier two-pass reader, kept here as
# the oracle: text into nested lists (`_oracle_read_all`), then nested
# lists into trees (`_oracle_tree_from`) or circuits (`reference_build`).

_ORACLE_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _oracle_read_all(text):
    forms = []
    items = forms
    open_lists = []
    for token in _ORACLE_TOKEN.findall(text):
        if token == "(":
            inner = []
            items.append(inner)
            open_lists.append(items)
            items = inner
        elif token == ")":
            if not open_lists:
                raise _oracle_unbalanced(text)
            items = open_lists.pop()
        elif token[0] != ";":
            items.append(token)
    if open_lists:
        raise _oracle_unbalanced(text)
    return forms


def _oracle_unbalanced(text):
    def position(offset):
        line_start = text.rfind("\n", 0, offset) + 1
        return text.count("\n", 0, line_start) + 1, offset - line_start + 1

    opened = []
    for match in _ORACLE_TOKEN.finditer(text):
        if match.group() == "(":
            opened.append(match.start())
        elif match.group() == ")":
            if not opened:
                return ParseError("unexpected ')'", *position(match.start()))
            opened.pop()
    return ParseError("missing ')'", *position(opened[-1]))


def _oracle_read_one(text):
    forms = _oracle_read_all(text)
    if not forms:
        raise ParseError("empty input")
    if len(forms) > 1:
        raise ParseError("expected exactly one expression")
    return forms[0]


def _oracle_tree_from(node, pool):
    done = []
    todo = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, VarId):
            high = done.pop()
            done.append(pool.decision(item, done.pop(), high))
        elif isinstance(item, str):
            if item not in ("0", "1"):
                raise ParseError(f"decision-tree leaf must be 0 or 1, got {item!r}")
            done.append(pool.const(int(item)))
        elif len(item) != 3 or not isinstance(item[0], str):
            raise ParseError("decision-tree node must be (variable low high)")
        else:
            todo.extend((pool.var(item[0]), item[2], item[1]))
    return done[0]


def _oracle_tree_file(text):
    seen = {}
    for form in _oracle_read_all(text):
        if not isinstance(form, list) or not form or not isinstance(form[0], str):
            raise ParseError("top-level forms must look like (keyword ...)")
        if form[0] not in ("features", "labels", "tree"):
            raise ParseError(f"unknown section {form[0]!r}")
        if form[0] in seen:
            raise ParseError(f"duplicate section {form[0]!r}")
        seen[form[0]] = form[1:]
    for key in ("features", "labels", "tree"):
        if key not in seen:
            raise ParseError(f"missing section {key!r}")
    for key in ("features", "labels"):
        if not seen[key] or not all(isinstance(item, str) for item in seen[key]):
            raise ParseError(f"{key} must be a non-empty list of names")
    if len(seen["labels"]) != 1:
        raise ParseError("decision-tree files declare exactly one label")
    pool = Pool()
    pool.declare(*seen["features"], *seen["labels"])
    if len(seen["tree"]) != 1:
        raise ParseError("section 'tree' needs exactly one entry")
    return _oracle_tree_from(seen["tree"][0], pool)


def _outcome(parse, *args):
    """What a parse gives: ("ok", result), or the error's type, message and position."""
    try:
        return ("ok", parse(*args))
    except (ParseError, BuildError) as error:
        return (type(error), str(error), getattr(error, "line", None), getattr(error, "col", None))


# Separators between tokens: "" only next to a parenthesis.  Comments may
# hold parentheses and may sit between a '(' and its name.
_GAPS = ["", " ", "\t", "\r", "\n", "\r\n", "  \t\n ", "; c (x 0\n", " ;)\n\t", ";\n"]
_FINAL_GAPS = _GAPS + ["; last (no newline"]


def _tree_tokens(spec):
    if isinstance(spec, str):
        return [spec]
    name, low, high = spec
    return ["(", name, *_tree_tokens(low), *_tree_tokens(high), ")"]


def _ast_tokens(ast):
    if isinstance(ast, str):
        return [ast]
    return ["(", *(token for item in ast for token in _ast_tokens(item)), ")"]


def _subtree_end(tokens, k):
    """The index after the subtree that starts at tokens[k]."""
    depth = 0
    while True:
        depth += {"(": 1, ")": -1}.get(tokens[k], 0)
        k += 1
        if depth == 0:
            return k


def _mutate(tokens, kind, pick):
    """One single-fault mutation of a tree's tokens, or None where it has no site."""
    tokens = list(tokens)
    opens = [k for k, t in enumerate(tokens) if t == "("]
    sites = {
        "drop (": opens,
        "drop )": [k for k, t in enumerate(tokens) if t == ")"],
        "add )": list(range(len(tokens) + 1)),
        "leaf 2": [k for k, t in enumerate(tokens) if t in ("0", "1")],
        "undeclared": [k + 1 for k in opens],
        "one child": opens,
        "three children": opens,
    }[kind]
    if not sites:
        return None
    k = sites[pick % len(sites)]
    if kind in ("drop (", "drop )"):
        del tokens[k]
    elif kind == "add )":
        tokens.insert(k, ")")
    elif kind == "leaf 2":
        tokens[k] = "2"
    elif kind == "undeclared":
        tokens[k] = "zz"
    else:
        high = _subtree_end(tokens, k + 2)  # after the low subtree
        end = _subtree_end(tokens, k) - 1  # the node's ')'
        if kind == "one child":
            del tokens[high:end]
        else:
            tokens.insert(end, "1")
    return tokens


def _layout(tokens, gaps):
    """Tokens joined by the drawn gaps; a name needs a blank or comment before the next name."""
    out = [gaps[0]]
    for k, token in enumerate(tokens):
        out.append(token)
        gap = gaps[k + 1]
        following = tokens[k + 1] if k + 1 < len(tokens) else "("
        if gap == "" and token not in "()" and following not in "()":
            gap = " "
        out.append(gap)
    return "".join(out)


def _gaps(draw, tokens):
    inner = draw(st.lists(st.sampled_from(_GAPS), min_size=len(tokens), max_size=len(tokens)))
    return inner + [draw(st.sampled_from(_FINAL_GAPS))]


@given(odd=st.sampled_from(["", *_ODD_PIECES]), data=st.data())
def test_tokens_match_the_reference_tokeniser(odd, data):
    pieces = _TEXT_PIECES + [odd] * 3 if odd else _TEXT_PIECES  # one odd blank, often drawn
    text = "".join(data.draw(st.lists(st.sampled_from(pieces), max_size=40)))
    assert _tokens(text) == reference_tokens(text)


_MUTATIONS = ["drop (", "drop )", "add )", "leaf 2", "undeclared", "one child", "three children"]


@given(spec=tree_specs(NAMES, max_leaves=12), data=st.data())
def test_tree_reader_matches_two_pass_oracle(spec, data):
    pool = fresh_pool()
    tokens = _tree_tokens(spec)
    text = _layout(tokens, _gaps(data.draw, tokens))
    expected = _outcome(lambda: _oracle_tree_from(_oracle_read_one(text), pool))
    assert expected[0] == "ok"
    assert _outcome(parse_dtree, text, pool) == expected
    kind = data.draw(st.sampled_from(_MUTATIONS))
    mutated = _mutate(tokens, kind, data.draw(st.integers(0, 10_000)))
    if mutated is not None:
        text = _layout(mutated, _gaps(data.draw, mutated))
        expected = _outcome(lambda: _oracle_tree_from(_oracle_read_one(text), pool))
        assert expected[0] != "ok", (kind, text)
        assert _outcome(parse_dtree, text, pool) == expected, (kind, text)


@given(spec=tree_specs(NAMES, max_leaves=12), data=st.data())
def test_tree_file_reader_matches_two_pass_oracle(spec, data):
    tokens = _tree_tokens(spec)
    kind = data.draw(st.sampled_from([None] + _MUTATIONS))
    if kind is not None:
        tokens = _mutate(tokens, kind, data.draw(st.integers(0, 10_000))) or tokens
    sections = [["(", "features", *NAMES, ")"], ["(", "labels", "y", ")"], ["(", "tree", *tokens, ")"]]
    order = data.draw(st.permutations(sections))
    file_tokens = [token for section in order for token in section]
    text = _layout(file_tokens, _gaps(data.draw, file_tokens))
    expected = _outcome(lambda: _pool_of(_oracle_tree_file(text)))
    got = _outcome(lambda: _pool_of(parse_tree_file(text).tree))
    assert got == expected, (kind, text)


def _pool_of(tree):
    """A tree's text and every gate of its pool, so the order gates were created in counts too."""
    return print_dtree(tree), store(tree.pool)


# Two features and the label: a tree of many leaves repeats its nodes, and
# gaps drawn from a palette of at most three pieces keep equal nodes equal
# text, so the tree reader replays most of the chunks it has planned.
_FEW = ("x1", "x2", "y")


def _palette_layout(draw, tokens):
    palette = draw(st.lists(st.sampled_from(_GAPS), min_size=1, max_size=3))
    return _layout(tokens, draw(st.lists(st.sampled_from(palette), min_size=len(tokens) + 1,
                                         max_size=len(tokens) + 1)))


def _few_pool():
    pool = Pool()
    pool.declare(*_FEW)
    return pool


@given(spec=tree_specs(_FEW, max_leaves=60), data=st.data())
def test_tree_readers_match_the_oracles_on_repeating_trees(spec, data):
    tokens = _tree_tokens(spec)
    kind = data.draw(st.sampled_from([None] + _MUTATIONS))
    if kind is not None:
        tokens = _mutate(tokens, kind, data.draw(st.integers(0, 10_000))) or tokens
    text = _palette_layout(data.draw, tokens)
    expected = _outcome(lambda: _pool_of(_oracle_tree_from(_oracle_read_one(text), _few_pool())))
    assert _outcome(lambda: _pool_of(parse_dtree(text, _few_pool()))) == expected, (kind, text)
    sections = [["(", "features", "x1", "x2", ")"], ["(", "labels", "y", ")"], ["(", "tree", *tokens, ")"]]
    file_tokens = [token for section in data.draw(st.permutations(sections)) for token in section]
    text = _palette_layout(data.draw, file_tokens)
    expected = _outcome(lambda: _pool_of(_oracle_tree_file(text)))
    assert _outcome(lambda: _pool_of(parse_tree_file(text).tree)) == expected, (kind, text)


@pytest.mark.parametrize(
    "text",
    [
        "(x1 (x2 (y 1 1) 1) 0)",  # 0 is first met after a ')' of its chunk, so made after that node
        "(x1 (x2 0) 2)",  # the chunk 'x2 0) 2)' is one child short before its bad leaf
        "(x1 (x2 0) (zz 0 1))",
        "(x1 (y 0 1 1) 0)",
        "(x1(y 0 1)(y 0 1))",
    ],
)
def test_faults_and_gates_come_in_the_order_of_the_text(text):
    expected = _outcome(lambda: _pool_of(_oracle_tree_from(_oracle_read_one(text), _few_pool())))
    assert _outcome(lambda: _pool_of(parse_dtree(text, _few_pool()))) == expected


def _balanced_tree(depth):
    """The text of a full tree over x1, x2 and y, two-leaf nodes at the bottom."""
    text = "(y 0 1)"
    for level in range(depth - 1):
        text = f"({_FEW[level % 3]} {text} {text.replace('0 1', '1 0', 1)})"
    return text


def test_the_tree_reader_plans_each_distinct_chunk_once_per_read(monkeypatch):
    text = _balanced_tree(12)  # 4,095 nodes
    chunks = text.split("(")
    assert text.count("(") == 4095 and len(set(chunks)) < 40
    splits = []
    split = formats._split
    monkeypatch.setattr(formats, "_split", lambda piece: splits.append(piece) or split(piece))
    pools = [_few_pool(), _few_pool()]
    trees = [parse_dtree(text, pool) for pool in pools + pools[:1]]
    # in each read, the text before the first '(' once, then each distinct chunk once
    assert len(splits) == 3 * len(set(chunks))
    assert len(set(splits[: len(set(chunks))])) == len(set(chunks))
    assert print_dtree(trees[0]) == print_dtree(trees[1]) == text
    assert trees[2] == trees[0]
    assert set(pool_gates(pools[0])).isdisjoint(pool_gates(pools[1]))


@given(ast=ast_exprs(NAMES, max_leaves=10), data=st.data())
def test_circuit_reader_matches_two_pass_oracle(ast, data):
    pool = fresh_pool()
    tokens = _ast_tokens(ast)
    kind = data.draw(st.sampled_from([None, "drop (", "drop )", "add )"]))
    if kind is not None:
        tokens = _mutate(tokens, kind, data.draw(st.integers(0, 10_000))) or tokens
    text = _layout(tokens, _gaps(data.draw, tokens))
    expected = _outcome(lambda: reference_build(pool, _oracle_read_one(text)))
    assert _outcome(parse_circuit, text, pool) == expected, (kind, text)


# ----------------------------------------------------------------------
# The circuit reader against `reference_build`, the earlier nested-list
# builder: the same gates, in the same uid order, and the same errors.


def _built(build):
    """What a build on a fresh pool gives: every gate of the pool and the root uid, or the error."""
    pool = fresh_pool()
    try:
        root = build(pool)
    except (ParseError, BuildError) as error:
        return type(error), str(error)
    return store(pool), root.uid


def _builds(ast):
    """The outcomes of the reference, of `Pool.build` and of `parse_circuit` on the text of `ast`."""
    text = " ".join(_ast_tokens(ast))
    return (
        _built(lambda pool: reference_build(pool, ast)),
        _built(lambda pool: pool.build(ast)),
        _built(lambda pool: parse_circuit(text, pool)),
    )


def _fault_sites(ast, env=(), path=()):
    """(path, replacement) pairs, each of which puts one fault into `ast`."""
    if isinstance(ast, str):
        return [(path, "zz")]  # an unknown name
    head = ast[0]
    if head in ("and", "or"):
        sites = [(path, [head])]  # zero arity
    else:
        sites = [(path, ast[:-1]), (path, ast + ["true"])]  # an argument short, one too many
    first = 1
    if head == "dec":
        sites += [(path + (1,), name) for name in ("zz", *env[:1])]  # unknown, let-bound
        first = 2
    if head == "let":
        inner = list(env)
        for k, (name, sub) in enumerate(ast[1]):
            sites += _fault_sites(sub, tuple(inner), path + (1, k, 1))
            # already bound, reserved, declared
            sites += [(path + (1, k, 0), clash) for clash in (*inner[-1:], "and", "x1")]
            inner.append(name)
        return sites + _fault_sites(ast[2], tuple(inner), path + (2,))
    for k in range(first, len(ast)):
        sites += _fault_sites(ast[k], env, path + (k,))
    return sites


def _replace(ast, path, new):
    if not path:
        return new
    copy = list(ast)
    copy[path[0]] = _replace(ast[path[0]], path[1:], new)
    return copy


@given(ast=shared_exprs(NAMES + ("y",)))
def test_readers_intern_what_the_reference_interns(ast):
    reference, built, parsed = _builds(ast)
    assert isinstance(reference[0], list)
    assert built == reference
    assert parsed == reference


@given(ast=shared_exprs(NAMES + ("y",)), pick=st.integers(0, 10_000))
def test_single_faults_raise_what_the_reference_raises(ast, pick):
    sites = _fault_sites(ast)
    path, new = sites[pick % len(sites)]
    reference, built, parsed = _builds(_replace(ast, path, new))
    assert reference[0] is BuildError
    assert built == reference
    assert parsed == reference


@pytest.mark.parametrize(
    "ast",
    [
        ["let", "x1"],
        ["let", ["and", "x1", "x2"]],
        ["let", [], "x1", "x2"],
        ["let", "x1", "x2"],
        ["let", ["x1"], "x1"],
        ["let", [["p"]], "p"],
        ["let", [["p", "x1", "x2"]], "p"],
        ["let", [[["p"], "x1"]], "p"],
        ["let", [[]], "x1"],
        ["let", [["p", "x1"]], ["dec", "p", "x1", "x2"]],
        ["let", [["p", "x1"]], ["let", [["p", "x2"]], "p"]],
        ["let", [["p", ["let", [["q", "x1"]], "q"]], ["q", "x2"]], ["and", "p", "q"]],
        ["and", ["let", [["p", "x1"]], "p"], "p"],
        ["let", [], "true"],
        ["dec"],
        ["dec", "x1"],
        ["dec", "zz", "x1"],
        ["dec", ["and", "x1"], "x2", "x3"],
        ["dec", "true", "x1", "x2"],
        ["not"],
        ["and"],
        ["imp", "x1"],
        ["iff", "x1", "x2", "x3"],
        ["foo", "x1"],
        ["or", ["and", "x1", "x1"], "y"],
    ],
)
def test_reader_errors_match_the_reference(ast):
    reference, built, parsed = _builds(ast)
    assert built == reference
    assert parsed == reference


def test_a_bare_open_head_may_be_named_alone():
    reference, built, parsed = _builds(["and", "x1", [["not", "x1"], "x2"]])
    assert reference == (BuildError, "malformed expression [['not', 'x1'], 'x2']")
    assert built == parsed == (BuildError, "malformed expression: '(' must be followed by an operator")


def test_an_operand_fault_is_reported_before_its_form_arity():
    reference, built, parsed = _builds(["not", ["or"], "x1"])
    assert reference == (BuildError, "'not' expects 1 argument(s), got 2")
    assert built == parsed == (BuildError, "zero-arity 'or' gate")


@pytest.mark.parametrize(
    "section, message",
    [
        ("(sigma y y)\n(theory true)", "section 'sigma' needs exactly one entry"),
    ],
    ids=["two-sigmas"],
)
def test_rejected_sections(section, message):
    with pytest.raises(ParseError) as raised:
        parse_problem(f"(features x1)\n(labels y)\n{section}\n")
    assert str(raised.value) == message


def test_a_forest_section_is_an_unknown_section(tmp_path, capsys):
    # classification trees are read from tree files one at a time; a problem file holds none
    text = TestProblemFiles.GOOD + f"(forest {SIGMA_TREE_TEXT})\n"
    with pytest.raises(ParseError) as raised:
        parse_problem(text)
    assert str(raised.value) == "unknown section 'forest'"
    path = tmp_path / "forest.sexp"
    path.write_text(text, encoding="utf-8")
    assert main(["table", "--problem", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: unknown section 'forest'\n")


# `(x2 1 0)` has two leaves met before it, so the tree reader takes it in one
# step, looking three tokens ahead.
_TWO_LEAF_TREE = "(features x1 x2) (labels y) (tree (x1 (x2 0 1) (x2 1 0)))"


def test_a_one_step_node_looks_no_further_than_its_parenthesis():
    assert print_dtree(parse_tree_file(_TWO_LEAF_TREE).tree) == "(x1 (x2 0 1) (x2 1 0))"
    with pytest.raises(ParseError, match=re.escape("decision-tree node must be (variable low high)")):
        parse_tree_file(_TWO_LEAF_TREE.replace("(x2 1 0)", "(x2 1 0 1)"))


@pytest.mark.parametrize("end", range(_TWO_LEAF_TREE.index("(x2 1"), len(_TWO_LEAF_TREE) - 2))
def test_a_text_cut_in_a_one_step_node_is_missing_a_parenthesis(end):
    # the look-ahead runs off the tokens of the cut text: still the unclosed '('
    with pytest.raises(ParseError, match="missing '\\)'"):
        parse_tree_file(_TWO_LEAF_TREE[:end])
    with pytest.raises(ParseError, match="missing '\\)'"):
        parse_dtree(_TWO_LEAF_TREE[_TWO_LEAF_TREE.index("(x1") : end], fresh_pool())


@functools.cache
def _problem_text_20k():
    """A problem file whose sigma is a 20,000-gate random circuit."""
    pool = Pool()
    features = pool.declare(*(f"x{i}" for i in range(1, 9)))
    sigma = print_circuit(random_circuit(pool, features, 20_000, random.Random(7)))
    return f"(features {' '.join(x.name for x in features)}) (labels y) (sigma {sigma}) (theory true)"


def test_a_read_pool_holds_at_most_135_bytes_per_gate():
    # A gate is its uid: an entry in each of the three store lists, a tuple
    # of child uids that also keys it in its unique table, and the uid's int
    # (about 123 bytes in all); a key tuple per gate would add 64.
    text = _problem_text_20k()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read = parse_problem(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert gate_count(read.pool) > 19_000
    assert held / gate_count(read.pool) <= 135


def _random_full_tree(depth, rng):
    """The text of a full tree over x1, x2 and y with random leaves: hundreds of distinct subtrees."""
    level = [rng.choice("01") for _ in range(1 << depth)]
    for k in range(depth):
        level = [f"({_FEW[k % 3]} {low} {high})" for low, high in zip(level[::2], level[1::2])]
    return level[0]


@pytest.mark.parametrize(
    "read, gates",
    [
        (lambda: parse_dtree(_balanced_tree(12), _few_pool()).pool, 25),
        (lambda: parse_dtree(_random_full_tree(12, random.Random(5)), _few_pool()).pool, 700),
        (lambda: parse_problem(_problem_text_20k()).pool, 19_000),
    ],
    ids=["balanced-tree", "random-tree", "problem-20k"],
)
def test_a_read_leaves_no_collector_tracked_object_per_gate(read, gates):
    # The store holds strings, variables, ints and tuples of ints; the collector
    # untracks such a tuple the first time it examines it, so once it has run the
    # read adds a fixed handful of tracked objects, not a gate object and a children
    # tuple per gate.
    _problem_text_20k()  # made before the count
    gc.collect()
    before = len(gc.get_objects())
    pool = read()
    gc.collect()
    assert gate_count(pool) >= gates
    assert len(gc.get_objects()) - before < 100
