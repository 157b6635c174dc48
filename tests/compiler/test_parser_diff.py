"""Differential tests: the precedence-climbing parser against the
recursive-descent expression chain in :mod:`tests.compiler.helpers`.

Both must give an equal :class:`Program`, with the same source
locations, or raise the same error with the same message. Inputs are
every example source, the STAP and SAR programs, seeded byte and token
mutants of them, and seeded random expressions over every operator.
Every input stays well below ``MAX_EXPR_DEPTH``: the reference spends
several Python frames per nesting level and has no limit of its own.
"""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sar import SarConfig, sar_source
from repro.apps.stap import PRESETS, stap_source
from repro.compiler import parse_source
from repro.compiler.clexer import tokenize
from tests.compiler.helpers import reference_parse_source

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SOURCES = {p.relative_to(EXAMPLES).as_posix(): p.read_text()
           for p in sorted(EXAMPLES.rglob("*.c"))}
SOURCES["stap-small"] = stap_source(PRESETS["small"])
SOURCES["stap-medium"] = stap_source(PRESETS["medium"])
SOURCES["sar-64"] = sar_source(SarConfig(64))


def _locs(node):
    """Every source location in the tree, in field order."""
    if isinstance(node, (tuple, list)):
        return [loc for item in node for loc in _locs(item)]
    if not dataclasses.is_dataclass(node):
        return []
    out = [getattr(node, "loc", None)]
    for f in dataclasses.fields(node):
        if f.name != "loc":
            out.extend(_locs(getattr(node, f.name)))
    return out


def parse(fn, source):
    """The program and its locations, or the error type and message."""
    try:
        program = fn(source)
    except Exception as exc:           # noqa: BLE001 — compared below
        return ("error", type(exc).__name__, str(exc))
    return ("ok", program, _locs(program))


def assert_same(source):
    expected = parse(reference_parse_source, source)
    assert parse(parse_source, source) == expected
    return expected


def test_corpus_covers_every_example():
    assert len(SOURCES) >= 12


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_sources_match(name):
    assert assert_same(SOURCES[name])[0] == "ok"


# -- byte mutants -------------------------------------------------------------

#: Fragments a byte mutation may insert: the operators of every
#: precedence level, brackets, separators and literals.
FRAGMENTS = ("-", "+", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
             "&", "(", ")", "[", "]", "{", "}", ",", ";", "=", "+=",
             "++", "1", "1.5", "x", "sizeof(int)", "f(", " ", "\n")


@st.composite
def byte_mutants(draw):
    source = draw(st.sampled_from(sorted(SOURCES.values())))
    chars = list(source)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(chars)))
        action = draw(st.sampled_from(("fragment", "delete", "replace")))
        if action == "delete" and chars:
            del chars[min(pos, len(chars) - 1)]
        elif action == "replace" and chars:
            chars[min(pos, len(chars) - 1)] = draw(
                st.sampled_from(FRAGMENTS))
        else:
            chars.insert(pos, draw(st.sampled_from(FRAGMENTS)))
    return "".join(chars)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source=byte_mutants())
def test_byte_mutants_match(source):
    assert_same(source)


# -- token mutants ------------------------------------------------------------

def _untokenize(tokens, defines):
    """Source text for a token stream: one line per source line."""
    lines = [f"#define {name} {value}" for name, value in defines]
    current, row = None, []
    for tok in tokens:
        if tok.line != current and row:
            lines.append(" ".join(row))
            row = []
        current = tok.line
        row.append(tok.text)
        if tok.kind == "pragma":
            lines.append(" ".join(row))
            row = []
    if row:
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


@st.composite
def token_mutants(draw):
    source = draw(st.sampled_from(sorted(SOURCES.values())))
    tokens, defines = tokenize(source)
    tokens = list(tokens)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(("delete", "duplicate", "swap",
                                       "replace")))
        if action == "delete":
            del tokens[pos]
        elif action == "duplicate":
            tokens.insert(pos, tokens[pos])
        elif action == "swap" and pos + 1 < len(tokens):
            tokens[pos], tokens[pos + 1] = tokens[pos + 1], tokens[pos]
        else:
            text = draw(st.sampled_from(FRAGMENTS[:-2]))
            tokens[pos] = tokens[pos]._replace(kind="op", text=text)
    return _untokenize(tokens, defines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source=token_mutants())
def test_token_mutants_match(source):
    assert_same(source)


# -- random expressions -------------------------------------------------------

BINARY_OPS = ("<", "<=", ">", ">=", "==", "!=", "+", "-", "*", "/", "%")


def random_expr(rng, depth):
    """Expression text over every operator, unary form and postfix."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(("1", "2.5", "x", "y", "N", "sizeof(float)"))
    form = rng.randrange(7)
    if form <= 2:                       # an operator chain
        parts = [random_expr(rng, depth - 1)]
        for _ in range(rng.randint(1, 4)):
            parts += [rng.choice(BINARY_OPS), random_expr(rng, depth - 1)]
        return " ".join(parts)
    if form == 3:
        return f"({random_expr(rng, depth - 1)})"
    if form == 4:
        return f"{rng.choice('-&')} {random_expr(rng, depth - 1)}"
    if form == 5:
        base = rng.choice(("a", "f(x)", "(a)"))
        subs = "".join(f"[{random_expr(rng, depth - 1)}]"
                       for _ in range(rng.randint(1, 3)))
        return base + subs
    args = ", ".join(random_expr(rng, depth - 1)
                     for _ in range(rng.randint(0, 3)))
    return f"g({args})"


@pytest.mark.parametrize("seed", range(40))
def test_random_expressions_match(seed):
    rng = random.Random(seed)
    lines = ["#define N 8", "int x;", "int y;", "float a[8][8][8];"]
    for _ in range(8):
        lines.append(f"int v = {random_expr(rng, 5)};")
        lines.append(f"a[{random_expr(rng, 3)}][0][0] = "
                     f"{random_expr(rng, 5)};")
        lines.append(f"call({random_expr(rng, 4)}, "
                     f"{random_expr(rng, 4)});")
    source = "\n".join(lines) + "\n"
    assert assert_same(source)[0] == "ok"


@pytest.mark.parametrize("text, tree", [
    ("a - b - c", "((a - b) - c)"),
    ("a / b / c", "((a / b) / c)"),
    ("a - b * c + d", "((a - (b * c)) + d)"),
    ("a < b + c < d", "((a < (b + c)) < d)"),
    ("a * b % c - d / e", "(((a * b) % c) - (d / e))"),
    ("-a * b", "((0 - a) * b)"),
])
def test_precedence_and_associativity(text, tree):
    def show(e):
        if type(e).__name__ == "BinOp":
            return f"({show(e.left)} {e.op} {show(e.right)})"
        return str(getattr(e, "name", getattr(e, "value", e)))
    value = parse_source(f"v = {text};").stmts[0].value
    assert show(value) == tree
    assert value == reference_parse_source(f"v = {text};").stmts[0].value
