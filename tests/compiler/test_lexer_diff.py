"""Differential tests: the single-regex lexer against the per-character
reference in :mod:`tests.compiler.helpers`.

Both must give the same ``(kind, text, line, col)`` stream, the same
defines and the same error message on every corpus file and on bounded
byte mutations of them. The one allowed difference is hex literals,
which the library lexes whole (the reference's ``hex_first`` mode).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CParseError, parse_source
from repro.compiler.cast import Num
from repro.compiler.clexer import Token, parse_number, tokenize
from tests.compiler.helpers import reference_tokenize

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SOURCES = {p.relative_to(EXAMPLES).as_posix(): p.read_text()
           for p in sorted(EXAMPLES.rglob("*.c"))}

#: Fragments a mutation may insert: every token class, both comment
#: forms, directives, hex and float literals, whitespace and newline
#: variants, and characters the subset rejects.
FRAGMENTS = ("0x1F", "0X40u", "1.5e-3f", ".25", "7ul", "<<=", ">>=",
             "&&", "||", "|", "++", "/*", "*/", "//", "#define Q 0x10\n",
             "#define\n", "#pragma omp parallel for\n", "#pragma x\n",
             "\t", "\r\n", "\x0b", "\x1c", " ", " ", "$",
             "@", "?", ".", "٣", "é", "\\", "'", '"')


def lex(fn, source):
    """The token stream and defines, or the error message."""
    try:
        tokens, defines = fn(source)
    except CParseError as exc:
        return ("error", str(exc))
    return ([tuple(t) for t in tokens], defines)


def test_corpus_covers_every_example():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_corpus_streams_match(name):
    source = SOURCES[name]
    expected = lex(reference_tokenize, source)
    assert expected[0] != "error"
    assert lex(tokenize, source) == expected
    # the corpus has no hex literal: the old lexer agrees as well
    assert lex(lambda s: reference_tokenize(s, hex_first=False),
               source) == expected


@st.composite
def mutated_sources(draw):
    """A corpus file with a few bounded byte-level edits."""
    source = draw(st.sampled_from(sorted(SOURCES.values())))
    chars = list(source)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(chars)))
        action = draw(st.sampled_from(("insert", "fragment", "delete",
                                       "replace")))
        if action == "delete" and chars:
            del chars[min(pos, len(chars) - 1)]
        elif action == "replace" and chars:
            chars[min(pos, len(chars) - 1)] = draw(
                st.characters(max_codepoint=0x2FFF))
        elif action == "fragment":
            chars.insert(pos, draw(st.sampled_from(FRAGMENTS)))
        else:
            chars.insert(pos, draw(st.characters(max_codepoint=0x7F)))
    return "".join(chars)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source=mutated_sources())
def test_mutated_streams_match(source):
    assert lex(tokenize, source) == lex(reference_tokenize, source)


@pytest.mark.parametrize("source, message", [
    ("float x;\nx = y $ z;\n", "line 2: unexpected character '$'"),
    ("int a | b;", "line 1: unexpected character '|'"),
    ("#define N\n", "line 1: malformed #define '#define N'"),
    ("/* a\nb */ @", "line 2: unexpected character '@'"),
])
def test_error_messages_match(source, message):
    assert lex(tokenize, source) == ("error", message)
    assert lex(reference_tokenize, source) == ("error", message)


def test_token_fields_and_defaults():
    tokens, _ = tokenize("  float x;")
    first = tokens[0]
    assert isinstance(first, Token)
    assert (first.kind, first.text, first.line, first.col) \
        == ("id", "float", 1, 3)
    assert Token("op", ";", 4).col == 0


class TestHexLiterals:
    def test_array_dimension(self):
        prog = parse_source("float a[0x40];")
        assert prog.stmts[0].dims == (Num(64),)

    def test_lexed_whole(self):
        tokens, _ = tokenize("x[0X1f]")
        assert [t.text for t in tokens] == ["x", "[", "0X1f", "]"]

    def test_old_lexer_split_them(self):
        old, _ = reference_tokenize("x[0x10]", hex_first=False)
        assert [t[1] for t in old] == ["x", "[", "0", "x10", "]"]

    @pytest.mark.parametrize("text, value", [
        ("0x40", 64), ("0xFF", 255), ("0x1f", 31), ("0X10u", 16),
        ("0x10UL", 16)])
    def test_f_is_a_digit(self, text, value):
        assert parse_number(text) == value

    def test_define(self):
        prog = parse_source("#define M 0xFF\nint x;")
        assert prog.defines == (("M", 255),)
