"""Tokeniser for the C subset.

Comments are stripped, ``#define`` lines become define records, and
``#pragma omp parallel for`` lines become pragma tokens attached to the
stream so the parser can mark the following loop.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple, Union, cast

from repro.compiler.cast import CParseError

#: Multi-character operators, longest first.
_OPERATORS = ("<<=", ">>=", "++", "--", "+=", "-=", "*=", "/=", "<=",
              ">=", "==", "!=", "&&", "||")

_PUNCT = "()[]{};,&*+-/%<>=!"

#: Hex first, so ``0x10`` is one number rather than ``0`` then ``x10``.
_NUMBER = (r"0[xX][0-9a-fA-F]+|\d+\.\d*(?:[eE][+-]?\d+)?[fF]?|\.\d+[fF]?|"
           r"\d+(?:[eE][+-]?\d+)?[fFuUlL]*")

#: One alternation per token class, tried in this order at each
#: position; ``bad`` catches any character no other class accepts.
_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>{_NUMBER})"
    rf"|(?P<op>{'|'.join(map(re.escape, _OPERATORS))}"
    rf"|[{re.escape(_PUNCT)}])|(?P<bad>.)")

_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.S)
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")


class Token(NamedTuple):
    kind: str          # 'id' | 'num' | 'op' | 'pragma'
    text: str
    line: int
    col: int = 0       # 1-based column in the original source line


def _strip_comments(source: str) -> str:
    source = _BLOCK_COMMENT_RE.sub(
        lambda m: "\n" * m.group(0).count("\n"), source)
    return _LINE_COMMENT_RE.sub("", source)


def tokenize(source: str) -> Tuple[List[Token], List[Tuple[str, str]]]:
    """Return (tokens, defines). Defines are raw (name, value) strings."""
    tokens: List[Token] = []
    defines: List[Tuple[str, str]] = []
    for lineno, line in enumerate(_strip_comments(source).splitlines(),
                                  start=1):
        stripped = line.strip()
        if stripped.startswith("#define"):
            parts = stripped.split(None, 2)
            if len(parts) != 3:
                raise CParseError(
                    f"line {lineno}: malformed #define {stripped!r}")
            defines.append((parts[1], parts[2]))
            continue
        if stripped.startswith("#pragma"):
            if "omp" in stripped and "parallel" in stripped \
                    and "for" in stripped:
                col = len(line) - len(line.lstrip()) + 1
                tokens.append(Token("pragma", stripped, lineno, col))
            continue
        for match in _TOKEN_RE.finditer(line):
            kind = cast(str, match.lastgroup)   # every branch is named
            if kind == "ws":
                continue
            if kind == "bad":
                raise CParseError(
                    f"line {lineno}: unexpected character "
                    f"{match.group()!r}")
            tokens.append(Token(kind, match.group(), lineno,
                                match.start() + 1))
    return tokens, defines


def parse_number(text: str) -> Union[int, float]:
    """Convert a numeric literal token to int or float."""
    if text.startswith(("0x", "0X")):
        # f/F are hex digits here, not a float suffix
        return int(text.rstrip("uUlL"), 16)
    cleaned = text.rstrip("fFuUlL")
    if any(c in cleaned for c in ".eE"):
        return float(cleaned)
    return int(cleaned)
