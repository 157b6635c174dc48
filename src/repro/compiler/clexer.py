"""Tokeniser for the C subset.

Comments are stripped, ``#define`` lines become define records, and
``#pragma omp parallel for`` lines become pragma tokens attached to the
stream so the parser can mark the following loop.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple, Union

from repro.compiler.cast import CParseError

#: Operators: the multi-character ones, longest first among those that
#: share a first character (``<<=`` before ``<=`` before ``<``), then
#: single punctuation.
_OPERATOR = r"<<=|>>=|\+\+|--|[-+*/<>=!]=|&&|\|\||[()\[\]{};,&*+\-/%<>=!]"

#: Hex first, so ``0x10`` is one number rather than ``0`` then ``x10``.
_NUMBER = (r"0[xX][0-9a-fA-F]+|\d+\.\d*(?:[eE][+-]?\d+)?[fF]?|\.\d+[fF]?|"
           r"\d+(?:[eE][+-]?\d+)?[fFuUlL]*")

#: One token and the whitespace before it, as the groups
#: ``(space, id, num, op, bad)``: the token classes are tried in this
#: order and ``bad`` catches any character no other class accepts.
#: Lines are matched with trailing whitespace removed, so every
#: whitespace run is followed by a token, the matches tile the line and
#: a token's column follows from the lengths of everything matched
#: before it.
_TOKEN_RE = re.compile(
    rf"(\s*)(?:([A-Za-z_][A-Za-z0-9_]*)|({_NUMBER})|({_OPERATOR})|(.))")

_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.S)
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")


class Token(NamedTuple):
    kind: str          # 'id' | 'num' | 'op' | 'pragma'
    text: str
    line: int
    col: int = 0       # 1-based column in the original source line


#: builds a :class:`Token` from a tuple without the Python-level
#: ``__new__`` a NamedTuple call goes through
_new_token = tuple.__new__


def _strip_comments(source: str) -> str:
    source = _BLOCK_COMMENT_RE.sub(
        lambda m: "\n" * m.group(0).count("\n"), source)
    return _LINE_COMMENT_RE.sub("", source)


def tokenize(source: str) -> Tuple[List[Token], List[Tuple[str, str]]]:
    """Return (tokens, defines). Defines are raw (name, value) strings."""
    tokens: List[Token] = []
    defines: List[Tuple[str, str]] = []
    append = tokens.append
    for lineno, line in enumerate(_strip_comments(source).splitlines(),
                                  start=1):
        if "#" in line:
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
                    append(Token("pragma", stripped, lineno, col))
                continue
        col = 1
        for space, ident, num, op, bad in _TOKEN_RE.findall(line.rstrip()):
            col += len(space)
            if op:
                append(_new_token(Token, ("op", op, lineno, col)))
                col += len(op)
            elif ident:
                append(_new_token(Token, ("id", ident, lineno, col)))
                col += len(ident)
            elif num:
                append(_new_token(Token, ("num", num, lineno, col)))
                col += len(num)
            else:
                raise CParseError(
                    f"line {lineno}: unexpected character {bad!r}")
    return tokens, defines


def parse_number(text: str) -> Union[int, float]:
    """Convert a numeric literal token to int or float."""
    if text.startswith(("0x", "0X")):
        # f/F are hex digits here, not a float suffix
        return int(text.rstrip("uUlL"), 16)
    cleaned = text.rstrip("fFuUlL")
    if "." in cleaned or "e" in cleaned or "E" in cleaned:
        return float(cleaned)
    return int(cleaned)
