"""Shared helpers for the compiler tests.

Three things live here: the seeded program generators several test
modules draw from, the per-character C-subset tokenizer, kept as the
differential reference for :func:`repro.compiler.clexer.tokenize`, and
the syntactic accelerator chainer the compiler used before the
verified rewrite engine became its only chainer, kept as the
differential reference for the engine's fusions.

The reference is the straightforward path: at each position try
whitespace, an identifier, a number, the multi-character operators
longest first and single punctuation, in that order. The library
matches one compiled alternation of the same classes per line; both
must produce the same ``(kind, text, line, col)`` stream, the same
defines and the same error messages.

The one intended difference is the number pattern: the old one tried
hex last, so ``0x10`` lexed as ``0`` then ``x10``. ``hex_first=True``
(the default) puts hex first as the library does;
``hex_first=False`` is the old lexer exactly.
"""

import re
from dataclasses import dataclass
from typing import List, Tuple

from repro.compiler.cast import CParseError
from repro.compiler.recognizer import AccelCallStep, Schedule

# -- reference tokenizer -----------------------------------------------------

_OPERATORS = ("<<=", ">>=", "++", "--", "+=", "-=", "*=", "/=", "<=",
              ">=", "==", "!=", "&&", "||")

_PUNCT = set("()[]{};,&*+-/%<>=!")

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DECIMAL = (r"\d+\.\d*([eE][+-]?\d+)?[fF]?|\.\d+[fF]?|"
            r"\d+([eE][+-]?\d+)?[fFuUlL]*")
_HEX = r"0[xX][0-9a-fA-F]+"
_NUM_RE_OLD = re.compile(f"({_DECIMAL}|{_HEX})")
_NUM_RE_HEX_FIRST = re.compile(f"({_HEX}|{_DECIMAL})")


def _strip_comments(source):
    source = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                    source, flags=re.S)
    return re.sub(r"//[^\n]*", "", source)


def reference_tokenize(source, hex_first=True):
    """Return (tokens, defines) with tokens as (kind, text, line, col)."""
    num_re = _NUM_RE_HEX_FIRST if hex_first else _NUM_RE_OLD
    tokens = []
    defines = []
    for lineno, raw_line in enumerate(_strip_comments(source).splitlines(),
                                      start=1):
        line = raw_line
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
                tokens.append(("pragma", stripped, lineno, col))
            continue
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            col = pos + 1
            id_match = _ID_RE.match(line, pos)
            if id_match:
                tokens.append(("id", id_match.group(0), lineno, col))
                pos = id_match.end()
                continue
            num_match = num_re.match(line, pos)
            if num_match:
                tokens.append(("num", num_match.group(0), lineno, col))
                pos = num_match.end()
                continue
            for op in _OPERATORS:
                if line.startswith(op, pos):
                    tokens.append(("op", op, lineno, col))
                    pos += len(op)
                    break
            else:
                if ch in _PUNCT:
                    tokens.append(("op", ch, lineno, col))
                    pos += 1
                else:
                    raise CParseError(
                        f"line {lineno}: unexpected character {ch!r}")
    return tokens, defines


# -- program generators -------------------------------------------------------

def saxpy_nest_source(rows, n, alpha):
    """An OpenMP row loop of unit-stride saxpy calls."""
    return f"""
#define ROWS {rows}
#define N {n}
float x[ROWS][N];
float y[ROWS][N];
int i;
#pragma omp parallel for
for (i = 0; i < ROWS; i++)
  cblas_saxpy(N, {alpha!r}, &x[i][0], 1, &y[i][0], 1);
"""


def cdotc_nest_source(a, b, t):
    """A doubly nested OpenMP loop of complex dot products."""
    return f"""
#define A {a}
#define B {b}
#define T {t}
complex w[A][B][T];
complex s[A][B][T];
complex out[A][B];
int i;
int j;
#pragma omp parallel for
for (i = 0; i < A; i++)
  for (j = 0; j < B; j++)
    cblas_cdotc_sub(T, &w[i][j][0], 1, &s[i][j][0], 1, &out[i][j]);
"""


def corner_turn_source(rows, cols):
    """A rank-0 guru FFTW plan that transposes a rows x cols matrix."""
    return f"""
#define R {rows}
#define C {cols}
complex *src_buf;
complex *dst_buf;
fftwf_plan p;
fftw_iodim hm[2] = {{{{R, C, 1}}, {{C, 1, R}}}};
src_buf = malloc(sizeof(complex) * R * C);
dst_buf = malloc(sizeof(complex) * R * C);
p = fftwf_plan_guru_dft(0, NULL, 2, hm, src_buf, dst_buf,
                        FFTW_FORWARD, FFTW_WISDOM_ONLY);
fftwf_execute(p);
"""


def chain_source(chunks, alpha, match, with_mid):
    """A producer loop feeding a transpose loop, optionally with an
    independent loop in between (hoist) and optionally broken by a
    broadcast read (illegal)."""
    mid = ("for (i = 0; i < CHUNKS; ++i)\n"
           f"  cblas_saxpy(CHUNK, {alpha + 1.0:.3f}, &u[i][0], 1, "
           "&v[i][0], 1);\n") if with_mid else ""
    idx = "i" if match else "0"
    return f"""
#define R 16
#define C 16
#define CHUNK 256
#define CHUNKS {chunks}
float gain[CHUNKS][CHUNK];
float acc[CHUNKS][CHUNK];
float img[CHUNKS][CHUNK];
float u[CHUNKS][CHUNK];
float v[CHUNKS][CHUNK];
int i;
for (i = 0; i < CHUNKS; ++i)
  cblas_saxpy(CHUNK, {alpha:.3f}, &gain[i][0], 1, &acc[i][0], 1);
{mid}for (i = 0; i < CHUNKS; ++i)
  mkl_somatcopy(R, C, 1.0, &acc[{idx}][0], &img[i][0]);
"""


# -- reference syntactic chainer ----------------------------------------------
#
# Chaining by adjacency plus a produced/consumed buffer, exactly as the
# compiler did it before fusion needed a proof. Every chain it forms
# must come out of the verified rewrite engine as a non-looped
# FusedStep with the same members.

@dataclass(frozen=True)
class ChainStep:
    """Several accelerated calls fused into one PASS."""

    steps: Tuple[AccelCallStep, ...]

    @property
    def in_bufs(self) -> Tuple[str, ...]:
        return self.steps[0].in_bufs

    @property
    def out_bufs(self) -> Tuple[str, ...]:
        return self.steps[-1].out_bufs

    @property
    def calls(self) -> int:
        return sum(s.calls for s in self.steps)


def _chainable(a: AccelCallStep, b: AccelCallStep) -> bool:
    """b can chain onto a: same (non-)loop shape and a feeds b."""
    if a.trips or b.trips:
        return False            # looped steps keep their own pass
    produced = set(a.out_bufs)
    return bool(produced & set(b.in_bufs))


def chain_pass(schedule: Schedule) -> List[object]:
    """Fuse producer->consumer accelerated neighbours into ChainSteps."""
    out: List[object] = []
    for step in schedule.steps:
        prev = out[-1] if out else None
        if (isinstance(step, AccelCallStep)
                and isinstance(prev, (AccelCallStep, ChainStep))):
            tail = prev.steps[-1] if isinstance(prev, ChainStep) else prev
            if _chainable(tail, step):
                steps = (prev.steps if isinstance(prev, ChainStep)
                         else (prev,)) + (step,)
                out[-1] = ChainStep(steps=steps)
                continue
        out.append(step)
    return out
