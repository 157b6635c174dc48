"""TDL parsing, printing, and tree invariants."""

import numpy as np
import pytest

from repro.core import (Comp, Loop, Pass, TdlError, TdlProgram, format_tdl,
                        parse_tdl)

SAMPLE = """
LOOP 128 {
  PASS {
    COMP RESMP reshape.para
    COMP FFT fft.para
  }
}
PASS {
  COMP AXPY axpy.para
}
"""


def test_parse_structure():
    prog = parse_tdl(SAMPLE)
    assert len(prog.blocks) == 2
    loop, solo = prog.blocks
    assert isinstance(loop, Loop)
    assert loop.count == 128
    assert loop.body[0].comps[0].accel == "RESMP"
    assert loop.body[0].comps[1].param_file == "fft.para"
    assert isinstance(solo, Pass)
    assert not solo.chained
    assert loop.body[0].chained


def test_roundtrip():
    prog = parse_tdl(SAMPLE)
    assert parse_tdl(format_tdl(prog)) == prog


def test_comments_ignored():
    prog = parse_tdl("# header\nPASS { # inline\n COMP DOT d.para\n}\n")
    assert prog.blocks[0].comps[0].accel == "DOT"


def test_invocation_count():
    prog = parse_tdl(SAMPLE)
    assert prog.invocation_count() == 128 * 2 + 1


def test_comps_listing():
    prog = parse_tdl(SAMPLE)
    assert [c.accel for c in prog.comps()] == ["RESMP", "FFT", "AXPY"]


@pytest.mark.parametrize("bad", [
    "",
    "PASS { }",
    "LOOP { PASS { COMP A a } }",
    "LOOP 0 { PASS { COMP A a } }",
    "LOOP 4 { }",
    "PASS { COMP FFT }",
    "COMP FFT f.para",
    "PASS { COMP FFT f.para",
    "LOOP abc { PASS { COMP FFT f.para } }",
])
def test_malformed_rejected(bad):
    with pytest.raises(TdlError):
        parse_tdl(bad)


def test_tree_validation():
    with pytest.raises(TdlError):
        Pass(comps=())
    with pytest.raises(TdlError):
        Loop(count=2, body=())
    with pytest.raises(TdlError):
        Loop(count=-1, body=(Pass(comps=(Comp("FFT", "f"),)),))
    with pytest.raises(TdlError):
        TdlProgram(blocks=())
    with pytest.raises(TdlError):
        Comp(accel="", param_file="x")


def test_loop_only_contains_passes():
    with pytest.raises(TdlError):
        Loop(count=2, body=(Comp("FFT", "f"),))


def test_pass_only_contains_comps():
    with pytest.raises(TdlError):
        Pass(comps=(Pass(comps=(Comp("FFT", "f"),)),))


#: Token-level TDL mutants in the fuzz battery.
TDL_MUTANTS = 20000

#: Tokens a mutant inserts or substitutes.
TDL_VOCABULARY = ("LOOP", "PASS", "COMP", "{", "}", "#", "AXPY", "FFT",
                  "a.para", "0", "4", "-1", "128", "1e3", "}}", "{{")


def test_token_mutants_parse_or_fail_typed():
    """Seeded token-level mutants of :data:`SAMPLE`: 1-3 tokens
    deleted, inserted or replaced from a small vocabulary. Each parses
    or raises :class:`TdlError`, never a stray exception."""
    rng = np.random.default_rng(0x7D1)
    tokens = SAMPLE.split()
    parsed = 0
    for _ in range(TDL_MUTANTS):
        mutant = list(tokens)
        for _ in range(int(rng.integers(1, 4))):
            op = int(rng.integers(3))
            if op == 0 and mutant:
                del mutant[int(rng.integers(len(mutant)))]
                continue
            word = TDL_VOCABULARY[int(rng.integers(len(TDL_VOCABULARY)))]
            if op == 1 or not mutant:
                mutant.insert(int(rng.integers(len(mutant) + 1)), word)
            else:
                mutant[int(rng.integers(len(mutant)))] = word
        try:
            parse_tdl(" ".join(mutant))
            parsed += 1
        except TdlError:
            pass
    assert 0 < parsed < TDL_MUTANTS
