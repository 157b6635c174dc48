"""Lowering differential: a coalesced batch lowers to the same descriptor
as the TDL text path, byte for byte.

:func:`repro.serving.batching.coalesce` builds the program tree
directly and takes each member's buffer sizes from the caller, and
:func:`repro.core.descriptor.encode` packs the IR in one walk. The
references are the paths they replaced: ``reference_coalesce``
(``tests.serving.helpers``: ``parse_tdl`` of the joined ``PASS`` lines
plus :func:`call_sizes` sums) and ``reference_encode``
(``tests.core.helpers``: per-instruction records). Seeded batches of
1..``max_batch`` members draw from all seven ops at log-uniform Table 2
scales; seeded LOOP and chained programs go through both encoders.
Error paths must raise the same type with the same message.
"""

import math
import random

import pytest

from repro.core import (OPCODES, Comp, DescriptorError, Loop,
                        MealibSystem, ParamStore, Pass, TdlError,
                        TdlProgram, encode, encoded_size, parse_tdl)
from repro.eval.workloads import TABLE2
from repro.serving import BatchPolicy, coalesce
from tests.core.helpers import reference_encode
from tests.serving.helpers import member, reference_coalesce

OPS = sorted(OPCODES)

#: Seeded coalesce batches, and seeded programs per encoder battery.
BATCHES = 400
PROGRAMS = 600

SCALE_LO, SCALE_HI = 1e-3, 5e-2


@pytest.fixture(scope="module")
def system():
    return MealibSystem(stack_bytes=64 << 20)


def log_uniform(rng):
    return math.exp(rng.uniform(math.log(SCALE_LO), math.log(SCALE_HI)))


def random_batch(rng):
    """1..max_batch ``(op, params)`` pairs: all of one op (the shape the
    serving runtime coalesces) or each member's op drawn afresh."""
    size = rng.randint(1, BatchPolicy().max_batch)
    same = rng.choice(OPS) if rng.random() < 0.5 else None
    batch = []
    for _ in range(size):
        op = same or rng.choice(OPS)
        batch.append((op, TABLE2[op].params(log_uniform(rng))))
    return batch


def lower_both(system, batch):
    """(new plan, reference plan) of ``batch``, each destroyed after its
    descriptor was read back from the command space."""
    plans = []
    for lower, members in ((coalesce, [member(system, op, p)
                                       for op, p in batch]),
                           (reference_coalesce, batch)):
        plan = lower(system, members)
        written = system.space.pa_read(plan.descriptor.base_pa,
                                       plan.descriptor.size)
        system.runtime.acc_destroy(plan)
        plans.append((plan, written))
    return plans


def test_coalesce_matches_text_path(system):
    rng = random.Random(0xC0A1)
    sizes = set()
    for _ in range(BATCHES):
        batch = random_batch(rng)
        sizes.add(len(batch))
        (got, got_image), (want, want_image) = lower_both(system, batch)
        assert got.descriptor == want.descriptor
        assert got.descriptor.data == want.descriptor.data
        assert got_image == want_image == want.descriptor.data
        assert got.program == want.program
        assert got.working_set_bytes == want.working_set_bytes
    assert sizes == set(range(1, BatchPolicy().max_batch + 1))


def test_empty_batch_raises_same_error(system):
    with pytest.raises(ValueError) as got:
        coalesce(system, [])
    with pytest.raises(ValueError) as want:
        reference_coalesce(system, [])
    assert str(got.value) == str(want.value)


def test_unknown_opcode_raises_same_error_and_frees_slot(system):
    params = TABLE2["AXPY"].params(0.004)
    good = member(system, "AXPY", params)
    members = [good, ("GEMM", params, 64, 32)]
    store = ParamStore()
    store.add("b0.para", params.pack())
    store.add("b1.para", params.pack())
    text = "PASS { COMP AXPY b0.para }\nPASS { COMP GEMM b1.para }"
    free_before = list(system.runtime._command_alloc._free)
    with pytest.raises(DescriptorError) as got:
        coalesce(system, members)
    with pytest.raises(DescriptorError) as want:
        system.runtime.acc_plan(text, store, in_size=0, out_size=0)
    assert str(got.value) == str(want.value)
    assert "GEMM" in str(got.value)
    assert list(system.runtime._command_alloc._free) == free_before


# -- the encoder ---------------------------------------------------------------


def random_program(rng):
    """A seeded program of PASS and LOOP blocks, chained passes
    included, over a store of random parameter blobs (stride-table
    tails of several lengths among them)."""
    store = ParamStore()
    counter = 0

    def comp():
        nonlocal counter
        name = f"p{counter}.para"
        counter += 1
        store.add(name, rng.randbytes(rng.choice((0, 1, 24, 40, 92, 300))))
        return Comp(rng.choice(OPS), name)

    def one_pass():
        return Pass(tuple(comp() for _ in range(rng.choice((1, 1, 2, 3)))))

    blocks = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.4:
            count = rng.choice((1, 2, 768, 2**32 - 1))
            blocks.append(Loop(count, tuple(one_pass() for _ in
                                            range(rng.randint(1, 3)))))
        else:
            blocks.append(one_pass())
    return TdlProgram(tuple(blocks)), store


def test_encode_matches_reference():
    rng = random.Random(0xE4C0)
    looped = chained = 0
    for _ in range(PROGRAMS):
        program, store = random_program(rng)
        base = rng.choice((0, 0x40, rng.randrange(1 << 40)))
        got = encode(program, store, base)
        assert got == reference_encode(program, store, base)
        assert encoded_size(program, store) == got.size
        passes = [p for b in program.blocks
                  for p in (b.body if isinstance(b, Loop) else (b,))]
        looped += any(isinstance(b, Loop) for b in program.blocks)
        chained += any(p.chained for p in passes)
    assert looped > PROGRAMS // 4 and chained > PROGRAMS // 4


def error_of(fn, *args):
    try:
        fn(*args)
    except Exception as exc:     # compared by type and message
        return type(exc), str(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("program, files, expected", [
    # an unknown opcode after a good COMP
    ("PASS { COMP AXPY a.para }\nPASS { COMP GEMM a.para }", ("a",),
     DescriptorError),
    # a missing parameter file inside a LOOP
    ("LOOP 3 { PASS { COMP AXPY a.para COMP DOT missing.para } }",
     ("a",), TdlError),
    # the first bad COMP is reported, whatever follows it
    ("PASS { COMP AXPY missing.para }\nPASS { COMP GEMM a.para }",
     ("a",), TdlError),
    # a LOOP count past 32 bits, then an unknown opcode
    (f"LOOP {2**32} {{ PASS {{ COMP AXPY a.para }} }}\n"
     "PASS { COMP GEMM a.para }", ("a",), DescriptorError),
    # a LOOP count past 32 bits alone
    (f"LOOP {2**32} {{ PASS {{ COMP AXPY a.para }} }}", ("a",), None),
])
def test_encode_errors_match_reference(program, files, expected):
    store = ParamStore()
    for name in files:
        store.add(f"{name}.para", b"\x01" * 24)
    program = parse_tdl(program)
    got = error_of(encode, program, store, 0)
    assert got == error_of(reference_encode, program, store, 0)
    if expected is not None:
        assert got[0] is expected
