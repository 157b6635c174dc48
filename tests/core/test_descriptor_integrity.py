"""Property test: any aligned single-word corruption is detected.

The CR checksum (CRC32 over the descriptor with the mutable command
word and the checksum word itself zeroed) must flag *every* corrupted
32-bit word of a sealed descriptor — detection rate 1.0, not "high".

A corruption that gets past the checksum (a mutant resealed with a
fresh CRC) must still fail *typed*: decode either yields plans or
raises :class:`DescriptorError`, never a stray ``struct.error`` —
and run through ``acc_execute`` it either executes or ends in
:class:`DescriptorError`, never a stray exception from the model.
"""

import dataclasses
import struct

import numpy as np
import pytest

from repro.accel import AxpyParams, FftParams
from repro.core import (CMD_START, DescriptorError,
                        DescriptorIntegrityError, MealibSystem, ParamStore,
                        descriptor_checksum, encode, parse_tdl,
                        set_command, verify_integrity)
from repro.core.descriptor import CHECKSUM_OFFSET, COMMAND_OFFSET, CR_BYTES
from repro.eval.workloads import TABLE2

TRIALS = 600

#: Resealed mutants decoded per Table 2 descriptor.
MUTANTS_PER_OP = 200


def sealed_descriptor():
    store = ParamStore()
    store.add("a.para", AxpyParams(n=64, alpha=1.5, x_pa=0x1000,
                                   y_pa=0x2000).pack())
    store.add("f.para", FftParams(n=64, batch=2, src_pa=0x3000,
                                  dst_pa=0x4000).pack())
    prog = parse_tdl(
        "LOOP 4 { PASS { COMP AXPY a.para } }\n"
        "PASS { COMP FFT f.para }\n")
    desc = encode(prog, store, base_pa=0x100)
    raw = bytearray(desc.data)
    set_command(raw, CMD_START)      # doorbell rung, as the CU sees it
    return bytes(raw)


def test_sealed_descriptor_verifies():
    raw = sealed_descriptor()
    verify_integrity(raw)            # must not raise
    assert struct.unpack_from("<I", raw, CHECKSUM_OFFSET)[0] \
        == descriptor_checksum(raw)


def test_command_word_excluded_from_seal():
    # ringing/clearing the doorbell must not invalidate the checksum
    raw = bytearray(sealed_descriptor())
    for command in (0, 1, 0xFFFF):
        struct.pack_into("<I", raw, COMMAND_OFFSET, command)
        verify_integrity(bytes(raw))


def test_single_word_corruption_always_detected():
    raw = sealed_descriptor()
    n_words = len(raw) // 4
    rng = np.random.default_rng(0xC0FFEE)
    detected = 0
    trials = 0
    while trials < TRIALS:
        word = int(rng.integers(0, n_words))
        if word * 4 == COMMAND_OFFSET:
            continue                 # mutable word: corruption there is
        trials += 1                  # repaired by the next doorbell write
        original = raw[word * 4:word * 4 + 4]
        replacement = bytes(rng.integers(0, 256, 4, dtype=np.uint8))
        if replacement == original:
            detected += 1            # no-op corruption: nothing to detect
            continue
        mutated = bytearray(raw)
        mutated[word * 4:word * 4 + 4] = replacement
        with pytest.raises(DescriptorIntegrityError):
            verify_integrity(bytes(mutated))
        detected += 1
    assert trials >= 500
    assert detected == trials        # 100% detection


def test_single_bit_corruption_always_detected():
    raw = sealed_descriptor()
    rng = np.random.default_rng(7)
    for _ in range(TRIALS):
        bit = int(rng.integers(0, len(raw) * 8))
        if bit // 8 in range(COMMAND_OFFSET, COMMAND_OFFSET + 4):
            continue
        mutated = bytearray(raw)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(DescriptorIntegrityError):
            verify_integrity(bytes(mutated))


def test_truncated_descriptor_rejected():
    raw = sealed_descriptor()
    with pytest.raises(DescriptorIntegrityError):
        verify_integrity(raw[:12])


def test_resealed_mutants_decode_or_fail_typed():
    """1-2 bit flips past the control region, resealed so the CRC
    passes, across the 7 Table 2 descriptors. Flips in a parameter
    size or in a stride header hand the unpackers a record of the
    wrong length; that must surface as :class:`DescriptorError`."""
    cu = MealibSystem(stack_bytes=16 << 20).config_unit
    rng = np.random.default_rng(0xDEC0DE)
    rejected = 0
    for op in ("DOT", "AXPY", "GEMV", "SPMV", "FFT", "RESMP", "RESHP"):
        store = ParamStore()
        store.add("p.para", TABLE2[op].params(0.001).pack())
        image = encode(parse_tdl(f"PASS {{ COMP {op} p.para }}"), store,
                       base_pa=0x1000).data
        for _ in range(MUTANTS_PER_OP):
            mutated = bytearray(image)
            for _ in range(int(rng.integers(1, 3))):
                bit = int(rng.integers(CR_BYTES * 8, len(image) * 8))
                mutated[bit // 8] ^= 1 << (bit % 8)
            struct.pack_into("<I", mutated, CHECKSUM_OFFSET,
                             descriptor_checksum(mutated))
            try:
                cu.plans_from_image(bytes(mutated), 0x1000)
            except DescriptorError:
                rejected += 1
    assert rejected > 0


#: Resealed mutants run through ``acc_execute`` per Table 2 descriptor.
EXECUTE_MUTANTS_PER_OP = 60


def test_resealed_mutants_through_acc_execute_fail_typed():
    """1-2 bit flips anywhere but the doorbell and checksum words,
    resealed, then delivered and executed. A mutant whose parameters
    describe a stream the model cannot build, or an operand span
    outside ``[0, 2**63)``, is rejected at decode: retries and the
    host fallback (which decodes the same golden bytes) end in
    :class:`DescriptorError`, never a stray exception from the model."""
    system = MealibSystem(stack_bytes=16 << 20)
    rng = np.random.default_rng(0xACCE)
    skip = set(range(COMMAND_OFFSET * 8, COMMAND_OFFSET * 8 + 32))
    skip |= set(range(CHECKSUM_OFFSET * 8, CHECKSUM_OFFSET * 8 + 32))
    outcomes = {"ran": 0, "rejected": 0}
    for op in ("DOT", "AXPY", "GEMV", "SPMV", "FFT", "RESMP", "RESHP"):
        store = ParamStore()
        store.add("p.para", TABLE2[op].params(0.002).pack())
        plan = system.runtime.acc_plan(f"PASS {{ COMP {op} p.para }}",
                                       store, in_size=0, out_size=0)
        golden = plan.descriptor
        bits = [b for b in range(golden.size * 8) if b not in skip]
        for _ in range(EXECUTE_MUTANTS_PER_OP):
            mutated = bytearray(golden.data)
            for bit in rng.choice(bits, size=int(rng.integers(1, 3)),
                                  replace=False):
                mutated[bit // 8] ^= 1 << (bit % 8)
            struct.pack_into("<I", mutated, CHECKSUM_OFFSET,
                             descriptor_checksum(mutated))
            plan.descriptor = dataclasses.replace(golden,
                                                  data=bytes(mutated))
            try:
                system.runtime.acc_execute(plan, functional=False)
            except DescriptorError:
                outcomes["rejected"] += 1
            else:
                outcomes["ran"] += 1
        plan.descriptor = golden
    assert outcomes["ran"] > 0 and outcomes["rejected"] > 0
