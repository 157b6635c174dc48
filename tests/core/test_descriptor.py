"""Accelerator descriptor encoding/decoding."""

import struct

import numpy as np
import pytest

from repro.accel import AxpyParams, FftParams
from repro.core import (CMD_IDLE, CMD_START, DescriptorError, KIND_ACCEL,
                        KIND_ENDLOOP, KIND_ENDPASS, KIND_LOOP, ParamStore,
                        decode_control, decode_instructions, encode,
                        parse_tdl, set_command)
from repro.core.descriptor import CR_BYTES, INSTR_BYTES, MAGIC


def sample():
    store = ParamStore()
    store.add("a.para", AxpyParams(n=64, alpha=1.0, x_pa=0x1000,
                                   y_pa=0x2000).pack())
    store.add("f.para", FftParams(n=64, batch=2, src_pa=0x3000,
                                  dst_pa=0x4000).pack())
    prog = parse_tdl(
        "LOOP 4 { PASS { COMP AXPY a.para } }\n"
        "PASS { COMP FFT f.para }\n")
    return prog, store


def test_encode_layout():
    prog, store = sample()
    desc = encode(prog, store, base_pa=0x100)
    # instructions: LOOP, AXPY, ENDPASS, ENDLOOP, FFT, ENDPASS
    assert desc.n_instructions == 6
    assert desc.pr_offset == CR_BYTES + 6 * INSTR_BYTES
    assert desc.size == desc.pr_offset + AxpyParams.SIZE + FftParams.SIZE


def test_decode_roundtrip():
    prog, store = sample()
    desc = encode(prog, store, base_pa=0x100)
    command, n = decode_control(desc.data)
    assert command == CMD_IDLE
    assert n == 6
    instrs = decode_instructions(desc.data, n)
    kinds = [i.kind for i in instrs]
    assert kinds == [KIND_LOOP, KIND_ACCEL, KIND_ENDPASS, KIND_ENDLOOP,
                     KIND_ACCEL, KIND_ENDPASS]
    assert instrs[0].param_size == 4            # the loop count
    assert instrs[1].accel_name == "AXPY"
    assert instrs[4].accel_name == "FFT"
    # parameter addresses are absolute and inside the descriptor
    assert instrs[1].param_addr == 0x100 + desc.pr_offset


def test_param_bytes_recoverable():
    prog, store = sample()
    desc = encode(prog, store, base_pa=0)
    instrs = decode_instructions(desc.data, desc.n_instructions)
    axpy_instr = instrs[1]
    blob = desc.data[axpy_instr.param_addr:
                     axpy_instr.param_addr + axpy_instr.param_size]
    assert AxpyParams.unpack(blob) == AxpyParams(n=64, alpha=1.0,
                                                 x_pa=0x1000, y_pa=0x2000)


def test_set_command():
    prog, store = sample()
    desc = encode(prog, store, base_pa=0)
    buf = bytearray(desc.data)
    set_command(buf, CMD_START)
    command, _ = decode_control(bytes(buf))
    assert command == CMD_START


def test_bad_magic_rejected():
    with pytest.raises(DescriptorError):
        decode_control(b"\x00" * CR_BYTES)


def test_truncated_rejected():
    prog, store = sample()
    desc = encode(prog, store, base_pa=0)
    with pytest.raises(DescriptorError):
        decode_control(desc.data[:8])
    with pytest.raises(DescriptorError):
        decode_instructions(desc.data[:CR_BYTES + 4], desc.n_instructions)


def test_unknown_accelerator_rejected():
    store = ParamStore()
    store.add("g.para", b"\x00" * 16)
    prog = parse_tdl("PASS { COMP GEMM g.para }")
    with pytest.raises(DescriptorError):
        encode(prog, store, base_pa=0)


def test_missing_param_file_rejected():
    prog = parse_tdl("PASS { COMP AXPY missing.para }")
    from repro.core import TdlError
    with pytest.raises(TdlError):
        encode(prog, ParamStore(), base_pa=0)


def test_accel_name_of_control_instruction():
    from repro.core import Instruction
    with pytest.raises(DescriptorError):
        Instruction(kind=KIND_ENDPASS).accel_name


#: Random byte strings per decoder battery.
FUZZ_INPUTS = 35000


def test_random_bytes_decode_or_fail_typed():
    """Seeded random byte strings of 0-200 bytes, half of them behind
    a valid magic word, through the control and instruction decoders:
    each decodes or raises :class:`DescriptorError`, never a stray
    exception. The instruction decoder also sees every string with a
    small random instruction count, whatever its control region."""
    rng = np.random.default_rng(0xB17E5)
    magic = struct.pack("<I", MAGIC)
    past_control = 0
    for _ in range(FUZZ_INPUTS):
        data = rng.bytes(int(rng.integers(0, 201)))
        if rng.random() < 0.5:
            data = magic + data[len(magic):]
        try:
            _, n_instr = decode_control(data)
            past_control += 1
            decode_instructions(data, n_instr)
        except DescriptorError:
            pass
        try:
            decode_instructions(data, int(rng.integers(0, 12)))
        except DescriptorError:
            pass
    assert past_control > 0
