"""The accelerator descriptor (Section 2.3): CR + IR + PR in DRAM.

A descriptor is a physically contiguous region of the command space with
three parts:

* Control Region — magic, command word (the hardware polls for START),
  instruction count, and an integrity checksum over the rest of the
  descriptor (the command word is excluded so the doorbell can toggle
  without re-sealing);
* Instruction Region — fixed-width instructions: accelerator
  invocations (opcode + parameter size/address) and control
  instructions (LOOP / ENDLOOP / ENDPASS);
* Parameter Region — the packed per-invocation parameters the
  instructions point at.

``encode`` lowers a TDL program to descriptor bytes; ``decode`` is what
the configuration unit's fetch/decode units do when START is observed.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.tdl import Comp, Loop, ParamStore, TdlProgram

MAGIC = 0x4D45414C            # 'MEAL'

CMD_IDLE = 0
CMD_START = 1

#: Instruction kinds in the IR.
KIND_ACCEL = 0
KIND_LOOP = 1
KIND_ENDLOOP = 2
KIND_ENDPASS = 3

_CR = struct.Struct("<IIII")          # magic, command, n_instr, checksum
_INSTR = struct.Struct("<BBHIq")      # opcode, kind, pad, size, addr

CR_BYTES = _CR.size
INSTR_BYTES = _INSTR.size

#: Byte offsets of the CR's mutable command word and its checksum word.
COMMAND_OFFSET = 4
CHECKSUM_OFFSET = 12

#: Opcode name <-> number mapping (matches the accelerator classes).
OPCODES = {"AXPY": 1, "DOT": 2, "GEMV": 3, "SPMV": 4, "RESMP": 5,
           "FFT": 6, "RESHP": 7}
OPCODE_NAMES = {v: k for k, v in OPCODES.items()}


class DescriptorError(Exception):
    """Raised on malformed descriptors."""


class DescriptorIntegrityError(DescriptorError):
    """The descriptor image fails its integrity checksum (corruption)."""


@dataclass(frozen=True)
class Instruction:
    """One decoded IR entry."""

    kind: int
    opcode: int = 0
    param_size: int = 0
    param_addr: int = 0

    @property
    def accel_name(self) -> str:
        if self.kind != KIND_ACCEL:
            raise DescriptorError("not an accelerator instruction")
        try:
            return OPCODE_NAMES[self.opcode]
        except KeyError:
            raise DescriptorError(f"unknown opcode {self.opcode}")


@dataclass(frozen=True)
class EncodedDescriptor:
    """Descriptor bytes plus layout metadata."""

    data: bytes
    base_pa: int
    n_instructions: int
    pr_offset: int

    @property
    def size(self) -> int:
        return len(self.data)


def _instruction_count(program: TdlProgram) -> int:
    """IR length of ``program``: one instruction per COMP plus the
    control instructions (an ENDPASS per pass, LOOP/ENDLOOP per loop)."""
    n_instr = 0
    for block in program.blocks:
        if isinstance(block, Loop):
            n_instr += 2 + sum(len(p.comps) + 1 for p in block.body)
        else:
            n_instr += len(block.comps) + 1
    return n_instr


def encoded_size(program: TdlProgram, params: ParamStore) -> int:
    """Byte size of ``encode(program, params, base_pa)`` at any base:
    what a command-space slot must hold before the descriptor is placed
    in it."""
    return (CR_BYTES + _instruction_count(program) * INSTR_BYTES
            + sum(len(params.get(c.param_file)) for c in program.comps()))


def _param_blob(comp: Comp, params: ParamStore) -> Tuple[int, bytes]:
    """(opcode, parameter bytes) of one COMP, checked in that order."""
    opcode = OPCODES.get(comp.accel)
    if opcode is None:
        raise DescriptorError(f"no opcode for accelerator {comp.accel!r}")
    return opcode, params.get(comp.param_file)


def encode(program: TdlProgram, params: ParamStore,
           base_pa: int) -> EncodedDescriptor:
    """Lower a TDL program into descriptor bytes at ``base_pa``.

    The PR follows the IR immediately; parameter addresses inside the IR
    are absolute physical addresses, as the hardware expects. One walk
    of the program packs every IR entry in place and collects the PR.
    """
    # sizes first: parameter addresses depend on the IR length
    n_instr = _instruction_count(program)
    pr_offset = CR_BYTES + n_instr * INSTR_BYTES
    out = bytearray(pr_offset)
    _CR.pack_into(out, 0, MAGIC, CMD_IDLE, n_instr, 0)
    pack = _INSTR.pack_into
    pr: List[bytes] = []
    pos = CR_BYTES
    addr = base_pa + pr_offset
    try:
        for block in program.blocks:
            looped = isinstance(block, Loop)
            if looped:
                pack(out, pos, 0, KIND_LOOP, 0, block.count, 0)
                pos += INSTR_BYTES
                passes = block.body
            else:
                passes = (block,)
            for p in passes:
                for comp in p.comps:
                    opcode, blob = _param_blob(comp, params)
                    pack(out, pos, opcode, KIND_ACCEL, 0, len(blob), addr)
                    pos += INSTR_BYTES
                    addr += len(blob)
                    pr.append(blob)
                pack(out, pos, 0, KIND_ENDPASS, 0, 0, 0)
                pos += INSTR_BYTES
            if looped:
                pack(out, pos, 0, KIND_ENDLOOP, 0, 0, 0)
                pos += INSTR_BYTES
    except struct.error:
        # a LOOP count or an address that does not fit its field: a
        # bad COMP anywhere in the program is reported first
        for comp in program.comps():
            _param_blob(comp, params)
        raise
    out += b"".join(pr)
    # the command and checksum words are still zero, as the checksum
    # requires
    struct.pack_into("<I", out, CHECKSUM_OFFSET,
                     zlib.crc32(out) & 0xFFFFFFFF)
    return EncodedDescriptor(data=bytes(out), base_pa=base_pa,
                             n_instructions=n_instr, pr_offset=pr_offset)


def descriptor_checksum(data) -> int:
    """CRC32 over the descriptor with the command and checksum words
    zeroed — covers the magic, the instruction count, the whole IR, and
    the whole PR, so any aligned-word corruption outside the doorbell is
    caught with certainty (CRC32 detects all <=32-bit bursts)."""
    buf = bytearray(data)
    if len(buf) < CR_BYTES:
        raise DescriptorError("descriptor shorter than its control region")
    struct.pack_into("<I", buf, COMMAND_OFFSET, 0)
    struct.pack_into("<I", buf, CHECKSUM_OFFSET, 0)
    return zlib.crc32(bytes(buf)) & 0xFFFFFFFF


def verify_integrity(data: bytes) -> None:
    """Check a full descriptor image against its sealed checksum.

    Raises :class:`DescriptorIntegrityError` on mismatch. This is what
    the configuration unit's fetch unit runs before dispatching.
    """
    if len(data) < CR_BYTES:
        raise DescriptorIntegrityError(
            "descriptor shorter than its control region")
    (stored,) = struct.unpack_from("<I", data, CHECKSUM_OFFSET)
    actual = descriptor_checksum(data)
    if stored != actual:
        raise DescriptorIntegrityError(
            f"descriptor checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}")


def decode_control(data: bytes) -> Tuple[int, int]:
    """Read (command, n_instructions) from the CR; validates the magic."""
    if len(data) < CR_BYTES:
        raise DescriptorError("descriptor shorter than its control region")
    magic, command, n_instr, _ = _CR.unpack_from(data, 0)
    if magic != MAGIC:
        raise DescriptorError(f"bad descriptor magic {magic:#x}")
    return command, n_instr


def decode_instructions(data: bytes, n_instr: int) -> List[Instruction]:
    """Decode the IR that follows the CR."""
    need = CR_BYTES + n_instr * INSTR_BYTES
    if len(data) < need:
        raise DescriptorError("descriptor truncated inside the IR")
    out = []
    for i in range(n_instr):
        opcode, kind, _, size, addr = _INSTR.unpack_from(
            data, CR_BYTES + i * INSTR_BYTES)
        if kind not in (KIND_ACCEL, KIND_LOOP, KIND_ENDLOOP, KIND_ENDPASS):
            raise DescriptorError(f"unknown instruction kind {kind}")
        out.append(Instruction(kind=kind, opcode=opcode, param_size=size,
                               param_addr=addr))
    return out


def set_command(data: bytearray, command: int) -> None:
    """Write the command word in place (the doorbell the CR monitors).

    The integrity checksum deliberately excludes this word, so ringing
    the doorbell leaves a sealed descriptor valid."""
    struct.pack_into("<I", data, COMMAND_OFFSET, command)


def command_word(command: int) -> bytes:
    """The bytes of the command word stored at ``COMMAND_OFFSET``."""
    return struct.pack("<I", command)
