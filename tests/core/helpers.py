"""Shared test helpers: the configuration unit's execution records,
the reference ledger and the reference descriptor encoder."""

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.descriptor import (_CR, _INSTR, CHECKSUM_OFFSET, CMD_IDLE,
                                   CR_BYTES, INSTR_BYTES, KIND_ACCEL,
                                   KIND_ENDLOOP, KIND_ENDPASS, KIND_LOOP,
                                   MAGIC, OPCODES, DescriptorError,
                                   EncodedDescriptor, Instruction,
                                   descriptor_checksum)
from repro.core.ledger import CATEGORIES, LedgerEntry
from repro.core.tdl import Loop
from repro.metrics import ExecResult


def record_executions(monkeypatch, system):
    """Record every :class:`DescriptorExecution` the configuration unit
    returns, in call order (the runtime only hands callers the summed
    :class:`ExecResult`)."""
    seen = []
    run = system.config_unit.run_descriptor

    def recording(*args, **kwargs):
        seen.append(run(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(system.config_unit, "run_descriptor", recording)
    return seen


def record_executes(monkeypatch, system):
    """Record ``(first ledger entry, descriptor bytes, returned cost)``
    for every ``acc_execute`` on ``system``, the execute tuples
    :func:`repro.core.ledger.verify_ledger` checks the fold of."""
    seen = []
    execute = system.runtime.acc_execute

    def recording(plan, *args, **kwargs):
        first = len(system.ledger)
        result = execute(plan, *args, **kwargs)
        seen.append((first, plan.descriptor.size, result))
        return result

    monkeypatch.setattr(system.runtime, "acc_execute", recording)
    return seen


def ledger_entries(system, category):
    """The results of ``system``'s ledger entries in ``category``."""
    return [e.result for e in system.ledger.entries
            if e.category == category]


# -- reference ledger ---------------------------------------------------------
#
# :class:`repro.core.ledger.Ledger` stores its entries as columns. This is
# the ledger it replaced, a list of :class:`LedgerEntry` records summed
# through ``ExecResult.plus``; the ledger tests hold their totals equal
# in float hex.


@dataclass
class ReferenceLedger:
    entries: List[LedgerEntry] = field(default_factory=list)

    def log(self, category: str, label: str, result: ExecResult) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown ledger category {category!r}; "
                             f"expected one of {CATEGORIES}")
        self.entries.append(LedgerEntry(category, label, result))

    def total(self, category: Optional[str] = None) -> ExecResult:
        out = ExecResult(0.0, 0.0)
        for e in self.entries:
            if category is None or e.category == category:
                out = out.plus(e.result)
        return out

    def by_label(self, category: str) -> Dict[str, ExecResult]:
        out: Dict[str, ExecResult] = {}
        for e in self.entries:
            if e.category == category:
                out[e.label] = out.get(e.label,
                                       ExecResult(0.0, 0.0)).plus(e.result)
        return out


# -- reference descriptor encoder ----------------------------------------------
#
# :func:`repro.core.descriptor.encode` packs each IR entry in place in
# one walk of the program. This is the encoder it replaced: lower every
# COMP to an ``Instruction`` record and the PR to one buffer, then pack
# the records. The differential tests hold the two byte-equal.


def _reference_lower(program, params, pr_base):
    instructions = []
    pr = bytearray()

    def lower_pass(p):
        for comp in p.comps:
            if comp.accel not in OPCODES:
                raise DescriptorError(
                    f"no opcode for accelerator {comp.accel!r}")
            blob = params.get(comp.param_file)
            addr = pr_base + len(pr)
            pr.extend(blob)
            instructions.append(Instruction(
                kind=KIND_ACCEL, opcode=OPCODES[comp.accel],
                param_size=len(blob), param_addr=addr))
        instructions.append(Instruction(kind=KIND_ENDPASS))

    for block in program.blocks:
        if isinstance(block, Loop):
            instructions.append(Instruction(kind=KIND_LOOP,
                                            param_size=block.count))
            for p in block.body:
                lower_pass(p)
            instructions.append(Instruction(kind=KIND_ENDLOOP))
        else:
            lower_pass(block)
    return instructions, bytes(pr)


def _reference_instruction_count(program):
    n_instr = len(program.comps())
    for block in program.blocks:
        if isinstance(block, Loop):
            n_instr += 2 + len(block.body)
        else:
            n_instr += 1
    return n_instr


def reference_encode(program, params, base_pa):
    """Descriptor bytes of ``program`` at ``base_pa``, through
    per-instruction records (the differential reference)."""
    n_instr = _reference_instruction_count(program)
    pr_offset = CR_BYTES + n_instr * INSTR_BYTES
    instructions, pr = _reference_lower(program, params,
                                        base_pa + pr_offset)
    assert len(instructions) == n_instr
    out = bytearray()
    out.extend(_CR.pack(MAGIC, CMD_IDLE, n_instr, 0))
    for instr in instructions:
        out.extend(_INSTR.pack(instr.opcode, instr.kind, 0,
                               instr.param_size, instr.param_addr))
    out.extend(pr)
    struct.pack_into("<I", out, CHECKSUM_OFFSET, descriptor_checksum(out))
    return EncodedDescriptor(data=bytes(out), base_pa=base_pa,
                             n_instructions=n_instr, pr_offset=pr_offset)
