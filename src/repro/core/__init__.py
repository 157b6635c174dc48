"""MEALib core: TDL, descriptors, configuration unit, runtime, system."""

from repro.core.config_unit import (CompInstance, ConfigurationUnit,
                                    DescriptorExecution, ModelInput,
                                    PassPlan)
from repro.core.descriptor import (CMD_IDLE, CMD_START, DescriptorError,
                                   DescriptorIntegrityError,
                                   EncodedDescriptor, Instruction,
                                   KIND_ACCEL, KIND_ENDLOOP, KIND_ENDPASS,
                                   KIND_LOOP, OPCODES, decode_control,
                                   decode_instructions,
                                   descriptor_checksum, encode,
                                   encoded_size, set_command,
                                   verify_integrity)
from repro.core.invocation import InvocationModel
from repro.core.ledger import (CATEGORIES, REGISTRY, Ledger, LedgerCategory,
                               LedgerEntry, LedgerView, verify_ledger)
from repro.core.runtime import (AccPlan, MealibRuntime, MealibRuntimeError,
                                ResilienceCounters, ResiliencePolicy)
from repro.core.schedule_cache import ScheduleCache, ScheduleCacheStats
from repro.core.system import MealibSystem
from repro.core.tdl import (Comp, Loop, ParamStore, Pass, TdlError,
                            TdlProgram, format_tdl, parse_tdl)

__all__ = [
    "CompInstance", "ConfigurationUnit", "DescriptorExecution",
    "ModelInput", "PassPlan",
    "CMD_IDLE", "CMD_START", "DescriptorError", "DescriptorIntegrityError",
    "EncodedDescriptor", "Instruction", "KIND_ACCEL", "KIND_ENDLOOP",
    "KIND_ENDPASS", "KIND_LOOP", "OPCODES", "decode_control",
    "decode_instructions", "descriptor_checksum", "encode", "encoded_size",
    "set_command",
    "verify_integrity", "InvocationModel", "CATEGORIES", "REGISTRY",
    "Ledger", "LedgerCategory", "LedgerEntry", "LedgerView",
    "verify_ledger", "AccPlan", "MealibRuntime", "MealibRuntimeError",
    "ResilienceCounters", "ResiliencePolicy",
    "ScheduleCache", "ScheduleCacheStats",
    "MealibSystem", "Comp", "Loop", "ParamStore", "Pass", "TdlError",
    "TdlProgram", "format_tdl", "parse_tdl",
]
