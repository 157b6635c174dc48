"""Shared serving test helpers: coalesce members and the text-path
reference lowering.

:func:`repro.serving.batching.coalesce` builds its program tree
directly and takes each member's buffer sizes from the caller.
:func:`reference_coalesce` is the lowering it replaced: print one
``PASS`` line per member, hand ``acc_plan`` the TDL text to parse, and
size every member again with :func:`call_sizes`. The lowering battery
holds the two byte-equal.
"""

from repro.core.tdl import ParamStore
from repro.serving.batching import call_sizes


def member(system, op, params):
    """One ``coalesce`` member: ``(op, params, in_bytes, out_bytes)``."""
    return (op, params, *call_sizes(system.layer, op, params))


def reference_coalesce(system, members):
    """Lower ``(op, params)`` pairs through TDL text, sizing each member
    with :func:`call_sizes`."""
    if not members:
        raise ValueError("cannot coalesce an empty batch")
    store = ParamStore()
    lines = []
    in_size = 0
    out_size = 0
    for i, (op, params) in enumerate(members):
        name = f"b{i}.para"
        store.add(name, params.pack())
        lines.append(f"PASS {{ COMP {op} {name} }}")
        r, w = call_sizes(system.layer, op, params)
        in_size += r
        out_size += w
    return system.runtime.acc_plan("\n".join(lines), store,
                                   in_size=in_size, out_size=out_size)
