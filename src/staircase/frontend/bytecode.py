"""Same-width bytecode patch that forces both arms of every conditional.

After the marker rewrite, the only conditional jumps left in a captured
function implement `if scf_if(...)` statements. Each POP_JUMP_IF_FALSE
becomes a POP_TOP, which consumes the truthy marker token and keeps the
operand-stack accounting intact, so execution falls through into the then
arm. When an else arm exists, the then arm ends with a jump over it; that
jump sits immediately before the original else target and becomes a NOP.
A no-else conditional has the arm's trailing marker call (a POP_TOP)
there instead, which is left alone.

Only the CPython 3.10 instruction format (fixed two-byte instructions,
jump arguments in instruction units) is supported; other hosts take the
source-flattening fallback.
"""
from __future__ import annotations

import dis
import sys
from types import CodeType

from staircase.errors import RewriteUnsupported

# POP_JUMP_IF_FALSE and JUMP_ABSOLUTE are gone in 3.11, so they are looked
# up with get (None there): only a supported host reaches the code using them.
_POP_JUMP_IF_FALSE = dis.opmap.get("POP_JUMP_IF_FALSE")
_POP_TOP = dis.opmap["POP_TOP"]
_NOP = dis.opmap["NOP"]
_EXTENDED_ARG = dis.opmap["EXTENDED_ARG"]
_JUMPS_OVER_ELSE = {dis.opmap["JUMP_FORWARD"], dis.opmap.get("JUMP_ABSOLUTE")}
_OTHER_CONDITIONAL = {
    name: dis.opmap[name]
    for name in ("POP_JUMP_IF_TRUE", "JUMP_IF_TRUE_OR_POP",
                 "JUMP_IF_FALSE_OR_POP")
    if name in dis.opmap
}


def supported_host() -> bool:
    return sys.version_info[:2] == (3, 10)


def _nop_extended_args(code: bytearray, offset: int) -> None:
    at = offset - 2
    while at >= 0 and code[at] == _EXTENDED_ARG:
        code[at] = _NOP
        code[at + 1] = 0
        at -= 2


def rewrite_conditionals(code: CodeType) -> CodeType:
    if not supported_host():
        raise RewriteUnsupported(
            f"no bytecode patch for Python "
            f"{sys.version_info.major}.{sys.version_info.minor}"
        )
    instructions = list(dis.get_instructions(code))
    raw = bytearray(code.co_code)
    else_targets = []
    for ins in instructions:
        if ins.opcode in _OTHER_CONDITIONAL.values():
            raise RewriteUnsupported(
                f"unexpected conditional instruction {ins.opname}"
            )
        if ins.opcode == _POP_JUMP_IF_FALSE:
            raw[ins.offset] = _POP_TOP
            raw[ins.offset + 1] = 0
            _nop_extended_args(raw, ins.offset)
            else_targets.append(ins.argval)
    for target in else_targets:
        before = target - 2
        if before >= 0 and raw[before] in _JUMPS_OVER_ELSE:
            raw[before] = _NOP
            raw[before + 1] = 0
            _nop_extended_args(raw, before)
    return code.replace(co_code=bytes(raw))
