"""Constant folding, duplicate-constant elimination, and dead-op removal."""
from __future__ import annotations

import math
import operator
from itertools import chain

from staircase.dialects.builders import build_constant
from staircase.interp.buffer import constant_of, constant_value, to_f32, wrap_int
from staircase.ir.core import Operation, erase_op, replace_all_uses_with

from .rewrite import PassOutcome, matching_ops

_FOLD = {
    "arith.addf": operator.add, "arith.subf": operator.sub,
    "arith.mulf": operator.mul, "arith.divf": operator.truediv,
    "arith.addi": operator.add, "arith.subi": operator.sub,
    "arith.muli": operator.mul,
}


def _fold_constants(root: Operation) -> int:
    changed = 0
    for op in matching_ops(root, _FOLD):
        a = constant_of(op.operands[0])
        b = constant_of(op.operands[1])
        if a is None or b is None:
            continue
        if op.name == "arith.divf" and b == 0.0:
            continue  # inf/nan have no printable constant form
        value = _FOLD[op.name](a, b)
        ty = op.results[0].type
        if ty.is_float:
            if ty.kind == "f32":
                value = to_f32(value)
            if not math.isfinite(value):
                continue
        else:
            width = "i64" if ty.kind == "index" else ty.kind
            if width not in ("i32", "i64"):
                continue
            value = wrap_int(value, width)
        replace_all_uses_with(op.results[0],
                              build_constant(op, value, ty, op.location))
        erase_op(op)
        changed += 1
    return changed


def _dedup_constants(root: Operation) -> int:
    changed = 0
    for block in [block for op in chain((root,), root.walk_nested())
                  for block in op.regions]:
        seen: dict = {}
        for op in list(block.ops):
            if op.name != "arith.constant":
                continue
            value = constant_value(op)
            key = (str(op.results[0].type), value, math.copysign(1, value))
            first = seen.get(key)
            if first is None:
                seen[key] = op
            else:
                replace_all_uses_with(op.results[0], first.results[0])
                erase_op(op)
                changed += 1
    return changed


def _erase_dead(root: Operation) -> int:
    changed = 0
    pure = {name for name, schema in root.ctx.registry.ops.items() if schema.pure}
    # reversed pre-order kills users before producers, so chains fall in
    # one sweep
    for op in reversed(matching_ops(root, pure)):
        if op.parent is None:
            continue
        if op.results and all(not r.uses for r in op.results):
            erase_op(op)
            changed += 1
    return changed


def canonicalize(root: Operation) -> PassOutcome:
    """Run fold/dedup/erase sweeps to a fixed point.

    Folding evaluates arith binops whose operands are constants. It reads
    each constant as a run does (f32 rounded to f32, integers wrapped to
    their width) and rounds or wraps the result the same way, so a fold
    stores what the unfolded op computes. Dedup keeps the first of the
    constants in a block that a run reads alike (type, value, sign of a
    zero). Erasure removes ops whose schema is pure when none of their
    results is used. A second run on the output changes nothing, byte
    for byte.
    """
    total = 0
    while True:
        changed = _fold_constants(root) + _dedup_constants(root) + _erase_dead(root)
        total += changed
        if not changed:
            break
    return PassOutcome(rewrites=total)
