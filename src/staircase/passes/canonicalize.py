"""Constant folding, duplicate-constant elimination, and dead-op removal."""
from __future__ import annotations

import math

from staircase.dialects.builders import build_constant
from staircase.interp.buffer import to_f32, wrap_int
from staircase.ir.core import Block, Operation, erase_op, replace_all_uses_with, walk

from .rewrite import PassOutcome, matching_ops

_FLOAT_FOLD = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
}
_INT_FOLD = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
}
_FOLDABLE = tuple(_FLOAT_FOLD) + tuple(_INT_FOLD)


def _constant_attr(value):
    op = value.defining_op
    if op is None or op.name != "arith.constant":
        return None
    return op.attributes.get("value")


def _fold_constants(root: Operation) -> int:
    changed = 0
    for op in matching_ops(root, _FOLDABLE):
        a = _constant_attr(op.operands[0])
        b = _constant_attr(op.operands[1])
        if a is None or b is None:
            continue
        ty = op.results[0].type
        if op.name in _FLOAT_FOLD:
            if a.kind != "float" or b.kind != "float":
                continue
            if op.name == "arith.divf" and b.value == 0.0:
                continue  # inf/nan have no printable constant form
            value = _FLOAT_FOLD[op.name](a.value, b.value)
            if ty.kind == "f32":
                value = to_f32(value)
            if not math.isfinite(value):
                continue
        else:
            if a.kind != "int" or b.kind != "int":
                continue
            width = "i64" if ty.kind == "index" else ty.kind
            if width not in ("i32", "i64"):
                continue
            value = wrap_int(_INT_FOLD[op.name](a.value, b.value), width)
        replace_all_uses_with(op.results[0],
                              build_constant(op, value, ty, op.location))
        erase_op(op)
        changed += 1
    return changed


def _blocks_under(root: Operation) -> list[Block]:
    blocks: list[Block] = []

    def note(op):
        for region in op.regions:
            blocks.extend(region.blocks)

    walk(root, note)
    return blocks


def _dedup_constants(root: Operation) -> int:
    changed = 0
    for block in _blocks_under(root):
        seen: dict = {}
        for op in list(block.ops):
            if op.name != "arith.constant":
                continue
            attr = op.attributes["value"]
            key = (str(op.results[0].type), attr.kind, repr(attr.value))
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

    Folding evaluates arith binops whose operands are constants (f32
    results round through f32, integers wrap to their width). Dedup keeps
    the first of identical constants within one block. Erasure removes
    ops whose schema is pure when none of their results is used. A second
    run on the output changes nothing, byte for byte.
    """
    total = 0
    while True:
        changed = _fold_constants(root) + _dedup_constants(root) + _erase_dead(root)
        total += changed
        if not changed:
            break
    return PassOutcome(rewrites=total)
