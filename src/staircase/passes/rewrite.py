"""Small shared helpers for the IR-rewriting passes."""
from __future__ import annotations

from dataclasses import dataclass

from staircase.ir.core import (
    INDEX,
    Block,
    Location,
    Operation,
    Value,
    create_op,
    int_attr,
    walk,
)


@dataclass
class PassOutcome:
    """What one pass application did.

    rewrites counts sites actually transformed; skipped counts sites the
    pass looked at and deliberately left alone (non-constant bounds,
    non-dividing factors, and the like).
    """

    rewrites: int = 0
    skipped: int = 0


def matching_ops(root: Operation, names) -> list[Operation]:
    """Pre-order snapshot of ops under `root` (root included) whose name
    is in `names`. A snapshot, so passes can rewrite while iterating."""
    found: list[Operation] = []

    def note(op):
        if op.name in names:
            found.append(op)

    walk(root, note)
    return found


def const_int(value: Value) -> int | None:
    """The integer behind an arith.constant result, else None."""
    op = value.defining_op
    if op is None or op.name != "arith.constant":
        return None
    attr = op.attributes.get("value")
    if attr is None or attr.kind != "int":
        return None
    return attr.value


def index_const(block: Block, at: int, value: int,
                location: Location | None) -> Value:
    op = create_op(block, at, "arith.constant", [],
                   {"value": int_attr(int(value))}, [INDEX], 0, location)
    return op.results[0]


def trip_count(lb: int, ub: int, step: int) -> int:
    # ceil((ub - lb) / step) for positive steps
    if ub <= lb:
        return 0
    return -((lb - ub) // step)
