"""Small shared helpers for the IR-rewriting passes: the outcome record,
a snapshot walk, and reading constant bounds.

The passes make ops through `dialects/builders.py` and splice bodies with
`ir.core.merge_block`; nothing here creates IR.
"""
from __future__ import annotations

from dataclasses import dataclass

from staircase.ir.core import Operation, Value, walk


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


def trip_count(lb: int, ub: int, step: int) -> int:
    # ceil((ub - lb) / step) for positive steps
    if ub <= lb:
        return 0
    return -((lb - ub) // step)
