"""Small shared helpers for the IR-rewriting passes: the outcome record,
a snapshot walk, and reading a loop's constant bounds.

Constants are read through ``interp.buffer.constant_of``, rounded or
wrapped to their type as a run reads them, so a pass decides on the
values the interpreter computes with. The passes make ops through
`dialects/builders.py` and splice bodies with `ir.core.merge_block`;
nothing here creates IR.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from staircase.interp.buffer import constant_of
from staircase.ir.core import Operation


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
    return [op for op in chain((root,), root.walk_nested()) if op.name in names]


def static_bounds(loop: Operation) -> list[tuple[int, int, int, int]] | None:
    """(lb, ub, step, trips) per dimension of an scf.for or scf.parallel, as
    a run reads them; None unless every bound is a constant and every step
    is at least 1."""
    n = len(loop.body().args)
    values = [constant_of(v) for v in loop.operands]
    if None in values or min(values[2 * n:]) < 1:
        return None
    # trips = ceil((ub - lb) / step); len(range(...)) overflows past sys.maxsize
    return [(lb, ub, step, max(0, -((lb - ub) // step)))
            for lb, ub, step in zip(values[:n], values[n:2 * n], values[2 * n:])]
