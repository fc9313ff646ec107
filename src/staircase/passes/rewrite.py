"""Small shared helpers for the IR-rewriting passes: the outcome record
and the list of ops a pass visits, read before it rewrites any.

Passes read constants and loop bounds through ``interp.buffer``
(``constant_of``, ``static_bounds``), as a run reads them, so a pass
decides on the values the interpreter computes with. They make ops
through `dialects/builders.py`; only `loop-unroll` builds its copies
unchecked, as the parser does, for the verify after the pass to judge.
They splice bodies with `ir.core.merge_block`; nothing here creates IR.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
