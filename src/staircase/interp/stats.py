"""Execution statistics and the desk-scale cost model.

The weights make loop restructuring observable (memory traffic is worth
a few arithmetic ops, loop bookkeeping is worth many); they are not
calibrated to any hardware.

A run counts into a tally: one slot per dialect, then loads, stores and
bookkeeping. Each execution of an op adds one to the slot ``OP_SLOT``
gives it. ``OP_SLOT`` is read off the built-in OpSchemas, each of which
names its slot; a load or store counts in its own slot, and
``fold_tally`` charges it to memref as well. Bookkeeping is one per loop
iteration, one per parallel point and one per GPU thread.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from staircase.dialects.schemas import BUILTIN_DIALECTS

DEFAULT_WEIGHTS = {"arith": 1.0, "memory": 4.0, "bookkeeping": 50.0}

DIALECTS = ("arith", "memref", "scf", "affine", "func", "gpu")
ARITH, MEMREF = 0, 1
LOADS, STORES, BOOKKEEPING = range(len(DIALECTS), len(DIALECTS) + 3)

# Every built-in op the interpreter executes, and the slot its schema
# names; scf.yield counts in none.
_SLOTS = DIALECTS + ("loads", "stores")
OP_SLOT = {name: _SLOTS.index(schema.slot) if schema.slot else None
           for dialect in BUILTIN_DIALECTS for name, schema in dialect.ops.items()
           if schema.slot is not None}


@dataclass
class ExecStats:
    """Dynamic counts from one run: exact and repeatable in sequential mode."""

    total: int = 0
    per_prefix: dict = field(default_factory=dict)
    arith_ops: int = 0
    loads: int = 0
    stores: int = 0
    bookkeeping: int = 0
    wall_time: float = 0.0
    mode: str = "sequential"
    workers: int = 1


def new_tally() -> list:
    return [0] * (BOOKKEEPING + 1)


def fold_tally(tally, wall_time: float, mode: str, workers: int) -> ExecStats:
    per_dialect = tally[:len(DIALECTS)]
    per_dialect[MEMREF] += tally[LOADS] + tally[STORES]
    return ExecStats(
        total=sum(per_dialect),
        per_prefix={d: n for d, n in zip(DIALECTS, per_dialect) if n},
        arith_ops=tally[ARITH],
        loads=tally[LOADS],
        stores=tally[STORES],
        bookkeeping=tally[BOOKKEEPING],
        wall_time=wall_time,
        mode=mode,
        workers=workers,
    )


def cost(stats: ExecStats) -> float:
    w = DEFAULT_WEIGHTS
    return (
        w["arith"] * stats.arith_ops
        + w["memory"] * (stats.loads + stats.stores)
        + w["bookkeeping"] * stats.bookkeeping
    )
