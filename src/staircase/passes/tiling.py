"""Tile parallel loops into tile-origin/intra-tile-offset nests."""
from __future__ import annotations

from staircase.dialects.builders import (
    build_arith_binop,
    build_index_constant,
    build_scf_parallel,
)
from staircase.errors import ArityMismatch, InvalidFactor
from staircase.interp.buffer import static_bounds
from staircase.ir.core import Operation, erase_op, merge_block

from .rewrite import PassOutcome, matching_ops


def scf_parallel_loop_tiling(root: Operation, sizes) -> PassOutcome:
    """Split each scf.parallel under `root` into an outer loop over tile
    origins and an inner loop over offsets within a tile.

    Fewer sizes than loop dimensions pad on the left with 1s, so (8, 8)
    tiles the two innermost dimensions of a 4-D loop; more sizes than
    dimensions is an ArityMismatch. Loops with non-constant bounds, or
    where a size does not divide the dimension's trip count, are skipped
    whole (no partial tiles). The body index is rebuilt as origin + offset
    and a mapping attribute, if present, stays on the outer loop.
    """
    sizes = list(sizes)
    if not sizes:
        raise InvalidFactor("need at least one tile size")
    for size in sizes:
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise InvalidFactor(f"tile sizes must be integers >= 1, got {size!r}")
    out = PassOutcome()
    for loop in matching_ops(root, ("scf.parallel",)):
        arity = len(loop.body().args)
        if len(sizes) > arity:
            raise ArityMismatch(
                f"{len(sizes)} tile sizes for a {arity}-dimensional parallel loop"
            )
        tile = [1] * (arity - len(sizes)) + sizes
        bounds = static_bounds(loop)
        if bounds is None or any(b[3] % z for b, z in zip(bounds, tile)):
            out.skipped += 1
            continue
        lbs = loop.operands[:arity]
        ubs = loop.operands[arity:2 * arity]
        steps = loop.operands[2 * arity:]
        loc = loop.location
        zero = build_index_constant(loop, 0, loc)
        # tile size in index units; outer step and inner bound
        spans = [build_index_constant(loop, z * b[2], loc)
                 for z, b in zip(tile, bounds)]
        outer = build_scf_parallel(loop, lbs, ubs, spans, loc)
        outer.attributes.update(loop.attributes)
        inner = build_scf_parallel(outer.body(), [zero] * arity, spans, steps,
                                   loc).body()
        combined = [build_arith_binop(inner, "arith.addi", origin, offset, loc)
                    for origin, offset in zip(outer.body().args, inner.args)]
        merge_block(loop.body(), inner, combined)
        erase_op(loop)
        out.rewrites += 1
    return out
