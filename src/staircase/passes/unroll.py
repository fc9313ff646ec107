"""Unroll innermost counted loops by an integer factor."""
from __future__ import annotations

from staircase.dialects.builders import build_index_constant
from staircase.errors import InvalidFactor
from staircase.interp.buffer import static_bounds
from staircase.ir.core import INDEX, Operation, clone_op, int_attr

from .rewrite import PassOutcome, matching_ops

_LOOPS = ("scf.for", "affine.for", "scf.parallel")


def loop_unroll(root: Operation, factor: int) -> PassOutcome:
    """Unroll innermost scf.for loops with constant bounds by `factor`.

    When the factor divides the trip count, the step is multiplied by the
    factor and the body is cloned factor times with the induction variable
    substituted i, i+step, ..., i+(factor-1)*step. Loops it cannot prove
    divisible (or whose bounds are not constants) are left untouched and
    counted as skipped; no epilogue is generated. Factor 1 is the
    identity. The copies are built detached and unchecked, as the parser
    builds, and spliced in at once; the verify after the pass judges them.
    """
    if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
        raise InvalidFactor(f"unroll factor must be an integer >= 1, got {factor!r}")
    out = PassOutcome()
    if factor == 1:
        return out
    for loop in matching_ops(root, ("scf.for",)):
        if any(op.name in _LOOPS for op in loop.walk_nested()):
            continue  # not innermost
        bounds = static_bounds(loop)
        if bounds is None or bounds[0][3] % factor:
            out.skipped += 1
            continue
        step = bounds[0][2]
        loc = loop.location
        loop.set_operand(2, build_index_constant(loop, step * factor, loc))
        body = loop.body()
        induction = body.args[0]
        originals = body.ops[:-1]  # everything but the terminator
        induction_used = bool(induction.uses)
        copies = []
        for k in range(1, factor):
            remap: dict = {}
            if induction_used:
                offset = Operation(loop.ctx, "arith.constant", [],
                                   {"value": int_attr(k * step)}, [INDEX], 0, loc)
                shifted = Operation(loop.ctx, "arith.addi",
                                    [induction, *offset.results], {}, [INDEX], 0, loc)
                copies += (offset, shifted)
                remap[induction] = shifted.results[0]
            copies += (clone_op(op, value_map=remap) for op in originals)
        body.splice(len(body.ops) - 1, copies)
        out.rewrites += 1
    return out
