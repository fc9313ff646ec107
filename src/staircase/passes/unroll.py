"""Unroll innermost counted loops by an integer factor."""
from __future__ import annotations

from staircase.dialects.builders import build_arith_binop, build_index_constant
from staircase.errors import InvalidFactor
from staircase.interp.buffer import static_bounds
from staircase.ir.core import Operation, clone_op

from .rewrite import PassOutcome, matching_ops

_LOOPS = ("scf.for", "affine.for", "scf.parallel")


def _innermost(loop: Operation) -> bool:
    return not any(op.name in _LOOPS for op in loop.walk_nested())


def loop_unroll(root: Operation, factor: int) -> PassOutcome:
    """Unroll innermost scf.for loops with constant bounds by `factor`.

    When the factor divides the trip count, the step is multiplied by the
    factor and the body is cloned factor times with the induction variable
    substituted i, i+step, ..., i+(factor-1)*step. Loops it cannot prove
    divisible (or whose bounds are not constants) are left untouched and
    counted as skipped; no epilogue is generated. Factor 1 is the
    identity.
    """
    if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
        raise InvalidFactor(f"unroll factor must be an integer >= 1, got {factor!r}")
    out = PassOutcome()
    if factor == 1:
        return out
    for loop in matching_ops(root, ("scf.for",)):
        if not _innermost(loop):
            continue
        bounds = static_bounds(loop)
        if bounds is None or bounds[0][3] % factor:
            out.skipped += 1
            continue
        step = bounds[0][2]
        loc = loop.location
        loop.set_operand(2, build_index_constant(loop, step * factor, loc))
        body = loop.body()
        induction = body.args[0]
        originals = list(body.ops)[:-1]  # everything but the terminator
        induction_used = bool(induction.uses)
        for k in range(1, factor):
            remap: dict = {}
            if induction_used:
                offset = build_index_constant(body, k * step, loc)
                remap[induction] = build_arith_binop(body, "arith.addi",
                                                     induction, offset, loc)
            for op in originals:
                clone_op(op, body, len(body.ops) - 1, remap)
        out.rewrites += 1
    return out
