"""Region-boundary markers the AST rewrite inserts (and users may call).

scf_range/affine_range/parallel open a loop region, built by the dialect
builders, and yield induction proxies exactly once; scf_endfor closes it.
scf_if opens a branch region and scf_endif_branch / scf_else / scf_endif
walk the arms. Misordered calls raise UnbalancedMarkers. block_id_* and
thread_id_* read a GPU kernel's ids, and raise UnsupportedConstruct
outside one.
"""
from __future__ import annotations

from staircase.dialects.builders import (
    append_terminator,
    build_affine_for,
    build_gpu_id,
    build_scf_for,
    build_scf_if,
    build_scf_parallel,
)
from staircase.errors import TypeMismatch, UnbalancedMarkers, UnsupportedConstruct
from staircase.frontend import state
from staircase.frontend.proxy import ValueProxy, constant, materialize_constant
from staircase.ir.core import INDEX, I1, Block, Value

__all__ = [
    "scf_range", "affine_range", "scf_for", "affine_for", "parallel",
    "scf_endfor", "scf_if", "scf_else", "scf_endif_branch", "scf_endif",
    "constant", "block_id_x", "block_id_y", "block_id_z", "thread_id_x",
    "thread_id_y", "thread_id_z",
]


def _normalize_range(lb, ub, step):
    if ub is None:
        lb, ub = 0, lb
    if isinstance(step, int) and step <= 0:
        raise UnsupportedConstruct("loop steps must be positive")
    return lb, ub, step


def _as_index(v) -> Value:
    if isinstance(v, ValueProxy):
        if v.type != INDEX:
            raise TypeMismatch(f"loop bounds must be index values, got {v.type}")
        return v.value
    if isinstance(v, int) and not isinstance(v, bool):
        return materialize_constant(v, INDEX)
    raise TypeMismatch(f"cannot use {v!r} as a loop bound")


def scf_range(lb, ub=None, step=1):
    """range() stand-in that opens an scf.for around its body."""
    lb, ub, step = _normalize_range(lb, ub, step)
    bounds = [_as_index(lb), _as_index(ub), _as_index(step)]
    cap = state.active()
    block, location = cap.insertion(*bounds)
    op = build_scf_for(block, *bounds, location=location)
    cap.push(state.Frame("for", op, op.body()))
    yield ValueProxy(op.body().args[0])


def affine_range(lb, ub=None, step=1):
    """range() stand-in that opens an affine.for (literal bounds only)."""
    lb, ub, step = _normalize_range(lb, ub, step)
    cap = state.active()
    block, location = cap.insertion()
    op = build_affine_for(block, lb, ub, step, location=location)
    cap.push(state.Frame("for", op, op.body()))
    yield ValueProxy(op.body().args[0])


def parallel(lbs, ubs, steps=None):
    """Open an scf.parallel over the given bound tuples."""
    lbs = tuple(lbs)
    ubs = tuple(ubs)
    steps = tuple(steps) if steps is not None else (1,) * len(lbs)
    if not (len(lbs) == len(ubs) == len(steps)) or not lbs:
        raise UnbalancedMarkers(
            "parallel takes equal-length, non-empty bound tuples"
        )
    n = len(lbs)
    bounds = [_as_index(v) for v in (*lbs, *ubs, *steps)]
    cap = state.active()
    block, location = cap.insertion(*bounds)
    op = build_scf_parallel(block, bounds[:n], bounds[n:2 * n], bounds[2 * n:],
                            location=location)
    cap.push(state.Frame("parallel", op, op.body()))
    ivs = tuple(ValueProxy(a) for a in op.body().args)
    yield ivs if len(ivs) > 1 else ivs[0]


scf_for = scf_range
affine_for = affine_range


def scf_endfor() -> None:
    state.active().pop(("for", "parallel"))


def scf_if(cond) -> None:
    if not isinstance(cond, ValueProxy) or cond.type != I1:
        got = cond.type if isinstance(cond, ValueProxy) else type(cond).__name__
        raise TypeMismatch(f"if conditions must be staged i1 values, got {got}")
    cap = state.active()
    block, location = cap.insertion(cond.value)
    op = build_scf_if(block, cond.value, location=location)
    cap.push(state.Frame("if", op, op.body()))


def scf_endif_branch() -> None:
    frame = state.active().top()
    if frame.kind != "if" or frame.arm_ended:
        raise UnbalancedMarkers("no open conditional arm to end")
    frame.arm_ended = True


def scf_else() -> None:
    cap = state.active()
    frame = cap.top()
    if frame.kind != "if" or frame.arm != "then" or not frame.arm_ended:
        raise UnbalancedMarkers("else marker without a finished then arm")
    op = frame.op
    else_block = Block(op)
    op.regions += (else_block,)
    append_terminator(else_block, "scf.yield", location=cap.location())
    frame.block = else_block
    frame.arm = "else"
    frame.arm_ended = False


def scf_endif() -> None:
    cap = state.active()
    frame = cap.pop(("if",))
    if not frame.arm_ended:
        raise UnbalancedMarkers("conditional arm not closed before endif")


def _id_value(which: str, dim: str) -> ValueProxy:
    cap = state.active()
    if not cap.in_kernel():
        raise UnsupportedConstruct(
            f"{which}_{dim}() is only valid inside a GPU kernel body"
        )
    block, location = cap.insertion()
    return ValueProxy(build_gpu_id(block, which, dim, location=location))


def block_id_x() -> ValueProxy:
    return _id_value("block_id", "x")


def block_id_y() -> ValueProxy:
    return _id_value("block_id", "y")


def block_id_z() -> ValueProxy:
    return _id_value("block_id", "z")


def thread_id_x() -> ValueProxy:
    return _id_value("thread_id", "x")


def thread_id_y() -> ValueProxy:
    return _id_value("thread_id", "y")


def thread_id_z() -> ValueProxy:
    return _id_value("thread_id", "z")
