"""Region-boundary markers the AST rewrite inserts (and users may call).

scf_range/affine_range/parallel open a loop region and yield induction
proxies exactly once; scf_endfor closes it. scf_if opens a branch region
and returns an always-truthy token; scf_endif_branch / scf_else /
scf_endif walk the arms. Misordered calls raise UnbalancedMarkers.
"""
from __future__ import annotations

from staircase.errors import (
    InvalidBound,
    TypeMismatch,
    UnbalancedMarkers,
    UnsupportedConstruct,
)
from staircase.frontend import state
from staircase.frontend.proxy import ValueProxy, constant, materialize_constant
from staircase.ir.core import INDEX, I1, Region, Value, int_attr

__all__ = [
    "scf_range", "affine_range", "scf_for", "affine_for", "parallel",
    "scf_endfor", "scf_if", "scf_else", "scf_endif_branch", "scf_endif",
    "constant",
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
    cap = state.active()
    loc = cap.location()
    operands = [_as_index(lb), _as_index(ub), _as_index(step)]
    op = cap.emit("scf.for", operands=operands, region_count=1, location=loc)
    body = op.body()
    body.add_arg(INDEX)
    cap.emit_terminator(body, "scf.yield", loc)
    cap.push(state.Frame("for", op, body))
    yield ValueProxy(body.args[0])


def affine_range(lb, ub=None, step=1):
    """range() stand-in that opens an affine.for (literal bounds only)."""
    lb, ub, step = _normalize_range(lb, ub, step)
    for bound in (lb, ub, step):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise InvalidBound(
                f"affine loop bounds must be integer literals, got {bound!r}"
            )
    if ub < lb:
        raise InvalidBound(f"upper bound {ub} is below lower bound {lb}")
    cap = state.active()
    loc = cap.location()
    op = cap.emit("affine.for",
                  attributes={"lower_bound": int_attr(lb),
                              "upper_bound": int_attr(ub),
                              "step": int_attr(step)},
                  region_count=1, location=loc)
    body = op.body()
    body.add_arg(INDEX)
    cap.emit_terminator(body, "scf.yield", loc)
    cap.push(state.Frame("for", op, body))
    yield ValueProxy(body.args[0])


def parallel(lbs, ubs, steps=None):
    """Open an scf.parallel over the given bound tuples."""
    lbs = tuple(lbs)
    ubs = tuple(ubs)
    steps = tuple(steps) if steps is not None else (1,) * len(lbs)
    if not (len(lbs) == len(ubs) == len(steps)) or not lbs:
        raise UnbalancedMarkers(
            "parallel takes equal-length, non-empty bound tuples"
        )
    cap = state.active()
    loc = cap.location()
    operands = [_as_index(v) for v in (*lbs, *ubs, *steps)]
    op = cap.emit("scf.parallel", operands=operands, region_count=1,
                  location=loc)
    body = op.body()
    for _ in lbs:
        body.add_arg(INDEX)
    cap.emit_terminator(body, "scf.yield", loc)
    cap.push(state.Frame("parallel", op, body))
    ivs = tuple(ValueProxy(a) for a in body.args)
    yield ivs if len(ivs) > 1 else ivs[0]


scf_for = scf_range
affine_for = affine_range


def scf_endfor() -> None:
    state.active().pop(("for", "parallel"))


class _IfToken:
    """Opaque truthy token that scf_if returns to the `if` it opens."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return True


_TOKEN = _IfToken()


def scf_if(cond) -> _IfToken:
    if not isinstance(cond, ValueProxy) or cond.type != I1:
        got = cond.type if isinstance(cond, ValueProxy) else type(cond).__name__
        raise TypeMismatch(f"if conditions must be staged i1 values, got {got}")
    cap = state.active()
    loc = cap.location()
    op = cap.emit("scf.if", operands=[cond.value], region_count=1,
                  location=loc)
    then_block = op.regions[0].blocks[0]
    cap.emit_terminator(then_block, "scf.yield", loc)
    cap.push(state.Frame("if", op, then_block))
    return _TOKEN


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
    op.regions.append(Region(op))
    else_block = op.regions[1].blocks[0]
    cap.emit_terminator(else_block, "scf.yield", cap.location())
    frame.block = else_block
    frame.arm = "else"
    frame.arm_ended = False


def scf_endif() -> None:
    cap = state.active()
    frame = cap.pop(("if",))
    if not frame.arm_ended:
        raise UnbalancedMarkers("conditional arm not closed before endif")
