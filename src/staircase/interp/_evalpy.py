"""Reference tape evaluator: the semantics the generated code must match.

``run`` executes Python source generated per module (``codegen``); this
module interprets the instruction tapes of ``tape.compile_tapes`` one
instruction at a time. It is the oracle the generated code is tested
against (``machine.run_reference``) and the engine the race checker
records on, since it sees every memory access. The scalar helpers and
error raisers below are shared with the generated code, so both report
the same errors with the same messages.

worksharing:N runs as sequential mode does; only its worker count is
recorded. Running the points of a parallel loop concurrently would need
``check_races`` as its guard, and a gain over sequential mode that threads
under the GIL do not give.
"""
from __future__ import annotations

from itertools import product

from staircase.errors import InvalidBound, ModeUnsupported, OutOfBounds
from staircase.interp.buffer import Buffer, fdiv, to_f32, wrap_int
from staircase.interp.tape import (
    ALLOC,
    BINF,
    BINI,
    CALL,
    CAST,
    CMPF,
    CMPI,
    CONST,
    DEALLOC,
    GPUID,
    IF_FALSE,
    JUMP,
    LAUNCH,
    LOAD,
    LOOP_INIT_A,
    LOOP_INIT_S,
    LOOP_NEXT_I,
    LOOP_NEXT_R,
    LOOP_TEST_I,
    LOOP_TEST_R,
    PARALLEL,
    RETURN,
    RETURN_GPU,
    STORE,
)


def _where(location) -> str:
    return f" at {location.file}:{location.line}" if location else ""


def out_of_bounds(idx: int, extent: int, buf: Buffer, location) -> None:
    raise OutOfBounds(
        f"index {idx} out of bounds for extent {extent} of {buf!r}"
        f"{_where(location)}"
    )


def bad_loop_step() -> None:
    raise InvalidBound("loop step must be positive at runtime")


def bad_parallel_step() -> None:
    raise InvalidBound("scf.parallel steps must be positive at runtime")


def launch_outside_gpu(mode: str, location) -> None:
    raise ModeUnsupported(
        f"gpu.launch_func needs gpu_emulated mode, not {mode!r}"
        f"{_where(location)}"
    )


class ExecContext:
    """Per-run execution knobs shared down the call tree."""

    __slots__ = ("mode", "workers", "recorder", "gpu_ids", "depth")

    def __init__(self, mode="sequential", workers=1, recorder=None):
        self.mode = mode
        self.workers = workers
        self.recorder = recorder
        self.gpu_ids = None
        self.depth = 0


def run_tape(program, code, regs, tally, ctx):
    """Execute one tape; returns the RETURN operands (or None for bodies)."""
    rec = ctx.recorder
    pc = 0
    n = len(code)
    while pc < n:
        ins = code[pc]
        op = ins[0]
        tally[op] += 1
        if op == LOAD:
            buf = regs[ins[2]]
            off = 0
            for r, extent, stride in zip(ins[3], buf.shape, buf.strides):
                i = regs[r]
                if i < 0 or i >= extent:
                    out_of_bounds(i, extent, buf, ins[4])
                off += i * stride
            regs[ins[1]] = buf.data[off]
            if rec is not None:
                rec.on_read(buf, off)
        elif op == STORE:
            buf = regs[ins[2]]
            off = 0
            for r, extent, stride in zip(ins[3], buf.shape, buf.strides):
                i = regs[r]
                if i < 0 or i >= extent:
                    out_of_bounds(i, extent, buf, ins[4])
                off += i * stride
            v = regs[ins[1]]
            if buf.dtype[0] == "i":
                v = wrap_int(v, buf.dtype)
            buf.data[off] = v
            if rec is not None:
                rec.on_write(buf, off)
        elif op == BINF:
            a = regs[ins[3]]
            b = regs[ins[4]]
            f = ins[2]
            if f == 0:
                r = a + b
            elif f == 1:
                r = a - b
            elif f == 2:
                r = a * b
            else:
                r = fdiv(a, b)
            regs[ins[1]] = to_f32(r) if ins[5] else r
        elif op == BINI:
            a = regs[ins[3]]
            b = regs[ins[4]]
            f = ins[2]
            if f == 0:
                r = a + b
            elif f == 1:
                r = a - b
            else:
                r = a * b
            regs[ins[1]] = wrap_int(r, ins[5])
        elif op == LOOP_TEST_R:
            if regs[ins[1]] >= regs[ins[2]]:
                pc = ins[3]
                continue
            tally[-1] += 1
        elif op == LOOP_TEST_I:
            if regs[ins[1]] >= ins[2]:
                pc = ins[3]
                continue
            tally[-1] += 1
        elif op == LOOP_NEXT_R:
            step = regs[ins[2]]
            if step <= 0:
                bad_loop_step()
            regs[ins[1]] += step
            pc = ins[3]
            continue
        elif op == LOOP_NEXT_I:
            regs[ins[1]] += ins[2]
            pc = ins[3]
            continue
        elif op == LOOP_INIT_S:
            regs[ins[1]] = regs[ins[2]]
        elif op == LOOP_INIT_A:
            regs[ins[1]] = ins[2]
        elif op == CONST:
            regs[ins[1]] = ins[2]
        elif op == CMPF:
            a = regs[ins[3]]
            b = regs[ins[4]]
            p = ins[2]
            if p == 0:
                r = a == b
            elif p == 1:
                r = a == a and b == b and a != b
            elif p == 2:
                r = a < b
            elif p == 3:
                r = a <= b
            elif p == 4:
                r = a > b
            else:
                r = a >= b
            regs[ins[1]] = r
        elif op == CMPI:
            a = regs[ins[3]]
            b = regs[ins[4]]
            p = ins[2]
            if p == 0:
                r = a == b
            elif p == 1:
                r = a != b
            elif p == 2:
                r = a < b
            elif p == 3:
                r = a <= b
            elif p == 4:
                r = a > b
            else:
                r = a >= b
            regs[ins[1]] = r
        elif op == CAST:
            v = regs[ins[2]]
            regs[ins[1]] = wrap_int(v, "i32") if ins[3] == "i32" else v
        elif op == IF_FALSE:
            if not regs[ins[1]]:
                pc = ins[2]
                continue
        elif op == JUMP:
            pc = ins[1]
            continue
        elif op == ALLOC:
            regs[ins[1]] = Buffer(ins[2], ins[3])
        elif op == DEALLOC:
            pass
        elif op == PARALLEL:
            _run_parallel(program, ins, regs, tally, ctx)
        elif op == CALL:
            callee = program.funcs[ins[2]]
            sub_regs = [None] * callee.n_regs
            for dst, src in zip(callee.arg_regs, ins[3]):
                sub_regs[dst] = regs[src]
            rets = run_tape(program, callee.code, sub_regs, tally, ctx)
            for dst, v in zip(ins[1], rets or ()):
                regs[dst] = v
        elif op == RETURN or op == RETURN_GPU:
            return tuple(regs[r] for r in ins[1])
        elif op == LAUNCH:
            _run_launch(program, ins, regs, tally, ctx)
        elif op == GPUID:
            ids = ctx.gpu_ids
            regs[ins[1]] = ids[ins[2] + 3] if ins[3] else ids[ins[2]]
        pc += 1
    return None


def _spaces(ins, regs):
    lbs = [regs[r] for r in ins[2]]
    ubs = [regs[r] for r in ins[3]]
    steps = [regs[r] for r in ins[4]]
    if any(s <= 0 for s in steps):
        bad_parallel_step()
    return [range(l, u, s) for l, u, s in zip(lbs, ubs, steps)]


def _run_parallel(program, ins, regs, tally, ctx):
    sub = ins[1]
    spaces = _spaces(ins, regs)
    base = [None] * sub.n_regs
    for outer, inner in sub.captures:
        base[inner] = regs[outer]
    index_regs = sub.index_regs
    rec = ctx.recorder
    outermost = ctx.depth == 0
    ctx.depth += 1
    try:
        sub_regs = list(base)
        for point in product(*spaces):
            for k, r in enumerate(index_regs):
                sub_regs[r] = point[k]
            tally[-1] += 1
            if rec is not None and outermost:
                rec.begin_point(point)
            run_tape(program, sub.code, sub_regs, tally, ctx)
    finally:
        ctx.depth -= 1
        if rec is not None and outermost:
            rec.end_parallel()


def _run_launch(program, ins, regs, tally, ctx):
    if ctx.mode != "gpu_emulated":
        launch_outside_gpu(ctx.mode, ins[5])
    kernel = program.funcs[ins[1]]
    grid = [regs[r] for r in ins[2]]
    blocks = [regs[r] for r in ins[3]]
    args = [regs[r] for r in ins[4]]
    saved = ctx.gpu_ids
    try:
        for bx in range(grid[0]):
            for by in range(grid[1]):
                for bz in range(grid[2]):
                    for tx in range(blocks[0]):
                        for ty in range(blocks[1]):
                            for tz in range(blocks[2]):
                                ctx.gpu_ids = (bx, by, bz, tx, ty, tz)
                                tally[-1] += 1
                                k_regs = [None] * kernel.n_regs
                                for dst, v in zip(kernel.arg_regs, args):
                                    k_regs[dst] = v
                                run_tape(program, kernel.code, k_regs,
                                         tally, ctx)
    finally:
        ctx.gpu_ids = saved
