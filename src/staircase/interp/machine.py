"""Run entry points: argument checking, execution, stats assembly.

``run`` compiles the module to Python source (``tape.compile_module``) and
calls the entry function through ``_engine``; ``run_reference`` does the
same run on the tape evaluator ``_evalpy``, the oracle the generated code
is tested against. Both return identical results and ExecStats.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from staircase.errors import (
    ArityMismatch,
    MissingMain,
    ModeUnsupported,
    TypeMismatch,
)
from staircase.interp import _evalpy, codegen
from staircase.interp.buffer import Buffer, to_f32, wrap_int
from staircase.interp.stats import ExecStats, cost, fold_tally, new_tally
from staircase.interp.tape import Program, compile_module, compile_tapes
from staircase.ir.core import Operation
from staircase.ir.verify import verify_or_raise

# The evaluator ``run`` calls, as a module global so it can be wrapped.
_engine = codegen

# Generated code is plain Python: there is no compiled extension to select.
ENGINE_NAME = "pure"

_MODES = ("sequential", "worksharing", "gpu_emulated")


@dataclass(frozen=True)
class ExecMode:
    kind: str = "sequential"
    workers: int = 1


def _normalize_mode(mode, workers: int) -> tuple:
    if isinstance(mode, ExecMode):
        mode, workers = mode.kind, mode.workers
    if mode not in _MODES:
        raise ModeUnsupported(
            f"unknown mode {mode!r}; expected one of {_MODES}"
        )
    if workers < 1:
        raise ModeUnsupported(f"workers must be at least 1, got {workers}")
    return mode, workers


def _entry(program: Program, func_name: str):
    if func_name not in program or program[func_name].is_kernel:
        raise MissingMain(f"no function @{func_name} in this module")
    return program[func_name]


def _check_args(func, args) -> list:
    if len(args) != len(func.param_types):
        raise ArityMismatch(
            f"@{func.name} takes {len(func.param_types)} arguments, "
            f"got {len(args)}"
        )
    values = []
    for i, (ty, arg) in enumerate(zip(func.param_types, args)):
        if ty.kind == "memref":
            if not isinstance(arg, Buffer):
                raise TypeMismatch(
                    f"argument {i} of @{func.name} is {ty}, needs a Buffer"
                )
            if arg.shape != ty.shape or arg.dtype != ty.element.kind:
                raise TypeMismatch(
                    f"argument {i} of @{func.name} is {ty}, got {arg!r}"
                )
            values.append(arg)
        elif ty.kind in ("f32", "f64"):
            if isinstance(arg, bool) or not isinstance(arg, (int, float)):
                raise TypeMismatch(
                    f"argument {i} of @{func.name} is {ty}, needs a number"
                )
            v = float(arg)
            values.append(to_f32(v) if ty.kind == "f32" else v)
        elif ty.kind == "i1":
            values.append(1 if arg else 0)
        else:  # i32/i64/index
            if isinstance(arg, bool) or not isinstance(arg, int):
                raise TypeMismatch(
                    f"argument {i} of @{func.name} is {ty}, needs an integer"
                )
            width = "i32" if ty.kind == "i32" else "i64"
            values.append(wrap_int(arg, width))
    return values


def run(module: Operation, func_name: str, args, mode="sequential",
        workers: int = 1):
    """Execute @func_name over args; returns (results, ExecStats)."""
    mode, workers = _normalize_mode(mode, workers)
    verify_or_raise(module)
    program = compile_module(module)
    func = _entry(program, func_name)
    values = _check_args(func, args)
    tally = new_tally()
    ctx = _engine.ExecContext(mode, workers)
    start = time.perf_counter()
    rets = _engine.run_tape(program, func, values, tally, ctx)
    wall = time.perf_counter() - start
    return tuple(rets or ()), fold_tally(tally, wall, mode, workers)


def run_reference(module: Operation, func_name: str, args,
                  mode="sequential", workers: int = 1, recorder=None):
    """``run`` on the tape evaluator; ``recorder`` sees every access."""
    mode, workers = _normalize_mode(mode, workers)
    verify_or_raise(module)
    program = compile_tapes(module)
    tape = _entry(program, func_name)
    regs = [None] * tape.n_regs
    for reg, v in zip(tape.arg_regs, _check_args(tape, args)):
        regs[reg] = v
    tally = new_tally()
    ctx = _evalpy.ExecContext(mode, workers, recorder)
    start = time.perf_counter()
    rets = _evalpy.run_tape(program, tape.code, regs, tally, ctx)
    wall = time.perf_counter() - start
    return tuple(rets or ()), fold_tally(tally, wall, mode, workers)


def run_worksharing(module: Operation, func_name: str, args,
                    workers: int = 2):
    return run(module, func_name, args, mode="worksharing", workers=workers)


__all__ = [
    "ExecMode",
    "ENGINE_NAME",
    "run",
    "run_reference",
    "run_worksharing",
    "cost",
    "ExecStats",
]
