"""Run entry points: argument checking, execution, stats assembly.

``run`` compiles the module to Python source (``codegen.lower_module``)
and calls the entry function through ``_engine``. What a run means is
defined by the interpreter in ``tests/definterp.py``, a recursive walk over
the ops: ``run`` is tested to return the same results, leave the same
buffers, raise the same errors and count the same ExecStats.
"""
from __future__ import annotations

import time

from staircase.errors import (
    ArityMismatch,
    MissingMain,
    ModeUnsupported,
    TypeMismatch,
)
from staircase.interp import codegen
from staircase.interp.buffer import Buffer, to_f32, wrap_int
from staircase.interp.stats import ExecStats, cost, fold_tally, new_tally
from staircase.ir.core import Operation
from staircase.ir.verify import verify_or_raise

# The evaluator ``run`` calls, as a module global so it can be wrapped.
_engine = codegen

# Generated code is plain Python: there is no compiled extension to select.
ENGINE_NAME = "pure"

_MODES = ("sequential", "worksharing", "gpu_emulated")


def normalize_mode(mode, workers: int) -> tuple:
    if mode not in _MODES:
        raise ModeUnsupported(
            f"unknown mode {mode!r}; expected one of {_MODES}"
        )
    if workers < 1:
        raise ModeUnsupported(f"workers must be at least 1, got {workers}")
    return mode, workers


def _entry(program: dict, func_name: str):
    if func_name not in program or program[func_name].is_kernel:
        raise MissingMain(f"no function @{func_name} in this module")
    return program[func_name]


def check_args(name: str, param_types, args) -> list:
    """The values @name runs on: args checked against its parameter types."""
    if len(args) != len(param_types):
        raise ArityMismatch(
            f"@{name} takes {len(param_types)} arguments, got {len(args)}"
        )
    values = []
    for i, (ty, arg) in enumerate(zip(param_types, args)):
        if ty.kind == "memref":
            if not isinstance(arg, Buffer):
                raise TypeMismatch(
                    f"argument {i} of @{name} is {ty}, needs a Buffer"
                )
            if arg.shape != ty.shape or arg.dtype != ty.element.kind:
                raise TypeMismatch(
                    f"argument {i} of @{name} is {ty}, got {arg!r}"
                )
            values.append(arg)
        elif ty.kind in ("f32", "f64"):
            if isinstance(arg, bool) or not isinstance(arg, (int, float)):
                raise TypeMismatch(
                    f"argument {i} of @{name} is {ty}, needs a number"
                )
            v = float(arg)
            values.append(to_f32(v) if ty.kind == "f32" else v)
        elif ty.kind == "i1":
            if not isinstance(arg, int):
                raise TypeMismatch(
                    f"argument {i} of @{name} is i1, needs an integer"
                )
            values.append(1 if arg else 0)
        else:  # i32/i64/index
            if isinstance(arg, bool) or not isinstance(arg, int):
                raise TypeMismatch(
                    f"argument {i} of @{name} is {ty}, needs an integer"
                )
            width = "i32" if ty.kind == "i32" else "i64"
            values.append(wrap_int(arg, width))
    return values


def run(module: Operation, func_name: str, args, mode="sequential",
        workers: int = 1):
    """Execute @func_name over args; returns (results, ExecStats).

    Verifies the module first. A module `run_pipeline` has rewritten is
    verified already, so it may go to `call(codegen.lower_module(m), ...)`."""
    mode, workers = normalize_mode(mode, workers)
    verify_or_raise(module)
    return call(codegen.lower_module(module), func_name, args, mode, workers)


def call(program: dict, func_name: str, args, mode: str, workers: int):
    """Run @func_name of a compiled module; returns (results, ExecStats)."""
    func = _entry(program, func_name)
    values = check_args(func.name, func.param_types, args)
    tally = new_tally()
    ctx = _engine.ExecContext(mode)
    start = time.perf_counter()
    rets = _engine.run_tape(func, values, tally, ctx)
    wall = time.perf_counter() - start
    return tuple(rets or ()), fold_tally(tally, wall, mode, workers)


__all__ = [
    "ENGINE_NAME",
    "run",
    "cost",
    "ExecStats",
]
