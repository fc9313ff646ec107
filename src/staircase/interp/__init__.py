"""Interpreter: buffers, one run entry point over sequential, worksharing
and gpu_emulated modes, and the static cost model."""
from staircase.interp.buffer import Buffer, buffer_from_json, buffer_to_json
from staircase.interp.stats import DEFAULT_WEIGHTS, ExecStats, cost

__all__ = [
    "Buffer",
    "buffer_from_json",
    "buffer_to_json",
    "ExecStats",
    "DEFAULT_WEIGHTS",
    "cost",
    "run",
]


def __getattr__(name):
    if name == "run":
        from staircase.interp.machine import run

        return run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
