"""Interpreter: buffers, one run entry point over sequential, worksharing
and gpu_emulated modes, the static cost model, and the race check."""
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
    "check_races",
]


def __getattr__(name):
    if name == "run":
        from staircase.interp.machine import run

        return run
    if name == "check_races":
        from staircase.interp.races import check_races

        return check_races
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
