"""The frontend imports on this Python, captures the kernel corpus exactly
(text and source locations), and raises its documented errors."""
import importlib
import os
import pkgutil

import pytest

import staircase
from conftest import golden_text
from staircase import F64, GPUModule, MemRef, parallel, thread_id_x
from staircase.errors import (
    CaptureLeak,
    InvalidBound,
    RankMismatch,
    TypeMismatch,
    UnbalancedMarkers,
)
from staircase.frontend.capture import capture
from staircase.interp import Buffer
from staircase.interp.machine import run
from staircase.ir.core import create_context
from staircase.ir.verify import verify
from staircase.textio import parse_module, print_module


def test_every_module_imports():
    names = [info.name for info in pkgutil.walk_packages(
        staircase.__path__, prefix="staircase.")]
    assert "staircase.frontend.capture" in names
    for name in names:
        importlib.import_module(name)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from staircase import *", namespace)  # noqa: S102
    core = ("Context", "create_context", "create_module", "create_op",
            "register_dialect", "walk", "count_ops", "replace_all_uses_with",
            "erase_op", "move_op", "clone_op", "clone_module", "verify")
    missing = [name for name in (*core, *staircase._FRONTEND)
               if name not in namespace]
    assert not missing


@pytest.mark.parametrize("name", ["ifs", "matmul", "conv2d"])
def test_capture_matches_golden(name):
    import kernels

    assert print_module(getattr(kernels, name).module) == golden_text(f"{name}.sir")


def _locations():
    """One line per op of every kernel in the corpus: kernel, op, file:line."""
    import kernels
    from staircase.frontend.capture import StagedFunction
    from staircase.ir.core import walk

    lines = []
    for name, staged in vars(kernels).items():
        if not isinstance(staged, StagedFunction):
            continue

        def note(op, name=name):
            loc = op.location
            where = f"{os.path.basename(loc.file)}:{loc.line}" if loc else "-"
            lines.append(f"{name} {op.name} {where}")

        walk(staged.module, note)
    return "".join(line + "\n" for line in lines)


def test_capture_keeps_source_locations():
    assert _locations() == golden_text("locations.txt")


# -- errors a capture raises ------------------------------------------------------
# Capture reads each function's source, so these live at module level.


def leak(a: MemRef[(4,), F64]):
    for i in range(4):
        x = a[i]
    a[0] = x


def wrong_rank(a: MemRef[(4,), F64]):
    a[0, 1] = 1.0


def backwards(a: MemRef[(4,), F64]):
    for i in range(4, 2):
        a[i] = 1.0


def float_subscript(a: MemRef[(4,), F64]):
    a[2.5] = 1.0


def store_i1(a: MemRef[(4,), F64]):
    a[0] = a[1] < 1.0


def parallel_arity(a: MemRef[(4,), F64]):
    for i, j in parallel((0, 0), (4,)):
        a[i] = 1.0


class Zero(GPUModule):
    def zero(self, a: MemRef[(8,), F64]):
        a[thread_id_x()] = 0.0


def launch_leak(a: MemRef[(8,), F64]):
    for i in range(2):
        b = MemRef.alloca([8], F64)
    Zero().zero(b, grid_size=[1, 1, 1], block_size=[8, 1, 1])


@pytest.mark.parametrize("fn, range_ctor, error, message", [
    (leak, "scf_for", CaptureLeak,
     "a value defined in an already-closed region is used at {file}:{line3}"),
    (wrong_rank, "scf_for", RankMismatch,
     "memref<4xf64> has rank 1, got 2 index(es)"),
    (backwards, "affine_for", InvalidBound,
     "upper bound 2 is below lower bound 4"),
    (float_subscript, "scf_for", TypeMismatch,
     "cannot index a memref with 2.5"),
    (store_i1, "scf_for", TypeMismatch,
     "cannot store i1 into memref<4xf64>"),
    (parallel_arity, "scf_for", UnbalancedMarkers,
     "parallel takes equal-length, non-empty bound tuples"),
    (launch_leak, "scf_for", CaptureLeak,
     "a value defined in an already-closed region is used at {file}:{line3}"),
], ids=["leak", "rank", "affine-bound", "float-subscript", "store-i1",
        "parallel-arity", "launch-leak"])
def test_capture_errors_keep_type_and_message(fn, range_ctor, error, message):
    code = fn.__code__
    message = message.format(file=code.co_filename, line3=code.co_firstlineno + 3)
    with pytest.raises(error) as info:
        capture(fn, range_ctor=range_ctor)
    assert type(info.value) is error
    assert str(info.value) == message


# -- GPU kernels --------------------------------------------------------------------


def test_gpu_module_captures_and_runs():
    import kernels

    module = kernels.add_one.module
    assert verify(module) == []
    text = print_module(module)
    assert print_module(parse_module(text, create_context())) == text
    buf = Buffer((8,), "f64", [float(k) for k in range(8)])
    run(module, "add_one", [buf], "gpu_emulated")
    assert buf.tolist() == [k + 1.0 for k in range(8)]
