"""The frontend imports on this Python, captures the kernel corpus exactly
(text and source locations), and raises its documented errors."""
import importlib
import math
import os
import pkgutil
import traceback
from itertools import chain

import pytest

import definterp
import staircase
from conftest import golden_text
from staircase import (
    F32,
    F64,
    GPUModule,
    I64,
    MemRef,
    affine_range,
    block_id_y,
    block_id_z,
    parallel,
    scf_else,
    scf_endif,
    scf_if,
    scf_range,
    spirv,
    thread_id_x,
    thread_id_y,
    thread_id_z,
)
from staircase.errors import (
    ArityMismatch,
    CaptureError,
    CaptureLeak,
    InvalidBound,
    RankMismatch,
    TypeMismatch,
    UnbalancedMarkers,
    UnknownSymbol,
    UnsupportedConstruct,
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
            "register_dialect", "count_ops", "replace_all_uses_with",
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

    lines = []
    for name, staged in vars(kernels).items():
        if not isinstance(staged, StagedFunction):
            continue
        module = staged.module
        for op in chain((module,), module.walk_nested()):
            loc = op.location
            where = f"{os.path.basename(loc.file)}:{loc.line}" if loc else "-"
            lines.append(f"{name} {op.name} {where}")
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


def host_return(x: F64):
    return 1.0


# One function per rejection in frontend/astrewrite.py; each message names
# the line of the statement, or of the def, it rejects.

def banned_statement(a: MemRef[(4,), F64]):
    while a[0] < 1.0:
        a[0] = 1.0


def banned_expression(x: F64):
    y = x if x else 1.0


def chained(x: F64):
    if 0.0 < x < 1.0:
        pass


def unary(x: F64):
    y = -x


def early_return(x: F64):
    if x < 1.0:
        return


def for_else(a: MemRef[(4,), F64]):
    for i in range(4):
        a[i] = 1.0
    else:
        pass


def host_loop(a: MemRef[(4,), F64]):
    for i in [0, 1]:
        a[i] = 1.0


def subscript_target(a: MemRef[(4,), F64]):
    for a[0] in range(4):
        pass


def two_targets(x: F64):
    y = z = x


def attribute_target(a: MemRef[(4,), F64]):
    a.shape += 1.0


def floor_div(x: F64):
    x //= 2.0


def bare_expression(x: F64):
    x


def annotated(x: F64):
    y: F64 = x


def star_args(*xs: F64):
    pass


def host_thread_id(a: MemRef[(8,), F64]):
    a[thread_id_x()] = 0.0


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
    (host_return, "scf_for", UnsupportedConstruct,
     "only staged values can be returned from a captured function"),
    (banned_statement, "scf_for", UnsupportedConstruct,
     "line {line1}: while loops cannot be staged"),
    (banned_expression, "scf_for", UnsupportedConstruct,
     "line {line1}: conditional expressions cannot be staged"),
    (chained, "scf_for", UnsupportedConstruct,
     "line {line1}: chained comparisons cannot be staged"),
    (unary, "scf_for", UnsupportedConstruct,
     "line {line1}: unary operators on staged values"),
    (early_return, "scf_for", UnsupportedConstruct,
     "line {line2}: return is only allowed as the final statement"),
    (for_else, "scf_for", UnsupportedConstruct,
     "line {line1}: for/else cannot be staged"),
    (host_loop, "scf_for", UnsupportedConstruct,
     "line {line1}: loops must iterate over range() or parallel()"),
    (subscript_target, "scf_for", UnsupportedConstruct,
     "line {line1}: loop targets must be plain names"),
    (two_targets, "scf_for", UnsupportedConstruct,
     "line {line1}: assignment targets must be a name or a subscript"),
    (attribute_target, "scf_for", UnsupportedConstruct,
     "line {line1}: augmented targets must be a name or a subscript"),
    (floor_div, "scf_for", UnsupportedConstruct,
     "line {line1}: only + - * / augmented assignment can be staged"),
    (bare_expression, "scf_for", UnsupportedConstruct,
     "line {line1}: expression statements must be calls"),
    (annotated, "scf_for", UnsupportedConstruct,
     "line {line1}: AnnAssign cannot be staged"),
    (star_args, "scf_for", UnsupportedConstruct,
     "line {line0}: only plain positional parameters can be staged"),
    (host_thread_id, "scf_for", UnsupportedConstruct,
     "thread_id_x() is only valid inside a GPU kernel body"),
], ids=["leak", "rank", "affine-bound", "float-subscript", "store-i1",
        "parallel-arity", "launch-leak", "host-return", "banned-statement",
        "banned-expression", "chained", "unary", "early-return", "for-else",
        "host-loop", "subscript-target", "two-targets", "attribute-target",
        "floor-div", "bare-expression", "annotated", "star-args",
        "id-outside-a-kernel"])
def test_capture_errors_keep_type_and_message(fn, range_ctor, error, message):
    code = fn.__code__
    first = code.co_firstlineno
    message = message.format(file=code.co_filename, line0=first,
                             line1=first + 1, line2=first + 2, line3=first + 3)
    with pytest.raises(error) as info:
        capture(fn, range_ctor=range_ctor)
    assert type(info.value) is error
    assert str(info.value) == message


# -- paths no other test reaches: each runs, or is refused at its line -------------
# Capture reads each function's source, so these live at module level.


def host_number_stored(a: MemRef[16, F32]):
    for i in range(2, 4):
        a[i] = -2.5     # a negated literal is no constant(): stored as f32


def through_the_heap(a: MemRef[(4,), F64]):
    b = MemRef.alloc([4], F64)
    for i in range(4):
        b[i] = a[i] * 2.0
    for i in range(4):
        a[i] = b[i] + a[i]


class IdsYZ(GPUModule):
    def mark(self, a: MemRef[(2, 2, 2, 2), F64]):
        a[block_id_y(), block_id_z(), thread_id_y(), thread_id_z()] = 1.0


def launch_ids_yz(a: MemRef[(2, 2, 2, 2), F64]):
    IdsYZ().mark(a, grid_size=[1, 2, 2], block_size=[1, 2, 2])


def step_not_positive(a: MemRef[(4,), F64]):
    for i in range(3, 0, -1):
        a[i] = 1.0


def i64_bound(a: MemRef[(4,), F64], n: I64):
    for i in range(n):
        a[i] = 1.0


def f64_condition(x: F64):
    if x:
        pass


def else_first(x: F64):
    scf_else()


def endif_in_the_arm(x: F64):
    scf_if(x < 1.0)
    scf_endif()


def host_truth(x: F64):
    y = bool(x)


def integer_division(x: I64):
    y = x / 2


def scalar_subscript(x: F64):
    y = x[0]


def nested_capture(x: F64):
    capture(one_result)


def bare_gpu_module(x: F64):
    GPUModule()


class NoKernels(GPUModule):
    pass


def no_kernels(x: F64):
    NoKernels()


def two_grid_sizes(a: MemRef[(8,), F64]):
    Zero().zero(a, grid_size=[1, 1], block_size=[8, 1, 1])


SHARED = Zero()


def shared_instance(a: MemRef[(8,), F64]):
    SHARED.zero(a, grid_size=[1, 1, 1], block_size=[8, 1, 1])


class Returns(GPUModule):
    def first(self, a: MemRef[(8,), F64]):
        return a[0]


def kernel_returns(a: MemRef[(8,), F64]):
    Returns().first(a, grid_size=[1, 1, 1], block_size=[8, 1, 1])


# (function, range_ctor, and what it does: a list of the buffers a
# gpu_emulated run over buffers of 1, 2, ... leaves, or the error type, its
# message and the line it is raised at, counted from the def)
FRONTEND_PATHS = {
    "host-number-stored": (host_number_stored, affine_range,
                           [[1.0, 2.0, -2.5, -2.5] + [float(k) for k in range(5, 17)]]),
    "through-the-heap": (through_the_heap, scf_range, [[3.0, 6.0, 9.0, 12.0]]),
    "ids-y-and-z": (launch_ids_yz, "scf_for", [[1.0] * 16]),
    "step-not-positive": (step_not_positive, "scf_for", (
        UnsupportedConstruct, "loop steps must be positive", 1)),
    "i64-bound": (i64_bound, "scf_for", (
        TypeMismatch, "loop bounds must be index values, got i64", 1)),
    "f64-condition": (f64_condition, "scf_for", (
        TypeMismatch, "if conditions must be staged i1 values, got f64", 1)),
    "else-first": (else_first, "scf_for", (
        UnbalancedMarkers, "else marker without a finished then arm", 1)),
    "endif-in-the-arm": (endif_in_the_arm, "scf_for", (
        UnbalancedMarkers, "conditional arm not closed before endif", 2)),
    "host-truth": (host_truth, "scf_for", (
        UnsupportedConstruct, "a staged value has no host truth value; "
        "conditions must go through the if rewrite", 1)),
    "integer-division": (integer_division, "scf_for", (
        TypeMismatch, "no '/' operation on i64", 1)),
    "scalar-subscript": (scalar_subscript, "scf_for", (
        TypeMismatch, "f64 values are not subscriptable", 1)),
    "nested-capture": (nested_capture, "scf_for", (
        CaptureError, "captures do not nest", 1)),
    "bare-gpu-module": (bare_gpu_module, "scf_for", (
        TypeError, "subclass GPUModule and define kernel methods", 1)),
    "no-kernels": (no_kernels, "scf_for", (
        UnsupportedConstruct, "NoKernels defines no kernel methods", 1)),
    "two-grid-sizes": (two_grid_sizes, "scf_for", (
        ArityMismatch, "grid_size must be three host integers", 1)),
    "instance-reused": (shared_instance, "scf_for", (
        UnknownSymbol, "gpu.module @Zero was captured into a different module; "
        "create a fresh instance per capture", 1)),
    "kernel-returns": (kernel_returns, "scf_for", (
        UnsupportedConstruct, "GPU kernels cannot return values", 1)),
}


@pytest.mark.parametrize("case", FRONTEND_PATHS)
def test_frontend_path_runs_or_is_refused_at_its_line(case):
    """A range_ctor passed as a callable (nelli's spelling), MemRef[16, F32],
    MemRef.alloc, the y and z ids and a host number stored into a memref
    capture and run as the reference does; each refusal raises its error
    type and message at the line of the function that asks for it."""
    fn, range_ctor, want = FRONTEND_PATHS[case]
    if isinstance(want, list):
        func = capture(fn, range_ctor=range_ctor)
        module = func.parent.parent_op
        args = [Buffer(a.type.shape, a.type.element.kind,
                       [float(k) for k in range(1, math.prod(a.type.shape) + 1)])
                for a in func.body().args]
        ref = [buf.copy() for buf in args]
        run(module, fn.__name__, args, "gpu_emulated")
        definterp.run(module, fn.__name__, ref, "gpu_emulated")
        assert args == ref and [buf.tolist() for buf in args] == want
        return
    error, message, line = want
    with pytest.raises(error) as info:
        # twice: the second capture meets an instance the first one bound
        capture(fn, range_ctor=range_ctor)
        capture(fn, range_ctor=range_ctor)
    assert type(info.value) is error
    assert str(info.value) == message
    raised_at = [at for frame, at in traceback.walk_tb(info.tb)
                 if frame.f_code.co_name == fn.__name__][-1]
    assert raised_at == fn.__code__.co_firstlineno + line


# -- GPU kernels --------------------------------------------------------------------

def test_gpu_ids_are_bound_like_every_dsl_name():
    # a host body and a kernel body see one table of DSL names, the ids in it
    from staircase.frontend.capture import _STAGED_BINDINGS

    ids = [f"{kind}_id_{dim}" for kind in ("block", "thread") for dim in "xyz"]
    assert all(_STAGED_BINDINGS[name] is getattr(staircase, name) for name in ids)



def test_gpu_module_captures_and_runs():
    import kernels

    module = kernels.add_one.module
    assert verify(module) == []
    text = print_module(module)
    assert print_module(parse_module(text, create_context())) == text
    buf = Buffer((8,), "f64", [float(k) for k in range(8)])
    run(module, "add_one", [buf], "gpu_emulated")
    assert buf.tolist() == [k + 1.0 for k in range(8)]


# -- what a capture returns, and the operators it stages ----------------------------


def one_result(x: F64):
    return 3.0 * x


def host_numbers(x: F64):
    return 1.0 + x, 2.0 - x, 3.0 * x, 1.0 / x, x - 0.5, x / 2.0


def compared_f64(x: F64, y: F64):
    return x < y, x <= y, x > y, x >= y, x == y, x != y


def compared_i64(x: I64, y: I64):
    return x < y, x <= y, x > y, x >= y, x == y, x != y


@pytest.mark.parametrize("fn, args, results", [
    (one_result, [2.0], (6.0,)),
    (host_numbers, [4.0], (5.0, -2.0, 12.0, 0.25, 3.5, 2.0)),
    (compared_f64, [1.0, 2.0], (1, 1, 0, 0, 0, 1)),
    (compared_f64, [2.0, 2.0], (0, 1, 0, 1, 1, 0)),
    (compared_i64, [3, 2], (0, 0, 1, 1, 0, 1)),
    (compared_i64, [2, 2], (0, 1, 0, 1, 1, 0)),
])
def test_captured_results_agree_with_the_reference(fn, args, results):
    """A host number on either side of an operator becomes a constant of
    the staged operand's type; a tuple returns one value per element."""
    module = capture(fn).parent.parent_op
    got, _ = run(module, fn.__name__, args)
    want, _ = definterp.run(module, fn.__name__, args)
    assert tuple(got) == tuple(want) == results


class Tagged(GPUModule):
    def zero(self, a: MemRef[(8,), F64]):
        a[thread_id_x()] = 0.0

    def one(self, a: MemRef[(8,), F64]):
        a[thread_id_x()] = 1.0


def tagged(a: MemRef[(8,), F64]):
    kernels = Tagged(func_attributes={
        "spirv.entry_point_abi": spirv.entry_point_abi([4, 1, 1])})
    kernels.zero(a, grid_size=[1, 1, 1], block_size=[8, 1, 1])
    kernels.one(a, grid_size=[1, 1, 1], block_size=[4, 1, 1])


def test_gpu_func_attributes_land_on_every_kernel():
    module = capture(tagged).parent.parent_op
    funcs = [op for op in module.walk_nested() if op.name == "gpu.func"]
    assert [f.attributes["sym_name"].value for f in funcs] == ["zero", "one"]
    for func in funcs:
        abi = func.attributes["spirv.entry_point_abi"]
        assert abi == spirv.entry_point_abi([4, 1, 1])
    text = print_module(module)
    assert print_module(parse_module(text, create_context())) == text
    buf = Buffer((8,), "f64", [5.0] * 8)
    want = Buffer((8,), "f64", [5.0] * 8)
    run(module, "tagged", [buf], "gpu_emulated")
    definterp.run(module, "tagged", [want], "gpu_emulated")
    assert buf == want
    assert buf.tolist() == [1.0] * 4 + [0.0] * 4


# -- names a capture reads from outside the function -------------------------------

SCALE_IR = """\
module {
  func.func @scale(%arg0: memref<4xf64>, %arg1: f64, %arg2: index) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    scf.for %arg3 = %0 to %arg2 step %1 {
      %2 = memref.load %arg0[%arg3] : memref<4xf64>
      %3 = arith.mulf %2, %arg1 : f64
      memref.store %3, %arg0[%arg3] : memref<4xf64>
    }
    return
  }
}
"""

FILL_IR = """\
module {
  func.func @fill(%arg0: memref<8xf64>) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 5 : index
    %2 = arith.constant 1 : index
    scf.for %arg1 = %0 to %1 step %2 {
      %3 = arith.constant 1.0 : f64
      memref.store %3, %arg0[%arg1] : memref<8xf64>
    }
    return
  }
}
"""


def test_string_annotations_are_read_in_the_functions_globals():
    import postponed_kernels

    assert postponed_kernels.scale.__annotations__["a"] == "MemRef[(4,), F64]"
    module = capture(postponed_kernels.scale).parent.parent_op
    assert print_module(module) == SCALE_IR
    buf = Buffer((4,), "f64", [1.0, 2.0, 3.0, 4.0])
    run(module, "scale", [buf, 2.0, 3])
    assert buf.tolist() == [2.0, 4.0, 6.0, 4.0]


def _filler(n):
    def fill(a: MemRef[(8,), F64]):
        for i in range(n):
            a[i] = 1.0
    return fill


def test_kernel_built_in_a_function_reads_its_enclosing_int():
    fill = _filler(5)
    assert fill.__code__.co_freevars == ("n",)
    module = capture(fill).parent.parent_op
    assert print_module(module) == FILL_IR
    buf = Buffer((8,), "f64")
    run(module, "fill", [buf])
    assert buf.tolist() == [1.0] * 5 + [0.0] * 3
