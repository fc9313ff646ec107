"""The generated-code evaluator against the definitional interpreter.

``run`` executes Python source generated per module; ``definterp.run``
walks the ops recursively and defines what they mean. On every input
below, in sequential, worksharing:2 and gpu_emulated modes, both must
leave the same buffers, return the same results and count the same
ExecStats, or raise the same exception type with the same message and
leave the same buffers behind. Where a worksharing:2 run repeats a
sequential one, it is checked against the sequential reference: the
definitional interpreter reads the mode only in the stats and at
gpu.launch_func, which both modes refuse with a message naming the mode.
"""
import ast
import collections
import functools
import hashlib
import itertools
import math
import os
import re
import sys
from array import array
from unittest import mock

import pytest

import definterp
import bench_digests
from bench_digests import generated_source as _source  # what ``run`` executes
from conftest import by_bits, golden_path
from irgen import (
    JAM_BREAKS,
    deep_parallel_module,
    index_module,
    jam_module,
    long_block_module,
    random_inputs,
    random_module,
    slice_inputs,
    slice_module,
)
from staircase.errors import (
    ArityMismatch,
    OutOfBounds,
    PassFailure,
    TypeMismatch,
    UnknownOperation,
)
from staircase.interp import Buffer, codegen
from staircase.interp.buffer import copy_buffers, static_bounds, wrap_int
from staircase.interp.codegen import lower_module, module_functions
from staircase.interp.machine import call, run
from staircase.ir.core import Location, Operation, clone_module, create_context
from staircase.passes import run_pipeline
from staircase.textio import parse_module, print_module
from staircase.tuner import default_pipeline
from staircase.tuner.search import make_inputs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(ROOT, "perfbench", "inputs")

CANON = "builtin.module(func.func(canonicalize))"
GPU = "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)"
STAT_FIELDS = ("total", "per_prefix", "arith_ops", "loads", "stores",
               "bookkeeping", "mode", "workers")
IRGEN_SEEDS = range(240)


def _outcome(runner, module, func, args, mode, workers):
    args = copy_buffers(args)
    try:
        results, stats = runner(module, func, args, mode, workers)
    except Exception as exc:  # compared by type, message and buffers
        return ("raised", type(exc), str(exc), args)
    fields = tuple(getattr(stats, f) for f in STAT_FIELDS)
    return ("returned", by_bits(results), args, fields)


def differ(module, func, args, mode="sequential", workers=1, want=None):
    """Run both evaluators, or only ``run`` against a given reference
    outcome; return the reference outcome and a mismatch or None."""
    if want is None:
        want = _outcome(definterp.run, module, func, args, mode, workers)
    got = _outcome(run, module, func, args, mode, workers)
    if got != want:
        return want, f"{func} in {mode}: generated {got!r}, reference {want!r}"
    return want, None


def _agree_in_modes(case, gpu_case):
    """differ under sequential and worksharing:2 on ``case`` and under
    gpu_emulated on ``gpu_case``, each a (module, func, args); returns the
    three (reference, mismatch) pairs. A sequential reference that returned
    serves worksharing with the stats' last two fields, mode and workers,
    set to its own."""
    sequential = differ(*case)
    want = sequential[0]
    shared = None
    if want[0] == "returned":
        shared = want[:3] + (want[3][:-2] + ("worksharing", 2),)
    return [sequential, differ(*case, "worksharing", 2, shared),
            differ(*gpu_case, "gpu_emulated", 1)]


def _entry_name(module):
    return next(op.attributes["sym_name"].value for op in module.body().ops
                if op.name == "func.func")


def _param_types(module, func):
    return lower_module(module)[func].param_types


def _irgen_runs(seeds, build=random_module, inputs=random_inputs):
    """Compare every seed in every mode; returns (mismatches, raised, runs)."""
    mismatches, raised, runs = [], 0, 0
    for seed in seeds:
        cases = []
        for module in (build(seed), run_pipeline(build(seed), GPU)[0]):
            func = _entry_name(module)
            args = inputs(_param_types(module, func), seed)
            cases.append((module, func, args))
        for want, problem in _agree_in_modes(*cases):
            runs += 1
            raised += want[0] == "raised"
            if problem:
                mismatches.append(f"seed {seed}: {problem}")
    return mismatches, raised, runs


def test_irgen_seeds_agree():
    mismatches, raised, runs = _irgen_runs(IRGEN_SEEDS)
    share = raised / runs
    print(f"irgen: {raised} of {runs} runs raise ({share:.0%})")
    assert not mismatches, "\n".join(mismatches[:5])
    # both paths must be exercised: runs that return and runs that raise
    assert 0.05 < share < 0.6
    # and loops written once per trip
    assert sum(_writes_per_trip(random_module(seed)) for seed in IRGEN_SEEDS) >= 20


def test_index_corpus_agrees():
    """Loop nests indexed by addi/subi/muli chains, which random_module's
    i64-only integer ops never build: their addresses use partial sums."""
    seeds = range(80)
    mismatches, raised, runs = _irgen_runs(seeds, index_module)
    print(f"index corpus: {raised} of {runs} runs raise")
    assert not mismatches, "\n".join(mismatches[:5])
    assert 0.05 < raised / runs < 0.6
    hoisted = [re.search(r"^ +h\d+ = ", _source(index_module(seed)), re.M)
               for seed in seeds]
    assert sum(map(bool, hoisted)) > len(seeds) // 2


def test_slice_corpus_agrees():
    """Innermost loops of 15 to 64 trips, which codegen writes over slices
    where both slice conditions hold, and keeps as loops where one fails;
    a third of the seeds pass one Buffer as two parameters."""
    seeds = range(90)
    mismatches, raised, runs = _irgen_runs(seeds, slice_module, slice_inputs)
    print(f"slice corpus: {raised} of {runs} runs raise")
    assert not mismatches, "\n".join(mismatches[:5])
    assert 0.02 < raised / runs < 0.3
    forms = {"map": 0, "reduce": 0, "loop": 0, "kernel": 0}
    for seed in seeds:
        source = _source(slice_module(seed))
        forms["map"] += " = array(" in source
        forms["reduce"] += bool(re.search(r"^ +for x\d+", source, re.M))
        forms["loop"] += not _slice_forms(source)
        gpu = _source(run_pipeline(slice_module(seed), GPU)[0])
        forms["kernel"] += "def f0(g0" in gpu and bool(_slice_forms(gpu))
    print(f"slice corpus forms: {forms}")
    assert min(forms.values()) > len(seeds) // 10


def _sources():
    names = sorted(f for f in os.listdir(INPUTS) if f.endswith(".sir"))
    return [os.path.join(INPUTS, f) for f in names] + [golden_path("conv2d.sir")]


# Files that print byte for byte as a captured kernel.
PRINTED_KERNELS = {"conv_rows": os.path.join(INPUTS, "conv_rows.sir"),
                   "conv2d": golden_path("conv2d.sir")}


@pytest.mark.parametrize("path", _sources(), ids=os.path.basename)
def test_bench_inputs_agree(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    cases = []
    for pipeline in (CANON, GPU):
        module, _ = run_pipeline(parse_module(text, create_context()), pipeline)
        func = _entry_name(module)
        cases.append((module, func,
                      random_inputs(_param_types(module, func), 7)))
    for want, problem in _agree_in_modes(*cases):
        assert problem is None, problem
        assert want[0] == "returned"


def test_no_pass_before_another_statement():
    """A loop of one trip writes its body into the enclosing block, which
    then needs no ``pass``, and a loop whose body writes nothing is not
    written, but for one whose range ``bad_step`` checks, which iterates to
    raise; over irgen seeds as generated and after each of test_passes'
    pipelines, the gpu ones among them."""
    from test_passes import PIPELINES

    pass_then_more = re.compile(r"^( *)pass\n\1\S", re.M)
    idle = re.compile(r"^( *)(?:for \w+ in (.+)|if nt):\n\1    pass\n(?!\1    )",
                      re.M)

    def fault(source):
        checked = re.findall(r"^ *(r\d+) = .* else bad_step\(", source, re.M)
        return pass_then_more.search(source) or any(
            m[2] not in checked for m in idle.finditer(source))

    found = []
    for seed in IRGEN_SEEDS:
        module = random_module(seed)
        for pipeline in ("",) + PIPELINES:
            try:
                work = (run_pipeline(clone_module(module), pipeline)[0]
                        if pipeline else module)
            except PassFailure:
                continue
            if fault(_source(work)):
                found.append(f"seed {seed} {pipeline or 'as generated'}")
    assert not found, found[:5]


@pytest.mark.parametrize("name", ["ifs", "matmul", "conv2d", "conv_small",
                                  "conv_rows", "strided"])
def test_captured_kernels_agree(name):
    import kernels

    staged = getattr(kernels, name)
    if name in PRINTED_KERNELS:
        # test_bench_inputs_agree runs this text in the same three modes
        with open(PRINTED_KERNELS[name], encoding="utf-8") as fh:
            assert print_module(staged.module) == fh.read()
        return
    cases = []
    for pipeline in (CANON, GPU):
        module, _ = run_pipeline(clone_module(staged.module), pipeline)
        cases.append((module, name,
                      random_inputs(_param_types(module, name), 3)))
    for want, problem in _agree_in_modes(*cases):
        assert problem is None, problem
        assert want[0] == "returned"


@pytest.mark.parametrize("name", sorted(os.listdir(golden_path("passes"))))
def test_golden_pass_outputs_compute_what_their_kernels_do(name):
    # each pinned output of a pipeline over a captured kernel agrees with
    # the definitional interpreter in every mode, and in gpu_emulated
    # returns and leaves what the kernel does untransformed
    import kernels

    with open(golden_path(os.path.join("passes", name)), encoding="utf-8") as fh:
        module = parse_module(fh.read(), create_context())
    func = _entry_name(module)
    args = random_inputs(_param_types(module, func), 3)
    _agree_in_every_mode(module, func, args)
    kernel, _ = differ(getattr(kernels, func).module, func, args, "gpu_emulated")
    want, problem = differ(module, func, args, "gpu_emulated")
    assert problem is None, problem
    assert kernel[0] == "returned" and want[:3] == kernel[:3]


def test_a_module_that_returns_nans_agrees_in_every_mode():
    # buffers.sir returns a buffer holding 0/0, and %arg5 * inf, which is
    # 0 * inf here: each evaluator's NaN agrees with the other's by its bits
    with open(golden_path(os.path.join("run", "buffers.sir")), encoding="utf-8") as fh:
        module = parse_module(fh.read(), create_context())
    args = [Buffer((5,), "f32", [0.1, 3.0, -2.5e-3, 1e39, 0.0]),
            Buffer((7,), "f64", [0.1, 3.0, -0.0, 5e-324, math.nan, -math.inf, 1e308]),
            Buffer((4,), "i32", [2000000000, -2**31, 2**31 - 1, 0]),
            Buffer((4,), "i64", [3037000500, -2**63, -7, 0]), 1, 0.0, -7]
    want = _agree_in_every_mode(module, "f", args)
    results = want[1]
    assert want[0] == "returned" and math.isnan(results[1])
    assert math.isnan(results[2].data[0]) and want[2][1].data[6] == math.inf


# -- directed cases ----------------------------------------------------------------

def _module(body, params, results=""):
    text = (f"module {{\n  func.func @f({params}){results} {{\n{body}\n  }}\n}}\n")
    return parse_module(text, create_context())


def _agree(module, args, mode="sequential"):
    want, problem = differ(module, "f", args, mode)
    assert problem is None, problem
    return want


@pytest.mark.parametrize("step", [0, -1])
def test_runtime_step_not_positive(step):
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 3 : index
    %2 = arith.constant 1.0 : f64
    scf.for %arg2 = %0 to %1 step %arg1 {
      memref.store %2, %arg0[%arg2] : memref<4xf64>
    }
    return""", "%arg0: memref<4xf64>, %arg1: index")
    want = _agree(module, [Buffer((4,), "f64"), step])
    assert want[1].__name__ == "InvalidBound"
    assert want[2] == "loop step must be positive at runtime"
    # an empty range never takes the step
    empty = _module("""\
    %0 = arith.constant 3 : index
    scf.for %arg1 = %0 to %0 step %arg0 {
    }
    return""", "%arg0: index")
    assert _agree(empty, [step])[0] == "returned"
    # a body that writes nothing keeps its loop, which raises on its step
    idle = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 3 : index
    scf.for %arg1 = %0 to %1 step %arg0 {
    }
    return""", "%arg0: index")
    assert re.search(r"^ +for i\d+ in (r\d+):\n +pass$", _source(idle), re.M)
    assert _agree(idle, [step])[2] == "loop step must be positive at runtime"


def test_parallel_with_runtime_step():
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 3 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 1.0 : f64
    scf.parallel (%arg2, %arg3) = (%0, %0) to (%1, %1) step (%arg1, %2) {
      %4 = memref.load %arg0[%arg2, %arg3] : memref<3x3xf64>
      %5 = arith.addf %4, %3 : f64
      memref.store %5, %arg0[%arg2, %arg3] : memref<3x3xf64>
    }
    return""", "%arg0: memref<3x3xf64>, %arg1: index")
    assert "oob(" not in _source(module)
    for step in (1, 2, 5):
        assert _agree(module, [Buffer((3, 3), "f64"), step])[0] == "returned"
    want = _agree(module, [Buffer((3, 3), "f64"), 0])
    assert want[2] == "scf.parallel steps must be positive at runtime"


def test_out_of_bounds_on_unproven_dimension():
    # dimension 0 is proven in range; dimension 1 (i + 1 over 0..3) is not
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    scf.for %arg1 = %0 to %1 step %2 {
      %3 = arith.addi %arg1, %2 : index
      %4 = memref.load %arg0[%arg1, %3] : memref<4x3xf64>
    }
    return""", "%arg0: memref<4x3xf64>")
    source = _source(module)
    assert source.count("oob(") == 1
    want = _agree(module, [Buffer((4, 3), "f64")])
    assert want[1].__name__ == "OutOfBounds"
    assert want[2].startswith(
        "index 3 out of bounds for extent 3 of Buffer<4x3xf64> at ")


def test_unread_loads_at_proven_indices_write_nothing():
    # all four loads of irgen seed 52 go unread, at constant indices inside
    # the buffer: they cannot raise, so run writes no statement for them,
    # while ExecStats still counts them
    module = random_module(52)
    assert "d2[" not in _source(module)
    args = random_inputs(_param_types(module, "gen52"), 52)
    want, problem = differ(module, "gen52", args)
    assert problem is None, problem
    assert want[3][STAT_FIELDS.index("loads")] == 25


def test_loops_with_runtime_bounds():
    # j runs from i to i + 2 for i in 0..3: j is in [0, 4], inside the
    # 5-wide buffer (no check needed) but not the 4-wide one (checked)
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 2 : index
    %4 = arith.constant 1.0 : f64
    scf.for %arg3 = %0 to %1 step %2 {
      %5 = arith.addi %arg3, %3 : index
      scf.for %arg4 = %arg3 to %5 step %2 {
        %6 = memref.load %arg0[%arg4] : memref<5xf64>
        %7 = arith.addf %6, %4 : f64
        memref.store %7, %arg0[%arg4] : memref<5xf64>
        %8 = arith.cmpi slt, %arg4, %arg2 : index
        scf.if %8 {
          memref.store %7, %arg1[%arg4] : memref<4xf64>
        }
      }
    }
    scf.for %arg5 = %arg2 to %1 step %3 {
      memref.store %4, %arg0[%arg5] : memref<5xf64>
    }
    return""", "%arg0: memref<5xf64>, %arg1: memref<4xf64>, %arg2: index")
    assert _source(module).count("oob(") == 2
    for limit in (0, 3, 4, 5):
        want = _agree(module, [Buffer((5,), "f64"), Buffer((4,), "f64"), limit])
        assert want[0] == ("raised" if limit == 5 else "returned")


def test_load_is_read_before_a_later_store():
    # %3 feeds %4, which is only used after A[0] is overwritten: the read
    # of A[0] must not move down to that use
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 2.0 : f64
    %2 = arith.constant 5.0 : f64
    %3 = memref.load %arg0[%0] : memref<2xf64>
    %4 = arith.mulf %3, %1 : f64
    memref.store %2, %arg0[%0] : memref<2xf64>
    memref.store %4, %arg1[%0] : memref<2xf64>
    %5 = memref.load %arg0[%0] : memref<2xf64>
    %6 = arith.addf %5, %1 : f64
    memref.store %6, %arg1[%0] : memref<2xf64>
    return""", "%arg0: memref<2xf64>, %arg1: memref<2xf64>")
    a = Buffer((2,), "f64", [1.0, 0.0])
    want = _agree(module, [a, Buffer((2,), "f64")])
    assert want[2][1].tolist() == [7.0, 0.0]
    source = _source(module)
    assert "= d2[0]\n" in source            # the first load stays in place
    assert "= ((d2[0]) + 2.0)" in source     # the second folds into its use


def test_load_is_read_before_a_loop_that_stores():
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 5.0 : f64
    %4 = memref.load %arg0[%0] : memref<2xf64>
    scf.for %arg2 = %0 to %2 step %1 {
      memref.store %3, %arg0[%arg2] : memref<2xf64>
    }
    memref.store %4, %arg1[%0] : memref<2xf64>
    return""", "%arg0: memref<2xf64>, %arg1: memref<2xf64>")
    want = _agree(module, [Buffer((2,), "f64", [1.0, 0.0]), Buffer((2,), "f64")])
    assert want[2][1].tolist() == [1.0, 0.0]


def test_integer_identities():
    # x + 0, 0 + x, x - 0, x * 1 and 1 * x are x; x + 1, x - 1 and x * 2
    # are not. %12 casts a sum bound before a loop and is stored after it.
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.addi %arg0, %0 : index
    %4 = arith.addi %0, %3 : index
    %5 = arith.subi %4, %0 : index
    %6 = arith.muli %5, %1 : index
    %7 = arith.muli %1, %6 : index
    %8 = arith.addi %7, %1 : index
    %9 = arith.subi %8, %2 : index
    %10 = arith.muli %9, %2 : index
    %11 = arith.addi %arg0, %arg1 : index
    %12 = arith.index_cast %11 : index to i64
    scf.for %arg3 = %0 to %2 step %1 {
      %13 = arith.index_cast %arg3 : index to i64
    }
    %14 = arith.index_cast %7 : index to i64
    %15 = arith.index_cast %10 : index to i64
    memref.store %12, %arg2[%0] : memref<3xi64>
    memref.store %14, %arg2[%1] : memref<3xi64>
    memref.store %15, %arg2[%2] : memref<3xi64>
    return""", "%arg0: index, %arg1: index, %arg2: memref<3xi64>")
    for a, b in ((5, 7), (-3, 2**62)):
        want = _agree(module, [a, b, Buffer((3,), "i64")])
        assert want[2][2].tolist() == [a + b, a, (a - 1) * 2]


_ARGS_OK = (Buffer((4,), "f64"), 1.5, 7, 1)


def _args_with(i, arg):
    args = list(_ARGS_OK)
    args[i] = arg
    return args


# id -> (arguments for @f(memref<4xf64>, f64, i32, i1), error, message)
BAD_ARGS = {
    "arity": (list(_ARGS_OK[:3]), ArityMismatch, "@f takes 4 arguments, got 3"),
    "memref-list": (_args_with(0, [0.0] * 4), TypeMismatch,
                    "argument 0 of @f is memref<4xf64>, needs a Buffer"),
    "memref-shape": (_args_with(0, Buffer((5,), "f64")), TypeMismatch,
                     "argument 0 of @f is memref<4xf64>, got Buffer<5xf64>"),
    "f64-str": (_args_with(1, "1.5"), TypeMismatch,
                "argument 1 of @f is f64, needs a number"),
    "i32-float": (_args_with(2, 7.0), TypeMismatch,
                  "argument 2 of @f is i32, needs an integer"),
    **{f"i1-{kind}": (_args_with(3, bad), TypeMismatch,
                      "argument 3 of @f is i1, needs an integer")
       for kind, bad in (("str", "no"), ("buffer", Buffer((4,), "f64")),
                         ("float", 2.5), ("none", None))},
}


@pytest.mark.parametrize("case", sorted(BAD_ARGS))
def test_arguments_are_checked(case):
    args, error, message = BAD_ARGS[case]
    module = _module("    return",
                     "%arg0: memref<4xf64>, %arg1: f64, %arg2: i32, %arg3: i1")
    assert _agree(module, _ARGS_OK)[0] == "returned"
    assert _agree(module, args)[:3] == ("raised", error, message)


def test_out_of_bounds_on_runtime_index():
    module = _module("""\
    %0 = memref.load %arg0[%arg1] : memref<5xf64>
    return""", "%arg0: memref<5xf64>, %arg1: index")
    for index in (4, 5, -1):
        _agree(module, [Buffer((5,), "f64"), index])


def test_i32_overflow_wraps():
    module = _module("""\
    %0 = arith.muli %arg0, %arg1 : i32
    %1 = arith.addi %0, %arg0 : i32
    %2 = arith.index_cast %arg2 : index to i32
    %3 = arith.subi %2, %arg1 : i32
    %4 = arith.constant 0 : index
    memref.store %1, %arg3[%4] : memref<2xi32>
    %5 = arith.muli %arg2, %arg2 : index
    %6 = arith.index_cast %5 : index to i64
    return %1, %3, %6 : i32, i32, i64""",
        "%arg0: i32, %arg1: i32, %arg2: index, %arg3: memref<2xi32>",
        " -> (i32, i32, i64)")
    a, b, c = 2**31 - 1, 65537, 2**40 + 12345
    want = _agree(module, [a, b, c, Buffer((2,), "i32")])

    def wrap(x, bits):
        return (x + 2**(bits - 1)) % 2**bits - 2**(bits - 1)

    assert want[1] == (wrap(wrap(a * b, 32) + a, 32), wrap(wrap(c, 32) - b, 32),
                       wrap(c * c, 64))
    assert want[2][3].tolist() == [want[1][0], 0]


def test_f32_rounding():
    module = _module("""\
    %0 = arith.addf %arg0, %arg1 : f32
    %1 = arith.mulf %arg0, %arg0 : f32
    %2 = arith.divf %arg0, %arg2 : f32
    %3 = arith.constant 0.1 : f32
    %4 = arith.subf %3, %arg1 : f32
    return %0, %1, %2, %4 : f32, f32, f32, f32""",
        "%arg0: f32, %arg1: f32, %arg2: f32", " -> (f32, f32, f32, f32)")
    def f32(x):     # C float rounding, independent of the evaluators
        return array("f", [x])[0]

    for a, b, c in ([0.1, 0.2, 3.0], [3e38, 3e38, 0.0], [-1e-45, 1e-7, -0.0]):
        want = _agree(module, [a, b, c])
        a, b, c = f32(a), f32(b), f32(c)
        quotient = a / c if c else math.copysign(math.inf, a) * math.copysign(1, c)
        assert want[1] == (f32(a + b), f32(a * a), f32(quotient), f32(f32(0.1) - b))


@pytest.mark.parametrize("path", [p for p in _sources()
                                  if not p.endswith("matmul.sir")],
                         ids=os.path.basename)
def test_launch_outside_gpu_mode(path):
    # each file test_bench_inputs_agree runs but matmul, whose loops are
    # not parallel, launches once outlined; no other mode runs the launch
    with open(path, encoding="utf-8") as fh:
        module = parse_module(fh.read(), create_context())
    module, _ = run_pipeline(module, GPU)
    func = _entry_name(module)
    args = random_inputs(_param_types(module, func), 1)
    for mode in ("sequential", "worksharing"):
        want, problem = differ(module, func, args, mode, 2)
        assert problem is None, problem
        assert want[1].__name__ == "ModeUnsupported"
        assert want[2].startswith(
            f"gpu.launch_func needs gpu_emulated mode, not {mode!r}")


def test_deeply_nested_loops():
    # CPython compiles at most 20 nested loops in one function; deeper
    # loops run in functions of their own
    depth = 24
    lines = ["    %0 = arith.constant 0 : index",
             "    %1 = arith.constant 1 : index",
             "    %2 = arith.constant 1.0 : f64"]
    for k in range(depth):
        ub = "%arg1" if k == 0 else "%arg2"
        lines.append("  " * k + f"    scf.for %i{k} = %0 to {ub} step %1 {{")
    inner = "  " * depth + "    "
    lines += [inner + "%3 = memref.load %arg0[%i0] : memref<4xf64>",
              inner + "%4 = arith.addf %3, %2 : f64",
              inner + "memref.store %4, %arg0[%i0] : memref<4xf64>"]
    lines += ["  " * k + "    }" for k in reversed(range(depth))]
    module = _module("\n".join(lines + ["    return"]),
                     "%arg0: memref<4xf64>, %arg1: index, %arg2: index")
    want = _agree(module, [Buffer((4,), "f64"), 3, 1])
    assert want[2][0].tolist() == [1.0, 1.0, 1.0, 0.0]
    assert _agree(module, [Buffer((4,), "f64"), 2, 0])[0] == "returned"


def test_index_bound_in_an_earlier_run():
    # %5 and %6 are read in the inner loop as v4 + 1 and v4 + 2, where v4
    # (%4) is bound in a straight-line run that nothing later in it reads
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 1.0 : f64
    scf.for %arg1 = %0 to %2 step %1 {
      %4 = arith.muli %arg1, %2 : index
      %5 = arith.addi %4, %1 : index
      %6 = arith.addi %4, %2 : index
      memref.store %3, %arg0[%0] : memref<8xf64>
      memref.store %3, %arg0[%1] : memref<8xf64>
      memref.store %3, %arg0[%2] : memref<8xf64>
      scf.for %arg2 = %0 to %2 step %1 {
        %7 = memref.load %arg0[%5] : memref<8xf64>
        memref.store %7, %arg0[%6] : memref<8xf64>
      }
    }
    return""", "%arg0: memref<8xf64>")
    a = Buffer((8,), "f64", [float(k) for k in range(8)])
    assert _agree(module, [a])[2][0].tolist() == [1, 1, 1, 3, 3, 5, 6, 7]


def test_alias_read_after_the_run():
    # %3 is %0 under another name, bound in the first straight-line run
    # and read only after it, by the return after a loop
    module = _module("""\
    %0 = arith.muli %arg0, %arg1 : index
    %1 = arith.addi %0, %0 : index
    %2 = arith.muli %arg1, %arg1 : index
    %3 = arith.index_cast %0 : index to i64
    %4 = arith.constant 0 : index
    %5 = arith.constant 2 : index
    %6 = arith.constant 1 : index
    scf.for %arg2 = %4 to %5 step %6 {
    }
    return %1, %2, %3 : index, index, i64""", "%arg0: index, %arg1: index",
                     " -> (index, index, i64)")
    assert _source(module).count("def ") == 1
    assert _agree(module, [3, 4])[1] == (24, 16, 12)


def test_long_run_is_one_function():
    # about 4,060 statements in one straight-line run: one def, whose
    # loads, subtractions and stores do what the definitional interpreter
    # does, in order
    module = long_block_module()
    source = _source(module)
    assert source.count("def ") == 1
    assert len(source.splitlines()) > 4000
    args = [Buffer((64,), "f64", [(7 * k % 13) / 4.0 - 1.5 for k in range(64)]),
            Buffer((64,), "f64"), 0.5]
    want, problem = differ(module, "long", args)
    assert problem is None, problem
    assert want[0] == "returned" and want[3][0] == 4129


def test_unused_parameter_array_is_not_bound():
    # %arg1 is stored to only in a loop of no trips: its array is never
    # bound, and the entry guard tests only %arg0 against %arg3, whose
    # store the hoisted load of %arg0[0] is assumed not to reach
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 1.0 : f64
    scf.for %arg4 = %0 to %arg2 step %1 {
      %3 = memref.load %arg0[%0] : memref<4xf64>
      %4 = arith.addf %3, %2 : f64
      memref.store %4, %arg3[%arg4] : memref<4xf64>
      affine.for %arg5 = 0 to 0 {
        memref.store %2, %arg1[%0] : memref<4xf64>
      }
    }
    return""", "%arg0: memref<4xf64>, %arg1: memref<4xf64>, %arg2: index, "
                     "%arg3: memref<4xf64>")
    source = _source(module)
    assert "a3.data" not in source
    assert "if d2 is d7: return f0_aliased(" in source
    for shared in ((0, 3), (1, 3), (0, 1)):
        args = [Buffer((4,), "f64") for _ in range(4)]
        args[2] = 3
        args[shared[1]] = args[shared[0]]
        _agree(module, args)


def test_unused_alloc_of_unknown_dtype_raises():
    # an alloc nothing reads still makes its buffer, so an element type
    # Buffer does not know raises as the definitional interpreter does
    module = _module("""\
    %0 = memref.alloc() : memref<4xi1>
    return""", "")
    want = _agree(module, [])
    assert want[:2] == ("raised", TypeMismatch)
    assert "unknown buffer dtype 'i1'" in want[2]


def _under_loops(body, loops, params):
    """``body`` under ``loops`` scf.for loops from 0 to %n, an index
    parameter after ``params``, in a function @f."""
    lines = ["%z = arith.constant 0 : index", "%u = arith.constant 1 : index"]
    lines += [f"scf.for %l{k} = %z to %n step %u {{" for k in range(loops)]
    lines += body.splitlines() + ["}"] * loops
    return _module("\n".join(lines + ["return"]),
                   ", ".join(filter(None, [params, "%n: index"])))


def test_loop_of_no_trips_past_max_depth():
    # a loop of no trips whose body would nest past MAX_DEPTH writes
    # nothing: no function of its own, which would have no body
    module = _under_loops("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 1.0 : f64
    scf.for %arg1 = %0 to %0 step %1 {
      memref.store %2, %arg0[%0] : memref<4xf64>
    }""", codegen.MAX_DEPTH, "%arg0: memref<4xf64>")
    assert _source(module).count("def ") == 1
    for n in (0, 1):
        assert _agree(module, [Buffer((4,), "f64"), n])[2][0].tolist() == [0.0] * 4


def test_nested_functions_get_distinct_names():
    # two sibling nests past MAX_DEPTH, neither of which binds a local of
    # its own; each must still be a closure of its own, not one definition
    # replacing the other
    module = _under_loops("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    scf.for %arg2 = %0 to %1 step %1 {
      memref.store %arg1, %arg0[%0] : memref<4xf64>
    }
    scf.for %arg3 = %0 to %1 step %1 {
      memref.store %arg1, %arg0[%2] : memref<4xf64>
    }""", codegen.MAX_DEPTH, "%arg0: memref<4xf64>, %arg1: f64")
    names = re.findall(r"^ *def (\w+)\(", _source(module), re.M)
    assert len(set(names)) == len(names) == 3
    want = _agree(module, [Buffer((4,), "f64"), 5.0, 1])
    assert want[2][0].tolist() == [5.0, 0.0, 5.0, 0.0]
    assert _agree(module, [Buffer((4,), "f64"), 5.0, 0])[0] == "returned"


def test_element_kept_in_a_local_is_not_written_by_a_closure():
    # the loop over %arg1 would keep A[0] in a local, but the loop inside
    # it nests past MAX_DEPTH and runs in a closure, where an assignment
    # to that local would make it the closure's own: the outer loop keeps
    # A[0] in the array, and only the closure's loop keeps it in a local
    module = _under_loops("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 5 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 1.0 : f64
    scf.for %arg1 = %0 to %1 step %2 {
      %4 = memref.load %arg0[%0] : memref<4xf64>
      %5 = arith.addf %4, %3 : f64
      memref.store %5, %arg0[%0] : memref<4xf64>
      scf.for %arg2 = %0 to %1 step %2 {
        %6 = memref.load %arg0[%0] : memref<4xf64>
        %7 = arith.addf %6, %3 : f64
        memref.store %7, %arg0[%0] : memref<4xf64>
      }
    }""", codegen.MAX_DEPTH - 1, "%arg0: memref<4xf64>")
    assert _source(module).count("def ") == 2
    want = _agree(module, [Buffer((4,), "f64"), 1])
    assert want[2][0].tolist() == [30.0, 0.0, 0.0, 0.0]


# -- addresses from partial sums bound in loop headers --------------------------

def _addresses(line):
    """The flat-offset expressions a generated line computes."""
    bound = re.match(r" *o\d+ = (.*)", line)
    return ([bound.group(1)] if bound else []) + re.findall(r"\[([^\[\]]*)\]", line)


_SLICE = re.compile(r"\bd\d+\[[^\]]*:")


def _slice_forms(source):
    """Each innermost loop written over slices: its one statement, or its
    ``for`` over slices and the lines of its body."""
    lines = source.splitlines()
    forms = []
    for at, line in enumerate(lines):
        if not _SLICE.search(line):
            continue
        indent = len(line) - len(line.lstrip())
        form = [line.strip()]
        if form[0].startswith("for "):
            for inner in lines[at + 1:]:
                if len(inner) - len(inner.lstrip()) <= indent:
                    break
                form.append(inner.strip())
        forms.append(form)
    return forms


@pytest.mark.parametrize("name", ["conv_rows", "matmul"])
def test_innermost_addresses_multiply_nothing(name):
    # every stride times an outer induction variable is in a partial sum
    # bound outside the innermost loop (the float product stays); conv_rows
    # runs it over slices, matmul's 8 trips stay a loop
    import kernels

    module, _ = run_pipeline(clone_module(getattr(kernels, name).module), CANON)
    source = _source(module)
    forms = _slice_forms(source)
    assert bool(forms) == (name == "conv_rows")
    body = [line for form in forms for line in form] or _innermost_body(source)[1]
    addresses = [a for line in body for a in _addresses(line)]
    assert addresses and not [a for a in addresses if "*" in a]


def test_bounds_checks_over_irgen_seeds():
    # linear forms prove nothing new and drop no check; a loop written once
    # per trip has none, and a loop or parallel loop of no trips writes none
    # (36 and then 32 checks in such bodies, run by no trip, were written
    # until each wrote nothing); an index is checked against an extent once
    # per straight-line run (seed 150 checked one twice)
    sources = [_source(random_module(seed)) for seed in IRGEN_SEEDS]
    assert sum(source.count("oob(") for source in sources) == 36
    literal = re.compile(r"^ *for \w+ in range\(([-\d, ]+)\):$", re.M)
    assert all(range(*map(int, m[1].split(",")))
               for source in sources for m in literal.finditer(source))


def test_pure_ops_nothing_reads_write_nothing():
    # %5 reads %4 and nothing reads %5: neither writes a statement in any
    # copy of the loop, and both still count
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 3 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 2.765 : f64
    scf.for %arg1 = %0 to %1 step %2 {
      %4 = arith.mulf %3, %3 : f64
      %5 = arith.addf %4, %3 : f64
      memref.store %3, %arg0[%arg1] : memref<3xf64>
    }
    return""", "%arg0: memref<3xf64>")
    assert "2.765 *" not in _source(module)
    arith_ops = _agree(module, [Buffer((3,), "f64")])[3][2]
    assert arith_ops == 4 + 2 * 3     # the constants, and two ops a trip


def test_readers_that_write_nothing_bind_no_local():
    # gen44's -1.391 + -1.391 is read only by stores in a loop of no trips,
    # and idx0's i - 3 (%11), under gpu, by addresses and by ops nothing
    # reads: neither is bound
    assert "(-1.391) + (-1.391)" not in _source(random_module(44))
    gpu = _source(run_pipeline(index_module(0), GPU)[0])
    assert not re.search(r"^ +\w+ = i\d+ - 3$", gpu, re.M)
    assert _irgen_runs([44])[0] == _irgen_runs([0], index_module)[0] == []


def _unchanged_write_backs(source):
    """Elements kept in a local around a loop, read before it and written
    back after it, that no statement of the loop changes."""
    found = []
    for unit in re.split(r"^(?=def )", source, flags=re.M):
        for local, element in re.findall(r"^ *(e\d+) = (\w+\[.+\])$", unit,
                                         re.M):
            if len(re.findall(rf"^ *{local} = ", unit, re.M)) == 1 and re.search(
                    rf"^ *{re.escape(element)} = {local}$", unit, re.M):
                found.append(element)
    return found


def test_stores_in_a_loop_of_no_trips_keep_no_element():
    # gen53's 8-trip loop stores only inside a loop of 6 to 6, which writes
    # nothing: d2[2] is neither read before the loop nor written back after
    found = [(seed, element) for seed in IRGEN_SEEDS
             for module in (random_module(seed),
                            run_pipeline(random_module(seed), GPU)[0])
             for element in _unchanged_write_backs(_source(module))]
    assert found == []


def _unread(source):
    """The assignments of the source to a name it names nowhere else."""
    return [m[0].strip() for m in re.finditer(r"^ *(\w+) = .*$", source, re.M)
            if len(re.findall(rf"\b{m[1]}\b", source)) == 1]


def test_locals_nothing_reads_over_irgen_seeds():
    # what is left: a load nothing reads whose bounds check is all it
    # needs, and the array of a buffer only such loads read; a proven load
    # that nothing reads is dead, as is a pure op, and writes no statement;
    # an alloc nothing reads binds no local, but is still made, as making
    # it can raise
    sources = [_source(random_module(seed)) for seed in IRGEN_SEEDS]
    unread = [line for source in sources for line in _unread(source)]
    arrays = [line for line in unread if line.endswith(".data")]
    loads = [line for line in unread if re.match(r"v\d+ = d\d+\[", line)]
    buffers = [line for line in unread if re.match(r"v\d+ = Buffer\(", line)]
    assert (len(unread), len(arrays), len(loads), len(buffers)) == \
        (12, 2, 10, 0)
    made = sum(len(re.findall(r"^ +Buffer\(", s, re.M)) for s in sources)
    assert made == 72     # 11 allocs only loads nothing reads read


def test_out_of_bounds_under_hoisted_terms():
    # i and j are in partial sums; k + 1 (dimension 2) is not proven
    # inside its extent: the store at k = 2 raises after two stores ran
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 3 : index
    %4 = arith.constant 1.0 : f64
    scf.for %arg1 = %0 to %2 step %1 {
      scf.for %arg2 = %0 to %3 step %1 {
        %5 = arith.muli %arg2, %2 : index
        scf.for %arg3 = %0 to %3 step %1 {
          %6 = arith.addi %arg3, %1 : index
          %7 = memref.load %arg0[%arg1, %5, %arg3] : memref<2x5x3xf64>
          %8 = arith.addf %7, %4 : f64
          memref.store %8, %arg0[%arg1, %5, %6] : memref<2x5x3xf64>
        }
      }
    }
    return""", "%arg0: memref<2x5x3xf64>")
    source = _source(module)
    assert source.count("oob(") == 1
    assert re.search(r"^ +h\d+ = i\d+\*15$", source, re.M)
    want = _agree(module, [Buffer((2, 5, 3), "f64")])
    assert want[1].__name__ == "OutOfBounds"
    assert want[2].startswith(
        "index 3 out of bounds for extent 3 of Buffer<2x5x3xf64> at ")
    assert want[3][0].tolist()[:4] == [0.0, 1.0, 2.0, 0.0]


def test_zero_trip_and_unbounded_loops():
    # j's loop never runs, and k's bound is an argument: neither has an
    # interval, so their indices are checked and summed in the statement
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 3 : index
    %4 = arith.constant 1.0 : f64
    scf.for %arg2 = %0 to %3 step %1 {
      scf.for %arg3 = %2 to %2 step %1 {
        %5 = arith.addi %arg2, %arg3 : index
        memref.store %4, %arg0[%arg2, %5] : memref<3x8xf64>
      }
      affine.for %arg4 = 0 to 0 {
        memref.store %4, %arg0[%arg2, %arg4] : memref<3x8xf64>
      }
      %6 = arith.muli %arg2, %2 : index
      scf.for %arg5 = %0 to %arg1 step %1 {
        %7 = arith.addi %arg5, %6 : index
        %8 = memref.load %arg0[%arg2, %7] : memref<3x8xf64>
        %9 = arith.addf %8, %4 : f64
        memref.store %9, %arg0[%arg2, %arg5] : memref<3x8xf64>
      }
    }
    return""", "%arg0: memref<3x8xf64>, %arg1: index")
    for bound in (0, 3, 5):
        want = _agree(module, [Buffer((3, 8), "f64"), bound])
        assert want[0] == ("raised" if bound == 5 else "returned")


def test_affine_bounds_read_wrapped():
    # 2**64 is 0 as a run reads it, so the loop verifies and runs 0 to 4
    module = _module("""\
    %0 = arith.constant 1.0 : f64
    affine.for %arg1 = 18446744073709551616 to 4 {
      memref.store %0, %arg0[%arg1] : memref<4xf64>
    }
    return""", "%arg0: memref<4xf64>")
    want = _agree(module, [Buffer((4,), "f64")])
    assert want[2][0].tolist() == [1.0] * 4


def test_addresses_in_the_arms_of_an_if():
    # the then-arm stores to B[3i + j], the else-arm to B[11 - 3i - j]:
    # both from a partial sum of i bound outside j's loop
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 3 : index
    %3 = arith.constant 4 : index
    %4 = arith.constant 11 : index
    %5 = arith.constant 0.0 : f64
    scf.for %arg2 = %0 to %3 step %1 {
      scf.for %arg3 = %0 to %2 step %1 {
        %6 = memref.load %arg0[%arg2, %arg3] : memref<4x3xf64>
        %7 = arith.cmpf olt, %6, %5 : f64
        %8 = arith.muli %arg2, %2 : index
        %9 = arith.addi %8, %arg3 : index
        scf.if %7 {
          memref.store %6, %arg1[%9] : memref<12xf64>
        } else {
          %10 = arith.subi %4, %9 : index
          memref.store %6, %arg1[%10] : memref<12xf64>
        }
      }
    }
    return""", "%arg0: memref<4x3xf64>, %arg1: memref<12xf64>")
    source = _source(module)
    assert "oob(" not in source
    assert re.search(r"^ +h\d+ = -i\d+\*3$", source, re.M)
    for scale in (2, 3, 4):     # both arms run
        data = [float(k * scale % 5 - 2) for k in range(12)]
        want = _agree(module, [Buffer((4, 3), "f64", data), Buffer((12,), "f64")])
        assert want[0] == "returned"


def test_deep_nest_indexed_by_outer_variables():
    # the loops past MAX_DEPTH run in a closure of their own, whose entry
    # binds the partial sum of i0 and i1; the loops between them have
    # runtime bounds, so only i0, i1, i16 and i17 have intervals
    depth = 18
    lines = ["    %0 = arith.constant 0 : index",
             "    %1 = arith.constant 1 : index",
             "    %2 = arith.constant 2 : index",
             "    %3 = arith.constant 1.0 : f64"]
    for k in range(depth):
        ub = "%2" if k in (0, 1, depth - 2, depth - 1) else "%arg1"
        lines.append("  " * k + f"    scf.for %i{k} = %0 to {ub} step %1 {{")
    inner = "  " * depth + "    "
    lines += [inner + f"%4 = arith.addi %i{depth - 2}, %i{depth - 1} : index",
              inner + "%5 = memref.load %arg0[%i0, %i1, %4] : memref<2x2x3xf64>",
              inner + "%6 = arith.addf %5, %3 : f64",
              inner + "memref.store %6, %arg0[%i0, %i1, %4] : memref<2x2x3xf64>"]
    lines += ["  " * k + "    }" for k in reversed(range(depth))]
    module = _module("\n".join(lines + ["    return"]),
                     "%arg0: memref<2x2x3xf64>, %arg1: index")
    source = _source(module)
    assert re.search(r"^    def f0_n\d+\(\):\n(        .*\n)*        h\d+ = i\d+\*6 \+ i\d+\*3$",
                     source, re.M)
    want = _agree(module, [Buffer((2, 2, 3), "f64"), 1])
    assert want[2][0].tolist() == [1.0, 2.0, 1.0] * 4
    assert _agree(module, [Buffer((2, 2, 3), "f64"), 0])[0] == "returned"


def test_partial_sums_read_in_the_inner_run():
    # the inner run reads the partial sums bound in the header of i's loop
    # (j's 5 trips keep both loops: a nest of UNROLL_TRIPS trips or fewer
    # is written per trip)
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 3 : index
    %3 = arith.constant 5 : index
    %4 = arith.constant 2.0 : f64
    scf.for %arg2 = %0 to %2 step %1 {
      scf.for %arg3 = %0 to %3 step %1 {
        %5 = memref.load %arg0[%arg2, %arg3] : memref<3x5xf64>
        %6 = arith.addf %5, %4 : f64
        memref.store %6, %arg0[%arg2, %arg3] : memref<3x5xf64>
        %7 = arith.subi %2, %arg2 : index
        %8 = arith.subi %7, %1 : index
        %9 = memref.load %arg1[%arg3, %8] : memref<5x3xf64>
        %10 = arith.mulf %9, %6 : f64
        memref.store %10, %arg1[%arg3, %8] : memref<5x3xf64>
      }
    }
    return""", "%arg0: memref<3x5xf64>, %arg1: memref<5x3xf64>")
    source = _source(module)
    assert source.count("def ") == 1
    assert re.search(r"^ +h\d+ = ", source, re.M)
    args = [Buffer((3, 5), "f64", [float(k) for k in range(15)]),
            Buffer((5, 3), "f64", [float(k) for k in range(15)])]
    want = _agree(module, args)
    assert want[2][1].tolist() == [float(k) * (k // 3 + 5 * (2 - k % 3) + 2)
                                   for k in range(15)]


def _deep_irgen(seed):
    """irgen's module for ``seed``, its body put under 15 or 16 loops over
    runtime bounds, so that it or each of its region ops runs in a
    closure of its own (MAX_DEPTH)."""
    build = random_module if seed % 3 else index_module
    text = print_module(build(seed))
    head, rest = text.split(" {\n", 2)[1:]
    params = re.search(r"\((.*)\)$", head)[1]
    body = rest.rsplit("    return", 1)[0]
    return _under_loops(body, codegen.MAX_DEPTH + seed % 2, params)


def test_nested_functions_are_closures():
    """A nested function, that of loops past MAX_DEPTH, is a closure of no
    parameters; each module runs as the definitional interpreter does, its
    loops run once."""
    nested = 0
    for seed in range(40):
        module = _deep_irgen(seed)
        params = [arg.type for arg in module.body().ops[0].body().args]
        _agree(module, random_inputs(params[:-1], seed) + [1])
        for m in re.finditer(r"^ +def (\w+_n\d+)\((.*)\):$", _source(module), re.M):
            nested += 1
            assert m[2] == "", m[0]
    assert nested >= 30


VARIANTS = (True, False)    # guarded, and the alias-safe variant


def _variants(module):
    """Per guarded in VARIANTS: the code of each func.func and gpu.func of
    ``module``, as ``lower_module`` generates it (guarded) or as its
    alias-safe variant is generated, under the guarded name; and whether
    ``_FuncGen.generate`` ran more than once for one function."""
    entries = list(module_functions(module))
    pynames = {key: f"f{i}" for i, (key, _, _) in enumerate(entries)}
    extents = codegen._launch_extents(module)
    generate, calls, out = codegen._FuncGen.generate, [], {}

    def spy(gen):
        calls.append(gen.op)
        return generate(gen)

    with mock.patch.object(codegen._FuncGen, "generate", spy):
        for guarded in VARIANTS:
            calls.clear()
            sources = []
            for key, op, _ in entries:
                gen = codegen._FuncGen(op, pynames[key], pynames, extents.get(key),
                                       [], guarded=guarded)
                sources.append(gen.generate())
            out[guarded] = sources, len(calls) > len(set(calls))
    return out


def _definitions(module):
    """Per func.func and gpu.func of ``module``, in each of VARIANTS: the
    names of the Python functions its source defines, closures included."""
    variants = _variants(module)
    return [re.findall(r"^ *def (\w+)\(", variants[variant][0][i], re.M)
            for i, _ in enumerate(module_functions(module)) for variant in VARIANTS]


def _function_corpus(name):
    if name == "bench-inputs":
        texts = []
        for path in _sources():
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        return [run_pipeline(parse_module(text, create_context()), pipeline)[0]
                for text in texts for pipeline in (CANON, GPU)]
    if name == "kernels":
        import kernels
        from staircase.frontend.capture import StagedFunction

        staged = [v.module for v in vars(kernels).values()
                  if isinstance(v, StagedFunction)]
        return staged + [run_pipeline(clone_module(module), pipeline)[0]
                         for module in staged for pipeline in (CANON, GPU)]
    with open(os.path.join(INPUTS, "conv_rows.sir"), encoding="utf-8") as fh:
        text = fh.read()
    return [run_pipeline(parse_module(text, create_context()),
                         default_pipeline(list(tiles), unroll))[0]
            for tiles in itertools.product(*workloads.TILES)
            for unroll in workloads.UNROLLS]


# loops, dimensions and the closures past MAX_DEPTH
DEEP_PARALLELS = {"parallel-under-9-loops": (9, 6, 0),
                  "parallel-under-10-loops": (10, 6, 1),
                  "parallel-of-20-dims": (0, 20, 1)}


@pytest.mark.parametrize("corpus", ["bench-inputs", "kernels", "tune-points",
                                    *DEEP_PARALLELS])
def test_one_python_function_per_function(corpus):
    """Each function's code, and its alias-safe variant's, defines one
    Python function, its parallel loops written in place; only a region op
    whose loops would nest past MAX_DEPTH + 1 runs in a closure of its own,
    as CPython compiles at most 20 nested blocks per function."""
    if corpus not in DEEP_PARALLELS:
        for module in _function_corpus(corpus):
            assert _definitions(module) == [
                [f"f{i}"] for i, _ in enumerate(module_functions(module))
                for _ in VARIANTS]
        return
    loops, dims, nested = DEEP_PARALLELS[corpus]
    module = deep_parallel_module(loops, dims)
    for names in _definitions(module):
        assert names[0] == "f0" and len(names) == 1 + nested
        assert all(name.startswith("f0_n") for name in names[1:])
    want, problem = differ(module, "deep", [Buffer((8,), "f64"), 1, 3])
    assert problem is None, problem
    assert want[2][0].tolist() == [3.0] * 3 + [0.0] * 5
    assert differ(module, "deep", [Buffer((8,), "f64"), 0, 2])[1] is None


def test_kernel_indices_linear_in_thread_ids():
    # A[3 - bx, 3*ty + tx] is read and A[bx, 3*ty + tx] written: the bx
    # terms are bound in the header of bx's thread loop
    text = """\
module attributes {gpu.container_module} {
  gpu.module @g {
    gpu.func @k(%arg0: memref<4x6xf64>) kernel {
      %0 = gpu.block_id x
      %1 = gpu.thread_id x
      %2 = gpu.thread_id y
      %3 = arith.constant 3 : index
      %4 = arith.constant 1.0 : f64
      %5 = arith.muli %2, %3 : index
      %6 = arith.addi %5, %1 : index
      %7 = arith.subi %3, %0 : index
      %8 = memref.load %arg0[%7, %6] : memref<4x6xf64>
      %9 = arith.addf %8, %4 : f64
      memref.store %9, %arg0[%0, %6] : memref<4x6xf64>
      gpu.return
    }
  }
  func.func @f(%arg0: memref<4x6xf64>) {
    %0 = arith.constant 1 : index
    %1 = arith.constant 2 : index
    %2 = arith.constant 3 : index
    %3 = arith.constant 4 : index
    gpu.launch_func @g::@k blocks in (%3, %0, %0) threads in (%2, %1, %0) args(%arg0 : memref<4x6xf64>)
    return
  }
}
"""
    module = parse_module(text, create_context())
    source = _source(module)
    assert "oob(" not in source
    assert re.search(r"^ +h\d+ = -bx\*6$", source, re.M)
    args = [Buffer((4, 6), "f64", [float(k) for k in range(24)])]
    assert _agree(module, args, "gpu_emulated")[0] == "returned"


# -- one Buffer under two names --------------------------------------------------

def _agree_in_every_mode(module, func, args):
    """Both evaluators agree in each mode; returns the sequential outcome."""
    case = (module, func, args)
    outcomes = _agree_in_modes(case, case)
    for _, problem in outcomes:
        assert problem is None, problem
    return outcomes[0][0]


# B[0] is read in every iteration, A[i] written: under one Buffer, the
# store at i = 0 changes what later iterations read
_READ_AFTER_OTHER_NAME = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 1.0 : f64
    scf.for %arg2 = %0 to %1 step %2 {
      %4 = memref.load %arg1[%0] : memref<4xf64>
      %5 = arith.addf %4, %3 : f64
      memref.store %5, %arg0[%arg2] : memref<4xf64>
    }
    return"""

# A[3] is read and written in every iteration and B[i] read: under one
# Buffer, B[3] is the running sum, not the value A[3] had on entry
_ACCUMULATE_OTHER_NAME = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 3 : index
    scf.for %arg2 = %0 to %1 step %2 {
      %4 = memref.load %arg0[%3] : memref<4xf64>
      %5 = memref.load %arg1[%arg2] : memref<4xf64>
      %6 = arith.addf %4, %5 : f64
      memref.store %6, %arg0[%3] : memref<4xf64>
    }
    return"""

_TWO = "%arg0: memref<4xf64>, %arg1: memref<4xf64>"


def _counting(n=4):
    return Buffer((n,), "f64", [float(k + 1) for k in range(n)])


@pytest.mark.parametrize("body", [_READ_AFTER_OTHER_NAME, _ACCUMULATE_OTHER_NAME],
                         ids=["read", "accumulate"])
def test_one_buffer_under_two_names_in_a_loop(body):
    module = _module(body, _TWO)
    shared = _counting()
    want = _agree_in_every_mode(module, "f", [shared, shared])
    distinct = _agree_in_every_mode(module, "f", [_counting(), _counting()])
    assert want[2][0].tolist() != distinct[2][0].tolist()


@pytest.mark.parametrize("body", [_READ_AFTER_OTHER_NAME, _ACCUMULATE_OTHER_NAME],
                         ids=["read", "accumulate"])
def test_one_buffer_under_two_names_in_an_unrolled_run(body):
    module, _ = run_pipeline(_module(body, _TWO),
                             "builtin.module(func.func(loop-unroll{factor=4}))")
    assert "for " not in _source(module)     # one straight-line run
    shared = _counting()
    want = _agree_in_every_mode(module, "f", [shared, shared])
    distinct = _agree_in_every_mode(module, "f", [_counting(), _counting()])
    assert want[2][0].tolist() != distinct[2][0].tolist()


@pytest.mark.parametrize("pipeline", [CANON, GPU])
def test_matmul_of_one_buffer_with_itself(pipeline):
    with open(os.path.join(INPUTS, "matmul.sir"), encoding="utf-8") as fh:
        module = parse_module(fh.read(), create_context())
    module, _ = run_pipeline(module, pipeline)
    a = Buffer((32, 32), "f64", [(k % 7 - 3) / 64 for k in range(32 * 32)])
    want = _agree_in_every_mode(module, "matmul", [a, a, a])
    assert want[0] == "returned"


def test_call_passes_one_buffer_twice():
    text = """\
module {
  func.func @g(%arg0: memref<4xf64>, %arg1: memref<4xf64>) {
READ
  }
  func.func @f(%arg0: memref<4xf64>) {
    func.call @g(%arg0, %arg0) : (memref<4xf64>, memref<4xf64>) -> ()
    func.call @h(%arg0, %arg0) : (memref<4xf64>, memref<4xf64>) -> ()
    return
  }
  func.func @h(%arg0: memref<4xf64>, %arg1: memref<4xf64>) {
ACCUMULATE
  }
}
"""
    text = text.replace("READ", _READ_AFTER_OTHER_NAME)
    module = parse_module(text.replace("ACCUMULATE", _ACCUMULATE_OTHER_NAME),
                          create_context())
    want = _agree_in_every_mode(module, "f", [_counting()])
    assert want[0] == "returned"


def test_launch_passes_one_buffer_twice():
    # every thread reads B[0] and writes A[tx]: thread 0's store changes
    # what the later threads read
    text = """\
module attributes {gpu.container_module} {
  gpu.module @g {
    gpu.func @k(%arg0: memref<4xf64>, %arg1: memref<4xf64>) kernel {
      %0 = gpu.thread_id x
      %1 = arith.constant 0 : index
      %2 = arith.constant 1.0 : f64
      %3 = memref.load %arg1[%1] : memref<4xf64>
      %4 = arith.addf %3, %2 : f64
      memref.store %4, %arg0[%0] : memref<4xf64>
      gpu.return
    }
  }
  func.func @f(%arg0: memref<4xf64>) {
    %0 = arith.constant 1 : index
    %1 = arith.constant 4 : index
    gpu.launch_func @g::@k blocks in (%0, %0, %0) threads in (%1, %0, %0) args(%arg0 : memref<4xf64>, %arg0 : memref<4xf64>)
    return
  }
}
"""
    module = parse_module(text, create_context())
    want, problem = differ(module, "f", [_counting()], "gpu_emulated")
    assert problem is None, problem
    assert want[2][0].tolist() == [2.0, 3.0, 3.0, 3.0]


# %b is what @id returns for the alloc %a, so %a and %b are one array; each
# body writes what it reads of %a (or of %b) into the parameter
_CALL_RESULT = """\
module {
  func.func @id(%arg0: memref<4xf64>) -> (memref<4xf64>) {
    return %arg0 : memref<4xf64>
  }
  func.func @f(%arg0: memref<4xf64>) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 1.0 : f64
    %4 = memref.alloc() : memref<4xf64>
    %5 = func.call @id(%4) : (memref<4xf64>) -> (memref<4xf64>)
BODY
    return
  }
}
"""
_CALL_RESULT_BODIES = {
    # a second load of %a[0] after a store to %b[0]
    "run": ("""\
    %6 = memref.load %4[%0] : memref<4xf64>
    %7 = arith.addf %6, %3 : f64
    memref.store %7, %5[%0] : memref<4xf64>
    %8 = memref.load %4[%0] : memref<4xf64>
    memref.store %8, %arg0[%0] : memref<4xf64>""", [1.0, 9.0, 9.0, 9.0]),
    # %a[0] read in a loop that stores through %b
    "invariant": ("""\
    scf.for %arg1 = %0 to %1 step %2 {
      %6 = memref.load %4[%0] : memref<4xf64>
      %7 = arith.addf %6, %3 : f64
      memref.store %7, %5[%arg1] : memref<4xf64>
      memref.store %6, %arg0[%arg1] : memref<4xf64>
    }""", [0.0, 1.0, 1.0, 1.0]),
    # %a[0] accumulates in a loop that reads %b[0]
    "accumulate": ("""\
    scf.for %arg1 = %0 to %1 step %2 {
      %6 = memref.load %4[%0] : memref<4xf64>
      %7 = memref.load %5[%0] : memref<4xf64>
      %8 = arith.addf %6, %3 : f64
      memref.store %8, %4[%0] : memref<4xf64>
      memref.store %7, %arg0[%arg1] : memref<4xf64>
    }""", [0.0, 1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("case", sorted(_CALL_RESULT_BODIES))
def test_call_result_may_be_an_alloc(case):
    body, expected = _CALL_RESULT_BODIES[case]
    module = parse_module(_CALL_RESULT.replace("BODY", body), create_context())
    want = _agree_in_every_mode(module, "f", [Buffer((4,), "f64", [9.0] * 4)])
    assert want[2][0].tolist() == expected


# -- points of one parallel loop that touch one address ----------------------------

_POINT_CONSTANTS = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 3 : index
    %4 = arith.constant 4 : index
    %5 = arith.constant 1.0 : f64
"""

_READ_FIRST_WRITE_OWN = """\
    scf.parallel (%arg2) = (%0) to (%4) step (%1) {
      %6 = memref.load %arg0[%0] : memref<4xf64>
      %7 = arith.addf %6, %5 : f64
      memref.store %7, %arg1[%arg2] : memref<4xf64>
    }"""

# Per case: the body after _POINT_CONSTANTS, the parameters, and each
# memref argument's elements after a run over _counting buffers, which
# visits the points in order, the last index fastest; "one-buffer-twice"
# passes one Buffer as both of its arguments
_SHARED_ADDRESSES = {
    # four points store to a[0]
    "stores-to-one-address": ("""\
    %6 = arith.constant 9.0 : f64
    scf.parallel (%arg1) = (%0) to (%4) step (%1) {
      memref.store %6, %arg0[%0] : memref<4xf64>
    }""", "%arg0: memref<4xf64>", [[9.0, 2.0, 3.0, 4.0]]),
    # point i reads a[i] and writes a[i + 1]: it reads what point i - 1 wrote
    "reads-the-previous-points-write": ("""\
    scf.parallel (%arg1) = (%0) to (%3) step (%1) {
      %6 = memref.load %arg0[%arg1] : memref<4xf64>
      %7 = arith.addi %arg1, %1 : index
      memref.store %6, %arg0[%7] : memref<4xf64>
    }""", "%arg0: memref<4xf64>", [[1.0, 1.0, 1.0, 1.0]]),
    # point i writes a[i] from a[i + 1], which no earlier point wrote
    "reads-before-the-next-points-write": ("""\
    scf.parallel (%arg1) = (%0) to (%3) step (%1) {
      %6 = arith.addi %arg1, %1 : index
      %7 = memref.load %arg0[%6] : memref<4xf64>
      %8 = arith.addf %7, %5 : f64
      memref.store %8, %arg0[%arg1] : memref<4xf64>
    }""", "%arg0: memref<4xf64>", [[3.0, 4.0, 5.0, 4.0]]),
    # every point adds a[i] into a[0]: 1 + 1, + 2, + 3, + 4
    "accumulates-into-one-element": ("""\
    scf.parallel (%arg1) = (%0) to (%4) step (%1) {
      %6 = memref.load %arg0[%0] : memref<4xf64>
      %7 = memref.load %arg0[%arg1] : memref<4xf64>
      %8 = arith.addf %6, %7 : f64
      memref.store %8, %arg0[%0] : memref<4xf64>
    }""", "%arg0: memref<4xf64>", [[11.0, 2.0, 3.0, 4.0]]),
    # points (i, j) and (i', j) add one into a[j], once per i
    "two-dimensions-share-a-column": ("""\
    scf.parallel (%arg1, %arg2) = (%0, %0) to (%2, %2) step (%1, %1) {
      %6 = memref.load %arg0[%arg2] : memref<4xf64>
      %7 = arith.addf %6, %5 : f64
      memref.store %7, %arg0[%arg2] : memref<4xf64>
    }""", "%arg0: memref<4xf64>", [[3.0, 4.0, 3.0, 4.0]]),
    # the inner points of one outer point share b[i]; all of them share a[0]
    "nested-loops-share-elements": ("""\
    %6 = arith.constant 7.0 : f64
    scf.parallel (%arg2) = (%0) to (%2) step (%1) {
      scf.parallel (%arg3) = (%0) to (%2) step (%1) {
        %7 = memref.load %arg1[%arg2] : memref<2xf64>
        %8 = arith.addf %7, %5 : f64
        memref.store %8, %arg1[%arg2] : memref<2xf64>
        memref.store %6, %arg0[%0] : memref<2xf64>
      }
    }""", "%arg0: memref<2xf64>, %arg1: memref<2xf64>",
        [[7.0, 2.0], [3.0, 4.0]]),
    # each point stores to and loads from a buffer it allocates
    "allocs-of-each-point": ("""\
    scf.parallel (%arg1) = (%0) to (%4) step (%1) {
      %6 = memref.alloc() : memref<2xf64>
      %7 = memref.load %arg0[%arg1] : memref<4xf64>
      %8 = arith.addf %7, %5 : f64
      memref.store %8, %6[%0] : memref<2xf64>
      %9 = memref.load %6[%0] : memref<2xf64>
      memref.store %9, %arg0[%arg1] : memref<4xf64>
    }""", "%arg0: memref<4xf64>", [[2.0, 3.0, 4.0, 5.0]]),
    # every point reads a[0] and writes b[i]: under one Buffer, point 0's
    # store changes what the later points read
    "one-buffer-twice": (_READ_FIRST_WRITE_OWN, _TWO, [[2.0, 3.0, 3.0, 3.0]] * 2),
    "two-buffers": (_READ_FIRST_WRITE_OWN, _TWO, [[1.0, 2.0, 3.0, 4.0], [2.0] * 4]),
}


@pytest.mark.parametrize("outlined", [False, True], ids=["loop", "outlined"])
@pytest.mark.parametrize("case", sorted(_SHARED_ADDRESSES))
def test_points_that_share_an_address_run_in_order(case, outlined):
    # the loop runs in every mode, and its outlined kernel, one thread a
    # point, in gpu_emulated; each leaves what the points leave in order
    body, params, expected = _SHARED_ADDRESSES[case]
    module = _module(_POINT_CONSTANTS + body + "\n    return", params)
    if case == "one-buffer-twice":
        shared = _counting()
        args = [shared, shared]
    else:
        args = [_counting(int(p.split("<")[1].split("x")[0]))
                for p in params.split(", ")]
    if outlined:
        module, _ = run_pipeline(module, GPU)
        assert "scf.parallel" not in print_module(module)
        want, problem = differ(module, "f", args, "gpu_emulated")
        assert problem is None, problem
    else:
        want = _agree_in_every_mode(module, "f", args)
    assert want[0] == "returned"
    assert [b.tolist() for b in want[2]] == expected


# -- raising inside a loop whose elements could live in locals -------------------

def test_unproven_index_raises_in_op_order():
    # A[0] accumulates B[i + k] and B[1]; at i + k = 4 the load raises, and
    # the sums stored before it stay
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    scf.for %arg3 = %0 to %1 step %2 {
      %3 = memref.load %arg0[%0] : memref<4xf64>
      %4 = arith.addi %arg3, %arg2 : index
      %5 = memref.load %arg1[%4] : memref<4xf64>
      %6 = memref.load %arg1[%2] : memref<4xf64>
      %7 = arith.addf %3, %5 : f64
      %8 = arith.addf %7, %6 : f64
      memref.store %8, %arg0[%0] : memref<4xf64>
    }
    return""", _TWO + ", %arg2: index")
    for k in (0, 2, 4):
        want = _agree_in_every_mode(module, "f", [_counting(), _counting(), k])
        assert want[0] == ("returned" if k == 0 else "raised")
    assert want[1].__name__ == "OutOfBounds"
    assert want[2].startswith("index 4 out of bounds for extent 4 of Buffer<4xf64> at ")
    assert want[3][0].tolist()[0] == 1.0        # k = 4 raises at once
    want = _agree_in_every_mode(module, "f", [_counting(), _counting(), 2])
    assert want[3][0].tolist()[0] == 1.0 + (3.0 + 2.0) + (4.0 + 2.0)


def test_runtime_step_raises_in_op_order():
    # A[0] accumulates B[i] and B[1], then an inner loop steps by s: a step
    # that is not positive raises after the first outer iteration's store
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 2 : index
    scf.for %arg3 = %0 to %1 step %2 {
      %4 = memref.load %arg0[%0] : memref<4xf64>
      %5 = memref.load %arg1[%arg3] : memref<4xf64>
      %6 = memref.load %arg1[%2] : memref<4xf64>
      %7 = arith.addf %4, %5 : f64
      %8 = arith.addf %7, %6 : f64
      memref.store %8, %arg0[%0] : memref<4xf64>
      scf.for %arg4 = %0 to %3 step %arg2 {
        %9 = memref.load %arg0[%0] : memref<4xf64>
        %10 = arith.addf %9, %6 : f64
        memref.store %10, %arg0[%0] : memref<4xf64>
      }
    }
    return""", _TWO + ", %arg2: index")
    assert _agree_in_every_mode(module, "f", [_counting(), _counting(), 1])[0] \
        == "returned"
    for step in (0, -1):
        want = _agree_in_every_mode(module, "f", [_counting(), _counting(), step])
        assert want[1].__name__ == "InvalidBound"
        assert want[2] == "loop step must be positive at runtime"
        assert want[3][0].tolist()[0] == 1.0 + (1.0 + 2.0) + 2.0


# -- the entry guard ----------------------------------------------------------------

def _canonical(path):
    with open(path, encoding="utf-8") as fh:
        return run_pipeline(parse_module(fh.read(), create_context()), CANON)[0]


def test_alias_safe_variant_is_generated_on_first_need(monkeypatch):
    generated = []
    real = codegen._FuncGen.generate
    monkeypatch.setattr(codegen._FuncGen, "generate",
                        lambda gen: (generated.append(gen.pyname), real(gen))[1])
    module = _canonical(os.path.join(INPUTS, "matmul.sir"))
    source = _source(module)
    assert "if d2 is d6 or d4 is d6: return f0_aliased(" in source
    assert "def f0_aliased" not in source
    program = lower_module(module)
    assert generated == ["f0", "f0"]      # _source's and lower_module's

    def matrix():
        return Buffer((32, 32), "f64", [(k % 5 - 2) / 16 for k in range(1024)])

    call(program, "matmul", [matrix(), matrix(), matrix()], "sequential", 1)
    assert generated == ["f0", "f0"]
    a = matrix()
    for _ in range(2):
        call(program, "matmul", [a, a, a], "sequential", 1)
        assert generated == ["f0", "f0", "f0_aliased"]


def _rolled(op):
    """``codegen._rolled`` of an scf.for over constant bounds, else None."""
    bounds = op.name == "scf.for" and static_bounds(op)
    return codegen._rolled(op, *bounds[0][:3]) if bounds else None


def _innermost_body(source):
    """The innermost ``for`` loop's induction variable and body lines."""
    lines = source.splitlines()
    indents = [len(line) - len(line.lstrip()) for line in lines]
    at = max((i for i, line in enumerate(lines) if line.lstrip().startswith("for ")),
             key=lambda i: indents[i])
    body = []
    for line, indent in zip(lines[at + 1:], indents[at + 1:]):
        if indent <= indents[at]:
            break
        body.append(line.strip())
    return lines[at].split()[1], body


def _unrolled_copies_not_rolled():
    """conv_rows under lower-affine and loop-unroll{factor=2}, the second
    copy's addf with its operands swapped, so the copies do not roll."""
    with open(PRINTED_KERNELS["conv_rows"], encoding="utf-8") as fh:
        module, _ = run_pipeline(
            parse_module(fh.read(), create_context()),
            "builtin.module(func.func(lower-affine,loop-unroll{factor=2}))")
    last = [op for op in module.walk_nested() if op.name == "arith.addf"][-1]
    a, b = last.operands
    last.set_operand(0, b)
    last.set_operand(1, a)
    return module


INNERMOST_CASES = {
    "conv_rows.sir": lambda: _canonical(PRINTED_KERNELS["conv_rows"]),
    "conv2d.sir": lambda: _canonical(PRINTED_KERNELS["conv2d"]),
    "matmul.sir": lambda: _canonical(os.path.join(INPUTS, "matmul.sir")),
    "conv_rows-copies-not-rolled": _unrolled_copies_not_rolled,
}


@pytest.mark.parametrize("case", list(INNERMOST_CASES))
def test_innermost_loops_read_no_invariant_element(case):
    # every element the innermost loop reads is at an address that moves
    # with it: over slices, each is read from a slice, conv2d's nine filter
    # elements, read by the nine chained copies of the nest jammed into its
    # 62-trip loop, each bound once before it; both copies of conv_rows'
    # body that are not rolled back read the filter element bound once
    # before their loop
    module = INNERMOST_CASES[case]()
    source = _source(module)
    forms = _slice_forms(source)
    if case == "conv_rows-copies-not-rolled":
        assert not any(_rolled_loops(module)) and not forms
        iv, body = _innermost_body(source)
        bound = re.search(rf"^ +(v\d+) = d4\[\w+\]\n +for {iv} in ", source, re.M)
        assert bound and source.count("d4[") == 1, source
        assert "\n".join(body).count(bound[1]) == 2, body
        func = _entry_name(module)
        want, problem = differ(module, func,
                               random_inputs(_param_types(module, func), 7))
        assert problem is None and want[0] == "returned", problem
        return
    if case == "conv2d.sir":
        (form,), = forms
        assert form.count(" + (x") == 9
        reads = re.findall(r"^ +v\d+ = d4\[", source[:source.index(form)], re.M)
        assert len(reads) == 9 == source.count("d4[")
    reads = [a for form in forms for line in form
             for a in re.findall(r"\bd\d+\[([^\]]*)\]", line)]
    assert reads and all(":" in a for a in reads), forms


def test_read_modify_write_reads_its_offset_once():
    # every store is one assignment, target = expr: copies of an update
    # that are not rolled back (their step is one copy's) read d[i + k] in
    # the expression that d[i + k] is assigned; saxpy's loop is one slice
    # assignment, which reads its target through the one slice it stores,
    # at an offset bound once in the loop's header
    copies = [f"""\
      %o{k} = arith.constant {k} : index
      %i{k} = arith.addi %arg2, %o{k} : index
      %a{k} = memref.load %arg0[%i{k}] : memref<20xf64>
      %b{k} = memref.load %arg1[%i{k}] : memref<20xf64>
      %s{k} = arith.addf %b{k}, %a{k} : f64
      memref.store %s{k}, %arg1[%i{k}] : memref<20xf64>""" for k in range(4)]
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 16 : index
    %2 = arith.constant 1 : index
    scf.for %arg2 = %0 to %1 step %2 {
COPIES
    }
    return""".replace("COPIES", "\n".join(copies)),
        "%arg0: memref<20xf64>, %arg1: memref<20xf64>")
    source = _source(module)
    assert re.findall(r"^ +d\d+\[[^\]]*\] (\S*)= ", source, re.M) == [""] * 4
    _agree(module, [_ramp(n=20), _ramp(n=20, scale=0.5)])
    ((saxpy,),) = _slice_forms(_source(_canonical(os.path.join(INPUTS, "saxpy.sir"))))
    target = re.match(r"(d\d+\[(h\d+):\2 \+ 256\]) = ", saxpy)
    assert target, saxpy
    assert re.findall(r"\bd\d+\[[^\]]*\]", saxpy).count(target[1]) == 2


# -- innermost loops over slices --------------------------------------------------

def _elementwise(trips, kind="f64", op="arith.addf", params=None):
    """@f: C[i] = A[i] op B[i] for i < trips, over buffers of 64 elements."""
    ty = f"memref<64x{kind}>"
    return _module(f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant {trips} : index
    %2 = arith.constant 1 : index
    scf.for %arg3 = %0 to %1 step %2 {{
      %3 = memref.load %arg0[%arg3] : {ty}
      %4 = memref.load %arg1[%arg3] : {ty}
      %5 = {op} %3, %4 : {kind}
      memref.store %5, %arg2[%arg3] : {ty}
    }}
    return""", params or f"%arg0: {ty}, %arg1: {ty}, %arg2: {ty}")


def _ramp(kind="f64", n=64, scale=1.0):
    cast = float if kind[0] == "f" else int
    return Buffer((n,), kind, [cast((k - n // 3) * scale) for k in range(n)])


def test_slice_trips_pin_the_threshold():
    # 15 trips stay a loop, 16 are one slice assignment
    assert codegen.SLICE_TRIPS == 16
    for trips, sliced in ((15, False), (16, True)):
        module = _elementwise(trips)
        assert bool(_slice_forms(_source(module))) == sliced
        want = _agree(module, [_ramp(), _ramp(scale=0.5), _ramp(scale=0.25)])
        assert want[2][2].tolist()[trips - 1:trips + 1] == [
            (trips - 22) * 1.5, (trips - 21) * 0.25]


def test_read_of_another_trips_element_keeps_the_loop():
    # d[i + 1] = d[i] * 2.0: trip i reads what trip i - 1 stored
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 32 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 2.0 : f64
    scf.for %arg1 = %0 to %1 step %2 {
      %4 = memref.load %arg0[%arg1] : memref<33xf64>
      %5 = arith.mulf %4, %3 : f64
      %6 = arith.addi %arg1, %2 : index
      memref.store %5, %arg0[%6] : memref<33xf64>
    }
    return""", "%arg0: memref<33xf64>")
    assert not _slice_forms(_source(module))
    want = _agree(module, [Buffer((33,), "f64", [1.0] + [0.0] * 32)])
    assert want[2][0].tolist()[-1] == 2.0 ** 32


# Innermost loops of 16 trips over X, of 256 elements, and D, of 16, that no
# slice form fits: X is read backwards, or at i*i beside i; a product is
# read twice, so it needs a local; D is stored at i*0, which does not move;
# or D[0] sums X[0] or D[i] takes 2.0, the one read of X that moves being
# unused, or read only by an op whose result is unused. Each is refused
# from the IR, before any of its body is written
_NO_SLICE_FORM = {
    "stride-below-one": """\
      %5 = arith.subi %3, %arg2 : index
      %6 = memref.load %arg0[%5] : memref<256xf64>
      memref.store %6, %arg1[%arg2] : memref<16xf64>""",
    "nonlinear-address": """\
      %5 = arith.muli %arg2, %arg2 : index
      %6 = memref.load %arg0[%5] : memref<256xf64>
      %7 = memref.load %arg0[%arg2] : memref<256xf64>
      %8 = arith.addf %6, %7 : f64
      memref.store %8, %arg1[%arg2] : memref<16xf64>""",
    "value-read-twice": """\
      %5 = memref.load %arg0[%arg2] : memref<256xf64>
      %6 = arith.mulf %5, %4 : f64
      %7 = arith.addf %6, %6 : f64
      memref.store %7, %arg1[%arg2] : memref<16xf64>""",
    "store-that-does-not-move": """\
      %5 = memref.load %arg0[%arg2] : memref<256xf64>
      %6 = arith.mulf %5, %4 : f64
      %7 = arith.muli %arg2, %0 : index
      memref.store %6, %arg1[%7] : memref<16xf64>""",
    "no-read-moves": """\
      %5 = memref.load %arg1[%0] : memref<16xf64>
      %6 = memref.load %arg0[%0] : memref<256xf64>
      %7 = memref.load %arg0[%arg2] : memref<256xf64>
      %8 = arith.addf %5, %6 : f64
      memref.store %8, %arg1[%0] : memref<16xf64>""",
    "dead-read-moves": """\
      %5 = memref.load %arg1[%0] : memref<16xf64>
      %6 = memref.load %arg0[%arg2] : memref<256xf64>
      %7 = arith.addf %6, %6 : f64
      %8 = arith.muli %arg2, %0 : index
      %9 = memref.load %arg0[%8] : memref<256xf64>
      %10 = arith.addf %5, %9 : f64
      memref.store %10, %arg1[%0] : memref<16xf64>""",
    "dead-read-moves-by-a-store": """\
      %5 = memref.load %arg0[%arg2] : memref<256xf64>
      %6 = arith.addf %5, %5 : f64
      memref.store %4, %arg1[%arg2] : memref<16xf64>""",
}


@pytest.mark.parametrize("case", sorted(_NO_SLICE_FORM))
def test_loop_no_slice_form_fits_is_refused_up_front(case):
    module = _module(f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 16 : index
    %3 = arith.constant 15 : index
    %4 = arith.constant 2.0 : f64
    scf.for %arg2 = %0 to %2 step %1 {{
{_NO_SLICE_FORM[case]}
    }}
    return""", "%arg0: memref<256xf64>, %arg1: memref<16xf64>")
    for variant, (sources, again) in _variants(module).items():
        assert not again, variant
        assert _for_ranges("".join(sources)) == ["range(16)"], variant
    _agree_in_every_mode(module, "f", [_ramp(n=256), _ramp(n=16)])


def test_one_buffer_as_source_and_destination_keeps_loops():
    # C[i] = A[i] + B[i] assumes A and B are not C's array; one Buffer
    # passed as all three goes to the alias-safe variant, whose loop reads
    # each element before its own trip stores it
    module = _elementwise(48)
    source = _source(module)
    assert "if d2 is d6 or d4 is d6: return f0_aliased(" in source
    assert _slice_forms(source)
    units = []
    define = codegen._define
    with mock.patch.object(codegen, "_define", lambda batch, namespace: (
            units.extend(batch), define(batch, namespace))):
        a = _ramp()
        want = _agree(module, [a, a, a])
    (variant,) = [u for u in units if u.startswith("def f0_aliased(")]
    assert "for i" in variant and not _slice_forms(variant)
    assert want[2][0].tolist()[:48] == [2.0 * (k - 21) for k in range(48)]
    assert _agree(module, [_ramp(), a, _ramp(scale=3.0)])[0] == "returned"


@pytest.mark.parametrize("kind, op, scale", [
    ("f32", "arith.mulf", 0.1),
    ("i32", "arith.muli", 1 << 27),
    ("i64", "arith.addi", 1 << 61),
], ids=["f32", "i32", "i64"])
def test_element_types_over_slices(kind, op, scale):
    # f32 products round as each store would; i32 and i64 results are not
    # proven to fit, so each element wraps
    module = _elementwise(40, kind, op)
    (form,) = _slice_forms(_source(module))
    assert ("to_f32(" if kind == "f32" else " & ") in form[0]
    if kind == "f32":
        inputs = [_ramp(kind, scale=scale), _ramp(kind, scale=0.3)]
    else:
        inputs = [Buffer((64,), kind, [wrap_int((k * 7919 + 13) * scale, kind)
                                       for k in range(64)]) for _ in range(2)]
    want = _agree(module, inputs + [_ramp(kind)])
    assert want[2][2].tolist() != _ramp(kind).tolist()


@pytest.mark.parametrize("offset", ["%arg2", "%5"])
def test_unproven_index_keeps_the_loop_and_its_error_order(offset):
    # A[i + k] for an argument k, or A[i + 8], is checked at run time: the
    # loop stays, and an offset of 8 raises at trip 16 after sixteen stores
    module = _module(f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 20 : index
    %2 = arith.constant 1 : index
    %5 = arith.constant 8 : index
    scf.for %arg3 = %0 to %1 step %2 {{
      %3 = arith.addi %arg3, {offset} : index
      %4 = memref.load %arg0[%3] : memref<24xf64>
      memref.store %4, %arg1[%arg3] : memref<24xf64>
    }}
    return""", "%arg0: memref<24xf64>, %arg1: memref<24xf64>, %arg2: index")
    assert not _slice_forms(_source(module))
    for k, outcome in ((4, "returned"), (8, "raised")):
        want = _agree(module, [_ramp("f64", 24), Buffer((24,), "f64"), k])
        assert want[0] == ("raised" if offset == "%5" else outcome)
    assert want[2].startswith("index 24 out of bounds for extent 24 ")
    assert want[3][1].tolist()[15:17] == [15.0, 0.0]


def test_call_in_the_body_keeps_the_loop_and_its_error_order():
    # @g stores at i + 4: at trip 16 it raises, after C[16] was stored
    module = parse_module("""\
module {
  func.func @g(%arg0: memref<20xf64>, %arg1: index) {
    %0 = arith.constant 4 : index
    %1 = arith.addi %arg1, %0 : index
    %2 = arith.constant 1.0 : f64
    memref.store %2, %arg0[%1] : memref<20xf64>
    return
  }
  func.func @f(%arg0: memref<20xf64>, %arg1: memref<20xf64>) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 20 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 2.0 : f64
    scf.for %arg2 = %0 to %1 step %2 {
      %4 = memref.load %arg0[%arg2] : memref<20xf64>
      %5 = arith.mulf %4, %3 : f64
      memref.store %5, %arg1[%arg2] : memref<20xf64>
      func.call @g(%arg1, %arg2) : (memref<20xf64>, index) -> ()
    }
    return
  }
}
""", create_context())
    assert not _slice_forms(_source(module))
    want = _agree(module, [_ramp("f64", 20), Buffer((20,), "f64")])
    assert want[1].__name__ == "OutOfBounds"
    assert want[3][1].tolist()[16] == 2.0 * (16 - 6)


def test_strided_reduction_is_bit_identical_to_the_loop(monkeypatch):
    # C[r] += A[r*32 + i] * B[i*32 + r]: the zipped slices add in the
    # loop's order, so rounding is the same; sum() would compensate
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 32 : index
    %2 = arith.constant 1 : index
    scf.for %arg3 = %0 to %1 step %2 {
      scf.for %arg4 = %0 to %1 step %2 {
        %3 = arith.muli %arg3, %1 : index
        %4 = arith.addi %3, %arg4 : index
        %5 = arith.muli %arg4, %1 : index
        %6 = arith.addi %5, %arg3 : index
        %7 = memref.load %arg0[%4] : memref<1024xf64>
        %8 = memref.load %arg1[%6] : memref<1024xf64>
        %9 = arith.mulf %7, %8 : f64
        %10 = memref.load %arg2[%arg3] : memref<32xf64>
        %11 = arith.addf %10, %9 : f64
        memref.store %11, %arg2[%arg3] : memref<32xf64>
      }
    }
    return""", "%arg0: memref<1024xf64>, %arg1: memref<1024xf64>, %arg2: memref<32xf64>")
    (form,) = _slice_forms(_source(module))
    assert form[0].startswith("for x") and ":32]" in form[0]

    def inputs():
        spread = [math.ldexp(1.0 + k / 997, (k * 37) % 61 - 30) * (-1) ** k
                  for k in range(1024)]
        return [Buffer((1024,), "f64", spread),
                Buffer((1024,), "f64", spread[::-1]), Buffer((32,), "f64")]

    want = _agree(module, inputs())
    monkeypatch.setattr(codegen, "SLICE_TRIPS", 1 << 62)
    assert not _slice_forms(_source(module))
    loop = inputs()
    run(module, "f", loop)
    assert want[2][2].data.tobytes() == loop[2].data.tobytes()


# -- short nests written once per trip ---------------------------------------------

def _for_ranges(source):
    """What each ``for`` statement of the source loops over."""
    return re.findall(r"^ *for \w+ in (.*):$", source, re.M)


@pytest.mark.parametrize("pipeline", [CANON, GPU], ids=["canonicalized", "gpu"])
def test_conv2d_filter_nest_jams_into_its_output_loop(pipeline):
    # the filter nest inside the 62-trip output loop jams into the one
    # slice statement that loop is written as: nine copies chained in
    # order, and the nine filter reads bound before the outermost loop
    # none of their addresses moves in: the loop over the output rows, or
    # in the kernel the thread loop over bz
    with open(PRINTED_KERNELS["conv2d"], encoding="utf-8") as fh:
        module, _ = run_pipeline(parse_module(fh.read(), create_context()), pipeline)
    source = _source(module)
    loops = _for_ranges(source)
    assert loops == (["range(3)", "range(62)"] if pipeline == CANON
                     else ["range(g1)", "range(g2)"])
    kernel = re.search(r"^ +(d\d+) = a3\.data$", source, re.M)[1]
    reads = re.findall(rf"^( *)v\d+ = {kernel}\[[^\]]*\]$", source, re.M)
    assert len(reads) == 9 == source.count(f"{kernel}[")
    header = r"\w+ in range\(62\)" if pipeline == CANON else r"bz in range\(g2\)"
    loop = re.search(rf"^( *)for {header}:$", source, re.M)
    assert set(reads) == {loop[1]}
    assert source.rindex(f"= {kernel}[") < loop.start()
    (form,), = _slice_forms(source)
    assert form.count(" + (x") == 9 and form.count("d2[") == 9 and form.count("d6[") == 2


def _forms(module):
    """(loop, its form, its trips as written or None) for each loop whose
    form code generation decided for the module, in the order decided, in
    the code ``run`` executes: the form its plan holds once the code is
    written, as a loop of a nest inside a loop over slices takes that
    loop's form when that loop is decided."""
    decided = []
    decide = codegen._FuncGen.decide

    def spy(gen, loop, depth):
        decide(gen, loop, depth)
        decided.append((gen.plan, loop))

    with mock.patch.object(codegen._FuncGen, "decide", spy):
        _source(module)
    return [(loop, plans[loop].form, plans[loop].trips) for plans, loop in decided]


def _writes_per_trip(module):
    """Whether the code ``run`` executes for the module writes some loop of
    more than one trip once per trip."""
    return any(form == "trips" and trips and len(trips) > 1
               for _, form, trips in _forms(module))


def test_two_by_two_nest_with_colliding_addresses():
    # A[r, i + j] += A[r, i + j] * B[i, j]: the copies for (0, 1) and
    # (1, 0) update one element, so the second reads what the first stored;
    # r's loop keeps its form, so the copies' addresses mix a literal with
    # r's partial sum
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 5 : index
    scf.for %arg2 = %0 to %3 step %1 {
      scf.for %arg3 = %0 to %2 step %1 {
        scf.for %arg4 = %0 to %2 step %1 {
          %4 = arith.addi %arg3, %arg4 : index
          %5 = memref.load %arg0[%arg2, %4] : memref<5x3xf64>
          %6 = memref.load %arg1[%arg3, %arg4] : memref<2x2xf64>
          %7 = arith.mulf %5, %6 : f64
          %8 = arith.addf %5, %7 : f64
          memref.store %8, %arg0[%arg2, %4] : memref<5x3xf64>
        }
      }
    }
    return""", "%arg0: memref<5x3xf64>, %arg1: memref<2x2xf64>")
    assert _for_ranges(_source(module)) == ["range(5)"]
    a = Buffer((5, 3), "f64", [float(k % 3 + 1) for k in range(15)])
    b = Buffer((2, 2), "f64", [0.5, 0.25, 2.0, 4.0])
    want = _agree(module, [a, b])
    assert want[2][0].tolist() == [1.5, 7.5, 15.0] * 5


def test_short_loop_that_can_raise_stays_a_loop():
    # A[i + k] for an argument k is checked at run time: the 3-trip loop
    # keeps its form, and k = 1 raises at trip 2, after two stores
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 3 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 1.5 : f64
    scf.for %arg2 = %0 to %1 step %2 {
      %4 = arith.addi %arg2, %arg1 : index
      memref.store %3, %arg0[%4] : memref<3xf64>
    }
    return""", "%arg0: memref<3xf64>, %arg1: index")
    source = _source(module)
    assert _for_ranges(source) == ["range(3)"] and source.count("oob(") == 1
    want = _agree(module, [Buffer((3,), "f64"), 1])
    assert want[1].__name__ == "OutOfBounds"
    assert want[2].startswith(
        "index 3 out of bounds for extent 3 of Buffer<3xf64> at ")
    assert want[3][0].tolist() == [0.0, 1.5, 1.5]
    assert _agree(module, [Buffer((3,), "f64"), 0])[0] == "returned"


def _scaled_nest(trips, inner_trips, products):
    """@f: B[i, j] = A[i, j] * 2.0 ** products over i < trips, j <
    inner_trips; the inner body writes products + 2 ops."""
    chain = [f"        %p{k + 1} = arith.mulf %p{k}, %c : f64"
             for k in range(products)]
    return _module("\n".join([
        "    %0 = arith.constant 0 : index",
        "    %1 = arith.constant 1 : index",
        f"    %2 = arith.constant {trips} : index",
        f"    %3 = arith.constant {inner_trips} : index",
        "    %c = arith.constant 2.0 : f64",
        "    scf.for %arg2 = %0 to %2 step %1 {",
        "      scf.for %arg3 = %0 to %3 step %1 {",
        "        %p0 = memref.load %arg0[%arg2, %arg3] : memref<5x5xf64>",
        *chain,
        f"        memref.store %p{products}, %arg1[%arg2, %arg3] : memref<5x5xf64>",
        "      }",
        "    }",
        "    return"]), "%arg0: memref<5x5xf64>, %arg1: memref<5x5xf64>")


@pytest.mark.parametrize("trips, inner_trips, products, loops", [
    (4, 4, 4, []),                          # 16 copies of 6 ops: 96
    (4, 4, 5, ["range(4)"]),                # 16 of 7 are over, 4 are not
    (5, 4, 0, ["range(5)"]),                # 5 trips keep the loop
    (4, 5, 0, ["range(4)", "range(5)"]),    # as does a loop kept inside
], ids=["at-budget", "over-budget", "five-trips", "inner-five-trips"])
def test_unroll_bounds_pin_what_stays_a_loop(trips, inner_trips, products, loops):
    assert (codegen.UNROLL_TRIPS, codegen.UNROLL_OPS) == (4, 96)
    module = _scaled_nest(trips, inner_trips, products)
    assert _for_ranges(_source(module)) == loops
    a = Buffer((5, 5), "f64", [float(k) for k in range(25)])
    want = _agree(module, [a, Buffer((5, 5), "f64")])
    assert want[2][1].tolist() == [
        float(k) * 2.0 ** products if k // 5 < trips and k % 5 < inner_trips
        else 0.0 for k in range(25)]


def test_store_no_trip_changes_is_written_once():
    # each of its nest's three trips stores 1.495 to one element of an
    # alloc, kept in a local: the first trip alone writes that store
    for module in (random_module(14), run_pipeline(random_module(14), GPU)[0]):
        source = _source(module)
        assert len(re.findall(r"^ +e\d+ = 1\.495$", source, re.M)) == 1, source
        assert _agree_in_every_mode(module, "gen14", [])[0] == "returned"


# A[i * j] = 1.5 over i, j < 2: a product of two induction variables has
# an interval but no linear form, so the address it gives may move
_STORE_AT_A_PRODUCT = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 1.5 : f64
    scf.for %arg1 = %0 to %2 step %1 {
      scf.for %arg2 = %0 to %2 step %1 {
        %4 = arith.muli %arg1, %arg2 : index
        memref.store %3, %arg0[%4] : memref<2xf64>
      }
    }
    return"""


def test_store_at_an_index_of_no_linear_form_is_written_per_trip():
    module = _module(_STORE_AT_A_PRODUCT, "%arg0: memref<2xf64>")
    assert _source(module).count("d2[0] = 1.5") == 3
    assert _agree_in_every_mode(module, "f", [Buffer((2,), "f64")])[2][0].tolist() == [1.5] * 2


# D[1] = 1.5, then D[k] = E[k], over k < 3: the second trip's store to D
# at k = 1 comes between the first and the third trip's store of 1.5
_STORE_BETWEEN_TRIPS = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 3 : index
    %3 = arith.constant 1.5 : f64
    scf.for %arg2 = %0 to %2 step %1 {
      memref.store %3, %arg0[%1] : memref<4xf64>
      %4 = memref.load %arg1[%arg2] : memref<4xf64>
      memref.store %4, %arg0[%arg2] : memref<4xf64>
    }
    return"""


@pytest.mark.parametrize("stored, once", [("%arg0[%arg2]", 3), ("%arg1[%arg2]", 1)],
                         ids=["same-buffer", "other-buffer"])
def test_store_between_trips_keeps_each_trips_store(stored, once):
    # every trip of the nest writes D[1] = 1.5 while another store to D
    # sits between them; a store to E instead leaves the first trip's
    # alone, under the entry guard: the alias-safe variant keeps all three
    module = _module(_STORE_BETWEEN_TRIPS.replace("%arg0[%arg2]", stored),
                     "%arg0: memref<4xf64>, %arg1: memref<4xf64>")
    assert _writes_per_trip(module)
    stores = re.compile(r"^ +(d2\[1\]|e\d+) = 1\.5$", re.M)
    assert len(stores.findall(_source(module))) == once
    assert len(stores.findall("".join(_variants(module)[False][0]))) == 3
    want = _agree_in_every_mode(module, "f", [_counting(), _ramp(n=4)])
    if once == 3:
        assert want[2][0].tolist() == [-1.0, 1.5, 1.0, 4.0]
    shared = _counting()
    _agree_in_every_mode(module, "f", [shared, shared])


def _conv2d_on_one_shape():
    """conv2d at 8x8, its image and output of one type: 1x3x8x8xf64."""
    with open(PRINTED_KERNELS["conv2d"], encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("1x1x64x64", "1x3x8x8"), ("1x3x62x62", "1x3x8x8"),
                     ("62 : index", "6 : index")):
        text = text.replace(old, new)
    return parse_module(text, create_context())


@pytest.mark.parametrize("pipeline", [CANON, GPU], ids=["canonicalized", "gpu"])
def test_conv2d_of_one_buffer_as_image_and_output(pipeline):
    # each point adds into the image the later points read: the entry guard
    # sends the call to the alias-safe variant, whose copies read in order
    module, _ = run_pipeline(_conv2d_on_one_shape(), pipeline)
    assert _writes_per_trip(module)
    mode = "sequential" if pipeline == CANON else "gpu_emulated"

    def agree(args):
        want, problem = differ(module, "conv2d", args, mode)
        assert problem is None, problem
        assert want[0] == "returned"
        return want[2]

    image = Buffer((1, 3, 8, 8), "f64", [(k % 7 - 3) / 4 for k in range(192)])
    kernel = Buffer((3, 1, 3, 3), "f64", [(k % 5 - 2) / 8 for k in range(27)])
    units = []
    define = codegen._define
    with mock.patch.object(codegen, "_define", lambda batch, namespace: (
            units.extend(batch), define(batch, namespace))):
        shared = agree([image, kernel, image])
    assert any(u.startswith("def f0_aliased(") for u in units)
    apart = agree([image, kernel, Buffer((1, 3, 8, 8), "f64", list(image.data))])
    assert shared[0].tolist() != apart[2].tolist()


# -- short nests jammed into the slice statement they enclose -----------------------

def _jammed(module):
    """Whether the code ``run`` executes writes some nest as one slice
    statement: some loop's form is the loop its nest jams into."""
    return any(isinstance(form, Operation) for _, form, _ in _forms(module))


def test_jam_corpus_agrees():
    """Short literal nests around a loop over slices: the copies of a nest
    that breaks no condition jam into one statement, in every mode, and
    each draw does what the definitional interpreter does."""
    seeds = range(80)
    mismatches, raised, runs = _irgen_runs(seeds, jam_module)
    print(f"jam corpus: {raised} of {runs} runs raise")
    assert not mismatches, "\n".join(mismatches[:5])
    assert 0 < raised / runs < 0.3
    jammed = dict.fromkeys(("jam",) + JAM_BREAKS, 0)
    kernels = 0
    for seed in seeds:
        module = jam_module(seed)
        jammed[_entry_name(module).rstrip("0123456789")] += _jammed(module)
        gpu = run_pipeline(module, GPU)[0]
        kernels += "def f0(g0" in _source(gpu) and _jammed(gpu)
    print(f"jam corpus: nests jammed per condition broken: {jammed}; "
          f"in kernels: {kernels}")
    assert jammed["second_store"] == jammed["other_element"] == jammed["raises"] == 0
    assert jammed["jam"] >= len(seeds) // 4 and kernels >= len(seeds) // 10


def test_nest_inside_corpus_agrees():
    """The same draws with the loop over i around the nest: a nest that
    breaks no condition jams into the statement of the loop it is in, in
    every mode, and each draw does what the definitional interpreter does."""
    seeds, build = range(80), functools.partial(jam_module, inside=True)
    mismatches, raised, runs = _irgen_runs(seeds, build)
    print(f"nest-inside corpus: {raised} of {runs} runs raise")
    assert not mismatches, "\n".join(mismatches[:5])
    assert 0 < raised / runs < 0.3
    jammed = dict.fromkeys(("jam",) + JAM_BREAKS, 0)
    kernels = 0
    for seed in seeds:
        module = build(seed)
        jammed[_entry_name(module).rstrip("0123456789")] += _jammed(module)
        gpu = run_pipeline(module, GPU)[0]
        kernels += "def f0(g0" in _source(gpu) and _jammed(gpu)
    print(f"nest-inside corpus: nests jammed per condition broken: {jammed}; "
          f"in kernels: {kernels}")
    assert jammed["jam"] >= len(seeds) // 4 and kernels >= len(seeds) // 10
    # a store at i + l still jams where l's loop has one trip, 0
    assert not any(jammed[broken] for broken in JAM_BREAKS if broken != "store_dep")


_JAM_PARAMS = ("%arg0: memref<20x{0}>, %arg1: memref<4x{0}>, "
               "%arg2: memref<20x{0}>, %arg3: memref<20x{0}>")


def _jam_nest(kind="f64", **how):
    return _module(_jam_body(kind, **how), _JAM_PARAMS.format(kind))


def _jam_body(kind="f64", short=3, products=0, changes=(), inside=False, trips=16):
    """The body of @f(X, W, D, E): D[i] = D[i] + X[i + k] * W[k] (times
    X[i + k] ``products`` times more) over k < ``short`` and i < ``trips``,
    a nest that jams, around the loop over i or ``inside`` it; ``changes``
    are (text, its replacement) pairs."""
    add, mul = ("arith.addf", "arith.mulf") if kind[0] == "f" else ("arith.addi", "arith.muli")
    chain = "".join(f"        %p{j + 1} = {mul} %p{j}, %5 : {kind}\n"
                    for j in range(products))
    loops = ["scf.for %arg4 = %0 to %2 step %1 {", "scf.for %arg5 = %0 to %3 step %1 {"]
    if inside:
        loops.reverse()
    body = f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant {short} : index
    %3 = arith.constant {trips} : index
    {loops[0]}
      {loops[1]}
        %4 = arith.addi %arg5, %arg4 : index
        %5 = memref.load %arg0[%4] : memref<20x{kind}>
        %6 = memref.load %arg1[%arg4] : memref<4x{kind}>
        %p0 = {mul} %5, %6 : {kind}
{chain}        %7 = memref.load %arg2[%arg5] : memref<20x{kind}>
        %8 = {add} %7, %p{products} : {kind}
        memref.store %8, %arg2[%arg5] : memref<20x{kind}>
      }}
    }}
    return"""
    for text, replacement in changes:
        assert text in body
        body = body.replace(text, replacement)
    return body


def _jam_args(kind="f64", x=None, w=None, d=None):
    cast = float if kind[0] == "f" else int
    ramp = [cast(k % 7 - 3) for k in range(20)]
    return [Buffer((20,), kind, x or ramp), Buffer((4,), kind, w or ramp[:4]),
            Buffer((20,), kind, d or ramp[::-1]), Buffer((20,), kind)]


# what _jam_nest's default nest jams into, around the loop over i or inside it
FILTER_STATEMENT = ("d6[0:16] = array(d6.typecode, [(((x12 + (x10 * v11)) + (x13 * v14)) "
                    "+ (x15 * v16)) for x10, x12, x13, x15 in zip(d2[0:16], d6[0:16], "
                    "d2[1:17], d2[2:18])])")


def test_filter_nest_jams_into_one_statement():
    # the three copies of the loop over k chain their terms into one slice
    # assignment, in copy order, with W's three elements read before it
    module = _jam_nest()
    assert _jammed(module) and _for_ranges(_source(module)) == []
    assert _slice_forms(_source(module)) == [[FILTER_STATEMENT]]
    assert re.findall(r"^ +v\d+ = d4\[(\d)\]$", _source(module), re.M) == ["0", "1", "2"]
    want = _agree_in_every_mode(module, "f", _jam_args())
    assert want[2][2].tolist()[:3] == [2.0 + 9 + 4 + 1, 1.0 + 6 + 2 + 0, 0.0 + 3 + 0 - 1]
    shared = _jam_args()
    shared[2] = shared[0]   # X is D: the alias-safe variant keeps the loops
    _agree_in_every_mode(module, "f", shared)
    # nest refuses the jam there before writing any of it: X may be D
    sources, again = _variants(module)[False]
    assert not again and _for_ranges("".join(sources)) == ["range(3)", "range(16)"]



def test_jammed_copies_read_their_own_repeated_load():
    # X[i + k] is loaded twice in the body; the second load reads the
    # first's value, so each copy's second read must be that copy's slice
    module = _jam_nest(changes=[
        ("%7 = memref.load %arg2[%arg5]",
         "%9 = memref.load %arg0[%4] : memref<20xf64>\n"
         "        %10 = arith.mulf %9, %p0 : f64\n"
         "        %7 = memref.load %arg2[%arg5]"),
        ("%8 = arith.addf %7, %p0", "%8 = arith.addf %7, %10")])
    assert _jammed(module) and _for_ranges(_source(module)) == []
    (form,), = _slice_forms(_source(module))
    assert form.count("d2[") == 3   # one slice of X per copy, read twice
    _agree_in_every_mode(module, "f", _jam_args())

_READ_D_AT_I_PLUS_K = ("%7 = memref.load %arg2[%arg5]", "%7 = memref.load %arg2[%4]")


# the changes to _jam_body by which a nest breaks one condition of the jam
JAM_REFUSALS = {
    "store-moves-with-k": [_READ_D_AT_I_PLUS_K, ("memref.store %8, %arg2[%arg5]",
                                                 "memref.store %8, %arg2[%4]")],
    "second-store": [("memref.store %8,", "memref.store %5, %arg3[%arg5] : memref<20xf64>\n"
                      "        memref.store %8,")],
    "read-at-another-element": [_READ_D_AT_I_PLUS_K],
    "access-can-raise": [("%4 = arith.addi %arg5, %arg4 : index",
                          "%9 = arith.muli %arg4, %2 : index\n"
                          "        %4 = arith.addi %arg5, %9 : index")],
    "stored-slice-read-twice": [("%8 = arith.addf %7,", "%10 = arith.mulf %7, %7 : f64\n"
                                 "        %8 = arith.addf %10,")],
    "read-at-k-squared": [("%6 = memref.load %arg1[%arg4] : memref<4xf64>",
                           "%11 = arith.muli %arg4, %arg4 : index\n"
                           "        %6 = memref.load %arg0[%11] : memref<20xf64>")],
    "store-at-one-element": [("%7 = memref.load %arg2[%arg5]", "%7 = memref.load %arg2[%0]"),
                             ("memref.store %8, %arg2[%arg5]", "memref.store %8, %arg2[%0]")],
    "no-live-read-moves": [("memref.store %8,", "memref.store %6,")],
}


@pytest.mark.parametrize("changes", list(JAM_REFUSALS.values()), ids=list(JAM_REFUSALS))
def test_nest_that_breaks_a_jam_condition_keeps_its_loops(changes):
    # D[i + k] += ..., so each copy stores its own slice; another buffer is
    # stored to; D is read at the element k trips on; X is read 3k on, past
    # its extent in the third copy; D[i] * D[i] reads what the copy before
    # stored twice, which would need a local; X is read at k*k, which no
    # copy's constant term can take, as the body is written once; D[0]
    # is a sum over i, which the loop over i cannot store as a slice; or
    # D[i] takes W[k], so the reads that move are dead and no slice is zipped.
    # The plan refuses each before any of its code is written
    module = _jam_nest(changes=changes)
    assert not _jammed(module)
    assert "range(3)" in _for_ranges(_source(module))
    want = _agree_in_every_mode(module, "f", _jam_args())
    if changes[0][1].startswith("%9"):  # in the third copy, at i = 14
        assert want[:2] == ("raised", OutOfBounds) and want[2].startswith(
            "index 20 out of bounds for extent 20 of Buffer<20xf64> at ")


def test_read_at_the_stored_element_by_another_value_jams():
    # D is stored at i + l, where l's loop has one trip, 0: the same element
    # as the read of D[i] by its linear form, though another index value
    module = _jam_nest(changes=[
        ("scf.for %arg5", "scf.for %arg6 = %0 to %1 step %1 {\n      scf.for %arg5"),
        ("memref.store %8, %arg2[%arg5]",
         "%9 = arith.addi %arg5, %arg6 : index\n        memref.store %8, %arg2[%9]"),
        ("    }\n    return", "    }\n    }\n    return")])
    assert _jammed(module) and _for_ranges(_source(module)) == []
    want = _agree_in_every_mode(module, "f", _jam_args())
    assert want[2][2].tolist()[:3] == [2.0 + 9 + 4 + 1, 1.0 + 6 + 2 + 0, 0.0 + 3 + 0 - 1]


@pytest.mark.parametrize("products, jams", [(17, True), (18, False)],
                         ids=["at-budget", "over-budget"])
def test_unroll_ops_pin_what_jams(products, jams):
    # four copies of 7 + products ops: 96 jam, 100 do not
    module = _jam_nest(short=4, products=products)
    assert _jammed(module) == jams
    _agree(module, _jam_args(x=[1.0 + k / 64 for k in range(20)]))


def test_nest_with_a_loop_of_no_trips_writes_nothing():
    # the copies of the loop over k hold no copy of the loop over i: the
    # loop over k is left with a body that writes nothing, so it is not
    # written either
    module = _jam_nest(changes=[
        ("scf.for %arg5", "scf.for %arg6 = %0 to %0 step %1 {\n      scf.for %arg5"),
        ("    }\n    return", "    }\n    }\n    return")])
    assert not _jammed(module)
    assert _for_ranges(_source(module)) == [] and not _slice_forms(_source(module))
    _agree_in_every_mode(module, "f", _jam_args())


def test_jammed_chains_round_and_wrap_per_copy():
    # f32: each copy rounds 1 + 2**-24 back to 1 (a tie, to even), where
    # one rounding of 1 + 3 * 2**-24 gives 1 + 2**-23; i32: 2**31 - 2 plus
    # three 1s wraps in the second copy, each copy's sum wrapping
    f32 = _jam_nest("f32")
    assert _jammed(f32)
    want = _agree(f32, _jam_args("f32", [1.0] * 20, [2.0 ** -24] * 4, [1.0] * 20))
    assert want[2][2].tolist()[:16] == [1.0] * 16
    i32 = _jam_nest("i32")
    assert _jammed(i32)
    (form,), = _slice_forms(_source(i32))
    assert form.count("& 4294967295") == 6   # the product and sum of each
    want = _agree(i32, _jam_args("i32", [1] * 20, [1] * 4, [2 ** 31 - 2] * 20))
    assert want[2][2].tolist()[:17] == [1 - 2 ** 31] * 16 + [2 ** 31 - 2]


# -- a short nest inside a loop over slices, jammed into its statement ---------------

def _decided_once(module):
    """Whether every function of ``module`` was generated once, guarded
    and alias-safe: each loop's form was decided before its code."""
    return not any(again for _, again in _variants(module).values())


def test_nest_inside_a_loop_jams_into_its_statement():
    # the loop over k inside the loop over i: its three copies chain their
    # terms inside each element's expression of the one slice assignment
    # the loop over i is written as, the statement of the nest around it
    module = _jam_nest(inside=True)
    assert _jammed(module) and _decided_once(module)
    assert _for_ranges(_source(module)) == []
    assert _slice_forms(_source(module)) == [[FILTER_STATEMENT]]
    want = _agree_in_every_mode(module, "f", _jam_args())
    assert want[2][2].tolist()[:3] == [2.0 + 9 + 4 + 1, 1.0 + 6 + 2 + 0, 0.0 + 3 + 0 - 1]
    shared = _jam_args()
    shared[2] = shared[0]   # X is D: the alias-safe variant keeps the loop
    _agree_in_every_mode(module, "f", shared)
    assert _for_ranges("".join(_variants(module)[False][0])) == ["range(16)"]


@pytest.mark.parametrize("trips, jams", [(16, True), (15, False)],
                         ids=["16-trips", "15-trips"])
def test_slice_trips_pin_what_a_nest_inside_jams_into(trips, jams):
    assert codegen.SLICE_TRIPS == 16
    module = _jam_nest(inside=True, trips=trips)
    assert _jammed(module) == jams and _writes_per_trip(module) != jams
    assert _for_ranges(_source(module)) == ([] if jams else [f"range({trips})"])
    _agree_in_every_mode(module, "f", _jam_args())


def test_nest_inside_rounds_and_wraps_per_copy():
    # as around the loop: each f32 copy rounds 1 + 2**-24 back to 1, and
    # each i32 copy's product and sum wrap, 2**31 - 2 in the second copy
    f32 = _jam_nest("f32", inside=True)
    assert _jammed(f32)
    want = _agree_in_every_mode(f32, "f", _jam_args("f32", [1.0] * 20, [2.0 ** -24] * 4,
                                                    [1.0] * 20))
    assert want[2][2].tolist()[:16] == [1.0] * 16
    i32 = _jam_nest("i32", inside=True)
    assert _jammed(i32)
    (form,), = _slice_forms(_source(i32))
    assert form.count("& 4294967295") == 6
    want = _agree_in_every_mode(i32, "f", _jam_args("i32", [1] * 20, [1] * 4,
                                                    [2 ** 31 - 2] * 20))
    assert want[2][2].tolist()[:17] == [1 - 2 ** 31] * 16 + [2 ** 31 - 2]


@pytest.mark.parametrize("changes", list(JAM_REFUSALS.values()), ids=list(JAM_REFUSALS))
def test_nest_inside_that_breaks_a_jam_condition_keeps_its_form(changes):
    # each change that keeps a nest around the loop from jamming keeps one
    # inside it from jamming too, refused before any code is written; the
    # nest is written per trip in the loop over i, but for X read past its
    # extent (at i = 14 in the third copy), which can raise, so its loop stays
    module = _jam_nest(inside=True, changes=changes)
    assert not _jammed(module) and _decided_once(module)
    raises = changes[0][1].startswith("%9")
    assert _for_ranges(_source(module)) == ["range(16)"] + ["range(3)"] * raises
    want = _agree_in_every_mode(module, "f", _jam_args())
    if raises:
        assert want[:2] == ("raised", OutOfBounds) and want[2].startswith(
            "index 20 out of bounds for extent 20 of Buffer<20xf64> at ")


@pytest.mark.parametrize("products, jams", [(17, True), (18, False)],
                         ids=["at-budget", "over-budget"])
def test_unroll_ops_pin_what_a_nest_inside_jams(products, jams):
    # four copies of 7 + products ops: 96 jam, 100 are no short nest at all
    module = _jam_nest(short=4, products=products, inside=True)
    assert _jammed(module) == jams and _decided_once(module)
    assert _for_ranges(_source(module)) == ([] if jams else ["range(16)", "range(4)"])
    _agree(module, _jam_args(x=[1.0 + k / 64 for k in range(20)]))


def test_loop_in_a_closure_keeps_its_nest_written_per_trip():
    # the loop over i is past MAX_DEPTH: it runs in a closure of its own,
    # where its nest is written per trip, not jammed
    body = _jam_body(inside=True).removesuffix("\n    return")
    module = _under_loops(body, codegen.MAX_DEPTH, _JAM_PARAMS.format("f64"))
    assert not _jammed(module) and _writes_per_trip(module) and _decided_once(module)
    assert _source(module).count("def ") == 2
    for n in (0, 1):
        _agree_in_every_mode(module, "f", _jam_args() + [n])


def _conv2d_at(trips):
    """conv2d with an output of 1x3x``trips``x``trips``."""
    with open(PRINTED_KERNELS["conv2d"], encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("1x1x64x64", f"1x1x{trips + 2}x{trips + 2}"),
                     ("1x3x62x62", f"1x3x{trips}x{trips}"),
                     ("62 : index", f"{trips} : index")):
        text = text.replace(old, new)
    return parse_module(text, create_context())


@pytest.mark.parametrize("pipeline", [CANON, GPU], ids=["canonicalized", "gpu"])
def test_conv2d_filter_nest_jams_at_20_trips(pipeline):
    module, _ = run_pipeline(_conv2d_at(20), pipeline)
    assert _jammed(module) and _decided_once(module)
    (form,), = _slice_forms(_source(module))
    assert form.count(" + (x") == form.count("d2[") == 9 and " + 20]" in form
    want = _agree_in_every_mode(module, "conv2d", make_inputs(module, "conv2d", 2))
    assert want[0] == ("returned" if pipeline == CANON else "raised")


# conv_rows's output on seed-1 inputs, as the code for each tune point, the
# canonicalized kernel and the outlined one left it before the filter nest
# jammed: the first 16 hex digits of the SHA-256 of its bytes
CONV_ROWS_OUT = "5c1e3cf012a9d73a"


def _digest(buf):
    return hashlib.sha256(buf.data.tobytes()).hexdigest()[:16]


def _filter_nest_jammed(module):
    """conv_rows's 3x3 filter nest as one slice statement, which it
    returns: after the filter's nine elements are read, it zips nine
    slices of the image and one of the output, and every loop left is one
    over a parallel dimension or a thread id."""
    source = _source(module)
    (form,), = _slice_forms(source)
    assert form.count("d2[") == 9 and form.count("d6[") == 2
    reads = [m.start() for m in re.finditer(r"^ +v\d+ = d4\[", source, re.M)]
    assert len(reads) == 9 and max(reads) < source.index(form)
    loops = _for_ranges(source)
    if "def f0(g0" in source:
        assert loops == ["range(g0)", "range(g1)"]
    else:
        assert len(loops) == sum(dim[3] > 1 for op in module.walk_nested()
                                 if op.name == "scf.parallel"
                                 for dim in static_bounds(op))
    return form


@pytest.mark.parametrize("pipeline", [CANON, GPU], ids=["canonicalized", "gpu"])
def test_conv_rows_filter_nest_jams(pipeline):
    with open(os.path.join(INPUTS, "conv_rows.sir"), encoding="utf-8") as fh:
        module, _ = run_pipeline(parse_module(fh.read(), create_context()), pipeline)
    _filter_nest_jammed(module)
    args = make_inputs(module, "conv_rows", 1)
    run(module, "conv_rows", args, "gpu_emulated" if pipeline == GPU else "sequential")
    assert _digest(args[2]) == CONV_ROWS_OUT


def _renamed(text):
    """``text`` with each local named by the order it first appears in."""
    names = {}
    return re.sub(r"\b[a-z]\d+\b",
                  lambda m: names.setdefault(m[0], f"n{len(names)}"), text)


@pytest.mark.parametrize("pipeline", [CANON, GPU], ids=["canonicalized", "gpu"])
def test_conv2d_runs_conv_rows_statement(pipeline):
    # conv2d's filter nest inside the output loop and conv_rows' nest
    # around it jam into one statement, up to its locals' names, and leave
    # the same output bytes on the same inputs
    modules = {}
    for name in ("conv2d", "conv_rows"):
        with open(PRINTED_KERNELS[name], encoding="utf-8") as fh:
            modules[name] = run_pipeline(parse_module(fh.read(), create_context()),
                                         pipeline)[0]
    forms = {name: _slice_forms(_source(module)) for name, module in modules.items()}
    assert len(forms["conv2d"]) == 1
    assert _renamed(forms["conv2d"][0][0]) == _renamed(forms["conv_rows"][0][0])
    args = make_inputs(modules["conv_rows"], "conv_rows", 1)
    mode = "gpu_emulated" if pipeline == GPU else "sequential"
    outputs = set()
    for name, module in modules.items():
        ran = copy_buffers(args)
        run(module, name, ran, mode)
        outputs.add(ran[2].data.tobytes())
    assert len(outputs) == 1 and _digest(ran[2]) == CONV_ROWS_OUT


# -- loop-unroll's copies rolled back into one loop ---------------------------------

# ExecStats of conv_rows at every tune point (tiles, unroll factor) on
# seed-1 inputs, as loop-unroll's copies counted them before codegen rolled
# them back: (total, arith, scf, bookkeeping). At every point memref counts
# 415152 (311364 loads, 103788 stores) and func 1.
TUNE_STATS = {
    ((1, 1), 1): (1152092, 734334, 2605, 106392),
    ((1, 1), 2): (1257554, 839796, 2605, 54498),
    ((1, 1), 31): (1354646, 936888, 2605, 5952),
    ((1, 1), 62): (1357994, 940236, 2605, 4278),
    ((1, 2), 1): (1152560, 734709, 2698, 106485),
    ((1, 2), 2): (1258022, 840171, 2698, 54591),
    ((1, 2), 31): (1355114, 937263, 2698, 6045),
    ((1, 2), 62): (1358462, 940611, 2698, 4371),
    ((1, 31), 1): (1152473, 734709, 2611, 106398),
    ((1, 31), 2): (1257935, 840171, 2611, 54504),
    ((1, 31), 31): (1355027, 937263, 2611, 5958),
    ((1, 31), 62): (1358375, 940611, 2611, 4284),
    ((1, 62), 1): (1152470, 734709, 2608, 106395),
    ((1, 62), 2): (1257932, 840171, 2608, 54501),
    ((1, 62), 31): (1355024, 937263, 2608, 5955),
    ((1, 62), 62): (1358372, 940611, 2608, 4281),
    ((3, 1), 1): (1152529, 734709, 2667, 106454),
    ((3, 1), 2): (1257991, 840171, 2667, 54560),
    ((3, 1), 31): (1355083, 937263, 2667, 6014),
    ((3, 1), 62): (1358431, 940611, 2667, 4340),
    ((3, 2), 1): (1152498, 734709, 2636, 106423),
    ((3, 2), 2): (1257960, 840171, 2636, 54529),
    ((3, 2), 31): (1355052, 937263, 2636, 5983),
    ((3, 2), 62): (1358400, 940611, 2636, 4309),
    ((3, 31), 1): (1152469, 734709, 2607, 106394),
    ((3, 31), 2): (1257931, 840171, 2607, 54500),
    ((3, 31), 31): (1355023, 937263, 2607, 5954),
    ((3, 31), 62): (1358371, 940611, 2607, 4280),
    ((3, 62), 1): (1152468, 734709, 2606, 106393),
    ((3, 62), 2): (1257930, 840171, 2606, 54499),
    ((3, 62), 31): (1355022, 937263, 2606, 5953),
    ((3, 62), 62): (1358370, 940611, 2606, 4279),
}


@pytest.mark.parametrize("tiles", itertools.product(*workloads.TILES), ids=str)
def test_unrolled_tune_points_run_their_slice_form(tiles):
    # every unrolled point's loop is rolled back into the slice statement
    # of its factor-1 point, its filter nest jammed into it, and leaves the
    # same buffers and counts as its copies did
    with open(os.path.join(INPUTS, "conv_rows.sir"), encoding="utf-8") as fh:
        text = fh.read()
    first = None
    for unroll in workloads.UNROLLS:
        module, _ = run_pipeline(parse_module(text, create_context()),
                                 default_pipeline(tiles, unroll))
        args = make_inputs(module, "conv_rows", 1)
        _, stats = run(module, "conv_rows", args)
        total, arith, scf, bookkeeping = TUNE_STATS[tiles, unroll]
        assert (stats.total, stats.per_prefix, stats.arith_ops, stats.loads,
                stats.stores, stats.bookkeeping) == (
            total, {"arith": arith, "memref": 415152, "scf": scf, "func": 1},
            arith, 311364, 103788, bookkeeping)
        form = _filter_nest_jammed(module)
        if first is None:
            first = form, args[2].tolist()
            assert _digest(args[2]) == CONV_ROWS_OUT
        else:
            assert (form, args[2].tolist()) == first


def _copies(runs, step, trips=5, extent=20):
    """@f(A, B): a loop of ``trips`` from 0 by ``step`` over ``runs``, each
    (offset of its index, scale, value it stores): B[i+o] = A[i+o] * scale.
    A stored value "own" is the run's product; "first" is run 0's. A has
    ``extent`` elements, B 20."""
    lines = []
    for k, (offset, scale, stored) in enumerate(runs):
        index = "%arg2"
        if offset:
            lines += [f"%o{k} = arith.constant {offset} : index",
                      f"%i{k} = arith.addi %arg2, %o{k} : index"]
            index = f"%i{k}"
        value = "%p0" if stored == "first" else f"%p{k}"
        lines += [f"%a{k} = memref.load %arg0[{index}] : memref<{extent}xf64>",
                  f"%s{k} = arith.constant {scale} : f64",
                  f"%p{k} = arith.mulf %a{k}, %s{k} : f64",
                  f"memref.store {value}, %arg1[{index}] : memref<20xf64>"]
    body = "\n".join("      " + line for line in lines)
    return _module(f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant {trips * step} : index
    %2 = arith.constant {step} : index
    scf.for %arg2 = %0 to %1 step %2 {{
{body}
    }}
    return""", f"%arg0: memref<{extent}xf64>, %arg1: memref<20xf64>")


def _rolled_loops(module):
    return [_rolled(op) for op in module.walk_nested() if op.name == "scf.for"]


_FOUR_RUNS = [(k, 2.0, "own") for k in range(4)]


@pytest.mark.parametrize("runs, step, trips", [
    (_FOUR_RUNS, 4, 5),
    ([(0, 2.0, "own"), (1, 2.0, "own")], 1, 19),            # step of one copy
    (_FOUR_RUNS[:2] + [(2, 3.0, "own")] + _FOUR_RUNS[3:], 4, 5),    # a constant
    (_FOUR_RUNS[:1] + [(1, 2.0, "first")] + _FOUR_RUNS[2:], 4, 5),  # a use
], ids=["rolled", "step-of-one-copy", "differing-constant", "cross-run-use"])
def test_only_copies_of_one_run_are_rolled(runs, step, trips):
    module = _copies(runs, step, trips)
    rolled = _rolled_loops(module)
    assert _agree(module, [_ramp(n=20), Buffer((20,), "f64")])[0] == "returned"
    source = _source(module)
    if runs is _FOUR_RUNS:     # one slice statement for the 20 trips
        assert [r.copies for r in rolled] == [4]
        assert _for_ranges(source) == [] and len(_slice_forms(source)) == 1
    else:   # a loop over the copies' trips, one store per copy
        assert rolled == [None]
        assert _for_ranges(source) == [f"range(0, {trips * step}, {step})"
                                       if step > 1 else f"range({trips})"]
        assert len(re.findall(r"^ +d\d+\[.*\] = ", source, re.M)) == len(runs)


def test_copies_whose_sum_wraps_are_not_rolled():
    # copy 1 passes iv + 2 = 2^63, wrapped to -2^63, to @g, which stores
    # only for a negative index; the rolled loop would pass 2^63
    module = parse_module("""\
module {
  func.func @g(%arg0: memref<1xf64>, %arg1: index) {
    %0 = arith.constant 0 : index
    %1 = arith.cmpi slt, %arg1, %0 : index
    scf.if %1 {
      %2 = arith.constant 1.0 : f64
      memref.store %2, %arg0[%0] : memref<1xf64>
    }
    return
  }
  func.func @f(%arg0: memref<1xf64>) {
    %0 = arith.constant 9223372036854775806 : index
    %1 = arith.constant 9223372036854775807 : index
    %2 = arith.constant 4 : index
    scf.for %arg1 = %0 to %1 step %2 {
      func.call @g(%arg0, %arg1) : (memref<1xf64>, index) -> ()
      %3 = arith.constant 2 : index
      %4 = arith.addi %arg1, %3 : index
      func.call @g(%arg0, %4) : (memref<1xf64>, index) -> ()
    }
    return
  }
}
""", create_context())
    assert _rolled_loops(module) == [None]
    assert _agree(module, [Buffer((1,), "f64")])[2][0].tolist() == [1.0]


@pytest.mark.parametrize("by", ["loop-unroll", "hand"])
def test_error_in_a_rolled_copy_is_the_copys(by):
    # A has 19 elements: copy 3 of the fifth trip reads A[19] and raises
    # the copies' error with their message, after the stores before it.
    # loop-unroll's copies share their ops' locations, so the loop is
    # rolled; copies written by hand name their own lines, so their loop
    # keeps them
    if by == "hand":
        module = _copies(_FOUR_RUNS, 4, extent=19)
    else:
        module, _ = run_pipeline(_copies(_FOUR_RUNS[:1], 1, 20, extent=19),
                                 "builtin.module(func.func(loop-unroll{factor=4}))")
    assert [r.copies for r in _rolled_loops(module)] == [4]
    want = _agree(module, [_ramp(n=19), Buffer((20,), "f64")])
    assert want[:2] == ("raised", OutOfBounds)
    line = 7 if by == "loop-unroll" else 25
    assert want[2] == ("index 19 out of bounds for extent 19 of "
                       f"Buffer<19xf64> at <input>:{line}")
    assert list(want[3][1].data) == [2 * x for x in _ramp(n=19).data] + [0.0]
    source = _source(module)
    assert source.count("oob(") == 1
    assert _for_ranges(source) == (["range(20)"] if by == "loop-unroll"
                                   else ["range(0, 20, 4)"])


def test_hand_copies_no_error_can_tell_apart_are_rolled():
    # copies written by hand name their own lines, but with every access
    # proven inside its buffer no error names one: the loop rolls, and
    # its one run is a slice assignment
    module = _copies(_FOUR_RUNS, 4, extent=20)
    source = _source(module)
    assert "oob(" not in source and len(_slice_forms(source)) == 1
    assert _variants(module)[True][0] == [source]
    _agree_in_every_mode(module, "f", [_ramp(n=20), Buffer((20,), "f64")])


def _runs(runs, trips=5, extent=20):
    """@f(A, B): a loop of ``trips`` by len(runs) over the runs, each a
    text of ops in which {k} is the run's number and {i} its index value
    (the loop's induction variable, or its sum with k)."""
    lines = []
    for k, run in enumerate(runs):
        index = "%arg2"
        if k:
            lines += [f"%o{k} = arith.constant {k} : index",
                      f"%h{k} = arith.addi %arg2, %o{k} : index"]
            index = f"%h{k}"
        lines += run.format(k=k, i=index).splitlines()
    body = "\n".join("      " + line for line in lines)
    return _module(f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant {trips * len(runs)} : index
    %2 = arith.constant {len(runs)} : index
    scf.for %arg2 = %0 to %1 step %2 {{
{body}
    }}
    return""", f"%arg0: memref<{extent}xf64>, %arg1: memref<20xf64>")


_SCALE = """\
%a{k} = memref.load %arg0[{i}] : memref<20xf64>
%s{k} = arith.constant 2.0 : f64
%p{k} = arith.mulf %a{k}, %s{k} : f64
memref.store %p{k}, %arg1[{i}] : memref<20xf64>"""
_SHIFTED = """\
%c{k} = arith.constant 1 : {ty}
%x{k} = arith.index_cast %c{k} : {ty} to index
%j{k} = arith.addi {i}, %x{k} : index
%a{k} = memref.load %arg0[%j{k}] : memref<21xf64>
memref.store %a{k}, %arg1[{i}] : memref<20xf64>"""
_COMPARED = _SCALE + "\n%q{k} = arith.cmpf {pred}, %a{k}, %s{k} : f64"


def _moved_copy():
    # loop-unroll's copies share their ops' locations; one is moved
    module, _ = run_pipeline(_runs([_SCALE], trips=10),
                             "builtin.module(func.func(loop-unroll{factor=2}))")
    loop, = (op for op in module.walk_nested() if op.name == "scf.for")
    copy = [op for op in loop.body().ops if op.name == "arith.mulf"][1]
    copy.location = Location("<moved>", 99)
    return module


# Per case: the rolled loop's copies (or None), and the first 16 hex digits
# of the SHA-256 of its code, as taken before runs were
# compared by signature; read-of-another-run's was retaken when a load
# stopped reading the local of an earlier load of its element, as its run
# reads %h1 twice
SIGNATURE_CASES = {
    "read-of-another-run": (
        lambda: _runs([_SCALE, _SCALE, _SCALE.replace("[{i}] : memref<20xf64>\n%s",
                                                      "[%h1] : memref<20xf64>\n%s")]),
        None, "4e654f5c5ef67032"),
    "constant-of-another-type": (
        lambda: _runs([_SHIFTED.replace("{ty}", "i64"), _SHIFTED.replace("{ty}", "i32")],
                      extent=21),
        None, "b170f153becce2fa"),
    "attribute-differs": (
        lambda: _runs([_COMPARED.replace("{pred}", "olt"),
                       _COMPARED.replace("{pred}", "ogt")]),
        None, "d9141010f28cb5f0"),
    "copy-at-another-location": (_moved_copy, 2, "a610b328ed46856c"),
}


@pytest.mark.parametrize("case", sorted(SIGNATURE_CASES))
def test_runs_are_rolled_by_signature(case):
    # a run that reads another run's value, holds a constant of another
    # type with the same literal, or an op with another attribute is no
    # copy of run 0; a copy at another location is, its op moved
    build, copies, digest = SIGNATURE_CASES[case]
    module = build()
    rolled, = _rolled_loops(module)
    assert (rolled and rolled.copies) == copies
    if copies:
        moved, = rolled.moved
        assert moved.name == "arith.mulf" and moved.location.line != 99
    source = _source(module)
    assert hashlib.sha256(source.encode()).hexdigest()[:16] == digest
    extent = 21 if case == "constant-of-another-type" else 20
    want = _agree(module, [_ramp(n=extent), Buffer((20,), "f64")])
    assert want[0] == "returned"


# -- code generation in proportion to what runs -------------------------------------

def _bench_sources(group):
    """The modules of the benchmark whose loops code generation rolls,
    slices or jams: the 32 tune points, the 8 kernels modules (four
    inputs, canonicalized and outlined), and conv_rows_strip under both
    bigblocks pipelines."""
    def parsed(path):
        with open(path, encoding="utf-8") as fh:
            return parse_module(fh.read(), create_context())

    conv_rows = os.path.join(INPUTS, "conv_rows.sir")
    if group == "tune":
        return [run_pipeline(parsed(conv_rows), default_pipeline(tiles, unroll))[0]
                for tiles in itertools.product(*workloads.TILES)
                for unroll in workloads.UNROLLS]
    if group == "kernels":
        paths = [conv_rows, golden_path("conv2d.sir"),
                 os.path.join(INPUTS, "matmul.sir"), os.path.join(INPUTS, "saxpy.sir")]
        return [run_pipeline(parsed(path), pipeline)[0]
                for path in paths for pipeline in (CANON, GPU)]
    return [run_pipeline(parsed(os.path.join(INPUTS, "conv_rows_strip.sir")), pipeline)[0]
            for pipeline in (CANON, workloads.UNROLL)]


# the first 16 hex digits of the SHA-256 of their code; the same of their
# alias-safe variants; and of the code of IRGEN_CORPUS in both VARIANTS.
# Each was retaken when the race recorder was deleted, on the code of the
# tree before, whose older digests also hashed the code for a recorder;
# "random" again when a proven load that nothing reads became dead, and
# "kernels", "index" and "jam" when a kernel's parameters were taken to
# be defined outside its thread loops; "kernels" again when a short nest
# inside a loop over slices jammed into its statement (conv2d's, in both
# pipelines), and "random" when a store no trip of a nest changes was
# written in its first trip alone
BENCH_SOURCE_DIGESTS = {"kernels": "8894a856585421ff", "strip": "60eb68b24a377314",
                        "tune": "f4bedd9832a05e40"}
ALIAS_SAFE_DIGESTS = {"kernels": "17a5cbe4ef215f41", "strip": "24b0f21054e52bb8",
                      "tune": "8d0e39da2c50e075"}
IRGEN_DIGESTS = {"index": "d1879c63e7788876", "jam": "3077861fece471f5",
                 "random": "26aa6298ae8a2bc9", "slice": "cf2ee13ca12c6bdd"}
IRGEN_CORPUS = {"random": (random_module, range(240)), "index": (index_module, range(80)),
                "slice": (slice_module, range(90)), "jam": (jam_module, range(240))}


@pytest.mark.parametrize("group", sorted(BENCH_SOURCE_DIGESTS))
def test_bench_modules_generate_the_same_source(group):
    digest, alias_safe = hashlib.sha256(), hashlib.sha256()
    for module in _bench_sources(group):
        digest.update(_source(module).encode())
        alias_safe.update("".join(_variants(module)[False][0]).encode())
    assert digest.hexdigest()[:16] == BENCH_SOURCE_DIGESTS[group]
    assert alias_safe.hexdigest()[:16] == ALIAS_SAFE_DIGESTS[group]


@functools.lru_cache(maxsize=None)
def _irgen_code(family):
    """The first 16 hex digits of the SHA-256 of the code of the family's
    modules, each plain and after the GPU pipeline, in both VARIANTS;
    and how many of those module-variants generated a function twice."""
    build, seeds = IRGEN_CORPUS[family]
    digest, twice = hashlib.sha256(), 0
    for seed in seeds:
        module = build(seed)
        for outlined in (False, True):
            if outlined:    # in place: code generation leaves the module as is
                run_pipeline(module, GPU)
            for sources, again in _variants(module).values():
                digest.update("".join(sources).encode())
                twice += again
    return digest.hexdigest()[:16], twice


@pytest.mark.parametrize("family", sorted(IRGEN_CORPUS))
def test_irgen_modules_generate_the_same_source(family):
    assert _irgen_code(family)[0] == IRGEN_DIGESTS[family]


def test_nests_whose_copies_store_elsewhere_are_refused_up_front():
    # every loop's form is decided before any of its code is written: a
    # nest that would not jam, a loop whose body fits no slice form and a
    # rolled loop whose copy's error would name another location are each
    # written as loops at once, so no function is generated twice, guarded
    # or alias-safe
    counts = {family: _irgen_code(family)[1] for family in IRGEN_CORPUS}
    for corpus in ("bench-inputs", "kernels", "tune-points"):
        counts[corpus] = sum(again for module in _function_corpus(corpus)
                             for _, again in _variants(module).values())
    print(f"module-variants whose code was generated twice: {counts}")
    assert counts == dict.fromkeys(counts, 0)


# Per corpus, the loops of each form (``_Plan.form``; "jam" for a loop of a
# nest that jams) and the loops rolled back, in the code ``lower_module``
# writes for: each IRGEN_CORPUS module, plain and after the GPU pipeline,
# and the 57 benchmark modules. Counted when each form was still chosen as
# its loop was written, from what the writers did with each loop;
# "bench57" again when conv2d's filter nest jammed into its output loop.
LOOP_FORMS = {
    "bench57": {"jam": 84, "loop": 70, "map": 42, "reduce": 2, "rolled": 26, "trips": 39},
    "random": {"loop": 139, "trips": 448},
    "index": {"loop": 295, "trips": 84},
    "slice": {"jam": 14, "loop": 165, "map": 66, "reduce": 40, "trips": 32},
    "jam": {"jam": 286, "loop": 687, "map": 302, "trips": 314},
}


def _loop_forms(modules):
    """The count of each form over the loops of the modules, as LOOP_FORMS
    gives one, and the number of loops whose form was decided twice in the
    code generated for one function."""
    counts, decided = collections.Counter(), []
    decide, generate = codegen._FuncGen.decide, codegen._FuncGen.generate

    def spy(gen, loop, depth):
        decide(gen, loop, depth)
        decided.append((gen.plan, loop))

    def count(gen):     # each loop outside a loop of no trips, by its plan
        source = generate(gen)
        for loop, plan in gen.plan.items():
            if loop.name in codegen._LOOPS and loop not in gen.dead:
                counts["jam" if isinstance(plan.form, Operation) else plan.form] += 1
                counts["rolled"] += isinstance(plan.body, codegen._Rolled)
        return source

    with mock.patch.object(codegen._FuncGen, "decide", spy), \
            mock.patch.object(codegen._FuncGen, "generate", count):
        for module in modules:
            lower_module(module)
    twice = len(decided) - len({(id(plans), loop) for plans, loop in decided})
    return {form: n for form, n in sorted(counts.items()) if n}, twice


def _outlined_too(family):
    build, seeds = IRGEN_CORPUS[family]
    for seed in seeds:
        module = build(seed)
        yield module
        yield run_pipeline(module, GPU)[0]


@pytest.mark.parametrize("corpus", sorted(LOOP_FORMS))
def test_each_loop_takes_its_form_once(corpus):
    modules = _outlined_too(corpus) if corpus in IRGEN_CORPUS else (
        module for _, module in bench_digests.labelled_modules())
    assert _loop_forms(modules) == (LOOP_FORMS[corpus], 0)


def test_only_scan_decides_a_loop_s_form():
    # the writers read each loop's form from its plan: only scan calls
    # decide, and only decide asks the slice and scalar-replacement rules
    # and which stores a nest written per trip writes once
    with open(codegen.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    calls = collections.defaultdict(set)    # method name -> its callers
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    calls[node.func.attr].add(fn.name)
    assert {name: calls[name] for name in ("decide", "sliceable", "keep", "unchanged")} == {
        "decide": {"scan"}, "sliceable": {"decide"}, "keep": {"decide"},
        "unchanged": {"decide"}}
    assert not calls.keys() & {"nest", "written", "raise_free"}


# -- integer facts: branches no other test reaches -----------------------------------

def test_codegen_reads_each_integer_fact_one_way():
    """Literal loop bounds come only from ``dims``, which reads an
    affine.for's attributes through static_bounds; an arith.constant is
    read behind its value only for launch sizes and for the offsets
    loop-unroll gave its copies (``_rolled``); whether an index is proven
    (``within``) and whether two accesses are at one element (``linearise``)
    have no second reader. An interval is read through ``const``,
    ``within`` and ``step_proven`` (a step by ``scan`` too, a point by
    ``gpu_id``), but where ``learn``, ``note`` and ``forget`` keep the
    record and where ``int_binop`` and ``cast`` ask whether their result
    has one. Code generation reads none of its own output to find names:
    it imports no ``re``."""
    with open(codegen.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    callers = {"static_bounds": set(), "constant_of": set(), "bounds": set()}

    def visit(node, owner):     # owner: the function the node is in
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Call, ast.Attribute)):
                callee = getattr(child, "func", child)
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name in callers:
                    callers[name].add(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, None)
    assert callers == {"static_bounds": {"dims"},
                       "constant_of": {"_launch_extents", "_rolled"},
                       "bounds": {"__init__", "const", "within", "step_proven",
                                  "learn", "note", "forget", "int_binop", "cast"}}
    names = {getattr(node, "id", getattr(node, "name", None)) for node in ast.walk(tree)}
    assert not names & {"_element_key", "_unproven"}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "re" not in imported


def _kernel_module(kernel, params, launch, args):
    """A module whose @f launches the kernel @g::@k once."""
    return parse_module(f"""\
module attributes {{gpu.container_module}} {{
  gpu.module @g {{
    gpu.func @k({params}) kernel {{
{kernel}
      gpu.return
    }}
  }}
  func.func @f({args}) {{
    %0 = arith.constant 1 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 16 : index
    gpu.launch_func @g::@k {launch}
    return
  }}
}}
""", create_context())


_WRAPPED_SUM = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 16 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 2147483640 : i32
    scf.for %arg1 = %0 to %1 step %2 {
      %4 = arith.index_cast %arg1 : index to i32
      %5 = arith.addi %3, %4 : i32
      memref.store %5, %arg0[%arg1] : memref<16xi32>
    }
    return"""

_INF_CONSTANT = """\
    %0 = arith.constant 1.0e39 : f32
    %1 = arith.addf %arg0, %0 : f32
    return %0, %1 : f32, f32"""

_COPY_THROUGH_ALLOC = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 20 : index
    %2 = arith.constant 1 : index
    %3 = memref.alloc() : memref<20xf64>
    scf.for %arg2 = %0 to %1 step %2 {
      %4 = memref.load %arg0[%arg2] : memref<20xf64>
      memref.store %4, %3[%arg2] : memref<20xf64>
    }
    scf.for %arg3 = %0 to %1 step %2 {
      %5 = memref.load %3[%arg3] : memref<20xf64>
      %6 = arith.addf %5, %5 : f64
      memref.store %6, %arg1[%arg3] : memref<20xf64>
    }
    return"""

# i takes 0, 3, ..., 12, below 11 + 3, a bound no arith.constant holds
_FOLDED_BOUND = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 11 : index
    %2 = arith.constant 3 : index
    %3 = arith.addi %1, %2 : index
    %4 = arith.constant 1.0 : f64
    scf.for %arg1 = %0 to %3 step %2 {
      memref.store %4, %arg0[%arg1] : memref<13xf64>
    }
    return"""

# each block's four threads double A[4*bx + tx]
_DOUBLE_PER_THREAD = """\
      %0 = gpu.block_id x
      %1 = gpu.thread_id x
      %2 = arith.constant 4 : index
      %3 = arith.muli %0, %2 : index
      %4 = arith.addi %3, %1 : index
      %5 = memref.load %arg0[%4] : memref<8xf64>
      %6 = arith.addf %5, %5 : f64
      memref.store %6, %arg0[%4] : memref<8xf64>"""

# B[tx + tx] = A[tx - tx], the two tx read by two ops
_TWO_THREAD_IDS = """\
      %0 = gpu.thread_id x
      %1 = gpu.thread_id x
      %2 = arith.subi %0, %1 : index
      %3 = arith.addi %0, %1 : index
      %4 = memref.load %arg0[%2] : memref<16xf64>
      memref.store %4, %arg1[%3] : memref<32xf64>"""

# B[tx + tx] = A[tx], a loop of no trips before them reading the first tx
_ID_IN_A_DEAD_LOOP = """\
      %0 = arith.constant 0 : index
      %1 = arith.constant 1 : index
      scf.for %arg2 = %0 to %0 step %1 {
        %2 = gpu.thread_id x
        %3 = memref.load %arg0[%2] : memref<16xf64>
        memref.store %3, %arg1[%2] : memref<32xf64>
      }
      %4 = gpu.thread_id x
      %5 = arith.addi %4, %4 : index
      %6 = memref.load %arg0[%4] : memref<16xf64>
      memref.store %6, %arg1[%5] : memref<32xf64>"""


# Per case: the module, its arguments per run, the mode, and the first 16
# hex digits of the SHA-256 of its code, retaken as BENCH_SOURCE_DIGESTS were
FACT_CASES = {
    # 2147483640 + i is no i32 interval: the sum wraps, once, and its store
    # writes it as it is
    "i32-sum-past-its-width": (
        lambda: _module(_WRAPPED_SUM, "%arg0: memref<16xi32>"),
        [[Buffer((16,), "i32")]], "sequential", "70615f709bc2b161"),
    # 1.0e39 rounds to an f32 inf, which has no literal: it is read from K
    "f32-constant-rounds-to-inf": (
        lambda: _module(_INF_CONSTANT, "%arg0: f32", " -> (f32, f32)"),
        [[1.0], [-3.0e38]], "sequential", "fb06b6677651da72"),
    # an alloc is another array than a parameter: both loops take the map form
    "parameter-copied-through-an-alloc": (
        lambda: _module(_COPY_THROUGH_ALLOC, "%arg0: memref<20xf64>, %arg1: memref<20xf64>"),
        [[_ramp(n=20), Buffer((20,), "f64")]], "sequential", "61902fc8a63ef560"),
    # a loop whose bounds are points is one over literal bounds: its last
    # trip, 12, proves the store's index, where ub - 1 would not
    "loop-bound-folded-to-a-point": (
        lambda: _module(_FOLDED_BOUND, "%arg0: memref<13xf64>"),
        [[Buffer((13,), "f64")]], "sequential", "51b67c892cfc8d69"),
    # a grid size from a parameter bounds no id: each index is checked, once
    "grid-size-from-a-parameter": (
        lambda: _kernel_module(
            _DOUBLE_PER_THREAD, "%arg0: memref<8xf64>",
            "blocks in (%arg1, %0, %0) threads in (%1, %0, %0) "
            "args(%arg0 : memref<8xf64>)", "%arg0: memref<8xf64>, %arg1: index"),
        [[_counting(8), 2], [_counting(8), 3]], "gpu_emulated", "eb1175574e8a84f1"),
    # tx - tx has the form 0, so it is 0, not in [-15, 15]; tx + tx is tx*2;
    # A[0] is read once, before the thread loop, under the entry guard
    "two-ids-of-one-thread-dimension": (
        lambda: _kernel_module(
            _TWO_THREAD_IDS, "%arg0: memref<16xf64>, %arg1: memref<32xf64>",
            "blocks in (%0, %0, %0) threads in (%2, %0, %0) "
            "args(%arg0 : memref<16xf64>, %arg1 : memref<32xf64>)",
            "%arg0: memref<16xf64>, %arg1: memref<32xf64>"),
        [[_counting(16), Buffer((32,), "f64")]], "gpu_emulated", "ef9ed53501aa09ac"),
    # the first tx is in a loop of no trips, which writes nothing: the tx
    # after it still names the forms over that first one
    "first-id-in-a-loop-of-no-trips": (
        lambda: _kernel_module(
            _ID_IN_A_DEAD_LOOP, "%arg0: memref<16xf64>, %arg1: memref<32xf64>",
            "blocks in (%0, %0, %0) threads in (%2, %0, %0) "
            "args(%arg0 : memref<16xf64>, %arg1 : memref<32xf64>)",
            "%arg0: memref<16xf64>, %arg1: memref<32xf64>"),
        [[_counting(16), Buffer((32,), "f64")]], "gpu_emulated", "fc89686fe83f1996"),
}


@pytest.mark.parametrize("case", sorted(FACT_CASES))
def test_integer_fact_branches_agree_and_keep_their_source(case):
    build, runs, mode, digest = FACT_CASES[case]
    module = build()
    for args in runs:
        _agree(module, args, mode)
    source = _source(module)
    assert hashlib.sha256(source.encode()).hexdigest()[:16] == digest


def test_facts_of_two_ids_of_one_thread_dimension():
    build, runs, _, _ = FACT_CASES["two-ids-of-one-thread-dimension"]
    module = build()
    source = _source(module)
    assert "oob(" not in source and source.count("d2[0]") == 1
    assert source.index("d2[0]") < source.index("for tx in") < source.index("d4[")
    assert re.search(r"^ +o\d+ = tx\*2$", source, re.M)
    want = _agree(module, runs[0], "gpu_emulated")
    assert want[2][1].tolist() == [1.0 * (k % 2 == 0) for k in range(32)]


def test_grid_size_from_a_parameter_checks_every_index():
    build, runs, _, _ = FACT_CASES["grid-size-from-a-parameter"]
    module = build()
    assert codegen._launch_extents(module) == {"g::k": None}
    # the load's check; the store's of the same index could not fail after it
    assert _source(module).count("oob(") == 1
    assert _agree(module, runs[0], "gpu_emulated")[2][0].tolist() == [
        2.0 * (k + 1) for k in range(8)]
    assert _agree(module, runs[1], "gpu_emulated")[:3] == (    # at the load
        "raised", OutOfBounds, "index 8 out of bounds for extent 8 of Buffer<8xf64> "
        "at <input>:9")


# the inner loop runs from 11 + 3 to 11 + 3: no trips, and dead, so its
# store of A[1] does not keep A[0] out of a local around the loop over i
_DEAD_BY_FOLDED_BOUNDS = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 16 : index
    %3 = arith.constant 11 : index
    %4 = arith.constant 3 : index
    %5 = arith.addi %3, %4 : index
    %6 = arith.constant 0.0 : f64
    scf.for %arg2 = %0 to %2 step %1 {
      %7 = memref.load %arg1[%arg2] : memref<16xf64>
      %8 = memref.load %arg0[%0] : memref<4xf64>
      %9 = arith.addf %8, %7 : f64
      memref.store %9, %arg0[%0] : memref<4xf64>
      scf.for %arg3 = %5 to %5 step %1 {
        memref.store %6, %arg0[%1] : memref<4xf64>
      }
    }
    return"""


def test_loop_of_no_trips_over_folded_bounds_is_dead():
    module = _module(_DEAD_BY_FOLDED_BOUNDS, "%arg0: memref<4xf64>, %arg1: memref<16xf64>")
    source = _source(module)
    assert re.search(r"^ +e\d+ = d2\[0\]$", source, re.M)
    assert re.search(r"^ +d2\[0\] = e\d+$", source, re.M)
    want = _agree(module, [_counting(), _ramp(n=16)])
    assert want[2][0].tolist() == [1.0 + sum(k - 5 for k in range(16)), 2.0, 3.0, 4.0]


# A[2i + j] = B[2i + j] * 2 over i < 4 and j < 1 + 1, a bound no
# arith.constant holds: a short nest, written once per trip
_SHORT_NEST_OVER_A_FOLDED_BOUND = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 4 : index
    %3 = arith.addi %1, %1 : index
    %4 = arith.constant 2.0 : f64
    scf.for %arg2 = %0 to %2 step %1 {
      scf.for %arg3 = %0 to %3 step %1 {
        %5 = arith.muli %arg2, %3 : index
        %6 = arith.addi %5, %arg3 : index
        %7 = memref.load %arg1[%6] : memref<8xf64>
        %8 = arith.mulf %7, %4 : f64
        memref.store %8, %arg0[%6] : memref<8xf64>
      }
    }
    return"""


def test_short_nest_over_a_folded_bound_is_written_per_trip():
    module = _module(_SHORT_NEST_OVER_A_FOLDED_BOUND,
                     "%arg0: memref<8xf64>, %arg1: memref<8xf64>")
    assert _writes_per_trip(module) and _for_ranges(_source(module)) == []
    want = _agree(module, [Buffer((8,), "f64"), _ramp(n=8)])
    assert want[2][0].tolist() == [2.0 * (k - 2) for k in range(8)]


# i + 5 runs past A's extent: A[i + 5] is checked, and B[i + 5], checked
# once with it, is still read in the loop over j, after the check
_ONE_CHECK_FOR_TWO_LOADS = """\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 4 : index
    %3 = arith.constant 5 : index
    %4 = arith.constant 20 : index
    scf.for %arg3 = %0 to %2 step %1 {
      %5 = arith.addi %arg3, %3 : index
      scf.for %arg4 = %0 to %4 step %1 {
        %6 = memref.load %arg0[%5] : memref<8xf64>
        %7 = memref.load %arg1[%5] : memref<8xf64>
        %8 = arith.addf %6, %7 : f64
        memref.store %8, %arg2[%arg4] : memref<20xf64>
      }
    }
    return"""


def test_a_load_checked_with_another_stays_after_the_check():
    module = _module(_ONE_CHECK_FOR_TWO_LOADS, "%arg0: memref<8xf64>, "
                     "%arg1: memref<8xf64>, %arg2: memref<20xf64>")
    assert _source(module).count("oob(") == 1
    want = _agree(module, [_counting(8), _counting(8), Buffer((20,), "f64")])
    assert want[:3] == ("raised", OutOfBounds, "index 8 out of bounds for "
                        "extent 8 of Buffer<8xf64> at <input>:11")


def test_registered_op_the_interpreter_does_not_run():
    from conftest import context_with_test_ops

    module = parse_module("""\
module {
  func.func @f(%arg0: f64) -> (f64) {
    %0 = test.op(%arg0) : (f64) -> (f64)
    return %0 : f64
  }
}
""", context_with_test_ops())
    want = _agree(module, [1.0])
    assert want[:3] == ("raised", UnknownOperation,
                        "the interpreter cannot execute 'test.op'")
