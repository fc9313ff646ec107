"""The generated-code evaluator against the definitional interpreter.

``run`` executes Python source generated per module; ``definterp.run``
walks the ops recursively and defines what they mean. On every input
below, in sequential, worksharing:2 and gpu_emulated modes, both must
leave the same buffers, return the same results and count the same
ExecStats, or raise the same exception type with the same message and
leave the same buffers behind.
"""
import math
import os
import re
from array import array
from unittest import mock

import pytest

import definterp
from conftest import golden_path
from irgen import index_module, random_inputs, random_module
from staircase.interp import Buffer, codegen
from staircase.interp.machine import run
from staircase.interp.tape import compile_module
from staircase.ir.core import create_context
from staircase.passes import run_pipeline
from staircase.textio import parse_module, print_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(ROOT, "perfbench", "inputs")

CANON = "builtin.module(func.func(canonicalize))"
GPU = "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)"
MODES = (("sequential", 1, CANON), ("worksharing", 2, CANON),
         ("gpu_emulated", 1, GPU))
STAT_FIELDS = ("total", "per_prefix", "arith_ops", "loads", "stores",
               "bookkeeping", "mode", "workers")
IRGEN_SEEDS = range(240)


def _outcome(runner, module, func, args, mode, workers):
    args = [a.copy() if isinstance(a, Buffer) else a for a in args]
    try:
        results, stats = runner(module, func, args, mode, workers)
    except Exception as exc:  # compared by type, message and buffers
        return ("raised", type(exc), str(exc), args)
    fields = tuple(getattr(stats, f) for f in STAT_FIELDS)
    return ("returned", results, args, fields)


def differ(module, func, args, mode="sequential", workers=1):
    """Run both evaluators; return the reference outcome and a mismatch or None."""
    want = _outcome(definterp.run, module, func, args, mode, workers)
    got = _outcome(run, module, func, args, mode, workers)
    if got != want:
        return want, f"{func} in {mode}: generated {got!r}, reference {want!r}"
    return want, None


def _source(module, recorder=None):
    """The source ``lower_module`` compiles for the module: what ``run``
    executes, or given a recorder, what ``check_races`` does."""
    units = []
    define = codegen._define
    with mock.patch.object(codegen, "_define", lambda batch, namespace: (
            units.extend(batch), define(batch, namespace))):
        codegen.lower_module(module, recorder)
    return "".join(units)


def _entry_name(module):
    return next(op.attributes["sym_name"].value for op in module.body().ops
                if op.name == "func.func")


def _param_types(module, func):
    return compile_module(module)[func].param_types


def _irgen_runs(seeds, build=random_module):
    """Compare every seed in every mode; returns (mismatches, raised, runs)."""
    mismatches, raised, runs = [], 0, 0
    for seed in seeds:
        for mode, workers, pipeline in MODES:
            module = build(seed)
            if mode == "gpu_emulated":
                module, _ = run_pipeline(module, pipeline)
            func = _entry_name(module)
            args = random_inputs(_param_types(module, func), seed)
            want, problem = differ(module, func, args, mode, workers)
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


def test_chained_segments_agree(monkeypatch):
    """Straight-line runs split every few statements still agree."""
    monkeypatch.setattr(codegen, "SEGMENT", 2)
    mismatches, _, _ = _irgen_runs(range(60))
    assert not mismatches, "\n".join(mismatches[:5])
    modules = [random_module(seed) for seed in range(60)]
    sources = [_source(m) for m in modules]
    assert sum("_s" in source for source in sources) > 20


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
    for mode, workers, pipeline in MODES:
        module, _ = run_pipeline(parse_module(text, create_context()), pipeline)
        func = _entry_name(module)
        args = random_inputs(_param_types(module, func), 7)
        want, problem = differ(module, func, args, mode, workers)
        assert problem is None, problem
        assert want[0] == "returned"


@pytest.mark.parametrize("path", _sources(), ids=os.path.basename)
def test_recorder_calls_stay_out_of_run(path):
    with open(path, encoding="utf-8") as fh:
        parsed = parse_module(fh.read(), create_context())
    recorder_call = re.compile(r"\bR\.\w+\(")
    for pipeline in (CANON, GPU):
        module, _ = run_pipeline(parsed, pipeline)
        assert not recorder_call.search(_source(module))
        assert recorder_call.search(_source(module, recorder=object()))


@pytest.mark.parametrize("name", ["ifs", "matmul", "conv2d", "conv_small",
                                  "conv_rows", "strided"])
def test_captured_kernels_agree(name):
    import kernels

    staged = getattr(kernels, name)
    if name in PRINTED_KERNELS:
        with open(PRINTED_KERNELS[name], encoding="utf-8") as fh:
            assert print_module(staged.module) == fh.read()
    for mode, workers, pipeline in MODES:
        module, _ = run_pipeline(staged.module, pipeline)
        args = random_inputs(_param_types(module, name), 3)
        want, problem = differ(module, name, args, mode, workers)
        assert problem is None, problem
        assert want[0] == "returned"


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


def test_integer_identities(monkeypatch):
    # x + 0, 0 + x, x - 0, x * 1 and 1 * x are x; x + 1, x - 1 and x * 2
    # are not. %12 casts a folded sum and is stored after a loop, from a
    # chained segment that must receive the sum's operands.
    monkeypatch.setattr(codegen, "SEGMENT", 2)
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


def test_launch_outside_gpu_mode():
    with open(os.path.join(INPUTS, "saxpy.sir"), encoding="utf-8") as fh:
        module = parse_module(fh.read(), create_context())
    module, _ = run_pipeline(module, GPU)
    args = random_inputs(_param_types(module, "saxpy"), 1)
    for mode in ("sequential", "worksharing"):
        want, problem = differ(module, "saxpy", args, mode, 2)
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


def test_index_split_across_segments(monkeypatch):
    # %5 and %6 are read in the inner loop as v4 + 1 and v4 + 2, where v4
    # (%4) is bound in a chained segment that nothing later in its run reads
    monkeypatch.setattr(codegen, "SEGMENT", 3)
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


def test_alias_across_segments(monkeypatch):
    # %3 is %0 under another name, bound in the first chained segment and
    # read only after the run, by the return after a loop
    monkeypatch.setattr(codegen, "SEGMENT", 2)
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
    return %3 : i64""", "%arg0: index, %arg1: index", " -> (i64)")
    assert "_s" in _source(module)
    assert _agree(module, [3, 4])[1] == (12,)


def test_nested_functions_get_distinct_names():
    # neither parallel body binds a local of its own; each must still be
    # a function of its own, not one definition replacing the other
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    scf.parallel (%arg2) = (%0) to (%1) step (%1) {
      memref.store %arg1, %arg0[%0] : memref<4xf64>
    }
    scf.parallel (%arg3) = (%0) to (%1) step (%1) {
      memref.store %arg1, %arg0[%2] : memref<4xf64>
    }
    return""", "%arg0: memref<4xf64>, %arg1: f64")
    want = _agree(module, [Buffer((4,), "f64"), 5.0])
    assert want[2][0].tolist() == [5.0, 0.0, 5.0, 0.0]


# -- addresses from partial sums bound in loop headers --------------------------

def _addresses(line):
    """The flat-offset expressions a generated line computes."""
    bound = re.match(r" *o\d+ = (.*)", line)
    return ([bound.group(1)] if bound else []) + re.findall(r"\[([^\[\]]*)\]", line)


@pytest.mark.parametrize("name", ["conv_rows", "matmul"])
def test_innermost_addresses_multiply_nothing(name):
    # every stride times an outer induction variable is in a partial sum
    # bound outside the innermost loop (the float product stays)
    import kernels

    module, _ = run_pipeline(getattr(kernels, name).module, CANON)
    lines = _source(module).splitlines()
    indents = [len(line) - len(line.lstrip()) for line in lines]
    at = max((i for i, line in enumerate(lines) if line.lstrip().startswith("for ")),
             key=lambda i: indents[i])
    body = []
    for line, indent in zip(lines[at + 1:], indents[at + 1:]):
        if indent <= indents[at]:
            break
        body.append(line)
    assert body and not [a for line in body for a in _addresses(line) if "*" in a]


def test_bounds_checks_over_irgen_seeds():
    # linear forms prove nothing new and drop no check
    assert sum(_source(random_module(seed)).count("oob(")
               for seed in IRGEN_SEEDS) == 105


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
    # the loops past MAX_DEPTH run in a function of their own, whose entry
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
    assert "def f0_n" in source
    assert re.search(r"^    h\d+ = i\d+\*6 \+ i\d+\*3$", source, re.M)
    want = _agree(module, [Buffer((2, 2, 3), "f64"), 1])
    assert want[2][0].tolist() == [1.0, 2.0, 1.0] * 4
    assert _agree(module, [Buffer((2, 2, 3), "f64"), 0])[0] == "returned"


def test_partial_sums_enter_chained_segments(monkeypatch):
    # the inner run is split every two statements; its segments read the
    # partial sums bound in the header of i's loop
    monkeypatch.setattr(codegen, "SEGMENT", 2)
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 3 : index
    %3 = arith.constant 4 : index
    %4 = arith.constant 2.0 : f64
    scf.for %arg2 = %0 to %2 step %1 {
      scf.for %arg3 = %0 to %3 step %1 {
        %5 = memref.load %arg0[%arg2, %arg3] : memref<3x4xf64>
        %6 = arith.addf %5, %4 : f64
        memref.store %6, %arg0[%arg2, %arg3] : memref<3x4xf64>
        %7 = arith.subi %2, %arg2 : index
        %8 = arith.subi %7, %1 : index
        %9 = memref.load %arg1[%arg3, %8] : memref<4x3xf64>
        %10 = arith.mulf %9, %6 : f64
        memref.store %10, %arg1[%arg3, %8] : memref<4x3xf64>
      }
    }
    return""", "%arg0: memref<3x4xf64>, %arg1: memref<4x3xf64>")
    source = _source(module)
    assert re.search(r"^def f0_s\d+\(.*\bh\d+\b", source, re.M)
    args = [Buffer((3, 4), "f64", [float(k) for k in range(12)]),
            Buffer((4, 3), "f64", [float(k) for k in range(12)])]
    want = _agree(module, args)
    assert want[2][1].tolist() == [float(k) * (k // 3 + 4 * (2 - k % 3) + 2)
                                   for k in range(12)]


def test_segment_parameters_are_read(monkeypatch):
    """Every parameter of a chained segment is named in its body."""
    monkeypatch.setattr(codegen, "SEGMENT", 2)
    modules = [random_module(seed) for seed in range(60)]
    modules += [index_module(seed) for seed in range(20)]
    for path in _sources():
        with open(path, encoding="utf-8") as fh:
            modules.append(run_pipeline(parse_module(fh.read(), create_context()),
                                        CANON)[0])
    unused, segments = [], 0
    for module in modules:
        source = _source(module)
        for m in re.finditer(r"^def (\w+_s\d+)\((.*)\):\n((?:    .*\n)*)",
                             source, re.M):
            segments += 1
            read = set(re.findall(r"[A-Za-z_]\w*", m[3]))
            unused += [f"{m[1]}: {p}" for p in m[2].split(", ")
                       if p not in read and p not in ("T", "X")]
    assert not unused, unused[:5]
    assert segments > 100


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
