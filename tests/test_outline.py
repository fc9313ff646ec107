"""gpu-kernel-outlining keeps what each block runs once from running per thread."""
from staircase.interp import Buffer
from staircase.interp.machine import run
from staircase.ir.core import create_context
from staircase.passes import run_pipeline
from staircase.textio import parse_module, print_module

GPU = "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)"

# Per block, a[i] = a[i] + 1.0 beside a 2-wide thread loop that writes b.
BESIDE = """\
module {
  func.func @f(%arg0: memref<4xf64>, %arg1: memref<4x2xf64>) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 4 : index
    %4 = arith.constant 1.0 : f64
    scf.parallel (%arg2) = (%0) to (%3) step (%1) {
      %5 = memref.load %arg0[%arg2] : memref<4xf64>
      %6 = arith.addf %5, %4 : f64
      memref.store %6, %arg0[%arg2] : memref<4xf64>
      scf.parallel (%arg3) = (%0) to (%2) step (%1) {
        memref.store %4, %arg1[%arg2, %arg3] : memref<4x2xf64>
      }
    }
    return
  }
}
"""


def _run(text, mode):
    module = parse_module(text, create_context())
    if mode == "gpu_emulated":
        module, stats = run_pipeline(module, GPU)
    else:
        stats = None
    a, b = Buffer((4,), "f64"), Buffer((4, 2), "f64")
    run(module, "f", [a, b], mode)
    return a.tolist(), b.tolist(), module, stats


def test_effects_beside_thread_loop_run_once_per_block():
    a, b, module, stats = _run(BESIDE, "gpu_emulated")
    assert a == [1.0] * 4
    assert b == [1.0] * 8
    assert (a, b) == _run(BESIDE, "sequential")[:2]
    assert stats[-1].skipped == 1 and stats[-1].rewrites == 0
    assert "gpu.launch_func" not in print_module(module)


def test_index_math_beside_thread_loop_still_outlines():
    text = BESIDE.replace("""\
      %5 = memref.load %arg0[%arg2] : memref<4xf64>
      %6 = arith.addf %5, %4 : f64
      memref.store %6, %arg0[%arg2] : memref<4xf64>
""", """\
      %5 = arith.addi %arg2, %1 : index
""")
    _, b, module, stats = _run(text, "gpu_emulated")
    assert b == [1.0] * 8
    assert stats[-1].rewrites == 1
    assert "gpu.launch_func" in print_module(module)
