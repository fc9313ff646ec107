"""``eval_times.py`` times the call of a module's first func.func."""
import math
import os

import eval_times
from staircase.ir.core import create_context
from staircase.passes import run_pipeline
from staircase.textio import parse_module

MATMUL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "inputs", "matmul.sir")


def test_a_gpu_module_runs_once_in_gpu_emulated_mode():
    # a launch outside gpu_emulated mode raises: the label picks the mode
    with open(MATMUL, encoding="utf-8") as fh:
        module = parse_module(fh.read(), create_context())
    module, _ = run_pipeline(module, eval_times.bench_digests.workloads.GPU)
    ms = eval_times.best_ms("kernels/matmul/gpu", module, 1)
    assert math.isfinite(ms) and ms > 0
