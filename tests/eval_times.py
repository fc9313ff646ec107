"""In-process run times of the 57 benchmark modules, to size a change to
the evaluator per kernel.

    PYTHONPATH=src python tests/eval_times.py [N]

For each module that ``bench_digests.labelled_modules`` gives, in its
order, it prints the label and the best of N runs (5 if N is not given),
in ms, of ``machine.call`` of the module's first func.func. Each run takes
a fresh copy of the inputs ``tuner.search.make_inputs`` draws at seed 1,
after a ``gc.collect()``. A ``/gpu`` module runs in gpu_emulated mode, any
other in sequential mode. Each module is compiled once, before its runs.
"""
import gc
import sys
import time

import bench_digests
from staircase.interp.buffer import copy_buffers
from staircase.interp.codegen import lower_module
from staircase.interp.machine import call
from staircase.tuner.search import make_inputs


def best_ms(label: str, module, runs: int) -> float:
    """The least time of ``runs`` calls of the module's first func.func,
    in ms."""
    func = next(op.attributes["sym_name"].value for op in module.body().ops
                if op.name == "func.func")
    mode = "gpu_emulated" if label.endswith("/gpu") else "sequential"
    program, inputs = lower_module(module), make_inputs(module, None, 1)
    best = float("inf")
    for _ in range(runs):
        args = copy_buffers(inputs)
        gc.collect()
        start = time.perf_counter()
        call(program, func, args, mode, 1)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    for label, module in bench_digests.labelled_modules():
        print(f"{label} {best_ms(label, module, runs):.3f}")
