"""Import staircase, capture the kernel corpus and run it, printing all of it.

It uses the standard library alone, so any Python can run it:

    PYTHONPATH=src:tests python tests/every_python.py

For each kernel of tests/kernels.py it prints the captured IR, whether
print -> parse_module -> print gives that text back, each op's source
line, and the ExecStats, results and buffers of a gpu_emulated run after
each of canonicalize and lower-affine,loop-unroll{factor=2}, whose
copies the generated code rolls back into one loop. Last, it runs a
function of one straight-line run of about 4,060 statements, which
generated code writes as one Python function, and three deep parallel
loops: six dimensions under 9 and under 10 loops, which put the body at
MAX_DEPTH + 1 and past it, and 20 dimensions, a function of its own with
20 nested loops, each of which it also prints and parses back. So each
interpreter's compiler limits meet them, and its parser reads every
module through the line reader and the token reader alike.
test_pythons.py compares this output across interpreters.
"""
import os
from itertools import chain

import kernels
from irgen import deep_parallel_module, long_block_module
from staircase.frontend.capture import StagedFunction
from staircase.interp import Buffer
from staircase.interp.codegen import lower_module
from staircase.interp.machine import run
from staircase.ir.core import clone_module, create_context
from staircase.passes import run_pipeline
from staircase.textio import parse_module, print_module

CANON = "builtin.module(func.func(canonicalize))"
UNROLL = "builtin.module(func.func(lower-affine,loop-unroll{factor=2}))"
STAT_FIELDS = ("total", "per_prefix", "arith_ops", "loads", "stores",
               "bookkeeping", "mode", "workers")


def inputs(param_types) -> list:
    """Arguments made without a random generator, so they are the same on
    every version."""
    args = []
    for n, ty in enumerate(param_types):
        if ty.kind == "memref":
            buf = Buffer(ty.shape, ty.element.kind)
            for i in range(len(buf.data)):
                buf.data[i] = ((7 * i + n) % 13) / 4.0 - 1.5
            args.append(buf)
        else:
            args.append(n + 0.5)
    return args


def where(op) -> str:
    loc = op.location
    return f"{os.path.basename(loc.file)}:{loc.line}" if loc else "-"


def round_trip(module) -> None:
    """Print whether print -> parse -> print is a fixed point for module."""
    text = print_module(module)
    print("fixed point", print_module(parse_module(text, create_context())) == text)


def show(results, stats, args) -> None:
    print("results", repr(results))
    print("stats", repr([getattr(stats, f) for f in STAT_FIELDS]))
    for arg in args:
        if isinstance(arg, Buffer):
            print("buffer", repr(arg.tolist()))


def main() -> None:
    for name, staged in sorted(vars(kernels).items()):
        if not isinstance(staged, StagedFunction):
            continue
        module = staged.module
        print(f"== {name}")
        print(print_module(module), end="")
        round_trip(module)
        for op in chain((module,), module.walk_nested()):
            print(op.name, where(op))
        for pipeline in (CANON, UNROLL):
            work, _ = run_pipeline(clone_module(module), pipeline)
            args = inputs(lower_module(work)[name].param_types)
            results, stats = run(work, name, args, "gpu_emulated")
            if pipeline == UNROLL:
                print("after", pipeline)
            show(results, stats, args)
    print("== long")
    module = long_block_module()
    round_trip(module)
    args = inputs([arg.type for arg in module.body().ops[0].body().args])
    show(*run(module, "long", args), args)
    for loops, dims in ((9, 6), (10, 6), (0, 20)):
        print(f"== deep {loops} {dims}")
        module = deep_parallel_module(loops, dims)
        round_trip(module)
        args = [Buffer((8,), "f64"), 1, 3]
        show(*run(module, "deep", args), args)


if __name__ == "__main__":
    main()
