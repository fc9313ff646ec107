"""Every pass preserves what a module computes.

Each registered pass, and the tuner's default pipeline at a few tile and
unroll points, runs on the irgen modules and the captured kernel corpus.
Under gpu_emulated, the rewritten module must leave the same buffers and
return the same results as the module it was given. Seeds whose
untransformed run raises, and pipelines that refuse a module with
PassFailure, are left out and counted.
"""
from irgen import random_inputs, random_module
from staircase.errors import PassFailure, StaircaseError
from staircase.interp import Buffer
from staircase.interp.machine import run
from staircase.passes import run_pipeline
from staircase.tuner import default_pipeline

IRGEN_SEEDS = range(240)
KERNELS = ("ifs", "matmul", "conv2d", "conv_small", "conv_rows", "strided",
           "add_one")
PIPELINES = (
    "builtin.module(func.func(canonicalize))",
    "builtin.module(func.func(lower-affine))",
    "builtin.module(func.func(loop-unroll{factor=2}))",
    "builtin.module(func.func(loop-unroll{factor=3}))",
    "builtin.module(func.func(scf-parallel-loop-tiling{sizes=[2]}))",
    "builtin.module(gpu-map-parallel-loops)",
    "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)",
    default_pipeline([2], 1),
    default_pipeline([1], 2),
    default_pipeline([2, 2], 4),
    default_pipeline([4], 3),
)


def _outcome(module, func, args):
    """(returned values, buffers after the run) under gpu_emulated."""
    args = [a.copy() if isinstance(a, Buffer) else a for a in args]
    results, _ = run(module, func, args, "gpu_emulated")
    return results, [a.tolist() for a in args if isinstance(a, Buffer)]


def _check(module, func, seed):
    """Compare every pipeline against the untransformed run.

    Returns (mismatches, refused pipelines), or None when the
    untransformed run raises.
    """
    entry = next(op for op in module.body().ops if op.name == "func.func"
                 and op.attributes["sym_name"].value == func)
    args = random_inputs([a.type for a in entry.body().args], seed)
    try:
        want = _outcome(module, func, args)
    except StaircaseError:  # such as OutOfBounds on a random index
        return None
    mismatches, refused = [], 0
    for pipeline in PIPELINES:
        try:
            rewritten, _ = run_pipeline(module, pipeline)
        except PassFailure:
            refused += 1
            continue
        try:
            got = _outcome(rewritten, func, args)
        except Exception as exc:  # reported with the pipeline that caused it
            got = f"{type(exc).__name__}: {exc}"
        if got != want:
            mismatches.append(f"{func} (seed {seed}) after {pipeline}: "
                              f"{got!r}, untransformed {want!r}")
    return mismatches, refused


def _check_all(cases):
    mismatches, excluded, refused = [], 0, 0
    for module, func, seed in cases:
        checked = _check(module, func, seed)
        if checked is None:
            excluded += 1
            continue
        mismatches += checked[0]
        refused += checked[1]
    return mismatches, excluded, refused


def test_passes_preserve_irgen_modules():
    cases = []
    for seed in IRGEN_SEEDS:
        module = random_module(seed)
        func = next(op for op in module.body().ops if op.name == "func.func")
        cases.append((module, func.attributes["sym_name"].value, seed))
    mismatches, excluded, refused = _check_all(cases)
    print(f"irgen: {excluded} of {len(cases)} seeds raise untransformed; "
          f"{refused} pipeline runs refused with PassFailure")
    assert not mismatches, "\n".join(mismatches[:5])
    assert excluded < len(cases) // 2


def test_passes_preserve_captured_kernels():
    import kernels

    cases = [(getattr(kernels, name).module, name, 3) for name in KERNELS]
    mismatches, excluded, refused = _check_all(cases)
    print(f"kernels: {excluded} of {len(cases)} raise untransformed; "
          f"{refused} pipeline runs refused with PassFailure")
    assert not mismatches, "\n".join(mismatches[:5])
    assert excluded == 0
