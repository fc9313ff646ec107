"""Every pass preserves what a module computes, and the blocks' order index.

Each registered pass, and the tuner's default pipeline at a few tile and
unroll points, runs on the irgen modules and the captured kernel corpus.
Under gpu_emulated, the rewritten module must leave the same buffers and
return the same results as the module it was given. Seeds whose
untransformed run raises, and pipelines that refuse a module with
PassFailure, are left out and counted. Every rewritten block's order
numbers must agree with the positions of its ops. Four pass outputs are
pinned as goldens, and the passes' source is checked to build only
through the dialect builders.
"""
import ast
import glob
import os

import pytest

from conftest import golden_text, ir_layout, visible_by_definition
from irgen import random_inputs, random_module
from staircase.dialects.builders import build_constant, build_func
from staircase.errors import PassFailure, StaircaseError
from staircase.interp import Buffer
from staircase.interp.machine import run
from staircase.ir.core import (
    create_context,
    create_module,
    create_op,
    erase_op,
    move_op,
    value_dominates_op,
    walk,
)
from staircase.passes import run_pipeline
from staircase.textio import print_module
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

# What each pipeline prints for one captured kernel, pinned in
# tests/golden/passes/<kernel>.sir: outlining of a 4-D loop (three block
# ids and an scf.for), tiling then outlining (block and thread ids), the
# loop lowering and cleanup chain, and a tuner point.
GOLDEN_PIPELINES = {
    "conv2d": "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)",
    "conv_small": "builtin.module(func.func(scf-parallel-loop-tiling"
                  "{sizes=[8,8]}),gpu-map-parallel-loops,gpu-kernel-outlining)",
    "matmul": "builtin.module(func.func(lower-affine,loop-unroll{factor=2},"
              "canonicalize))",
    "conv_rows": default_pipeline([1, 2], 2),
}


def _order_problems(module):
    """Where a block's order index disagrees with its list of ops."""
    problems = []
    layout = ir_layout(module)

    def check(op):
        for region in op.regions:
            for block in region.blocks:
                orders = [block.order_of(o) for o in block.ops]
                if any(a >= b for a, b in zip(orders, orders[1:])):
                    problems.append(f"order numbers {orders} in {op.name}")
                for i, inner in enumerate(block.ops):
                    if inner.block_index() != i:
                        problems.append(f"{inner.name} at {i} reports "
                                        f"{inner.block_index()}")
                    for v in inner.operands:
                        if value_dominates_op(v, inner) \
                                != visible_by_definition(v, block, i, layout):
                            problems.append(f"dominance of {v!r} at "
                                            f"{inner.name} differs")

    walk(module, check)
    return problems


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
        mismatches += [f"{func} (seed {seed}) after {pipeline}: {problem}"
                       for problem in _order_problems(rewritten)]
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


@pytest.mark.parametrize("name", sorted(GOLDEN_PIPELINES))
def test_pass_outputs_print_byte_for_byte(name):
    import kernels

    module, _ = run_pipeline(getattr(kernels, name).module,
                             GOLDEN_PIPELINES[name])
    assert print_module(module) == golden_text(os.path.join("passes",
                                                            f"{name}.sir"))


def test_passes_build_through_the_builders():
    """No pass makes an op, block argument or region by hand, or moves ops
    one by one: they use dialects/builders.py and merge_block."""
    import staircase.passes

    banned_calls = {"create_op", "add_arg", "move_op", "Region"}
    banned_defs = {"index_const", "_KernelWriter"}
    found = []
    for path in glob.glob(os.path.join(
            os.path.dirname(staircase.passes.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name in banned_calls:
                    found.append(f"{os.path.basename(path)}:{node.lineno} "
                                 f"calls {name}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in banned_defs:
                found.append(f"{os.path.basename(path)} defines {node.name}")
    assert not found, found


def test_order_index_survives_inserts_at_one_spot():
    """Enough inserts between the same two ops to use up the gap between
    their numbers, mixed with erases and moves."""
    module = create_module(create_context())
    body = build_func(module, "f", []).body()
    first = build_constant(body, 0.0)
    build_constant(body, 1.0)
    made = []
    for k in range(64):
        made.append(create_op(body, 1, "arith.addf", [first, first],
                              result_types=[first.type]))
        if k % 5 == 4:
            erase_op(made.pop(len(made) // 2))
        if k % 7 == 6:
            move_op(made[0], body, 1)
        assert not _order_problems(module)
    assert body.renumbers > 0
    assert [op.name for op in body.ops[1:-2]] == ["arith.addf"] * len(made)
