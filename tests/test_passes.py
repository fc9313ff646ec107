"""Every pass preserves what a module computes, and the blocks' order index.

Each registered pass, and the tuner's default pipeline at a few tile and
unroll points, runs on the irgen modules and the captured kernel corpus.
Under gpu_emulated, the rewritten module must leave the same buffers and
return the same results as the module it was given. Seeds whose
untransformed run raises, and pipelines that refuse a module with
PassFailure, are left out and counted. Every rewritten block's order
numbers must agree with the positions of its ops, and every rewritten
module must print, parse and print to the same text. A pipeline rewrites
the module it is given, so each check runs on a clone. Seeded random
compositions of two to five passes are checked the same way. Four pass
outputs are pinned as goldens, and the passes' source is checked to
build only through the dialect builders.
"""
import ast
import glob
import os
import random
from itertools import chain

import pytest

from conftest import golden_text, ir_layout, visible_by_definition
from irgen import random_inputs, random_module
from staircase.dialects.builders import build_constant, build_func
from staircase.errors import InvalidBound, PassFailure, StaircaseError
from staircase.interp import Buffer
from staircase.interp.machine import run
from staircase.ir.core import (
    clone_module,
    create_context,
    create_module,
    create_op,
    erase_op,
    move_op,
    value_dominates_op,
)
from staircase.passes import PASSES, PassOutcome, run_pipeline
from staircase.textio import parse_module, print_module
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
    """Where a block's order index disagrees with its list of ops, or a
    block or op names another parent than the one holding it."""
    problems = []
    layout = ir_layout(module)
    ops_at, holder = layout
    for op in chain((module,), module.walk_nested()):
        for block in op.regions:
            if block.parent_op is not holder[block]:
                problems.append(f"a block of {op.name} names another parent")
            orders = [block.order_of(o) for o in block.ops]
            if any(a >= b for a, b in zip(orders, orders[1:])):
                problems.append(f"order numbers {orders} in {op.name}")
            for i, inner in enumerate(block.ops):
                if inner.parent is not ops_at[inner][0]:
                    problems.append(f"{inner.name} at {i} names another block")
                elif inner.block_index() != i:
                    problems.append(f"{inner.name} at {i} reports "
                                    f"{inner.block_index()}")
                for v in inner.operands:
                    if value_dominates_op(v, inner) \
                            != visible_by_definition(v, block, i, layout):
                        problems.append(f"dominance of {v!r} at "
                                        f"{inner.name} differs")
    return problems


def _outcome(module, func, args):
    """(returned values, buffers after the run) under gpu_emulated."""
    args = [a.copy() if isinstance(a, Buffer) else a for a in args]
    results, _ = run(module, func, args, "gpu_emulated")
    return results, [a.tolist() for a in args if isinstance(a, Buffer)]


def _check(module, func, seed, pipelines=PIPELINES):
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
    for pipeline in pipelines:
        try:
            rewritten, _ = run_pipeline(clone_module(module), pipeline)
        except PassFailure:
            refused += 1
            continue
        mismatches += [f"{func} (seed {seed}) after {pipeline}: {problem}"
                       for problem in _order_problems(rewritten)]
        text = print_module(rewritten)
        if print_module(parse_module(text, create_context())) != text:
            mismatches.append(f"{func} (seed {seed}) after {pipeline}: "
                              "print -> parse -> print changes the text")
        try:
            got = _outcome(rewritten, func, args)
        except Exception as exc:  # reported with the pipeline that caused it
            got = f"{type(exc).__name__}: {exc}"
        if got != want:
            mismatches.append(f"{func} (seed {seed}) after {pipeline}: "
                              f"{got!r}, untransformed {want!r}")
    return mismatches, refused


def _check_all(cases, pipelines=lambda: PIPELINES):
    """_check over (module, func, seed) cases; ``pipelines()`` gives each
    case its pipelines."""
    mismatches, excluded, refused = [], 0, 0
    for module, func, seed in cases:
        checked = _check(module, func, seed, pipelines())
        if checked is None:
            excluded += 1
            continue
        mismatches += checked[0]
        refused += checked[1]
    return mismatches, excluded, refused


def _irgen_cases(seeds):
    cases = []
    for seed in seeds:
        module = random_module(seed)
        func = next(op for op in module.body().ops if op.name == "func.func")
        cases.append((module, func.attributes["sym_name"].value, seed))
    return cases


def test_passes_preserve_irgen_modules():
    cases = _irgen_cases(IRGEN_SEEDS)
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


def _composition(rng):
    """Two to five passes drawn from PASSES, with random unroll factors and
    tile sizes; the gpu passes anchor on the module, the others on each
    func.func."""
    items = []
    for _ in range(rng.randint(2, 5)):
        name = rng.choice(sorted(PASSES))
        if name == "loop-unroll":
            name += "{factor=%d}" % rng.randint(1, 4)
        elif name == "scf-parallel-loop-tiling":
            name += "{sizes=[%s]}" % ",".join(
                str(rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
        items.append(name if name.startswith("gpu-") else f"func.func({name})")
    return "builtin.module(" + ",".join(items) + ")"


def test_random_compositions_preserve_results():
    import kernels

    rng = random.Random(6)
    cases = _irgen_cases(rng.sample(IRGEN_SEEDS, 80))
    cases += [(getattr(kernels, name).module, name, 3) for name in KERNELS]
    mismatches, excluded, refused = _check_all(
        cases, lambda: [_composition(rng) for _ in range(5)])
    runs = 5 * (len(cases) - excluded)
    print(f"compositions: {excluded} of {len(cases)} cases raise "
          f"untransformed; {refused} of {runs} runs refused with PassFailure")
    assert not mismatches, "\n".join(mismatches[:5])
    assert refused < runs // 2


def _parse(body, param):
    return parse_module("module {\n  func.func @f(%arg0: " + param + ") {\n"
                        + body + "\n    return\n  }\n}\n", create_context())


def test_canonicalize_folds_f32_constants_as_a_run_reads_them():
    """Neither literal is exact in f32: a run rounds each before adding."""
    module = _parse("""\
    %0 = arith.constant -2.9250860471007902 : f32
    %1 = arith.constant 2.7794698954978614 : f32
    %2 = arith.addf %0, %1 : f32
    %3 = arith.constant 0 : index
    memref.store %2, %arg0[%3] : memref<1xf32>""", "memref<1xf32>")
    folded, _ = run_pipeline(clone_module(module),
                             "builtin.module(func.func(canonicalize))")
    assert "arith.addf" not in print_module(folded)
    want = _outcome(module, "f", [Buffer((1,), "f32")])
    assert want == ((), [[-0.1456160545349121]])
    assert _outcome(folded, "f", [Buffer((1,), "f32")]) == want


@pytest.mark.parametrize("first, second, merged", [
    ("0.1 : f32", "0.10000000001 : f32", True),
    ("1 : index", "18446744073709551617 : index", True),
    ("0.0 : f32", "-0.0 : f32", False),
])
def test_canonicalize_merges_constants_a_run_reads_alike(first, second,
                                                          merged):
    """Dedup keys on the value a run reads, its type and the sign of a
    zero, not on how the literal is written."""
    if first.endswith("index"):   # the two constants index the stores
        body = f"""\
    %0 = arith.constant 2.0 : f32
    %1 = arith.constant {first}
    %2 = arith.constant {second}
    memref.store %0, %arg0[%1] : memref<2xf32>
    memref.store %0, %arg0[%2] : memref<2xf32>"""
    else:                         # the two constants are stored
        body = f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant {first}
    %3 = arith.constant {second}
    memref.store %2, %arg0[%0] : memref<2xf32>
    memref.store %3, %arg0[%1] : memref<2xf32>"""
    module = _parse(body, "memref<2xf32>")
    merged_module, stats = run_pipeline(
        clone_module(module), "builtin.module(func.func(canonicalize))")
    assert stats[0].rewrites == int(merged)
    text = print_module(merged_module)
    assert (f"arith.constant {second}" not in text) == merged
    assert f"arith.constant {first}" in text
    want = _outcome(module, "f", [Buffer((2,), "f32")])
    assert _outcome(merged_module, "f", [Buffer((2,), "f32")]) == want


def test_tiling_reads_bounds_as_a_run_does():
    """An index bound of 2**64 + 4 wraps to 4 in a run: 4 points, which a
    tile of 5 does not divide, so the loop is left whole."""
    module = _parse("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 18446744073709551620 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 2.0 : f64
    scf.parallel (%arg1) = (%0) to (%1) step (%2) {
      %4 = memref.load %arg0[%arg1] : memref<8xf64>
      %5 = arith.mulf %4, %3 : f64
      memref.store %5, %arg0[%arg1] : memref<8xf64>
    }""", "memref<8xf64>")
    tiled, stats = run_pipeline(
        clone_module(module),
        "builtin.module(func.func(scf-parallel-loop-tiling{sizes=[5]}))")
    ones = Buffer((8,), "f64", [1.0] * 8)
    want = _outcome(module, "f", [ones])
    assert want == ((), [[2.0] * 4 + [1.0] * 4])
    assert _outcome(tiled, "f", [ones]) == want
    assert (stats[0].rewrites, stats[0].skipped) == (0, 1)


@pytest.mark.parametrize("step", [0, -1])
def test_outlining_refuses_a_step_a_run_refuses(step):
    module = _parse(f"""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant {step} : index
    %3 = arith.constant 2.0 : f64
    scf.parallel (%arg1) = (%0) to (%1) step (%2) {{
      memref.store %3, %arg0[%arg1] : memref<4xf64>
    }}""", "memref<4xf64>")
    with pytest.raises(InvalidBound,
                       match="scf.parallel steps must be positive at runtime"):
        _outcome(module, "f", [Buffer((4,), "f64")])
    with pytest.raises(PassFailure, match="gpu-kernel-outlining .*steps at "
                                          "least 1"):
        run_pipeline(module, PIPELINES[6])


def test_a_pipeline_rewrites_the_module_it_is_given():
    module = _parse("""\
    %0 = arith.constant 1.5 : f64
    %1 = arith.constant 1.5 : f64
    %2 = arith.addf %0, %1 : f64
    %3 = arith.constant 0 : index
    memref.store %2, %arg0[%3] : memref<1xf64>""", "memref<1xf64>")
    modules = list(module.ctx.modules)
    rewritten, stats = run_pipeline(module, PIPELINES[0])
    assert rewritten is module
    assert module.ctx.modules == modules   # no clone made
    assert stats[0].rewrites > 0
    assert "arith.addf" not in print_module(module)


def _drop_return(root, **_):
    erase_op(root.body().ops[-1])
    return PassOutcome(rewrites=1)


@pytest.mark.parametrize("spec, message", [
    ("builtin.module(func.func(scf-parallel-loop-tiling{sizes=[2,2,2]}))",
     "scf-parallel-loop-tiling on func.func @conv_rows: 3 tile sizes for a "
     "2-dimensional parallel loop"),
    ("builtin.module(func.func(scf-parallel-loop-tiling{sizes=[3,2]},"
     "lower-affine,loop-unroll{factor=0}))",
     "loop-unroll on func.func @conv_rows: unroll factor must be an integer "
     ">= 1, got 0"),
    ("builtin.module(func.func(loop-unroll{nope=1}))",
     "loop-unroll: loop_unroll() got an unexpected keyword argument 'nope'"),
    ("builtin.module(func.func(canonicalize,drop-return))",
     "drop-return on func.func @conv_rows broke verification: error: "
     "'func.func' at <input>:2: region must end with func.return"),
], ids=["refused", "refused-after-a-rewrite", "bad-parameter", "unverified"])
def test_a_failing_pipeline_names_its_pass_and_anchor(monkeypatch, spec,
                                                      message):
    # a failing pass leaves no clone behind in the module's context
    monkeypatch.setitem(PASSES, "drop-return", _drop_return)
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "inputs", "conv_rows.sir"), encoding="utf-8") as fh:
        module = parse_module(fh.read(), create_context())
    with pytest.raises(PassFailure) as info:
        run_pipeline(module, spec)
    assert str(info.value) == message
    assert module.ctx.modules == [module]


@pytest.mark.parametrize("name", sorted(GOLDEN_PIPELINES))
def test_pass_outputs_print_byte_for_byte(name):
    import kernels

    module, _ = run_pipeline(clone_module(getattr(kernels, name).module),
                             GOLDEN_PIPELINES[name])
    assert print_module(module) == golden_text(os.path.join("passes",
                                                            f"{name}.sir"))


def test_passes_build_through_the_builders():
    """No pass makes an op, block argument or region's block by hand, or
    moves ops one by one: they use dialects/builders.py and merge_block."""
    import staircase.passes

    banned_calls = {"create_op", "add_arg", "move_op", "Block"}
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
