"""Extract mapped parallel loops into GPU kernels behind launch ops."""
from __future__ import annotations

from staircase.dialects.builders import (
    build_arith_binop,
    build_gpu_func,
    build_gpu_id,
    build_gpu_launch,
    build_gpu_module,
    build_index_constant,
    build_scf_for,
)
from staircase.errors import OutliningUnsupported
from staircase.interp.buffer import constant_of, static_bounds
from staircase.ir.core import (
    Block,
    Operation,
    SymbolTable,
    Value,
    ancestors,
    clone_op,
    erase_op,
    merge_block,
)

from .rewrite import PassOutcome, matching_ops


def _mapping(op: Operation) -> str | None:
    attr = op.attributes.get("mapping")
    if attr is not None and attr.kind == "str":
        return attr.value
    return None


def _thread_loop(loop: Operation) -> Operation | None:
    """The threads-mapped scf.parallel directly inside a blocks-mapped loop."""
    return next((op for op in loop.body().ops
                 if op.name == "scf.parallel" and _mapping(op) == "threads"),
                None)


def _reruns_effects(loop: Operation) -> bool:
    """Whether outlining would re-run an op with effects once per thread.

    In the kernel, the ops beside a nested thread loop run in every
    thread; only arith ops (pure and cheap) may sit there.
    """
    if _mapping(loop) != "blocks":
        return False
    thread_loop = _thread_loop(loop)
    if thread_loop is None:
        return False
    terminator = loop.body().terminator
    return any(op.dialect != "arith" for op in loop.body().ops
               if op is not thread_loop and op is not terminator)


def _geometry(loop: Operation) -> list[tuple[int, int, int, int]]:
    """(lb, ub, step, trips) per dimension, from static_bounds."""
    bounds = static_bounds(loop)
    if bounds is None:
        raise OutliningUnsupported(
            "parallel loop bounds must be arith.constant values, and steps "
            f"at least 1, to outline a kernel (at {loop.location})"
        )
    return bounds


def _unused_name(table: SymbolTable, base: str) -> str:
    """base, or base_1, base_2, ... if it is taken."""
    name, n = base, 0
    while table.lookup(name) is not None:
        n += 1
        name = f"{base}_{n}"
    return name


def _gpu_module_for(module: Operation, name: str) -> Operation:
    table = SymbolTable(module)
    existing = table.lookup(name)
    if existing is not None and existing.name == "gpu.module":
        return existing
    return build_gpu_module(module, _unused_name(table, name))


def _free_values(loop: Operation) -> list[Value]:
    """Values the loop body uses but does not define, in first-use order;
    in pre-order, a value the body defines comes before each of its uses."""
    inside: set = set(loop.body().args)
    free: dict = {}
    for op in loop.walk_nested():
        free.update((v, None) for v in op.operands if v not in inside)
        inside.update(op.results)
        for block in op.regions:
            inside.update(block.args)
    return list(free)


def _mount_dims(at: Block, which: str, geometry, location) -> tuple:
    """Map the first three dimensions onto gpu ids (index = lb + id*step)
    and fold any remaining dimensions into sequential loops.

    Returns the block the loop body goes in, and the value standing for
    each dimension's induction variable.
    """
    values = []
    for d, (lb, ub, step, _) in enumerate(geometry):
        if d < 3:
            value = build_gpu_id(at, which, "xyz"[d], location)
            if step != 1:
                value = build_arith_binop(
                    at, "arith.muli", value,
                    build_index_constant(at, step, location), location)
            if lb != 0:
                value = build_arith_binop(
                    at, "arith.addi", value,
                    build_index_constant(at, lb, location), location)
            values.append(value)
        else:
            bounds = [build_index_constant(at, v, location) for v in (lb, ub, step)]
            at = build_scf_for(at, *bounds, location).body()
            values.append(at.args[0])
    return at, values


def _outline_one(module: Operation, loop: Operation) -> None:
    func = next((a for a in ancestors(loop) if a.name == "func.func"), None)
    base = func.attributes["sym_name"].value if func is not None else "anonymous"
    if _mapping(loop) == "blocks":
        grid_loop, thread_loop = loop, _thread_loop(loop)
    else:  # a bare "threads" loop launches on a single block
        grid_loop, thread_loop = None, loop
    grid_geo = _geometry(grid_loop) if grid_loop is not None else []
    thread_geo = _geometry(thread_loop) if thread_loop is not None else []
    grid3 = ([g[3] for g in grid_geo[:3]] + [1, 1, 1])[:3]
    block3 = ([g[3] for g in thread_geo[:3]] + [1, 1, 1])[:3]

    gpu_module = _gpu_module_for(module, f"{base}_gpu")
    gpu_module_name = gpu_module.attributes["sym_name"].value
    kernel_name = _unused_name(SymbolTable(gpu_module), f"{base}_kernel")

    free = _free_values(loop)
    sunk = {v for v in free if constant_of(v) is not None}
    passed = [v for v in free if v not in sunk]

    kernel = build_gpu_func(gpu_module, kernel_name, [v.type for v in passed],
                            None, loop.location)
    body = kernel.body()
    remap: dict = dict(zip(passed, body.args))
    for value in free:
        if value in sunk:
            clone_op(value.defining_op, body, body.insertion_index(), remap)
    if grid_loop is not None:
        body, grid_ids = _mount_dims(body, "block_id", grid_geo, loop.location)
    if thread_loop is not None:
        body, thread_ids = _mount_dims(body, "thread_id", thread_geo,
                                       loop.location)
    # the grid body, then the thread body after the emptied thread loop:
    # ops alongside a nested thread loop re-run once per thread, which
    # _reruns_effects restricts to arith (the index math tiling leaves)
    if grid_loop is not None:
        merge_block(grid_loop.body(), body, grid_ids)
    if thread_loop is not None:
        merge_block(thread_loop.body(), body, thread_ids)
        if thread_loop is not loop:
            erase_op(thread_loop)
    for op in kernel.walk_nested():
        for slot, value in enumerate(list(op.operands)):
            target = remap.get(value)
            if target is not None and target is not value:
                op.set_operand(slot, target)

    dims = [build_index_constant(loop, extent, loop.location)
            for extent in grid3 + block3]
    build_gpu_launch(loop, gpu_module_name, kernel_name, dims[:3], dims[3:],
                     passed, loop.location)
    erase_op(loop)


def gpu_kernel_outlining(root: Operation) -> PassOutcome:
    """Outline every outermost mapped scf.parallel into a gpu.func.

    The loop body becomes a kernel in a per-function gpu.module;
    blocks-mapped dimensions read gpu.block_id, a directly nested
    threads-mapped loop reads gpu.thread_id, and dimensions past the
    third fold into sequential loops inside the kernel. Constants the
    body captures are cloned into the kernel; other free values become
    kernel arguments. The original loop is replaced by gpu.launch_func
    with grid/block sizes from the loop extents. Loops mapped
    "sequential", and blocks loops with non-arith ops beside their thread
    loop (those would run once per thread), are left in place and counted
    as skipped.
    """
    module = next((a for a in (root, *ancestors(root)) if a.name == "builtin.module"), None)
    if module is None:
        raise OutliningUnsupported("outlining needs an enclosing builtin.module")
    out = PassOutcome()
    targets = [op for op in matching_ops(root, ("scf.parallel",))
               if _mapping(op) is not None
               and not any(a.name == "scf.parallel" and _mapping(a) is not None
                           for a in ancestors(op))]
    for loop in targets:
        if _mapping(loop) == "sequential" or _reruns_effects(loop):
            out.skipped += 1
            continue
        _outline_one(module, loop)
        out.rewrites += 1
    return out
