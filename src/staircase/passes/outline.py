"""Extract mapped parallel loops into GPU kernels behind launch ops."""
from __future__ import annotations

from staircase.dialects.builders import build_gpu_func, build_gpu_module
from staircase.errors import OutliningUnsupported
from staircase.ir.core import (
    INDEX,
    Block,
    Operation,
    SymbolTable,
    Value,
    ancestors,
    clone_op,
    create_op,
    erase_op,
    move_op,
    str_attr,
    symbol_attr,
)

from .rewrite import (
    PassOutcome,
    const_int,
    index_const,
    matching_ops,
    trip_count,
)


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


def _geometry(loop: Operation) -> list[tuple[int, int, int]]:
    """(lb, ub, step) integers per dimension; bounds must be constants."""
    n = len(loop.body().args)
    vals = [const_int(v) for v in loop.operands]
    if any(v is None for v in vals):
        raise OutliningUnsupported(
            "parallel loop bounds must be arith.constant values to outline "
            f"a kernel (at {loop.location})"
        )
    return [(vals[d], vals[n + d], vals[2 * n + d]) for d in range(n)]


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
    """Values the loop body uses but does not define, in first-use order."""
    inside: set = set(loop.body().args)
    for op in loop.walk_nested():
        inside.update(op.results)
        for region in op.regions:
            for block in region.blocks:
                inside.update(block.args)
    free: list[Value] = []
    for op in loop.walk_nested():
        for value in op.operands:
            if value not in inside and value not in free:
                free.append(value)
    return free


class _KernelWriter:
    """Tracks the insertion point while the kernel body is assembled; all
    emission lands just before the current block's terminator."""

    def __init__(self, block: Block, remap: dict):
        self.block = block
        self.remap = remap

    def emit(self, name, operands=(), attributes=None, results=(),
             regions=0, location=None) -> Operation:
        return create_op(self.block, len(self.block.ops) - 1, name,
                         operands, attributes or {}, results, regions, location)

    def mount_dims(self, which: str, geometry, args, location) -> None:
        """Map the first three dimensions onto gpu ids (index = lb + id*step)
        and fold any remaining dimensions into sequential loops."""
        for d, (lb, _ub, step) in enumerate(geometry):
            if d < 3:
                idv = self.emit(f"gpu.{which}", (),
                                {"dimension": str_attr("xyz"[d])}, [INDEX],
                                location=location).results[0]
                value = idv
                if step != 1:
                    cs = index_const(self.block, len(self.block.ops) - 1,
                                     step, location)
                    value = self.emit("arith.muli", [value, cs], None, [INDEX],
                                      location=location).results[0]
                if lb != 0:
                    cl = index_const(self.block, len(self.block.ops) - 1,
                                     lb, location)
                    value = self.emit("arith.addi", [value, cl], None, [INDEX],
                                      location=location).results[0]
                self.remap[args[d]] = value
            else:
                bounds = [index_const(self.block, len(self.block.ops) - 1,
                                      v, location) for v in (lb, _ub, step)]
                loop = self.emit("scf.for", bounds, None, [], 1,
                                 location=location)
                body = loop.body()
                self.remap[args[d]] = body.add_arg(INDEX)
                create_op(body, 0, "scf.yield", [], {}, [], 0, location)
                self.block = body

    def move_body(self, loop: Operation, skip: Operation | None = None) -> None:
        body = loop.body()
        terminator = body.terminator
        for op in list(body.ops):
            if op is terminator or op is skip:
                continue
            move_op(op, self.block, len(self.block.ops) - 1)


def _outline_one(module: Operation, loop: Operation) -> None:
    func = next((a for a in ancestors(loop) if a.name == "func.func"), None)
    base = func.attributes["sym_name"].value if func is not None else "anonymous"
    if _mapping(loop) == "blocks":
        grid_loop, thread_loop = loop, _thread_loop(loop)
    else:  # a bare "threads" loop launches on a single block
        grid_loop, thread_loop = None, loop
    grid_geo = _geometry(grid_loop) if grid_loop is not None else []
    thread_geo = _geometry(thread_loop) if thread_loop is not None else []
    grid3 = ([trip_count(*g) for g in grid_geo[:3]] + [1, 1, 1])[:3]
    block3 = ([trip_count(*g) for g in thread_geo[:3]] + [1, 1, 1])[:3]

    gpu_module = _gpu_module_for(module, f"{base}_gpu")
    gpu_module_name = gpu_module.attributes["sym_name"].value
    kernel_name = _unused_name(SymbolTable(gpu_module), f"{base}_kernel")

    free = _free_values(loop)
    sunk = {v for v in free
            if v.defining_op is not None and v.defining_op.name == "arith.constant"}
    passed = [v for v in free if v not in sunk]

    kernel = build_gpu_func(gpu_module, kernel_name, [v.type for v in passed],
                            None, loop.location)
    remap: dict = dict(zip(passed, kernel.body().args))
    writer = _KernelWriter(kernel.body(), remap)
    for value in free:
        if value in sunk:
            clone_op(value.defining_op, writer.block,
                     len(writer.block.ops) - 1, remap)
    if grid_loop is not None:
        writer.mount_dims("block_id", grid_geo, grid_loop.body().args,
                          loop.location)
    if thread_loop is not None:
        writer.mount_dims("thread_id", thread_geo, thread_loop.body().args,
                          loop.location)
    if grid_loop is not None:
        # ops alongside a nested thread loop re-run once per thread, which
        # _reruns_effects restricts to arith (the index math tiling leaves)
        writer.move_body(grid_loop, skip=thread_loop)
    if thread_loop is not None:
        writer.move_body(thread_loop)
    for op in kernel.walk_nested():
        for slot, value in enumerate(list(op.operands)):
            target = remap.get(value)
            if target is not None and target is not value:
                op.set_operand(slot, target)

    block, loc = loop.parent, loop.location
    at = loop.block_index()
    dims = [index_const(block, at + i, extent, loc)
            for i, extent in enumerate(grid3 + block3)]
    create_op(block, at + 6, "gpu.launch_func", [*dims, *passed],
              {"kernel": symbol_attr(gpu_module_name, kernel_name)}, [], 0, loc)
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
