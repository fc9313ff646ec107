"""The construction layer for the built-in dialects, over create_op.

The capture frontend and the passes build their ops through these
functions, as MLIR frontends and rewrite patterns build through one
OpBuilder. A builder's `at` is its insertion point: a Block, meaning just
before the block's trailing terminator (if any), or an Operation, meaning
just before that op, as with MLIR's `setInsertionPoint(op)`; the
symbol builders (func, gpu.module, gpu.func) take the op whose body holds
the symbol instead. Loop and branch builders give their fresh bodies the block arguments and
terminator they require, and every builder raises the specific error
types its contract names before the generic schema checks would.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from staircase.dialects.schemas import PREDICATE_FOR_OPERATOR
from staircase.errors import (
    ArityMismatch,
    DuplicateSymbol,
    InvalidBound,
    RankMismatch,
    TypeMismatch,
)
from staircase.ir.core import (
    F64,
    I64,
    INDEX,
    Block,
    IRType,
    Location,
    Operation,
    SymbolTable,
    Value,
    array_attr,
    create_op,
    float_attr,
    int_attr,
    str_attr,
    symbol_attr,
    top_module,
    type_attr,
    unit_attr,
)
from staircase.ir.verify import check_launch


def _insert(at: Block | Operation, name: str, **kw) -> Operation:
    if isinstance(at, Operation):
        return create_op(at.parent, at.block_index(), name, **kw)
    return create_op(at, at.insertion_index(), name, **kw)


def append_terminator(block: Block, name: str, operands=(), location=None) -> Operation:
    return create_op(block, len(block.ops), name, operands=list(operands),
                     location=location)


# ---------------------------------------------------------------------------
# arith


def build_constant(at: Block | Operation, value, ty: IRType | None = None,
                   location: Location | None = None) -> Value:
    if ty is None:
        ty = F64 if isinstance(value, float) else I64
    if ty.is_float:
        attr = float_attr(value)
    elif isinstance(value, float) and not value.is_integer():
        raise TypeMismatch(f"cannot use {value!r} where a {ty} value is expected")
    else:
        attr = int_attr(value)
    op = _insert(at, "arith.constant", attributes={"value": attr},
                 result_types=[ty], location=location)
    return op.results[0]


def build_index_constant(at: Block | Operation, value: int,
                         location: Location | None = None) -> Value:
    return build_constant(at, int(value), INDEX, location)


def build_arith_binop(at: Block | Operation, name: str, a: Value, b: Value,
                      location: Location | None = None) -> Value:
    op = _insert(at, name, operands=[a, b], location=location)
    return op.results[0]


def build_cmp(at: Block | Operation, operator: str, a: Value, b: Value,
              location: Location | None = None) -> Value:
    if operator not in PREDICATE_FOR_OPERATOR:
        raise TypeMismatch(f"unsupported comparison operator {operator!r}")
    fpred, ipred = PREDICATE_FOR_OPERATOR[operator]
    if a.type.is_float:
        name, pred = "arith.cmpf", fpred
    else:
        name, pred = "arith.cmpi", ipred
    op = _insert(at, name, operands=[a, b],
                 attributes={"predicate": str_attr(pred)}, location=location)
    return op.results[0]


# ---------------------------------------------------------------------------
# scf / affine loops and branches


def build_scf_for(at: Block | Operation, lb: Value, ub: Value, step: Value,
                  location: Location | None = None) -> Operation:
    op = _insert(at, "scf.for", operands=[lb, ub, step], region_count=1,
                 location=location)
    op.body().add_arg(INDEX)
    append_terminator(op.body(), "scf.yield", location=location)
    return op


def build_affine_for(at: Block | Operation, lb: int, ub: int, step: int = 1,
                     location: Location | None = None) -> Operation:
    for bound in (lb, ub, step):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise InvalidBound(
                f"affine loop bounds must be integer literals, got {bound!r}"
            )
    if ub < lb:
        raise InvalidBound(f"upper bound {ub} is below lower bound {lb}")
    if step < 1:
        raise InvalidBound(f"step must be >= 1, got {step}")
    op = _insert(at, "affine.for",
                 attributes={"lower_bound": int_attr(lb),
                             "upper_bound": int_attr(ub),
                             "step": int_attr(step)},
                 region_count=1, location=location)
    op.body().add_arg(INDEX)
    append_terminator(op.body(), "scf.yield", location=location)
    return op


def build_scf_if(at: Block | Operation, cond: Value, with_else: bool = False,
                 location: Location | None = None) -> Operation:
    op = _insert(at, "scf.if", operands=[cond],
                 region_count=2 if with_else else 1, location=location)
    for block in op.regions:
        append_terminator(block, "scf.yield", location=location)
    return op


def build_scf_parallel(at: Block | Operation, lbs: Sequence[Value],
                       ubs: Sequence[Value], steps: Sequence[Value],
                       location: Location | None = None) -> Operation:
    if not (len(lbs) == len(ubs) == len(steps)):
        raise ArityMismatch(
            f"bounds arities differ: {len(lbs)} lower, {len(ubs)} upper, "
            f"{len(steps)} steps"
        )
    if len(lbs) == 0:
        raise ArityMismatch("parallel loop needs at least one dimension")
    op = _insert(at, "scf.parallel",
                 operands=list(lbs) + list(ubs) + list(steps),
                 region_count=1, location=location)
    for _ in lbs:
        op.body().add_arg(INDEX)
    append_terminator(op.body(), "scf.yield", location=location)
    return op


# ---------------------------------------------------------------------------
# memref


def build_memref_alloc(at: Block | Operation, ty: IRType, stack: bool = False,
                       location: Location | None = None) -> Value:
    name = "memref.alloca" if stack else "memref.alloc"
    op = _insert(at, name, result_types=[ty], location=location)
    return op.results[0]


def build_memref_access(at: Block | Operation, kind: str, buffer: Value,
                        indices: Sequence[Value], stored: Value | None = None,
                        location: Location | None = None):
    """kind is 'load' or 'store'; returns the loaded Value or the store op."""
    if buffer.type.kind != "memref":
        raise TypeMismatch(f"expected a memref, got {buffer.type}")
    if len(indices) != buffer.type.rank:
        raise RankMismatch(
            f"{buffer.type} has rank {buffer.type.rank}, got {len(indices)} "
            f"index(es)"
        )
    if kind == "load":
        op = _insert(at, "memref.load", operands=[buffer, *indices], location=location)
        return op.results[0]
    if kind == "store":
        if stored is None:
            raise TypeMismatch("store requires a value")
        if stored.type != buffer.type.element:
            raise TypeMismatch(
                f"cannot store {stored.type} into {buffer.type}"
            )
        return _insert(at, "memref.store", operands=[stored, buffer, *indices],
                       location=location)
    raise ValueError(f"kind must be 'load' or 'store', got {kind!r}")


# ---------------------------------------------------------------------------
# func


def build_func(module: Operation, name: str, param_types: Iterable[IRType],
               result_types: Iterable[IRType] = (),
               location: Location | None = None) -> Operation:
    if SymbolTable(module).lookup(name) is not None:
        raise DuplicateSymbol(f"symbol @{name} already defined in this module")
    result_types = list(result_types)
    op = create_op(module.body(), len(module.body().ops), "func.func",
                   attributes={"sym_name": str_attr(name),
                               "results": array_attr(type_attr(t) for t in result_types)},
                   region_count=1, location=location)
    for t in param_types:
        op.body().add_arg(t)
    if not result_types:
        append_terminator(op.body(), "func.return", location=location)
    return op


# ---------------------------------------------------------------------------
# gpu


def build_gpu_module(module: Operation, name: str,
                     location: Location | None = None) -> Operation:
    if SymbolTable(module).lookup(name) is not None:
        raise DuplicateSymbol(f"symbol @{name} already defined in this module")
    op = create_op(module.body(), 0, "gpu.module",
                   attributes={"sym_name": str_attr(name)}, region_count=1,
                   location=location)
    module.attributes.setdefault("gpu.container_module", unit_attr())
    return op


def build_gpu_func(gpu_module: Operation, name: str,
                   param_types: Iterable[IRType],
                   func_attributes: dict | None = None,
                   location: Location | None = None) -> Operation:
    if SymbolTable(gpu_module).lookup(name) is not None:
        raise DuplicateSymbol(f"kernel @{name} already defined in this gpu.module")
    attrs = {"sym_name": str_attr(name), "kernel": unit_attr()}
    if func_attributes:
        attrs.update(func_attributes)
    op = create_op(gpu_module.body(), len(gpu_module.body().ops), "gpu.func",
                   attributes=attrs, region_count=1, location=location)
    for t in param_types:
        op.body().add_arg(t)
    append_terminator(op.body(), "gpu.return", location=location)
    return op


def build_gpu_id(at: Block | Operation, which: str, dim: str,
                 location: Location | None = None) -> Value:
    op = _insert(at, f"gpu.{which}", attributes={"dimension": str_attr(dim)},
                 location=location)
    return op.results[0]


def build_gpu_launch(at: Block | Operation, module_sym: str, kernel_sym: str,
                     grid: Sequence[Value], blocks: Sequence[Value],
                     args: Sequence[Value],
                     location: Location | None = None) -> Operation:
    scope = at if isinstance(at, Operation) else at.parent_op
    check_launch(SymbolTable(top_module(scope)), (module_sym, kernel_sym),
                 [a.type for a in args])
    if len(grid) != 3 or len(blocks) != 3:
        raise ArityMismatch("grid and block sizes are three index values each")
    return _insert(at, "gpu.launch_func",
                   operands=[*grid, *blocks, *args],
                   attributes={"kernel": symbol_attr(module_sym, kernel_sym)},
                   location=location)
