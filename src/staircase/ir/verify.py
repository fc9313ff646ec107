"""Structural and SSA verification.

verify() never raises; it walks the tree and returns every problem it can
find as a Diagnostic. Callers that want an exception wrap the result in
VerificationFailed themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from staircase.errors import SignatureMismatch, UnknownSymbol, VerificationFailed
from staircase.ir.core import (
    Attribute,
    Location,
    Operation,
    SymbolTable,
    ancestors,
    value_dominates_op,
)


@dataclass
class Diagnostic:
    message: str
    op_name: str = ""
    location: Location | None = None

    def __str__(self) -> str:
        loc = ""
        if self.location is not None:
            loc = f" at {self.location}"
        return f"error: '{self.op_name}'{loc}: {self.message}"


def check_launch(table: SymbolTable, kernel: tuple, arg_types: list) -> None:
    """Check that @module::@kernel names a gpu.func in table that takes
    arg_types; raises UnknownSymbol or SignatureMismatch."""
    mod_sym, kern_sym = kernel
    gpu_mod = table.lookup(mod_sym)
    if gpu_mod is None or gpu_mod.name != "gpu.module":
        raise UnknownSymbol(f"no gpu.module @{mod_sym} in this module")
    target = table.lookup(mod_sym, kern_sym)
    if target is None or target.name != "gpu.func":
        raise UnknownSymbol(f"no kernel @{kern_sym} in gpu.module @{mod_sym}")
    expected = [a.type for a in target.body().args]
    if expected != arg_types:
        raise SignatureMismatch(
            f"kernel @{kern_sym} takes ({', '.join(map(str, expected))}), "
            f"launch passes ({', '.join(map(str, arg_types))})"
        )


def _check_call(op: Operation, table: SymbolTable, out: list[Diagnostic]) -> None:
    callee = op.attributes.get("callee")
    if not isinstance(callee, Attribute) or callee.kind != "symbol":
        return  # creation check already flagged it
    target = table.lookup(*callee.value)
    if target is None or target.name != "func.func":
        out.append(Diagnostic(f"call to unknown function @{callee.value[0]}",
                              op.name, op.location))
        return
    params = [a.type for a in target.body().args]
    if params != [v.type for v in op.operands]:
        out.append(Diagnostic(
            f"call operand types do not match @{callee.value[0]} parameters",
            op.name, op.location))
    results = [a.value for a in target.attributes["results"].value]
    if results != [r.type for r in op.results]:
        out.append(Diagnostic(
            f"call result types do not match @{callee.value[0]} results",
            op.name, op.location))


def _check_launch(op: Operation, table: SymbolTable, out: list[Diagnostic]) -> None:
    kernel = op.attributes.get("kernel")
    if not isinstance(kernel, Attribute) or kernel.kind != "symbol" \
            or len(kernel.value) != 2:
        return
    try:
        check_launch(table, kernel.value, [v.type for v in op.operands[6:]])
    except (UnknownSymbol, SignatureMismatch) as exc:
        out.append(Diagnostic(str(exc), op.name, op.location))


def verify(root: Operation) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    registry = root.ctx.registry

    table = SymbolTable(root)
    for op in table.duplicates:
        out.append(Diagnostic(f"duplicate symbol @{SymbolTable.name_of(op)}",
                              op.name, op.location))

    terminators = {name for name, schema in registry.ops.items()
                   if schema.is_terminator}
    for op in chain((root,), root.walk_nested()):
        schema = registry.ops.get(op.name)
        if schema is None:
            out.append(Diagnostic("unknown operation", op.name, op.location))
            continue

        if schema.check_creation is not None:
            for problem in schema.check_creation(op):
                out.append(Diagnostic(problem, op.name, op.location))

        if not schema.variadic_regions and len(op.regions) != schema.num_regions:
            out.append(Diagnostic(
                f"expected {schema.num_regions} regions, found {len(op.regions)}",
                op.name, op.location))

        for block in op.regions:
            if schema.terminator is not None:
                term = block.terminator
                if term is None or term.name != schema.terminator:
                    out.append(Diagnostic(
                        f"region must end with {schema.terminator}",
                        op.name, op.location))
            for inner in block.ops[:-1]:
                if inner.name in terminators:
                    out.append(Diagnostic(
                        "terminator is not the last operation in its block",
                        inner.name, inner.location))

        if schema.check_structure is not None:
            for problem in schema.check_structure(op):
                out.append(Diagnostic(problem, op.name, op.location))

        for i, operand in enumerate(op.operands):
            if (op, i) not in operand.uses:
                out.append(Diagnostic(
                    f"operand {i} use-list does not record this use",
                    op.name, op.location))
            if not value_dominates_op(operand, op):
                out.append(Diagnostic(
                    f"operand {i} is not visible at this point",
                    op.name, op.location))

        if op.name == "func.call":
            _check_call(op, table, out)
        elif op.name == "gpu.launch_func":
            _check_launch(op, table, out)
        elif op.name in ("gpu.block_id", "gpu.thread_id"):
            if not any(a.name == "gpu.func" for a in ancestors(op)):
                out.append(Diagnostic(
                    "only valid inside a gpu.func body", op.name, op.location))
    return out


def verify_or_raise(root: Operation) -> None:
    diags = verify(root)
    if diags:
        raise VerificationFailed(diags)
