"""The built-in dialects: every op's definition, written once.

Each OpSchema holds what the rest of the system reads about its op, as
an ODS record does in MLIR: its regions and terminator, a check of its
operands, attributes and results (run by create_op for builders and by
verify for all IR), an optional structure check that runs during
verification once regions are populated, its syntax in the
text format (``form``), the rule that types its results (``result``),
whether canonicalize may erase it unused (``pure``) and the ExecStats
slot each execution counts in (``slot``). The dialects are built once,
here, and every Context registers these same objects.
"""
from __future__ import annotations

import math

from staircase.ir.core import (
    I1,
    INDEX,
    Attribute,
    DialectDef,
    OpSchema,
    Operation,
    array_attr,
    int_attr,
    unit_attr,
)
from staircase.textio.forms import (
    Form,
    args,
    attr,
    attrs,
    default,
    operand,
    operands,
    optional,
    region,
    result_type,
    type_of,
    types,
)

FLOAT_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")
INT_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

# host comparison operator -> (float predicate, signed-int predicate)
PREDICATE_FOR_OPERATOR = dict(zip(("==", "!=", "<", "<=", ">", ">="),
                                  zip(FLOAT_PREDICATES, INT_PREDICATES)))


def _attr(op: Operation, name: str, kind: str) -> Attribute | None:
    a = op.attributes.get(name)
    if isinstance(a, Attribute) and a.kind == kind:
        return a
    return None


def _check_constant(op: Operation) -> list:
    problems = []
    if op.operands:
        problems.append("takes no operands")
    if len(op.results) != 1:
        return problems + ["produces exactly one result"]
    value = op.attributes.get("value")
    rt = op.results[0].type
    if not isinstance(value, Attribute) or value.kind not in ("int", "float"):
        problems.append("requires an int or float 'value' attribute")
    elif rt.is_float and value.kind != "float":
        problems.append(f"float result {rt} requires a float value")
    elif rt.is_int and value.kind != "int":
        problems.append(f"integer result {rt} requires an integer value")
    elif rt.kind == "memref":
        problems.append("result must be scalar")
    elif rt == I1 and value.value not in (0, 1):
        problems.append("i1 constant must be 0 or 1")
    elif value.kind == "float" and not math.isfinite(value.value):
        problems.append("float value must be finite")  # inf and nan print no literal
    return problems


def _binop(accepts, kind: str):
    """The check of a binop over two operands of one type that accepts."""
    def check(op: Operation) -> list:
        if len(op.operands) != 2 or len(op.results) != 1:
            return ["expects two operands and one result"]
        a, b = op.operands[0].type, op.operands[1].type
        if a is not b:
            return [f"operand types differ: {a} vs {b}"]
        if not accepts(a):
            return [f"expects {kind} operands, got {a}"]
        if op.results[0].type is not a:
            return [f"result type {op.results[0].type} must match operands {a}"]
        return []
    return check


def _cmp(accepts, kind: str, predicates: tuple):
    """The check of a comparison of two operands of one type that accepts."""
    def check(op: Operation) -> list:
        problems = []
        if len(op.operands) != 2 or len(op.results) != 1:
            return ["expects two operands and one result"]
        a, b = op.operands[0].type, op.operands[1].type
        if a is not b or not accepts(a):
            problems.append(f"expects two identical {kind} operands, got {a}, {b}")
        pred = _attr(op, "predicate", "str")
        if pred is None or pred.value not in predicates:
            problems.append("requires a 'predicate' attribute in " + str(predicates))
        if op.results[0].type != I1:
            problems.append("result must be i1")
        return problems
    return check


def _check_index_cast(op: Operation) -> list:
    if len(op.operands) != 1 or len(op.results) != 1:
        return ["expects one operand and one result"]
    src, dst = op.operands[0].type, op.results[0].type
    ok = (src == INDEX and dst.kind in ("i32", "i64")) or (
        dst == INDEX and src.kind in ("i32", "i64")
    )
    return [] if ok else [f"casts between index and i32/i64 only, got {src} to {dst}"]


def _check_scf_for(op: Operation) -> list:
    problems = []
    if len(op.operands) != 3:
        problems.append("expects lower bound, upper bound, step operands")
    else:
        for role, v in zip(("lower bound", "upper bound", "step"), op.operands):
            if v.type != INDEX:
                problems.append(f"{role} must be index, got {v.type}")
    if op.results:
        problems.append("carries no results (loop-carried values unsupported)")
    return problems


def _structure_scf_for(op: Operation) -> list:
    args = op.body().args
    if len(args) != 1 or args[0].type != INDEX:
        return ["body must have exactly one index argument"]
    return []


def _check_scf_if(op: Operation) -> list:
    problems = []
    if len(op.operands) != 1 or op.operands[0].type != I1:
        problems.append("condition must be a single i1 value")
    if len(op.regions) not in (1, 2):
        problems.append("takes a then region and an optional else region")
    if op.results:
        problems.append("carries no results")
    return problems


def _structure_scf_if(op: Operation) -> list:
    problems = []
    for block in op.regions:
        if block.args:
            problems.append("branch regions take no arguments")
    return problems


def _check_scf_parallel(op: Operation) -> list:
    problems = []
    if len(op.operands) == 0 or len(op.operands) % 3 != 0:
        problems.append("expects equal-arity lower bounds, upper bounds, steps")
    for v in op.operands:
        if v.type != INDEX:
            problems.append(f"bounds and steps must be index, got {v.type}")
            break
    if op.results:
        problems.append("carries no results (reductions unsupported)")
    return problems


def _structure_scf_parallel(op: Operation) -> list:
    args = op.body().args
    if 3 * len(args) != len(op.operands):
        return ["one body argument per parallel dimension"]
    if any(a.type != INDEX for a in args):
        return ["body arguments must be index"]
    return []


def _check_affine_for(op: Operation) -> list:
    problems = []
    if op.operands:
        problems.append("bounds are attributes, not operands")
    lb = _attr(op, "lower_bound", "int")
    ub = _attr(op, "upper_bound", "int")
    step = _attr(op, "step", "int")
    if lb is None or ub is None or step is None:
        problems.append("requires integer lower_bound, upper_bound, step attributes")
    else:
        if not 1 <= step.value < 1 << 63:  # a run reads the step as i64
            problems.append("step must be >= 1")
        # a run reads the bounds wrapped to i64 (the import would cycle
        # when this module loads)
        from staircase.interp.buffer import wrap_int

        if wrap_int(ub.value, "i64") < wrap_int(lb.value, "i64"):
            problems.append("upper bound must be >= lower bound")
    if op.results:
        problems.append("carries no results")
    return problems


def _check_yield(op: Operation) -> list:
    problems = []
    if op.operands:
        problems.append("yields no values in this kit")
    if op.results:
        problems.append("produces no results")
    return problems


def _check_alloc(op: Operation) -> list:
    if op.operands:
        return ["static shapes only: takes no operands"]
    if len(op.results) != 1 or op.results[0].type.kind != "memref":
        return ["produces exactly one memref result"]
    return []


def _check_dealloc(op: Operation) -> list:
    if len(op.operands) != 1 or op.operands[0].type.kind != "memref":
        return ["expects one memref operand"]
    if op.results:
        return ["produces no results"]
    return []


def _check_load(op: Operation) -> list:
    if len(op.operands) < 1 or op.operands[0].type.kind != "memref":
        return ["first operand must be a memref"]
    mt = op.operands[0].type
    problems = []
    if len(op.operands) - 1 != mt.rank:
        problems.append(f"expects {mt.rank} indices for {mt}, got {len(op.operands) - 1}")
    if any(v.type != INDEX for v in op.operands[1:]):
        problems.append("indices must be index-typed")
    if len(op.results) != 1 or (not problems and op.results[0].type != mt.element):
        problems.append(f"result must be the element type {mt.element}")
    return problems


def _check_store(op: Operation) -> list:
    if len(op.operands) < 2 or op.operands[1].type.kind != "memref":
        return ["expects a value then a memref operand"]
    mt = op.operands[1].type
    problems = []
    if op.operands[0].type != mt.element:
        problems.append(
            f"stored value is {op.operands[0].type}, buffer elements are {mt.element}"
        )
    if len(op.operands) - 2 != mt.rank:
        problems.append(f"expects {mt.rank} indices for {mt}, got {len(op.operands) - 2}")
    if any(v.type != INDEX for v in op.operands[2:]):
        problems.append("indices must be index-typed")
    if op.results:
        problems.append("produces no results")
    return problems


def _check_symbol_op(op: Operation) -> list:
    if _attr(op, "sym_name", "str") is None:
        return ["requires a string 'sym_name' attribute"]
    return []


def _check_func(op: Operation) -> list:
    problems = _check_symbol_op(op) + _check_no_values(op)
    res = op.attributes.get("results")
    if not isinstance(res, Attribute) or res.kind != "array" or any(
        a.kind != "type" for a in res.value
    ):
        problems.append("requires a 'results' array-of-types attribute")
    return problems


def _structure_func_return(op: Operation) -> list:
    parent = op.parent.parent_op if op.parent is not None else None
    if parent is None or parent.name != "func.func":
        return ["must terminate a func.func body"]
    expected = [a.value for a in parent.attributes["results"].value]
    got = [v.type for v in op.operands]
    if expected != got:
        return [f"returns ({', '.join(map(str, got))}), "
                f"function declares ({', '.join(map(str, expected))})"]
    return []


def _check_call(op: Operation) -> list:
    callee = _attr(op, "callee", "symbol")
    if callee is None or len(callee.value) != 1:
        return ["requires a flat 'callee' symbol attribute"]
    return []


def _check_gpu_func(op: Operation) -> list:
    problems = _check_symbol_op(op)
    if "kernel" not in op.attributes or op.attributes["kernel"].kind != "unit":
        problems.append("requires the 'kernel' unit attribute")
    return problems + _check_no_values(op)


def _check_launch(op: Operation) -> list:
    problems = []
    kernel = _attr(op, "kernel", "symbol")
    if kernel is None or len(kernel.value) != 2:
        problems.append("requires a 'kernel' attribute of the form @module::@func")
    if len(op.operands) < 6 or any(v.type != INDEX for v in op.operands[:6]):
        problems.append("first six operands are grid and block sizes (index)")
    if op.results:
        problems.append("produces no results")
    return problems


def _check_id_op(op: Operation) -> list:
    problems = []
    dim = _attr(op, "dimension", "str")
    if dim is None or dim.value not in ("x", "y", "z"):
        problems.append("requires a 'dimension' attribute of x, y, or z")
    if op.operands or len(op.results) != 1 or op.results[0].type != INDEX:
        problems.append("takes no operands and produces one index result")
    return problems


def _check_no_values(op: Operation) -> list:
    if op.operands or op.results:
        return ["takes no operands and produces no results"]
    return []


# -- result rules: the result types from the operands, [] where they do not fit


def _like_lhs(values: list) -> list:
    return [values[0].type] if values else []


def _element(values: list) -> list:
    if values and values[0].type.kind == "memref":
        return [values[0].type.element]
    return []


# -- forms shared by several ops


def _ivs(op) -> int:
    """The size of each of scf.parallel's three operand groups."""
    return len(op.body().args)


_BINOP = Form(" ", operand, ", ", operand, attrs(bare=True), " : ", result_type)
_CMP = Form(" ", attr("predicate", "id"), ", ", operand, ", ", operand,
            attrs("predicate", bare=True), " : ", type_of(0))
_ALLOC = Form("()", attrs(bare=True), " : ", result_type)
_GPU_ID = Form(" ", attr("dimension", "id"), attrs("dimension", bare=True))
_BARE = Form(attrs(bare=True))
_BODY = region(0, elide_yield=True)


BUILTIN_DIALECTS = (
    DialectDef("arith", [
        OpSchema("arith.constant", check_creation=_check_constant,
                 form=Form(attrs("value", bare=True), " ", attr("value"), " : ",
                           result_type),
                 pure=True, slot="arith"),
        *(OpSchema(f"arith.{n}", check_creation=_binop(lambda t: t.is_float, "float"),
                   form=_BINOP, result=_like_lhs, pure=True, slot="arith")
          for n in ("addf", "subf", "mulf", "divf")),
        *(OpSchema(f"arith.{n}", check_creation=_binop(
                       lambda t: t.is_int and t != I1, "integer or index"),
                   form=_BINOP, result=_like_lhs, pure=True, slot="arith")
          for n in ("addi", "subi", "muli")),
        OpSchema("arith.cmpf", check_creation=_cmp(
                     lambda t: t.is_float, "float", FLOAT_PREDICATES),
                 form=_CMP, result=lambda values: [I1], pure=True, slot="arith"),
        OpSchema("arith.cmpi", check_creation=_cmp(
                     lambda t: t.is_int, "integer", INT_PREDICATES),
                 form=_CMP, result=lambda values: [I1], pure=True, slot="arith"),
        OpSchema("arith.index_cast", check_creation=_check_index_cast,
                 form=Form(" ", operand, attrs(bare=True), " : ", type_of(0), " to ",
                           result_type),
                 pure=True, slot="arith"),
    ]),
    DialectDef("scf", [
        OpSchema("scf.for", num_regions=1, terminator="scf.yield",
                 check_creation=_check_scf_for, check_structure=_structure_scf_for,
                 form=Form(" ", args(), " = ", operand, " to ", operand, " step ",
                           operand, attrs(), _BODY),
                 slot="scf"),
        OpSchema("scf.if", num_regions=1, variadic_regions=True, terminator="scf.yield",
                 check_creation=_check_scf_if, check_structure=_structure_scf_if,
                 form=Form(" ", operand, attrs(), _BODY,
                           optional(" else", lambda op: len(op.regions) == 2,
                                    region(1, elide_yield=True))),
                 slot="scf"),
        OpSchema("scf.parallel", num_regions=1, terminator="scf.yield",
                 check_creation=_check_scf_parallel,
                 check_structure=_structure_scf_parallel,
                 form=Form(" (", args(), ") = (", operands(_ivs), ") to (",
                           operands(_ivs), ") step (", operands(_ivs), ")", attrs(),
                           _BODY),
                 slot="scf"),
        OpSchema("scf.yield", is_terminator=True, check_creation=_check_yield,
                 form=_BARE, slot=""),
    ]),
    DialectDef("affine", [
        OpSchema("affine.for", num_regions=1, terminator="scf.yield",
                 check_creation=_check_affine_for, check_structure=_structure_scf_for,
                 form=Form(" ", args(), " = ", attr("lower_bound"), " to ",
                           attr("upper_bound"), default("step", int_attr(1)),
                           optional(" step ", lambda op: op.attributes["step"].value != 1,
                                    attr("step")),
                           attrs("lower_bound", "upper_bound", "step"), _BODY),
                 slot="affine"),
    ]),
    DialectDef("memref", [
        OpSchema("memref.alloc", check_creation=_check_alloc, form=_ALLOC,
                 pure=True, slot="memref"),
        OpSchema("memref.alloca", check_creation=_check_alloc, form=_ALLOC,
                 pure=True, slot="memref"),
        OpSchema("memref.dealloc", check_creation=_check_dealloc,
                 form=Form(" ", operand, attrs(bare=True), " : ", type_of(0)),
                 slot="memref"),
        OpSchema("memref.load", check_creation=_check_load,
                 form=Form(" ", operand, "[", operands(), "]", attrs(bare=True), " : ",
                           type_of(0)),
                 result=_element, pure=True, slot="loads"),
        OpSchema("memref.store", check_creation=_check_store,
                 form=Form(" ", operand, ", ", operand, "[", operands(), "]",
                           attrs(bare=True), " : ", type_of(1)),
                 slot="stores"),
    ]),
    DialectDef("func", [
        OpSchema("func.func", num_regions=1, terminator="func.return",
                 check_creation=_check_func,
                 form=Form(" ", attr("sym_name", "sym"), "(", args(typed=True), ")",
                           default("results", array_attr(())),
                           optional(" -> (", lambda op: op.attributes["results"].value,
                                    attr("results", "types"), ")"),
                           attrs("sym_name", "results"), region(0))),
        OpSchema("func.return", is_terminator=True,
                 check_structure=_structure_func_return,
                 form=Form(attrs(bare=True),
                           optional(" ", lambda op: op.operands, operands(), " : ",
                                    types()),
                           mnemonic="return"),
                 slot="func"),
        OpSchema("func.call", check_creation=_check_call,
                 form=Form(" ", attr("callee"), "(", operands(), ")",
                           attrs("callee", bare=True), " : (", types(), ") -> (",
                           types(results=True), ")"),
                 slot="func"),
    ]),
    DialectDef("gpu", [
        OpSchema("gpu.module", num_regions=1, check_creation=_check_symbol_op,
                 form=Form(" ", attr("sym_name", "sym"), attrs("sym_name"), region(0))),
        OpSchema("gpu.func", num_regions=1, terminator="gpu.return",
                 check_creation=_check_gpu_func,
                 form=Form(" ", attr("sym_name", "sym"), "(", args(typed=True),
                           ") kernel", default("kernel", unit_attr()),
                           attrs("sym_name", "kernel"), region(0))),
        OpSchema("gpu.return", is_terminator=True, check_creation=_check_yield,
                 form=_BARE, slot="gpu"),
        OpSchema("gpu.launch_func", check_creation=_check_launch,
                 form=Form(" ", attr("kernel"), " blocks in (", operands(3),
                           ") threads in (", operands(3), ") args(",
                           operands(typed=True), ")", attrs("kernel", bare=True)),
                 slot="gpu"),
        OpSchema("gpu.block_id", check_creation=_check_id_op, form=_GPU_ID,
                 result=lambda values: [INDEX], pure=True, slot="gpu"),
        OpSchema("gpu.thread_id", check_creation=_check_id_op, form=_GPU_ID,
                 result=lambda values: [INDEX], pure=True, slot="gpu"),
    ]),
    DialectDef("builtin", [
        OpSchema("builtin.module", num_regions=1, check_creation=_check_no_values,
                 form=Form(attrs(), region(0), mnemonic="module")),
    ]),
)
