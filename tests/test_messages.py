"""Every creation and structure message of the built-in op schemas.

Each creation row builds one malformed op twice: through create_op, which
must raise TypeMismatch with exactly ``<op>: <message>``, and unchecked,
straight into a module, where verify must report the same message as a
Diagnostic on that op. Structure checks run only in verify, so their rows
build a well-formed op, break its regions, and look for the Diagnostic.
The last rows leave the result types out of create_op with operands that
do not fit the op: the creation check, not a result rule, reports them.
"""
import pytest

from staircase.dialects.builders import (
    build_func,
    build_gpu_module,
    build_scf_for,
)
from staircase.errors import TypeMismatch
from staircase.ir.core import (
    F32,
    F64,
    I1,
    I32,
    I64,
    INDEX,
    Operation,
    array_attr,
    create_context,
    create_module,
    create_op,
    float_attr,
    int_attr,
    memref_type,
    str_attr,
    symbol_attr,
)
from staircase.ir.verify import verify

M1 = memref_type((4,), F64)
M2 = memref_type((4, 4), F64)
# The parameters of @f, by the names the rows use for them.
PARAMS = {"f64": F64, "f32": F32, "i64": I64, "i32": I32, "idx": INDEX,
          "i1": I1, "m1": M1, "m2": M2}

IDX3 = ["idx"] * 3
IDX6 = ["idx"] * 6
OLT, SLT = {"predicate": str_attr("olt")}, {"predicate": str_attr("slt")}
BOUNDS = {"lower_bound": int_attr(0), "upper_bound": int_attr(4), "step": int_attr(1)}
RESULTS = {"results": array_attr(())}
FLOAT_PREDS = "('oeq', 'one', 'olt', 'ole', 'ogt', 'oge')"
INT_PREDS = "('eq', 'ne', 'slt', 'sle', 'sgt', 'sge')"

# (op, operands, attributes, result types, regions, where, message); where
# is the block the op goes in: @f's body, the module's, or @m's.
CREATION = [
    ("arith.constant", ["f64"], {"value": float_attr(1.0)}, [F64], 0, "func",
     "takes no operands"),
    ("arith.constant", [], {"value": float_attr(1.0)}, [], 0, "func",
     "produces exactly one result"),
    ("arith.constant", [], {}, [F64], 0, "func",
     "requires an int or float 'value' attribute"),
    ("arith.constant", [], {"value": int_attr(1)}, [F64], 0, "func",
     "float result f64 requires a float value"),
    ("arith.constant", [], {"value": float_attr(1.0)}, [I64], 0, "func",
     "integer result i64 requires an integer value"),
    ("arith.constant", [], {"value": int_attr(1)}, [M1], 0, "func",
     "result must be scalar"),
    ("arith.constant", [], {"value": int_attr(2)}, [I1], 0, "func",
     "i1 constant must be 0 or 1"),
    ("arith.addf", ["f64"], {}, [F64], 0, "func",
     "expects two operands and one result"),
    ("arith.subf", ["f64", "f32"], {}, [F64], 0, "func",
     "operand types differ: f64 vs f32"),
    ("arith.mulf", ["i64", "i64"], {}, [I64], 0, "func",
     "expects float operands, got i64"),
    ("arith.divf", ["f64", "f64"], {}, [F32], 0, "func",
     "result type f32 must match operands f64"),
    ("arith.addi", ["i64"], {}, [], 0, "func",
     "expects two operands and one result"),
    ("arith.subi", ["i64", "idx"], {}, [I64], 0, "func",
     "operand types differ: i64 vs index"),
    ("arith.muli", ["f64", "f64"], {}, [F64], 0, "func",
     "expects integer or index operands, got f64"),
    ("arith.addi", ["i1", "i1"], {}, [I1], 0, "func",
     "expects integer or index operands, got i1"),
    ("arith.muli", ["i64", "i64"], {}, [I32], 0, "func",
     "result type i32 must match operands i64"),
    ("arith.cmpf", ["f64"], OLT, [I1], 0, "func",
     "expects two operands and one result"),
    ("arith.cmpf", ["i64", "i64"], OLT, [I1], 0, "func",
     "expects two identical float operands, got i64, i64"),
    ("arith.cmpf", ["f64", "f64"], SLT, [I1], 0, "func",
     "requires a 'predicate' attribute in " + FLOAT_PREDS),
    ("arith.cmpf", ["f64", "f64"], OLT, [F64], 0, "func", "result must be i1"),
    ("arith.cmpi", [], SLT, [I1], 0, "func",
     "expects two operands and one result"),
    ("arith.cmpi", ["f64", "f64"], SLT, [I1], 0, "func",
     "expects two identical integer operands, got f64, f64"),
    ("arith.cmpi", ["i64", "i64"], OLT, [I1], 0, "func",
     "requires a 'predicate' attribute in " + INT_PREDS),
    ("arith.cmpi", ["i64", "i64"], SLT, [I64], 0, "func", "result must be i1"),
    ("arith.index_cast", [], {}, [INDEX], 0, "func",
     "expects one operand and one result"),
    ("arith.index_cast", ["f64"], {}, [INDEX], 0, "func",
     "casts between index and i32/i64 only, got f64 to index"),
    ("scf.for", ["idx", "idx"], {}, [], 1, "func",
     "expects lower bound, upper bound, step operands"),
    ("scf.for", ["i64", "idx", "idx"], {}, [], 1, "func",
     "lower bound must be index, got i64"),
    ("scf.for", ["idx", "i64", "idx"], {}, [], 1, "func",
     "upper bound must be index, got i64"),
    ("scf.for", ["idx", "idx", "i64"], {}, [], 1, "func",
     "step must be index, got i64"),
    ("scf.for", IDX3, {}, [F64], 1, "func",
     "carries no results (loop-carried values unsupported)"),
    ("scf.if", ["f64"], {}, [], 1, "func", "condition must be a single i1 value"),
    ("scf.if", ["i1"], {}, [], 3, "func",
     "takes a then region and an optional else region"),
    ("scf.if", ["i1"], {}, [F64], 1, "func", "carries no results"),
    ("scf.parallel", ["idx", "idx"], {}, [], 1, "func",
     "expects equal-arity lower bounds, upper bounds, steps"),
    ("scf.parallel", ["idx", "idx", "i64"], {}, [], 1, "func",
     "bounds and steps must be index, got i64"),
    ("scf.parallel", IDX3, {}, [F64], 1, "func",
     "carries no results (reductions unsupported)"),
    ("scf.yield", ["f64"], {}, [], 0, "func", "yields no values in this kit"),
    ("scf.yield", [], {}, [F64], 0, "func", "produces no results"),
    ("affine.for", ["idx"], BOUNDS, [], 1, "func",
     "bounds are attributes, not operands"),
    ("affine.for", [], {"lower_bound": int_attr(0), "upper_bound": int_attr(4)},
     [], 1, "func", "requires integer lower_bound, upper_bound, step attributes"),
    ("affine.for", [], {**BOUNDS, "step": int_attr(0)}, [], 1, "func",
     "step must be >= 1"),
    # a run reads the step as an i64: 2**63 as negative, 2**64 + 1 as 1
    *(pytest.param(("affine.for", [], {**BOUNDS, "step": int_attr(step)}, [],
                    1, "func", "step must be >= 1"),
                   id=f"affine.for:step {step}")
      for step in (1 << 63, (1 << 64) + 1)),
    ("affine.for", [], {**BOUNDS, "upper_bound": int_attr(-1)}, [], 1, "func",
     "upper bound must be >= lower bound"),
    # as a run reads the bounds, wrapped to i64: 0 to 2**64 - 1 runs 0 to -1
    # (2**64 to 4 runs 0 to 4: test_evaluators.test_affine_bounds_read_wrapped)
    pytest.param(("affine.for", [], {**BOUNDS, "upper_bound": int_attr((1 << 64) - 1)},
                  [], 1, "func", "upper bound must be >= lower bound"),
                 id="affine.for:upper bound 18446744073709551615"),
    ("affine.for", [], BOUNDS, [F64], 1, "func", "carries no results"),
    ("memref.alloc", ["idx"], {}, [M1], 0, "func",
     "static shapes only: takes no operands"),
    ("memref.alloca", [], {}, [F64], 0, "func",
     "produces exactly one memref result"),
    ("memref.dealloc", ["f64"], {}, [], 0, "func", "expects one memref operand"),
    ("memref.dealloc", ["m1"], {}, [F64], 0, "func", "produces no results"),
    ("memref.load", ["f64"], {}, [F64], 0, "func", "first operand must be a memref"),
    ("memref.load", ["m2", "idx"], {}, [F64], 0, "func",
     "expects 2 indices for memref<4x4xf64>, got 1"),
    ("memref.load", ["m1", "i64"], {}, [F64], 0, "func",
     "indices must be index-typed"),
    ("memref.load", ["m1", "idx"], {}, [F32], 0, "func",
     "result must be the element type f64"),
    ("memref.store", ["f64"], {}, [], 0, "func",
     "expects a value then a memref operand"),
    ("memref.store", ["f32", "m1", "idx"], {}, [], 0, "func",
     "stored value is f32, buffer elements are f64"),
    ("memref.store", ["f64", "m2", "idx"], {}, [], 0, "func",
     "expects 2 indices for memref<4x4xf64>, got 1"),
    ("memref.store", ["f64", "m1", "i64"], {}, [], 0, "func",
     "indices must be index-typed"),
    ("memref.store", ["f64", "m1", "idx"], {}, [F64], 0, "func",
     "produces no results"),
    ("func.func", [], RESULTS, [], 1, "module",
     "requires a string 'sym_name' attribute"),
    ("func.func", [], {"sym_name": str_attr("g"), **RESULTS}, [F64], 1, "module",
     "takes no operands and produces no results"),
    ("func.func", [], {"sym_name": str_attr("g")}, [], 1, "module",
     "requires a 'results' array-of-types attribute"),
    ("func.call", [], {"callee": str_attr("f")}, [], 0, "func",
     "requires a flat 'callee' symbol attribute"),
    ("gpu.module", [], {}, [], 1, "module", "requires a string 'sym_name' attribute"),
    ("gpu.func", [], {"sym_name": str_attr("k")}, [], 1, "gpu",
     "requires the 'kernel' unit attribute"),
    ("gpu.return", ["f64"], {}, [], 0, "func", "yields no values in this kit"),
    ("gpu.launch_func", IDX6, {"kernel": symbol_attr("k")}, [], 0, "func",
     "requires a 'kernel' attribute of the form @module::@func"),
    ("gpu.launch_func", IDX3 + ["idx", "idx", "i64"],
     {"kernel": symbol_attr("m", "k")}, [], 0, "func",
     "first six operands are grid and block sizes (index)"),
    ("gpu.launch_func", IDX6, {"kernel": symbol_attr("m", "k")}, [F64], 0, "func",
     "produces no results"),
    ("gpu.block_id", [], {"dimension": str_attr("w")}, [INDEX], 0, "func",
     "requires a 'dimension' attribute of x, y, or z"),
    ("gpu.thread_id", [], {"dimension": str_attr("x")}, [F64], 0, "func",
     "takes no operands and produces one index result"),
    ("builtin.module", [], {}, [F64], 1, "module",
     "takes no operands and produces no results"),
]


def _module():
    """A module with @f(params) and an empty gpu.module @m; the values by
    name and the blocks by where."""
    ctx = create_context()
    module = create_module(ctx)
    func = build_func(module, "f", list(PARAMS.values()))
    gpu = build_gpu_module(module, "m")
    values = dict(zip(PARAMS, func.body().args))
    blocks = {"func": func.body(), "module": module.body(), "gpu": gpu.body()}
    return module, values, blocks


def _diagnostics(module):
    return [(d.op_name, d.message) for d in verify(module)]


def _row_id(row):
    return f"{row[0]}:{row[-1]}"


@pytest.mark.parametrize("row", CREATION, ids=_row_id)
def test_creation_message(row):
    name, operands, attributes, result_types, regions, where, message = row
    module, values, blocks = _module()
    block = blocks[where]
    args = [values[k] for k in operands]
    with pytest.raises(TypeMismatch) as info:
        create_op(block, block.insertion_index(), name, operands=args,
                  attributes=attributes, result_types=result_types,
                  region_count=regions)
    assert type(info.value) is TypeMismatch
    assert str(info.value) == f"{name}: {message}"
    assert _diagnostics(module) == []   # the failed op left nothing behind

    op = Operation(module.ctx, name, args, attributes, result_types, regions, None)
    block.insert(block.insertion_index(), op)
    assert (name, message) in _diagnostics(module)


def _loop_without_iv(module, values, blocks):
    body = blocks["func"]
    loop = create_op(body, body.insertion_index(), "scf.for",
                     operands=[values["idx"]] * 3, region_count=1)
    create_op(loop.body(), 0, "scf.yield")


def _affine_without_iv(module, values, blocks):
    body = blocks["func"]
    loop = create_op(body, body.insertion_index(), "affine.for",
                     attributes=BOUNDS, region_count=1)
    create_op(loop.body(), 0, "scf.yield")


def _branch_with_argument(module, values, blocks):
    body = blocks["func"]
    branch = create_op(body, body.insertion_index(), "scf.if",
                       operands=[values["i1"]], region_count=1)
    branch.body().add_arg(INDEX)
    create_op(branch.body(), 0, "scf.yield")


def _parallel(arg_types):
    def build(module, values, blocks):
        body = blocks["func"]
        loop = create_op(body, body.insertion_index(), "scf.parallel",
                         operands=[values["idx"]] * 3, region_count=1)
        for ty in arg_types:
            loop.body().add_arg(ty)
        create_op(loop.body(), 0, "scf.yield")
    return build


def _return_in_loop(module, values, blocks):
    idx = values["idx"]
    loop = build_scf_for(blocks["func"], idx, idx, idx)
    create_op(loop.body(), 0, "func.return")


def _return_of_undeclared_value(module, values, blocks):
    body = blocks["func"]
    create_op(body, len(body.ops), "func.return", operands=[values["f64"]])


# (op, how a well-formed op of it is given a malformed region, message)
STRUCTURE = [
    ("scf.for", _loop_without_iv, "body must have exactly one index argument"),
    ("affine.for", _affine_without_iv, "body must have exactly one index argument"),
    ("scf.if", _branch_with_argument, "branch regions take no arguments"),
    ("scf.parallel", _parallel([]), "one body argument per parallel dimension"),
    ("scf.parallel", _parallel([F64]), "body arguments must be index"),
    ("func.return", _return_in_loop, "must terminate a func.func body"),
    ("func.return", _return_of_undeclared_value,
     "returns (f64), function declares ()"),
]


@pytest.mark.parametrize("row", STRUCTURE, ids=_row_id)
def test_structure_message(row):
    name, build, message = row
    module, values, blocks = _module()
    build(module, values, blocks)
    assert (name, message) in _diagnostics(module)


# create_op with the result types left out: (op, operands, attributes, message)
LEFT_OUT = [
    ("arith.addf", [], {}, "expects two operands and one result"),
    ("arith.addf", ["f64"], {}, "expects two operands and one result"),
    ("arith.muli", [], {}, "expects two operands and one result"),
    ("arith.cmpf", [], OLT, "expects two operands and one result"),
    ("arith.cmpi", ["i64"], SLT, "expects two operands and one result"),
    ("memref.load", [], {}, "first operand must be a memref"),
    ("memref.load", ["f64"], {}, "first operand must be a memref"),
    ("memref.load", ["idx", "idx"], {}, "first operand must be a memref"),
    ("gpu.thread_id", ["idx"], {"dimension": str_attr("x")},
     "takes no operands and produces one index result"),
]


@pytest.mark.parametrize("row", LEFT_OUT,
                         ids=lambda row: f"{row[0]}:{'-'.join(row[1]) or 'none'}")
def test_malformed_operands_without_result_types(row):
    name, operands, attributes, message = row
    module, values, blocks = _module()
    body = blocks["func"]
    with pytest.raises(TypeMismatch) as info:
        create_op(body, body.insertion_index(), name,
                  operands=[values[k] for k in operands], attributes=attributes)
    assert type(info.value) is TypeMismatch
    assert str(info.value) == f"{name}: {message}"
    assert len(body.ops) == 1
