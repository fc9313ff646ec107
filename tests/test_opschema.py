"""An op is defined once, on its OpSchema: its syntax, the rule that types
its results, and whether canonicalize may erase it. A dialect a test
registers gets all three the way the built-in dialects do."""
import pytest

from conftest import context_with_test_ops
from staircase.dialects.builders import append_terminator, build_func
from staircase.ir.core import (
    F32,
    F64,
    I1,
    INDEX,
    DialectDef,
    OpSchema,
    create_context,
    create_module,
    create_op,
    memref_type,
    register_dialect,
    str_attr,
)
from staircase.ir.verify import verify
from staircase.passes.canonicalize import canonicalize
from staircase.textio import parse_module, print_module
from staircase.textio.forms import Form, attrs, operand, type_of


def _like_operand(values):
    return [values[0].type] if values else []


def _demo_context():
    """Two ops printed as ``demo.<op> %v : type``: a pure one and one that
    canonicalize must keep."""
    ctx = create_context()
    form = Form(" ", operand, attrs(bare=True), " : ", type_of(0))
    register_dialect(ctx, DialectDef("demo", [
        OpSchema("demo.twice", form=form, result=_like_operand, pure=True),
        OpSchema("demo.note", form=form, result=_like_operand),
    ]))
    return ctx


def _demo_module(ctx, used: bool):
    """@f(%arg0: f32) with a demo.twice and a demo.note of %arg0; the
    function returns the demo.twice result when used."""
    module = create_module(ctx)
    body = build_func(module, "f", [F32], [F32] if used else []).body()
    arg = body.args[0]
    twice = create_op(body, 0, "demo.twice", operands=[arg])
    create_op(body, 1, "demo.note", operands=[arg])
    if used:
        append_terminator(body, "func.return", [twice.results[0]])
    return module


def test_registered_form_prints_and_parses():
    ctx = _demo_context()
    module = _demo_module(ctx, used=True)
    assert verify(module) == []
    text = print_module(module)
    assert "  %0 = demo.twice %arg0 : f32\n" in text
    assert "  %1 = demo.note %arg0 : f32\n" in text
    parsed = parse_module(text, ctx)
    assert print_module(parsed) == text
    twice = parsed.body().ops[0].body().ops[0]
    assert twice.name == "demo.twice"
    assert [r.type for r in twice.results] == [F32]


def test_registered_result_rule_types_the_results():
    module = _demo_module(_demo_context(), used=False)
    ops = module.body().ops[0].body().ops
    assert [[r.type for r in op.results] for op in ops] == [[F32], [F32], []]


def test_canonicalize_erases_an_unused_pure_op_only():
    ctx = _demo_context()
    unused = _demo_module(ctx, used=False)
    canonicalize(unused)
    names = [op.name for op in unused.body().ops[0].body().ops]
    assert names == ["demo.note", "func.return"]

    used = _demo_module(ctx, used=True)
    canonicalize(used)
    names = [op.name for op in used.body().ops[0].body().ops]
    assert names == ["demo.twice", "demo.note", "func.return"]


def test_ops_without_a_form_print_generic():
    ctx = context_with_test_ops()
    module = create_module(ctx)
    body = build_func(module, "f", [F64]).body()
    create_op(body, 0, "test.op", operands=[body.args[0]], result_types=[F64])
    text = print_module(module)
    assert "  %0 = test.op(%arg0) : (f64) -> (f64)\n" in text
    assert print_module(parse_module(text, ctx)) == text


M = memref_type((4, 4), F32)


@pytest.mark.parametrize("name, params, attributes, result", [
    ("arith.addf", [F64, F64], {}, F64),
    ("arith.muli", [INDEX, INDEX], {}, INDEX),
    ("arith.cmpf", [F32, F32], {"predicate": str_attr("olt")}, I1),
    ("arith.cmpi", [INDEX, INDEX], {"predicate": str_attr("slt")}, I1),
    ("memref.load", [M, INDEX, INDEX], {}, F32),
    ("gpu.block_id", [], {"dimension": str_attr("y")}, INDEX),
    ("gpu.thread_id", [], {"dimension": str_attr("x")}, INDEX),
])
def test_builtin_result_rules(name, params, attributes, result):
    module = create_module(create_context())
    body = build_func(module, "f", params).body()
    op = create_op(body, 0, name, operands=list(body.args), attributes=attributes)
    assert [r.type for r in op.results] == [result]


def test_every_context_registers_the_same_schemas():
    first, second = create_context().registry, create_context().registry
    assert first.ops.keys() == second.ops.keys()
    assert all(first.ops[name] is second.ops[name] for name in first.ops)
    assert first.mnemonics == {"module": first.ops["builtin.module"],
                               "return": first.ops["func.return"]}
