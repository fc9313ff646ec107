"""The text format: print -> parse -> print is a fixed point, the goldens
print byte for byte, and malformed input fails with its class and position."""
import glob
import os

import pytest

from conftest import GOLDEN_DIR, golden_text
from irgen import random_module
from staircase.dialects.builders import build_func, build_scf_for
from staircase.errors import ParseError, UnknownOperation
from staircase.ir.core import (
    F64,
    INDEX,
    DialectDef,
    OpSchema,
    create_context,
    create_module,
    create_op,
    int_attr,
    register_dialect,
    str_attr,
)
from staircase.passes import run_pipeline
from staircase.textio import parse_module, print_module

INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")
PIPELINES = (
    "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)",
    "builtin.module(func.func(lower-affine,loop-unroll{factor=2},canonicalize))",
)
FILES = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.sir"))
               + glob.glob(os.path.join(INPUTS, "*.sir")))


def _context():
    """A context with a dialect the text format has no custom form for."""
    ctx = create_context()
    register_dialect(ctx, DialectDef("test", [
        OpSchema("test.op"),
        OpSchema("test.nop"),
        OpSchema("test.region", num_regions=1),
        OpSchema("test.two", num_regions=2),
    ]))
    return ctx


def _assert_fixed_point(module):
    text = print_module(module)
    assert print_module(parse_module(text, _context())) == text


def test_irgen_seeds_are_fixed_points():
    for seed in range(200):
        _assert_fixed_point(random_module(seed))


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_files_are_fixed_points(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _assert_fixed_point(parse_module(text, _context()))
    if os.path.basename(path) == "forms.sir":
        return  # its test-dialect ops are opaque to the passes
    for pipeline in PIPELINES:
        module, _ = run_pipeline(parse_module(text, _context()), pipeline)
        _assert_fixed_point(module)


@pytest.mark.parametrize("name", ["forms", "ifs", "matmul", "conv2d"])
def test_golden_prints_byte_for_byte(name):
    text = golden_text(f"{name}.sir")
    assert print_module(parse_module(text, _context())) == text


def test_attributes_a_form_does_not_print_are_kept():
    ctx = _context()
    module = create_module(ctx)
    func = build_func(module, "f", [F64])
    body = func.body()
    create_op(body, 0, "arith.constant",
              attributes={"value": int_attr(2), "note": str_attr("x")},
              result_types=[INDEX])
    x = func.body().args[0]
    create_op(body, 1, "arith.addf", [x, x], {"fastmath": str_attr("fast")}, [F64])
    one = body.ops[0].results[0]
    loop = build_scf_for(body, one, one, one)
    loop.body().ops[-1].attributes["note"] = str_attr("y")
    text = print_module(module)
    assert '%0 = arith.constant {note = "x"} 2 : index\n' in text
    assert '%1 = arith.addf %arg0, %arg0 {fastmath = "fast"} : f64\n' in text
    assert '      scf.yield {note = "y"}\n' in text
    parsed = parse_module(text, _context())
    assert print_module(parsed) == text
    const, add, loop = parsed.body().ops[0].body().ops[:3]
    assert const.attributes["note"] == str_attr("x")
    assert add.attributes["fastmath"] == str_attr("fast")
    assert loop.body().ops[-1].attributes["note"] == str_attr("y")


def _func(body):
    return f"module {{\n  func.func @f() {{\n{body}\n    return\n  }}\n}}\n"


@pytest.mark.parametrize("text, line, column, message", [
    (_func("    %0 = arith.addf %1, %1 : f64"), 3, 21,
     "use of undefined value %1"),
    (_func("    %0 = arith.constant 1.0 : f64\n"
           "    %0 = arith.constant 2.0 : f64"), 4, 5,
     "redefinition of value %0"),
    ("module {\n  func.func @f(%arg0: memref<4xindex>) {\n    return\n  }\n}\n",
     2, 23, "bad memref element type 'index'"),
    (_func("    %0, %1 = arith.constant 1.0 : f64"), 3, 14,
     "arith.constant produces 1 result(s), 2 named"),
    ("func.func @f() {\n}\n", 1, 1, "modules start with 'module'"),
], ids=["undefined", "redefinition", "memref-element", "result-count",
        "no-module"])
def test_parse_errors_keep_class_and_position(text, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_module(text, _context())
    assert (info.value.line, info.value.column) == (line, column)
    assert message in str(info.value)


def test_unknown_op_is_reported_with_its_line():
    with pytest.raises(UnknownOperation, match="line 3: .*'foo.bar'"):
        parse_module(_func("    foo.bar() : () -> ()"), _context())


def test_generic_form_rejects_what_it_cannot_print():
    ctx = _context()
    module = create_module(ctx)
    body = module.body()
    create_op(body, 0, "test.two", region_count=2)
    with pytest.raises(ValueError, match="multiple regions"):
        print_module(module)
    module = create_module(ctx)
    op = create_op(module.body(), 0, "test.region", region_count=1)
    op.body().add_arg(F64)
    with pytest.raises(ValueError, match="regions with arguments"):
        print_module(module)
