"""The text format: print -> parse -> print is a fixed point, the goldens
print byte for byte, and malformed input fails with its class and position."""
import glob
import os

import pytest

from conftest import GOLDEN_DIR, context_with_test_ops, golden_text
from irgen import random_module
from staircase.dialects.builders import build_func, build_scf_for
from staircase.errors import ParseError, UnknownOperation
from staircase.ir.core import (
    F64,
    INDEX,
    create_module,
    create_op,
    int_attr,
    str_attr,
)
from staircase.passes import run_pipeline
from staircase.textio import parse_module, parser, print_module

INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")
PIPELINES = (
    "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)",
    "builtin.module(func.func(lower-affine,loop-unroll{factor=2},canonicalize))",
)
FILES = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.sir"))
               + glob.glob(os.path.join(INPUTS, "*.sir")))


def _assert_fixed_point(module):
    text = print_module(module)
    assert print_module(parse_module(text, context_with_test_ops())) == text


def test_irgen_seeds_are_fixed_points():
    for seed in range(200):
        _assert_fixed_point(random_module(seed))


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_files_are_fixed_points(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _assert_fixed_point(parse_module(text, context_with_test_ops()))
    if os.path.basename(path) == "forms.sir":
        return  # its test-dialect ops are opaque to the passes
    for pipeline in PIPELINES:
        module, _ = run_pipeline(parse_module(text, context_with_test_ops()),
                                 pipeline)
        _assert_fixed_point(module)


@pytest.mark.parametrize("name", ["forms", "ifs", "matmul", "conv2d"])
def test_golden_prints_byte_for_byte(name):
    text = golden_text(f"{name}.sir")
    assert print_module(parse_module(text, context_with_test_ops())) == text


def test_attributes_a_form_does_not_print_are_kept():
    ctx = context_with_test_ops()
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
    parsed = parse_module(text, context_with_test_ops())
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
    ("module {\n  // a comment\n  $x\n}\n", 3, 3, "unexpected character '$'"),
    ("module {\n  // note: $\n  func.func @f() {\n    ?\n  }\n}\n", 4, 5,
     "unexpected character '?'"),
    ("module {\n\tfunc.func @f() {\t?\n", 2, 19, "unexpected character '?'"),
    ('module attributes {note = "a // b"} {\n  %0 = $\n}', 2, 8,
     "unexpected character '$'"),
    ("module {\n  func.func @f() {\n    return\n  }\n}  $", 5, 4,
     "unexpected character '$'"),
    ("module {\n  func.func @f() {\n    return\n  }\n", 5, 1,
     "expected 'id', got ''"),
    ("module {\n  func.func @f() {\n    return\n  }", 4, 4,
     "expected 'id', got ''"),
    ("module {" + " //" * 40 + "\n" + " \t" * 40 + "?", 2, 81,
     "unexpected character '?'"),
    ('module attributes {note = "a\tb"} {\n}\n', 1, 27,
     'bad character or escape in string "a\tb"'),
    ('module {\n  func.func @f() attributes {k = "a\\qb"} {\n', 2, 34,
     'bad character or escape in string "a\\qb"'),
], ids=["undefined", "redefinition", "memref-element", "result-count",
        "no-module", "after-comment", "comment-then-line", "after-tab",
        "after-string", "last-line", "eof", "eof-no-newline",
        "after-long-blanks", "string-control-character", "string-bad-escape"])
def test_parse_errors_keep_class_and_position(text, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_module(text, context_with_test_ops())
    assert (info.value.line, info.value.column) == (line, column)
    assert message in str(info.value)


def _parsed_locations():
    """One line per op of every golden and bench file: file, op, line:column."""
    lines = []
    for path in FILES:
        with open(path, encoding="utf-8") as fh:
            module = parse_module(fh.read(), context_with_test_ops())
        for op in [module, *module.walk_nested()]:
            loc = op.location
            where = f"{loc.line}:{loc.column}" if loc else "-"
            lines.append(f"{os.path.basename(path)} {op.name} {where}\n")
    return "".join(lines)


def test_parsed_ops_keep_their_positions():
    assert _parsed_locations() == golden_text("parse_locations.txt")


def _walked_positions(text):
    """(line, column) of every offset of text and of its end, counted by
    stepping through the characters."""
    out, line, column = [], 1, 1
    for ch in text:
        out.append((line, column))
        line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    return out + [(line, column)]


def test_token_offsets_point_into_the_text():
    paths = glob.glob(os.path.join(GOLDEN_DIR, "**", "*.sir"), recursive=True)
    texts = [print_module(random_module(seed)) for seed in range(60)]
    for path in paths + FILES:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    texts.append("module {\n\t// a\tcomment\n  %0 = x  \n}")
    for text in texts:
        walked = _walked_positions(text)
        tokens, newlines = parser._lex(text)
        assert newlines == [i for i, ch in enumerate(text) if ch == "\n"]
        assert tokens[-1] == ("eof", "", len(text))
        for kind, lexeme, offset in tokens:
            assert text[offset:offset + len(lexeme)] == lexeme
            assert parser._line_col(newlines, offset) == walked[offset]


def test_unknown_op_is_reported_with_its_line():
    with pytest.raises(UnknownOperation, match="line 3: .*'foo.bar'"):
        parse_module(_func("    foo.bar() : () -> ()"),
                     context_with_test_ops())


def test_generic_form_rejects_what_it_cannot_print():
    ctx = context_with_test_ops()
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
