"""The text format: print -> parse -> print is a fixed point, the goldens
print byte for byte, malformed input fails with its class and position,
well-formed input that breaks an op's rules parses and is refused by
verify at the op's line, and the line reader builds what the token
reader builds."""
import gc
import glob
import os
import sys
from collections import Counter

import pytest

from conftest import GOLDEN_DIR, context_with_test_ops, golden_text
from irgen import literal_module, long_block_module, random_module
from staircase import cli
from staircase.dialects.builders import build_func, build_scf_for
from staircase.errors import ParseError, TypeMismatch, UnknownOperation
from staircase.ir.core import (
    F64,
    INDEX,
    DialectDef,
    Location,
    OpSchema,
    count_ops,
    create_context,
    create_module,
    create_op,
    int_attr,
    register_dialect,
    str_attr,
)
from staircase.ir.verify import verify
from staircase.passes import run_pipeline
from staircase.textio import parse_module, parser, print_module
from staircase.textio.forms import Form, attr, attrs, default, operands, optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402

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


def test_boundary_literals_are_fixed_points():
    for seed in range(60):
        _assert_fixed_point(literal_module(seed))


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
    (_func("    %0 = arith.addf %1, %1 : f64\n  }\n}\n?"), 6, 1,
     "unexpected character '?'"),
], ids=["undefined", "redefinition", "memref-element", "result-count",
        "no-module", "after-comment", "comment-then-line", "after-tab",
        "after-string", "last-line", "eof", "eof-no-newline",
        "after-long-blanks", "string-control-character", "string-bad-escape",
        "character-after-error"])
def test_parse_errors_keep_class_and_position(text, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_module(text, context_with_test_ops())
    assert (info.value.line, info.value.column) == (line, column)
    assert message in str(info.value)


@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_non_finite_constants_are_refused(literal):
    # they would print as inf, which reads back as no attribute value
    module = parse_module(_func(f"    %0 = arith.constant {literal} : f64"),
                          context_with_test_ops())
    assert [str(d) for d in verify(module)] == [
        "error: 'arith.constant' at <input>:3: float value must be finite"]


def _scoped(body):
    return ("module {\n  func.func @f(%arg0: f64, %arg1: i64, %arg2: memref<4xf64>, "
            f"%arg3: index) {{\n{body}\n    return\n  }}\n}}\n")


# Texts that parse, since the parser builds unchecked, and that verify,
# opt and run refuse at the op's line: each breaks its op's schema check
# or, in the last two, dominance.
@pytest.mark.parametrize("body, name, line, message", [
    ("    scf.for %arg4 = %arg0 to %arg3 step %arg3 {\n    }", "scf.for", 3,
     "lower bound must be index, got f64"),
    ("    scf.if %arg1 {\n    }", "scf.if", 3, "condition must be a single i1 value"),
    ("    scf.parallel (%arg4) = (%arg0) to (%arg3) step (%arg3) {\n    }",
     "scf.parallel", 3, "bounds and steps must be index, got f64"),
    ("    affine.for %arg4 = 0 to 4 step 0 {\n    }", "affine.for", 3,
     "step must be >= 1"),
    ("    affine.for %arg4 = 4 to 0 {\n    }", "affine.for", 3,
     "upper bound must be >= lower bound"),
    ("    %0 = memref.load %arg2[%arg3, %arg3] : memref<4xf64>", "memref.load", 3,
     "expects 1 indices for memref<4xf64>, got 2"),
    ("    %0 = memref.load %arg2[%arg0] : memref<4xf64>", "memref.load", 3,
     "indices must be index-typed"),
    ("    memref.store %arg1, %arg2[%arg3] : memref<4xf64>", "memref.store", 3,
     "stored value is i64, buffer elements are f64"),
    ("    %0 = arith.index_cast %arg0 : f64 to i64", "arith.index_cast", 3,
     "casts between index and i32/i64 only, got f64 to i64"),
    ("    %0 = arith.cmpf olt, %arg1, %arg1 : i64", "arith.cmpf", 3,
     "expects two identical float operands, got i64, i64"),
    ("    %0 = arith.cmpf lt, %arg0, %arg0 : f64", "arith.cmpf", 3,
     "requires a 'predicate' attribute in ('oeq', 'one', 'olt', 'ole', 'ogt', 'oge')"),
    ("    %0 = arith.constant 1e999 : f64", "arith.constant", 3,
     "float value must be finite"),
    ("    %0 = arith.constant 2 : i1", "arith.constant", 3,
     "i1 constant must be 0 or 1"),
    ("    %0 = arith.constant 1.0 : i64", "arith.constant", 3,
     "integer result i64 requires an integer value"),
    ("    scf.for %arg4 = %arg3 to %arg3 step %arg3 {\n"
     "      %0 = arith.addf %arg0, %arg0 : f64\n    }\n"
     "    %1 = arith.addf %0, %0 : f64", "arith.addf", 6,
     "operand 0 is not visible at this point"),
    ("    scf.for %arg4 = %arg3 to %arg3 step %arg3 {\n    }\n"
     "    %0 = arith.addi %arg4, %arg4 : index", "arith.addi", 5,
     "operand 0 is not visible at this point"),
], ids=["scf.for", "scf.if", "scf.parallel", "affine.for-step", "affine.for-bounds",
        "load-indices", "load-index-type", "store-value", "index_cast", "cmpf-type",
        "cmpf-predicate", "constant-non-finite", "constant-i1", "constant-kind",
        "dominance-result", "dominance-argument"])
def test_verify_refuses_what_the_parser_builds(capsys, tmp_path, body, name, line,
                                               message):
    text = _scoped(body)
    want = f"error: '{name}' at <input>:{line}: {message}"
    assert str(verify(parse_module(text, context_with_test_ops()))[0]) == want
    path = tmp_path / "in.sir"
    path.write_text(text, encoding="utf-8")
    for argv in (["verify"], ["opt", "--pipeline", PIPELINES[1]],
                 ["run", "--func", "f", "--out", str(tmp_path)]):
        assert cli.main([argv[0], "--input", str(path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(want if argv[0] == "verify" else "error: " + want)


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


def test_generic_form_reads_every_region_of_a_variadic_op():
    ctx = context_with_test_ops()
    register_dialect(ctx, DialectDef("var", [OpSchema("var.op", variadic_regions=True)]))
    module = parse_module("""\
module {
  var.op() : () -> () {
    test.nop() : () -> ()
  } {
  } {
    test.op() : () -> ()
  }
  var.op() : () -> ()
}
""", ctx)
    three, none = module.body().ops
    assert type(three.regions) is tuple and none.regions == ()
    assert [[op.name for op in block.ops] for block in three.regions] == [
        ["test.nop"], [], ["test.op"]]
    assert all(block.parent_op is three for block in three.regions)
    assert verify(module) == []


def _tracked(kind):
    gc.collect()
    return Counter(type(obj) for obj in gc.get_objects())[kind]


def test_parsing_a_long_block_builds_no_list_per_op():
    """An op with no region or result holds no container of its own, so a
    parsed straight-line block holds a few lists, not one or more per op."""
    text = print_module(long_block_module())
    ctx = create_context()
    before = _tracked(list)
    module = parse_module(text, ctx)
    lists = _tracked(list) - before
    assert count_ops(module) > 4000
    assert lists < 20, f"{lists} lists for {count_ops(module)} ops"


# -- the line reader -------------------------------------------------------------


def _token_reader_only(monkeypatch):
    monkeypatch.setattr(parser.Reader, "line", lambda self, block: False)


def _built(module):
    """What parsing built: the printed text, and each op's name, Location
    and result types."""
    ops = [module, *module.walk_nested()]
    return print_module(module), [
        (op.name, op.location, [v.type for v in op.results]) for op in ops]


def _agreement_corpus():
    paths = sorted(glob.glob(os.path.join(GOLDEN_DIR, "**", "*.sir"), recursive=True)
                   + glob.glob(os.path.join(INPUTS, "*.sir")))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    texts += [print_module(random_module(seed)) for seed in range(60)]
    texts += [print_module(literal_module(seed)) for seed in range(60)]
    with open(os.path.join(INPUTS, "conv_rows_strip.sir"), encoding="utf-8") as fh:
        strip = fh.read()
    for text in (oracle.straight_line_block("block1000", 1000, 1).text, strip):
        for pipeline in (workloads.CANON, workloads.UNROLL):
            module, _ = run_pipeline(parse_module(text, context_with_test_ops()),
                                     pipeline)
            texts.append(print_module(module))
    return texts


def test_line_reader_agrees_with_the_token_reader(monkeypatch):
    read = parser.Reader.line
    taken = []

    def line(self, block):
        taken.append(read(self, block))
        return taken[-1]

    monkeypatch.setattr(parser.Reader, "line", line)
    corpus = _agreement_corpus()
    both = [_built(parse_module(text, context_with_test_ops())) for text in corpus]
    assert taken.count(True) > 0.8 * sum(len(ops) for _, ops in both)
    _token_reader_only(monkeypatch)
    for text, built in zip(corpus, both):
        assert _built(parse_module(text, context_with_test_ops())) == built


def _token_read_lines(monkeypatch):
    """The line each op the token reader reads starts on, in parse order."""
    lines = []
    read = parser.Reader.op

    def op(self, block):
        lines.append(parser._line_col(self.newlines, self.peek()[2])[0])
        return read(self, block)

    monkeypatch.setattr(parser.Reader, "op", op)
    return lines


def test_token_reader_reads_only_ops_with_regions_of_a_block(monkeypatch):
    text = oracle.straight_line_block("block4000", 4000, 1).text
    lines = _token_read_lines(monkeypatch)
    parse_module(text, context_with_test_ops())
    words = {text.splitlines()[line - 1].split()[0] for line in lines}
    assert words <= {"module", "func.func", "return"}


def _f64_func(body):
    return ("module {\n  func.func @f(%arg0: f64) -> (f64) {\n"
            f"{body}\n    return %arg0 : f64\n  }}\n}}\n")


@pytest.mark.parametrize("body, name, column", [
    ("    %0 = arith.addf %arg0,\n      %arg0 : f64", "arith.addf", 10),
    ('    %0 = arith.addf %arg0, %arg0 {note = "x"} : f64', "arith.addf", 10),
    ('    %0 = arith.addf %arg0, %arg0 attributes {note = "x"} : f64', "arith.addf", 10),
    ("    %0 = arith.addf %arg0, %arg0 : f64 // the sum", "arith.addf", 10),
    ('    %0 = gpu.thread_id x\n    {note = "x"}', "gpu.thread_id", 10),
    ("    return\n    // the value\n    %arg0 : f64", "func.return", 5),
], ids=["two-lines", "dictionary", "attributes", "comment", "dictionary-below",
        "operands-below"])
def test_lines_the_regex_leaves_go_to_the_token_reader(monkeypatch, body, name, column):
    lines = _token_read_lines(monkeypatch)
    got = _built(parse_module(_f64_func(body), context_with_test_ops()))
    assert 3 in lines
    assert got[1][2][:2] == (name, Location("<input>", 3, column))
    _token_reader_only(monkeypatch)
    assert _built(parse_module(_f64_func(body), context_with_test_ops())) == got


def _failure(text):
    try:
        parse_module(text, context_with_test_ops())
    except (ParseError, TypeMismatch) as error:
        return type(error), str(error)
    raise AssertionError("parsed")


@pytest.mark.parametrize("body, failure, line", [
    ("    %0 = arith.addf %1, %1 : f64",
     (ParseError, "3:21: use of undefined value %1"), 3),
    ("    %0 = arith.addf %arg0, %arg0 : f64\n    , f64",
     (ParseError, "3:10: arith.addf produces 2 result(s), 1 named"), 3),
    ("    %0 = arith.addf %arg0, %arg0 : f64\n    %0 = arith.mulf %arg0, %arg0 : f64",
     (ParseError, "4:5: redefinition of value %0"), 4),
    ("    %0 = arith.index_cast %arg0 : index to i64",
     (ParseError, "3:35: expected type f64, got index"), 3),
    ("    return %arg0 : i64",
     (ParseError, "3:20: operand types do not match the written types"), 3),
    ("    %0 = memref.alloc() : memref<0xf64>",
     (TypeMismatch, "memref extents must be static integers >= 1, got 0"), 3),
    ("    return  : ", (ParseError, "3:13: expected 'id', got ':'"), 3),
], ids=["undefined", "type-below", "redefinition", "operand-type", "written-types",
        "bad-type", "no-operands"])
def test_failures_come_from_the_token_reader(monkeypatch, body, failure, line):
    lines = _token_read_lines(monkeypatch)
    assert _failure(_f64_func(body)) == failure
    assert lines[-1] == line
    _token_reader_only(monkeypatch)
    assert _failure(_f64_func(body)) == failure



def _context_with_forms():
    """A context with regionless forms the built-in dialects do not have."""
    ctx = create_context()
    register_dialect(ctx, DialectDef("test", [
        OpSchema("test.word", form=Form(attrs("mode", bare=True), " ", attr("mode", "id"))),
        OpSchema("test.sym", form=Form(
            " ", attr("callee", "sym"), default("n", int_attr(0)),
            optional(" n ", lambda op: op.attributes["n"].value, attr("n")),
            "(", operands(typed=True), ")", attrs("callee", "n", bare=True))),
    ]))
    return ctx


@pytest.mark.parametrize("line, failure", [
    ("test.sym @f n 3(%arg0 : f64)", None),
    ("test.sym @g(%arg0 : f64, %arg0 : f64)", None),
    ("test.sym @g(%arg0 : i64)", "3:25: expected type f64, got i64"),
    ("test.word attributes", "4:1: expected '{', got '}'"),
], ids=["optional", "default", "typed-operand", "dictionary-before-word"])
def test_forms_the_built_in_dialects_lack_agree(monkeypatch, line, failure):
    text = f"module {{\n  func.func @f(%arg0: f64) {{\n    {line}\n}}\n}}\n"
    if failure:
        for reset in (lambda: None, lambda: _token_reader_only(monkeypatch)):
            reset()
            with pytest.raises(ParseError, match=failure):
                parse_module(text, _context_with_forms())
        return
    lines = _token_read_lines(monkeypatch)
    built = _built(parse_module(text, _context_with_forms()))
    assert 3 not in lines
    _token_reader_only(monkeypatch)
    assert _built(parse_module(text, _context_with_forms())) == built
