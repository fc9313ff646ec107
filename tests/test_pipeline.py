"""Pipeline specs: every parse and builder message, and the two ways to
make a pipeline agree.

A spec parsed, printed and parsed again gives the same Pipeline, for the
tuner's and the benchmark's specs; the builder, driven item by item, makes
the Pipeline the parser makes.
"""
import itertools
import os
import sys

import pytest

from staircase.errors import ParseError, UnknownPass
from staircase.passes.pipeline import PassScope, pipeline_builder, pipeline_parse
from staircase.tuner import default_pipeline

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402

_ANCHORS = "builtin.module, func.func, gpu.module, gpu.func"

# (spec, error type, message)
PARSE_ERRORS = [
    ("", ParseError, "pipeline: empty specification"),
    ("  \n ", ParseError, "pipeline: empty specification"),
    ("builtin.module(canonicalize;)", ParseError,
     "pipeline: unexpected character ';' at offset 27"),
    ("builtin.module", ParseError,
     "pipeline: unexpected end of input, expected '('"),
    ("builtin.module(", ParseError, "pipeline: unexpected end of input"),
    ("builtin.module(canonicalize", ParseError,
     "pipeline: unexpected end of input, expected ')'"),
    ("builtin.module(canonicalize}", ParseError,
     "pipeline: expected ')', got '}'"),
    ("builtin.module(canonicalize)x", ParseError,
     "pipeline: trailing input 'x'"),
    ("nope(canonicalize)", ParseError,
     f"pipeline: unknown anchor 'nope'; expected one of {_ANCHORS}"),
    ("(canonicalize)", ParseError,
     f"pipeline: unknown anchor '('; expected one of {_ANCHORS}"),
    ("builtin.module(nope(canonicalize))", ParseError,
     f"pipeline: unknown anchor 'nope'; expected one of {_ANCHORS}"),
    ("builtin.module(nope)", UnknownPass, "unknown pass 'nope'"),
    ("builtin.module(canonicalize,)", ParseError,
     "pipeline: expected a pass or scope, got ')'"),
    ("builtin.module(,canonicalize)", ParseError,
     "pipeline: expected a pass or scope, got ','"),
    ("builtin.module(loop-unroll{factor})", ParseError,
     "pipeline: expected '=', got '}'"),
    ("builtin.module(loop-unroll{factor=2)", ParseError,
     "pipeline: expected '}', got ')'"),
    ("builtin.module(loop-unroll{factor=2", ParseError,
     "pipeline: unexpected end of input, expected '}'"),
    ("builtin.module(scf-parallel-loop-tiling{sizes=[2,3)})", ParseError,
     "pipeline: expected ']', got ')'"),
    ("builtin.module(loop-unroll{factor=})", ParseError,
     "pipeline: expected a value, got '}'"),
    ("builtin.module(loop-unroll{factor=2,})", ParseError,
     "pipeline: expected a parameter name, got '}'"),
    ("builtin.module(loop-unroll{=2})", ParseError,
     "pipeline: expected a parameter name, got '='"),
    ("builtin.module(scf-parallel-loop-tiling{sizes=[2,]})", ParseError,
     "pipeline: expected a value, got ']'"),
    ("builtin.module(scf-parallel-loop-tiling{sizes=[,]})", ParseError,
     "pipeline: expected a value, got ','"),
]


@pytest.mark.parametrize("spec, error, message", PARSE_ERRORS,
                         ids=[row[0] or "empty" for row in PARSE_ERRORS])
def test_parse_message(spec, error, message):
    with pytest.raises(error) as info:
        pipeline_parse(spec)
    assert type(info.value) is error
    assert str(info.value) == message


def test_builder_messages():
    with pytest.raises(ParseError) as info:
        pipeline_builder().push_scope("nope")
    assert str(info.value) == f"unknown anchor 'nope'; expected one of {_ANCHORS}"
    with pytest.raises(ParseError) as info:
        pipeline_builder().pop_scope()
    assert str(info.value) == "pop_scope without a matching push_scope"
    with pytest.raises(UnknownPass) as info:
        pipeline_builder().add_pass("nope")
    assert str(info.value) == "unknown pass 'nope'"
    with pytest.raises(ParseError) as info:
        pipeline_builder().push_scope("func.func").build()
    assert str(info.value) == "1 scope(s) left open"


def _tuner_specs():
    tiles, unrolls = workloads.TILES, workloads.UNROLLS
    return [default_pipeline(list(t), u)
            for t in itertools.product(*tiles) for u in unrolls]


SPECS = [workloads.CANON, workloads.UNROLL, workloads.GPU, *_tuner_specs()]


@pytest.mark.parametrize("spec", SPECS)
def test_printed_spec_parses_to_the_same_pipeline(spec):
    pipeline = pipeline_parse(spec)
    assert pipeline_parse(str(pipeline)) == pipeline


def _build(scope, builder):
    for item in scope.items:
        if isinstance(item, PassScope):
            _build(item, builder.push_scope(item.anchor))
            builder.pop_scope()
        else:
            builder.add_pass(*item)


@pytest.mark.parametrize("spec", SPECS)
def test_builder_makes_the_parsed_pipeline(spec):
    parsed = pipeline_parse(spec)
    builder = pipeline_builder()
    _build(parsed.root, builder)
    assert builder.build() == parsed


def test_builder_by_hand():
    built = (pipeline_builder()
             .push_scope("func.func")
             .add_pass("scf-parallel-loop-tiling", {"sizes": [1, 3]})
             .add_pass("loop-unroll", {"factor": 2})
             .pop_scope()
             .add_pass("gpu-map-parallel-loops")
             .build())
    assert built == pipeline_parse(
        "builtin.module(func.func(scf-parallel-loop-tiling{sizes=[1,3]},"
        "loop-unroll{factor=2}),gpu-map-parallel-loops)")
    assert str(built) == ("builtin.module(func.func(scf-parallel-loop-tiling"
                          "{sizes=[1,3]},loop-unroll{factor=2}),"
                          "gpu-map-parallel-loops)")
