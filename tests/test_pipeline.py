"""Pipeline specs: every parse message, and printing.

A spec parsed, printed and parsed again gives the same root scope, for the
tuner's and the benchmark's specs; and each of those specs, and one written
by hand, prints exactly as written once its blanks are dropped.
"""
import itertools
import os
import sys

import pytest

from staircase.errors import ParseError, UnknownPass
from staircase.passes.pipeline import pipeline_parse
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


def _tuner_specs():
    tiles, unrolls = workloads.TILES, workloads.UNROLLS
    return [default_pipeline(list(t), u)
            for t in itertools.product(*tiles) for u in unrolls]


SPECS = [workloads.CANON, workloads.UNROLL, workloads.GPU, *_tuner_specs()]


@pytest.mark.parametrize("spec", SPECS)
def test_printed_spec_parses_to_the_same_pipeline(spec):
    pipeline = pipeline_parse(spec)
    assert pipeline_parse(str(pipeline)) == pipeline


BY_HAND = ("builtin.module(func.func(scf-parallel-loop-tiling{sizes=[1,3]},"
           "loop-unroll{factor=2}),gpu-map-parallel-loops)")


@pytest.mark.parametrize("spec", [BY_HAND, *SPECS],
                         ids=["by-hand", *SPECS])
def test_spec_prints_as_written(spec):
    """Blanks aside, a spec prints exactly as written."""
    written = spec.replace(" ", "")
    assert pipeline_parse(written) == pipeline_parse(spec)
    assert str(pipeline_parse(written)) == written
