"""The tuner: searches replay their golden logs, skipped and wrong trials
are told apart, and transformed buffers must equal the baseline's."""
import importlib
import json
import math
import os
import random

import pytest

from conftest import golden_text
from staircase.errors import (EmptySpace, MalformedLine, MissingMain, StaircaseError,
                              TypeMismatch)
from staircase.interp import Buffer
from staircase.ir import verify
from staircase.ir.core import create_context, float_attr, int_attr
from staircase.passes import PASSES, PassOutcome
from staircase.textio import parse_module, print_module
from staircase.tuner import (ParamSpace, default_pipeline, evaluate, load,
                              persist, search)
from staircase.tuner.search import _Session

CONV_ROWS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "inputs", "conv_rows.sir")
SPACE = ParamSpace(tile_sizes=((1, 3), (1, 2, 31)), unroll_factors=(1, 2, 31))
GOLDEN = os.path.join("tuner", "conv_rows.jsonl")
# the module, which the function ``search`` shadows as a package attribute
search_module = importlib.import_module("staircase.tuner.search")


def _conv_rows():
    with open(CONV_ROWS, encoding="utf-8") as fh:
        return parse_module(fh.read(), create_context())


@pytest.fixture(scope="module")
def searches():
    """(strategy, best trial, log) of each golden search."""
    return [(strategy, *search(_conv_rows(), space=SPACE, budget=6, seed=3,
                               strategy=strategy))
            for strategy in ("random", "one_plus_one_es")]


def test_searches_replay_their_golden_logs(searches):
    """One JSON line per trial of each strategy, then one per best point."""
    lines = []
    for strategy, best, log in searches:
        for t in log + [best]:
            stats = t.stats and {k: v for k, v in t.stats.items()
                                 if k != "wall_time"}
            lines.append(json.dumps({
                "strategy": strategy, "idx": t.idx, "params": t.params,
                "cost": t.cost, "status": t.status, "stats": stats}))
    assert "".join(line + "\n" for line in lines) == golden_text(GOLDEN)


def test_a_log_loads_as_it_was_persisted(searches, tmp_path):
    for strategy, _, log in searches:
        path = tmp_path / f"{strategy}.jsonl"
        persist(log, path)
        assert load(path) == log


_RECORD = {"idx": 0, "params": {"tiles": [1, 1], "unroll": 1},
           "cost": 812.0, "status": "evaluated", "seed": 7}


def _with(**changes):
    return json.dumps({**_RECORD, **changes})


@pytest.mark.parametrize("line, message", [
    ("{", "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("[]", "record is not a JSON object"),
    ('{"idx": 0, "cost": null}', "missing keys ['params', 'seed', 'status']"),
    (_with(idx=True), "idx must be an integer, got True"),
    (_with(seed="7"), "seed must be an integer, got '7'"),
    (_with(status="done"), "unknown status 'done'"),
    (_with(params={"tiles": [1, 1]}),
     "params must hold exactly tiles and unroll"),
    (_with(params={"tiles": [1, 1.5], "unroll": 1}),
     "tiles must be a list of integers"),
    (_with(params={"tiles": [1, 1], "unroll": "2"}),
     "unroll must be an integer"),
    (_with(cost="812"), "evaluated trial needs a numeric cost"),
    (_with(status="skipped"), "skipped trial must have null cost"),
], ids=["json", "not-object", "missing", "idx", "seed", "status", "params",
        "tiles", "unroll", "evaluated-cost", "skipped-cost"])
def test_a_malformed_log_line_is_named(tmp_path, line, message):
    """The line after a good record and a blank line is line 3."""
    path = tmp_path / "log.jsonl"
    path.write_text(_with() + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as info:
        load(path)
    assert str(info.value) == f"line 3: {message} in {path}"
    assert info.value.lineno == 3


def test_a_point_the_pipeline_rejects_is_skipped():
    # three tile sizes for conv_rows' two-dimensional scf.parallel
    trial = evaluate(_conv_rows(), params={"tiles": [2, 2, 2], "unroll": 1})
    assert (trial.status, trial.cost, trial.stats) == ("skipped", None, None)
    assert trial.reason == (
        "scf-parallel-loop-tiling on func.func @conv_rows: "
        "3 tile sizes for a 2-dimensional parallel loop")


def _spy(monkeypatch, *names):
    """(name, first argument, result) of each call the search module makes
    to ``names``, in order."""
    calls = []

    def spied(name, real):
        def spy(first, *rest):
            result = real(first, *rest)
            calls.append((name, first, result))
            return result
        return spy

    for name in names:
        monkeypatch.setattr(search_module, name,
                            spied(name, getattr(search_module, name)))
    return calls


def test_a_new_session_runs_nothing(monkeypatch):
    calls = _spy(monkeypatch, "call")
    _Session(_conv_rows(), seed=3)
    assert calls == []


@pytest.mark.parametrize("strategy", ["random", "one_plus_one_es"])
def test_a_search_runs_each_distinct_spec_once(monkeypatch, strategy):
    """The identity trial's run is the baseline, and a repeated point
    runs nothing: one run per distinct spec in the log."""
    calls = _spy(monkeypatch, "call")
    _, log = search(_conv_rows(), space=SPACE, budget=6, seed=3,
                    strategy=strategy)
    specs = {default_pipeline(t.params["tiles"], t.params["unroll"])
             for t in log}
    assert len(calls) == len(specs)


@pytest.mark.parametrize("tiles, status", [
    ([3, 2], "evaluated"), ([2, 2, 2], "skipped"),
])
def test_a_repeated_point_reuses_its_first_trial(monkeypatch, tiles, status):
    session = _Session(_conv_rows(), seed=3)
    first = session.trial(1, tiles, 2)
    calls = _spy(monkeypatch, "call", "clone_module", "lower_module")
    again = session.trial(4, list(tiles), 2)
    assert calls == []
    assert (again.idx, again.params) == (4, {"tiles": tiles, "unroll": 2})
    assert (again.cost, again.status, again.reason) == (
        first.cost, status, first.reason)
    if status == "evaluated":
        assert again.stats == {**first.stats, "wall_time": 0.0}
        assert first.stats["wall_time"] > 0.0
    else:
        assert again.stats is None and again.reason is not None


@pytest.mark.parametrize("unroll, runs", [(1, 1), (2, 2)])
def test_evaluate_runs_the_baseline_then_the_trial(monkeypatch, unroll, runs):
    """A pipeline that names a pass runs the kernel's own program, then its
    clone's; the identity pipeline's one run is the baseline."""
    calls = _spy(monkeypatch, "call", "lower_module")
    trial = evaluate(_conv_rows(), params={"tiles": [1, 1], "unroll": unroll})
    assert trial.status == "evaluated"
    built = [program for name, _, program in calls if name == "lower_module"]
    ran = [program for name, program, _ in calls if name == "call"]
    assert len(built) == runs and ran == built


@pytest.mark.parametrize("tiles, unroll, passes", [
    ([1, 1], 1, 0), ([3, 2], 1, 1), ([1, 1], 2, 2), ([3, 2], 31, 3),
])
def test_a_trial_verifies_its_input_and_each_pass(monkeypatch, tiles, unroll,
                                                  passes):
    """A trial that runs passes verifies its clone first and after each
    pass; the identity trial verifies nothing, because it runs the program
    of the module the session verified as it started."""
    session = _Session(_conv_rows(), seed=3)
    roots = []
    real = verify.verify
    monkeypatch.setattr(verify, "verify",
                        lambda root: roots.append(root) or real(root))
    trial = session.trial(1, tiles, unroll)
    assert trial.status == "evaluated"
    assert len(roots) == (1 + passes if passes else 0)


@pytest.mark.parametrize("tiles, unroll, builds", [
    ([1, 1], 1, 0), ([3, 2], 1, 1), ([1, 1], 2, 1),
])
def test_only_a_trial_that_runs_passes_clones_and_compiles(monkeypatch, tiles,
                                                           unroll, builds):
    """The identity trial runs the baseline program; it agrees with a
    trial that compiles a clone whose pipeline changes nothing."""
    session = _Session(_conv_rows(), seed=3)
    calls = _spy(monkeypatch, "clone_module", "lower_module")
    trial = session.trial(1, tiles, unroll)
    assert trial.status == "evaluated"
    built = ["clone_module", "lower_module"]
    assert [name for name, _, _ in calls] == built * builds
    if not builds:
        monkeypatch.setitem(PASSES, "nothing", lambda root: PassOutcome())
        session.template = lambda tiles, unroll: \
            "builtin.module(func.func(nothing))"
        compiled = session.trial(1, tiles, unroll)
        assert [name for name, _, _ in calls] == built
        assert (compiled.cost, compiled.stats["total"]) == (
            trial.cost, trial.stats["total"])


def _shorten_inner_loop(root, **_):
    """Make the innermost loop of conv_rows stop one column early."""
    for op in root.walk_nested():
        value = op.attributes.get("value")
        if op.name == "arith.constant" and value == int_attr(62):
            op.attributes["value"] = int_attr(61)
    return PassOutcome(rewrites=1)


def test_a_search_leaves_its_kernel_as_it_was():
    # trials at factor 31 tile their clone, then refuse to unroll it
    def refuse_factor_31(tiles, unroll):
        return default_pipeline(tiles, 0 if unroll == 31 else unroll)

    module = _conv_rows()
    text, modules = print_module(module), len(module.ctx.modules)
    _, log = search(module, refuse_factor_31, SPACE, budget=8, seed=1)
    assert {t.status for t in log} == {"evaluated", "skipped"}
    assert any(t.params["unroll"] == 2 and t.status == "evaluated" for t in log)
    assert print_module(module) == text
    assert len(module.ctx.modules) == modules


def test_a_search_whose_every_trial_is_skipped_raises():
    def unroll_by_zero(tiles, unroll):
        return "builtin.module(func.func(loop-unroll{factor=0}))"

    with pytest.raises(StaircaseError, match="template unroll_by_zero was "
                                             "refused at all 3 points"):
        search(_conv_rows(), unroll_by_zero, SPACE, budget=3, seed=1)


def test_a_pipeline_that_changes_results_raises(monkeypatch):
    monkeypatch.setitem(PASSES, "shorten", _shorten_inner_loop)
    with pytest.raises(StaircaseError, match="changed the results of @conv"):
        evaluate(_conv_rows(), lambda tiles, unroll:
                 "builtin.module(func.func(shorten))",
                 params={"tiles": [1, 1], "unroll": 1})


def _nudge_one(root, **_):
    """Move the constant 1.0 of ``_STORE_ONE`` up by one ulp."""
    for op in root.walk_nested():
        if op.name == "arith.constant" and op.attributes["value"] == float_attr(1.0):
            op.attributes["value"] = float_attr(math.nextafter(1.0, 2.0))
    return PassOutcome(rewrites=1)


_STORE_ONE = """\
module {
  func.func @one(%arg0: memref<4xf64>) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 1.0 : f64
    memref.store %1, %arg0[%0] : memref<4xf64>
    return
  }
}
"""


def test_a_trial_one_ulp_off_raises(monkeypatch):
    # a trial is compared with its baseline exactly, not within a tolerance
    monkeypatch.setitem(PASSES, "nudge", _nudge_one)
    with pytest.raises(StaircaseError, match="changed the results of @one"):
        evaluate(parse_module(_STORE_ONE, create_context()), lambda tiles, unroll:
                 "builtin.module(func.func(nudge))",
                 params={"tiles": [1, 1], "unroll": 1})


_NANS = """\
module {
  func.func @nanbuf(%arg0: memref<4xf64>) {
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 0.0 : f64
    %4 = arith.divf %3, %3 : f64
    scf.for %arg1 = %0 to %1 step %2 {
      memref.store %4, %arg0[%arg1] : memref<4xf64>
    }
    return
  }
  func.func @nanret(%arg0: f64) -> (f64) {
    %0 = arith.subf %arg0, %arg0 : f64
    %1 = arith.constant 1.0 : f64
    %2 = arith.divf %1, %0 : f64
    %3 = arith.mulf %2, %0 : f64
    return %3 : f64
  }
}
"""


@pytest.mark.parametrize("func", ["nanbuf", "nanret"])
def test_a_kernel_that_leaves_or_returns_a_nan_is_tuned(func):
    # a NaN has the same bits as the baseline's NaN, so it agrees with it;
    # @nanret's is inf * 0, a new float on each run
    module = parse_module(_NANS, create_context())
    best, log = search(module, space=ParamSpace(((1,),), (1,)), budget=1,
                       func=func)
    assert [t.status for t in log] == ["evaluated"] and best is log[0]
    unrolled = evaluate(module, params={"tiles": [1], "unroll": 2}, func=func)
    assert unrolled.status == "evaluated"


def _negate_zero(root, **_):
    """Make the constant 0.0 of ``_ZERO`` -0.0."""
    for op in root.walk_nested():
        if op.name == "arith.constant":
            op.attributes["value"] = float_attr(-0.0)
    return PassOutcome(rewrites=1)


_ZERO = """\
module {
  func.func @zero() -> (f64) {
    %0 = arith.constant 0.0 : f64
    return %0 : f64
  }
}
"""


def test_a_trial_that_returns_the_other_zero_raises(monkeypatch):
    # -0.0 == 0.0 as floats, but the two differ in their sign bit
    monkeypatch.setitem(PASSES, "negate", _negate_zero)
    with pytest.raises(StaircaseError, match="changed the results of @zero"):
        evaluate(parse_module(_ZERO, create_context()), lambda tiles, unroll:
                 "builtin.module(func.func(negate))",
                 params={"tiles": [1, 1], "unroll": 1})


# the tuner compares a trial's buffers with its baseline's by ``==``, which
# compares their bytes
@pytest.mark.parametrize("dtype, got, want, close", [
    ("f64", [float("nan"), 1.0], [float("nan"), 1.0], True),
    ("f64", [-0.0, 2.0], [0.0, 2.0], False),
    ("f64", [1.0 + 1e-9, 2.0], [1.0, 2.0], False),
    ("f64", [1.001, 2.0], [1.0, 2.0], False),
    ("f32", [0.5, 2.0], [0.5, 2.0], True),
    ("i64", [10**15 + 1, 2], [10**15, 2], False),
    ("i64", [10**15, -2], [10**15, -2], True),
    ("i32", [3, 4], [3, 5], False),
], ids=["nan", "signed-zero", "within-tolerance", "beyond-tolerance", "f32",
        "integer-exact", "integer-equal", "i32"])
def test_buffers_close(dtype, got, want, close):
    got, want = Buffer((2,), dtype, got), Buffer((2,), dtype, want)
    assert (got == want) is close


def test_buffers_of_another_shape_or_kind_differ():
    want = Buffer((2,), "f64", [1.0, 2.0])
    assert Buffer((1, 2), "f64", [1.0, 2.0]) != want
    assert [1.0, 2.0] != want



_SCALARS = """\
module {
  func.func @first(%arg0: f64) {
    return
  }
  func.func @scalars(%arg0: f64, %arg1: i1, %arg2: index, %arg3: i32, %arg4: memref<3xi32>) {
    return
  }
}
"""


def test_inputs_for_a_named_function_draw_each_parameter_in_its_range():
    module = parse_module(_SCALARS, create_context())
    f64, i1, index, i32, ints = search_module.make_inputs(module, "scalars", 5)
    rng = random.Random(5)  # one draw per scalar, then one per element
    assert (f64, i1, index, i32) == (rng.uniform(-2.0, 2.0), rng.randrange(2),
                                     rng.randrange(0, 8), rng.randrange(-50, 50))
    assert isinstance(f64, float) and -2.0 <= f64 <= 2.0
    assert i1 in (0, 1) and 0 <= index < 8 and -50 <= i32 < 50
    assert isinstance(ints, Buffer) and (ints.shape, ints.dtype) == ((3,), "i32")
    assert ints.tolist() == [rng.randrange(-50, 50) for _ in range(3)]
    first, = search_module.make_inputs(module, None, 5)
    assert first == random.Random(5).uniform(-2.0, 2.0)


_INTS = """\
module {
  func.func @ints(%arg0: memref<4x5xi32>, %arg1: memref<6xf32>, %arg2: memref<3xi64>) {
    return
  }
}
"""


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("func", ["conv_rows", "matmul", "ints"])
def test_buffer_inputs_are_the_draws_of_rng_uniform(func, seed):
    # a float element is drawn by uniform's own formula, bit for bit
    if func == "ints":
        text = _INTS
    else:
        with open(os.path.join(os.path.dirname(CONV_ROWS), f"{func}.sir"),
                  encoding="utf-8") as fh:
            text = fh.read()
    module = parse_module(text, create_context())
    func_op = next(op for op in module.body().ops
                   if op.attributes["sym_name"].value == func)
    rng = random.Random(seed)
    want = []
    for arg in func_op.body().args:
        ty, size = arg.type, math.prod(arg.type.shape)
        want.append(Buffer(ty.shape, ty.element.kind, [
            rng.uniform(-2.0, 2.0) if ty.element.is_float else rng.randrange(-50, 50)
            for _ in range(size)]))
    got = search_module.make_inputs(module, func, seed)
    assert [b.data.tobytes() for b in got] == [b.data.tobytes() for b in want]
    assert [(b.shape, b.dtype) for b in got] == [(b.shape, b.dtype) for b in want]


def test_inputs_for_a_memref_of_i1_are_refused():
    # a Buffer holds no i1 elements, so no argument can be made for one
    module = parse_module(
        "module {\n  func.func @f(%arg0: memref<3xi1>) {\n    return\n  }\n}\n",
        create_context())
    with pytest.raises(TypeMismatch, match="unknown buffer dtype 'i1'"):
        search_module.make_inputs(module, "f", 5)


@pytest.mark.parametrize("text, name, message", [
    (_SCALARS, "absent", "no function named @absent in module"),
    ("module {\n  gpu.module @M {\n  }\n}\n", "M", "no function named @M in module"),
    ("module {\n}\n", None, "module has no func.func to tune"),
], ids=["absent", "not-a-function", "no-function"])
def test_a_function_the_module_lacks_is_named(text, name, message):
    module = parse_module(text, create_context())
    with pytest.raises(MissingMain) as info:
        search_module.make_inputs(module, name, 5)
    assert str(info.value) == message


@pytest.mark.parametrize("tiles, unroll, message", [
    ((), (1,), "no tile-size dimensions given"),
    (((1,),), (), "no unroll factors given"),
    (((1, 2), ()), (1,), "tile dimension 1 has no candidates"),
    (((1, 0),), (1,), "tile dimension 0 has bad candidate 0"),
    (((2.0,),), (1,), "tile dimension 0 has bad candidate 2.0"),
    (((True,),), (1,), "tile dimension 0 has bad candidate True"),
    (((1,),), (1, -2), "bad unroll factor -2"),
    (((1,),), (False,), "bad unroll factor False"),
], ids=["no-dimension", "no-factor", "empty-dimension", "zero-tile", "float-tile",
        "bool-tile", "negative-factor", "bool-factor"])
def test_an_unusable_space_is_refused(tiles, unroll, message):
    with pytest.raises(EmptySpace) as info:
        ParamSpace(tile_sizes=tiles, unroll_factors=unroll)
    assert str(info.value) == message


def test_a_space_holds_its_candidates_as_tuples():
    space = ParamSpace(tile_sizes=[[1, 2], [3]], unroll_factors=[1, 4])
    assert space.tile_sizes == ((1, 2), (3,)) and space.unroll_factors == (1, 4)
    assert space.rank == 2 and space.identity() == {"tiles": [1, 1], "unroll": 1}
