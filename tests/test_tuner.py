"""The tuner: searches replay their golden logs, skipped and wrong trials
are told apart, and transformed buffers are compared as the tuner says."""
import json
import os

import pytest

from conftest import golden_text
from staircase.errors import StaircaseError
from staircase.interp import Buffer
from staircase.ir import verify
from staircase.ir.core import create_context, int_attr
from staircase.passes import PASSES, PassOutcome
from staircase.textio import parse_module
from staircase.tuner import ParamSpace, evaluate, search
from staircase.tuner.search import _buffers_close, _Session

CONV_ROWS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "inputs", "conv_rows.sir")
SPACE = ParamSpace(tile_sizes=((1, 3), (1, 2, 31)), unroll_factors=(1, 2, 31))
GOLDEN = os.path.join("tuner", "conv_rows.jsonl")


def _conv_rows():
    with open(CONV_ROWS, encoding="utf-8") as fh:
        return parse_module(fh.read(), create_context())


def _search_lines():
    """One JSON line per trial of each strategy, then one per best point."""
    lines = []
    for strategy in ("random", "one_plus_one_es"):
        best, log = search(_conv_rows(), space=SPACE, budget=6, seed=3,
                           strategy=strategy)
        for t in log + [best]:
            stats = t.stats and {k: v for k, v in t.stats.items()
                                 if k != "wall_time"}
            lines.append(json.dumps({
                "strategy": strategy, "idx": t.idx, "params": t.params,
                "cost": t.cost, "status": t.status, "stats": stats}))
    return "".join(line + "\n" for line in lines)


def test_searches_replay_their_golden_logs():
    assert _search_lines() == golden_text(GOLDEN)


def test_a_point_the_pipeline_rejects_is_skipped():
    # three tile sizes for conv_rows' two-dimensional scf.parallel
    trial = evaluate(_conv_rows(), params={"tiles": [2, 2, 2], "unroll": 1})
    assert (trial.status, trial.cost, trial.stats) == ("skipped", None, None)


@pytest.mark.parametrize("tiles, unroll, passes", [
    ([1, 1], 1, 0), ([3, 2], 1, 1), ([1, 1], 2, 2), ([3, 2], 31, 3),
])
def test_a_trial_verifies_its_input_and_each_pass(monkeypatch, tiles, unroll,
                                                  passes):
    session = _Session(_conv_rows(), seed=3)
    roots = []
    real = verify.verify
    monkeypatch.setattr(verify, "verify",
                        lambda root: roots.append(root) or real(root))
    trial = session.trial(1, tiles, unroll)
    assert trial.status == "evaluated"
    assert len(roots) == 1 + passes


def _shorten_inner_loop(root, **_):
    """Make the innermost loop of conv_rows stop one column early."""
    for op in root.walk_nested():
        value = op.attributes.get("value")
        if op.name == "arith.constant" and value == int_attr(62):
            op.attributes["value"] = int_attr(61)
    return PassOutcome(rewrites=1)


def test_a_pipeline_that_changes_results_raises(monkeypatch):
    monkeypatch.setitem(PASSES, "shorten", _shorten_inner_loop)
    with pytest.raises(StaircaseError, match="changed the results of @conv"):
        evaluate(_conv_rows(), lambda tiles, unroll:
                 "builtin.module(func.func(shorten))",
                 params={"tiles": [1, 1], "unroll": 1})


@pytest.mark.parametrize("dtype, got, want, close", [
    ("f64", [float("nan"), 1.0], [float("nan"), 1.0], False),
    ("f64", [-0.0, 2.0], [0.0, 2.0], True),
    ("f64", [1.0 + 1e-9, 2.0], [1.0, 2.0], True),
    ("f64", [1.001, 2.0], [1.0, 2.0], False),
    ("f32", [0.5, 2.0], [0.5, 2.0], True),
    ("i64", [10**15 + 1, 2], [10**15, 2], False),
    ("i64", [10**15, -2], [10**15, -2], True),
    ("i32", [3, 4], [3, 5], False),
], ids=["nan", "signed-zero", "within-tolerance", "beyond-tolerance", "f32",
        "integer-exact", "integer-equal", "i32"])
def test_buffers_close(dtype, got, want, close):
    got, want = Buffer((2,), dtype, got), Buffer((2,), dtype, want)
    assert _buffers_close(got, want) is close


def test_buffers_of_another_shape_or_kind_differ():
    want = Buffer((2,), "f64", [1.0, 2.0])
    assert not _buffers_close(Buffer((1, 2), "f64", [1.0, 2.0]), want)
    assert not _buffers_close([1.0, 2.0], want)

