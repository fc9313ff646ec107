"""The benchmark's traced run against the program, at tier-1.

``perfbench/run.py --trace 1`` is the only caller of two program surfaces:
``perfbench/tracing.py`` rebinds the layer entry points (``parse_module``,
``print_module``, ``verify``, ``clone_module``, ``run_pipeline``,
``tape.compile_module``, ``machine.run``, the evaluator's ``run_tape`` and
``ExecContext``, and every ``PASSES`` entry) by name, and
``run._doubling_probe`` reads ``run_pipeline``'s stats. A change that
renames one of them, or changes what it returns, breaks only that run.
This test goes down the same path: ``opt`` and ``run`` through the CLI
(matmul, and the two shapes of ``bigblocks`` job: a straight-line block
under canonicalize and the conv strip unrolled 62 times) and a two-trial
tuner search under an installed Tracer, then the probe.
"""
import importlib.util
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from staircase.interp import codegen, tape  # noqa: E402
from staircase.ir.core import create_context  # noqa: E402
from staircase.textio import parse_module  # noqa: E402

LAYERS = ("textio.parse", "ir.verify", "passes.pipeline", "interp.compile",
          "interp.run", "interp.eval", "tuner.trial", "passes.canonicalize",
          "passes.lower-affine", "passes.loop-unroll")


def test_tracer_times_the_compiler_itself():
    """The tracer wraps ``tape.compile_module`` and rebinds every global
    that is that object; ``tape`` keeps the name only as an alias, so
    ``interp.compile`` covers each call of ``codegen.lower_module``."""
    assert tape.compile_module is codegen.lower_module, (
        "perfbench/tracing.py times interp.compile through "
        "tape.compile_module, which must be codegen.lower_module")


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py, loaded under a name no test module takes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_jobs(work, tracer):
    """``opt`` then ``run`` in ``work``, as a CliUnit runs them, of matmul
    on 32x32 buffers, a 200-op straight-line block under canonicalize and
    the conv strip unrolled; returns each output buffer's data, and what
    the oracle computes for it (None for matmul)."""
    work.mkdir()
    inputs = os.path.join(PERFBENCH, "inputs")
    args = []
    for i in range(3):
        path = str(work / f"arg{i}.json")
        workloads._write_buffer(path, (32, 32), [(k % 5) / 4 for k in range(1024)])
        args.append(path)
    block = oracle.straight_line_block("block200", 200, 7)
    sir = str(work / "block200.sir")
    with open(sir, "w", encoding="utf-8") as fh:
        fh.write(block.text)
    block_args = [str(work / f"block-arg{i}.json") for i in (0, 1)]
    for path, data in zip(block_args, block.inputs):
        workloads._write_buffer(path, (block.width,), data)
    strip_args, strip_want = workloads._conv_inputs(random.Random(7), str(work),
                                                    "strip", 4, 3, 2)
    units = [
        (workloads.CliUnit("matmul", os.path.join(inputs, "matmul.sir"), "matmul",
                           workloads.CANON, "sequential", args, [], str(work)),
         2, None),
        (workloads.CliUnit("block200", sir, "block200", workloads.CANON,
                           "sequential", block_args, [], str(work)),
         1, block.expected),
        (workloads.CliUnit("strip", os.path.join(inputs, "conv_rows_strip.sir"),
                           "conv_rows_strip", workloads.UNROLL, "sequential",
                           strip_args, [], str(work)),
         2, strip_want[2]),
    ]
    outputs = []
    for unit, at, want in units:
        job, = unit.run(tracer)
        assert job.ok, job.error
        outputs.append((workloads._read_data(unit.outputs[at]), want))
    return outputs


def test_traced_run_nests_its_spans_and_uninstalls(tmp_path, bench_run):
    plain = _cli_jobs(tmp_path / "plain", None)
    with open(os.path.join(PERFBENCH, "inputs", "conv_rows.sir"),
              encoding="utf-8") as fh:
        kernel = parse_module(fh.read(), create_context())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebound = list(tracer._undo)
        assert all((owner[attr] if isinstance(owner, dict)
                    else getattr(owner, attr)) is not old
                   for owner, attr, old in rebound)
        traced = _cli_jobs(tmp_path / "traced", tracer)
        jobs = workloads.TuneUnit(kernel, 1, 2, budget=2).run(tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    for got, want in traced:
        assert want is None or oracle.close(got, want)
    assert len(jobs) == 2 and all(j.ok for j in jobs), [j.error for j in jobs]
    # every global the tracer rebound is the original object again
    assert all((owner[attr] if isinstance(owner, dict)
                else getattr(owner, attr)) is old
               for owner, attr, old in rebound)
    assert not tracer.stack
    spans = tracer.spans
    names = {s["name"] for s in spans}
    assert set(LAYERS) <= names, sorted(set(LAYERS) - names)
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        assert span["end"] is not None and span["end"] >= span["start"], span
        parent = by_id.get(span["parent"])
        assert span["parent"] is None or (
            parent["start"] <= span["start"] and span["end"] <= parent["end"]), span
    assert any(by_id[s["parent"]]["name"] == "tuner.trial" for s in spans
               if s["name"] == "passes.pipeline" and s["parent"] is not None)
    path = str(tmp_path / "trace.json")
    tracer.write_chrome(path)
    assert tracing.check_chrome(path, len(spans)) == []
    probe = bench_run._doubling_probe(1)
    assert set(probe) == {"parse", "verify", "canonicalize"}
    assert all(ratio > 0 for ratio in probe.values())
