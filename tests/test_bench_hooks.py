"""The benchmark's traced run against the program, at tier-1.

``perfbench/run.py --trace 1`` is the only caller of two program surfaces:
``perfbench/tracing.py`` rebinds the layer entry points (``parse_module``,
``print_module``, ``verify``, ``clone_module``, ``run_pipeline``,
``compile_module``, ``machine.run``, the evaluator's ``run_tape`` and
``ExecContext``, and every ``PASSES`` entry) by name, and
``run._doubling_probe`` reads ``run_pipeline``'s stats. A change that
renames one of them, or changes what it returns, breaks only that run.
This test goes down the same path: ``opt`` and ``run`` through the CLI and
a two-trial tuner search under an installed Tracer, then the probe.
"""
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)
import tracing  # noqa: E402
import workloads  # noqa: E402

from staircase.ir.core import create_context  # noqa: E402
from staircase.textio import parse_module  # noqa: E402

LAYERS = ("textio.parse", "ir.verify", "passes.pipeline", "interp.compile",
          "interp.run", "interp.eval", "tuner.trial")


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py, loaded under a name no test module takes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_jobs(work, tracer):
    """``opt`` then ``run`` of matmul on 32x32 buffers in ``work``, as a
    CliUnit runs them; returns the output buffer's data."""
    work.mkdir()
    source = os.path.join(PERFBENCH, "inputs", "matmul.sir")
    args = []
    for i in range(3):
        path = str(work / f"arg{i}.json")
        workloads._write_buffer(path, (32, 32), [(k % 5) / 4 for k in range(1024)])
        args.append(path)
    unit = workloads.CliUnit("matmul", source, "matmul", workloads.CANON,
                             "sequential", args, [], str(work))
    job, = unit.run(tracer)
    assert job.ok, job.error
    return workloads._read_data(unit.outputs[2])


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
