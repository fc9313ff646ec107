"""Digests of the 57 benchmark modules: what ``opt`` prints and what code
generation writes for each.

    PYTHONPATH=src python tests/bench_digests.py

The modules, in this order:
- ``kernels``: conv_rows, conv2d, matmul and saxpy, each under the
  workload's CANON then GPU pipeline (8);
- ``bigblocks``: for seed 1, then seed 2, the workload's inputs as its
  ``setup`` writes them (conv_rows_strip and the 1k, 2k and 4k-op
  blocks), each under CANON then UNROLL (16);
- conv_rows as parsed, with no pipeline (1);
- ``tune``: conv_rows under ``default_pipeline`` at every point of the
  workload's space, tiles in ``itertools.product`` order, then unroll (32).

Each digest is the first 16 hex digits of the SHA-256 of the modules' texts
joined in that order: ``print_module`` of each for ``opt``, and the source
``lower_module`` compiles for each (not a lazily built alias-safe variant)
for the generated code. A change that claims to keep both must print the
same two lines as its parent.
"""
import hashlib
import itertools
import os
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from staircase.interp import codegen  # noqa: E402
from staircase.ir.core import create_context  # noqa: E402
from staircase.passes import run_pipeline  # noqa: E402
from staircase.textio import parse_module, print_module  # noqa: E402
from staircase.tuner import default_pipeline  # noqa: E402


def _parsed(path):
    with open(path, encoding="utf-8") as fh:
        return parse_module(fh.read(), create_context())


def bench_modules():
    """The 57 modules, in the order the module docstring gives."""
    kernels = workloads.Kernels(ROOT)
    modules = [run_pipeline(_parsed(path), pipeline)[0]
               for path in kernels.sources.values()
               for pipeline in (workloads.CANON, workloads.GPU)]
    for seed in (1, 2):
        with tempfile.TemporaryDirectory() as work:
            blocks = workloads.Bigblocks(ROOT)
            blocks.setup(work, seed)
            modules += [run_pipeline(_parsed(unit.sir), unit.pipeline)[0]
                        for unit in blocks.units]
    conv_rows = kernels.sources["conv_rows"]
    modules.append(_parsed(conv_rows))
    modules += [run_pipeline(_parsed(conv_rows), default_pipeline(tiles, unroll))[0]
                for tiles in itertools.product(*workloads.TILES)
                for unroll in workloads.UNROLLS]
    return modules


def generated_source(module) -> str:
    """The source ``lower_module`` compiles for ``module``."""
    units = []
    define = codegen._define
    with mock.patch.object(codegen, "_define", lambda batch, namespace: (
            units.extend(batch), define(batch, namespace))):
        codegen.lower_module(module)
    return "".join(units)


def digests() -> tuple:
    """(number of modules, opt digest, generated-source digest)."""
    modules = bench_modules()
    opt, source = hashlib.sha256(), hashlib.sha256()
    for module in modules:
        opt.update(print_module(module).encode())
        source.update(generated_source(module).encode())
    return len(modules), opt.hexdigest()[:16], source.hexdigest()[:16]


if __name__ == "__main__":
    count, opt, source = digests()
    print(f"modules {count}")
    print(f"opt {opt}")
    print(f"source {source}")
