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
same two lines as its parent. After them comes one line per module: its
label and the same two digests of that module alone, so a diff of two
trees' output names the modules that moved.
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


def labelled_modules():
    """(label, module) for the 57 modules, in the order the module
    docstring gives."""
    kernels = workloads.Kernels(ROOT)
    modules = [(f"kernels/{name}/{tag}", run_pipeline(_parsed(path), pipeline)[0])
               for name, path in kernels.sources.items()
               for tag, pipeline in (("canon", workloads.CANON), ("gpu", workloads.GPU))]
    for seed in (1, 2):
        with tempfile.TemporaryDirectory() as work:
            blocks = workloads.Bigblocks(ROOT)
            blocks.setup(work, seed)
            modules += [(f"bigblocks/seed{seed}/{unit.key}",
                         run_pipeline(_parsed(unit.sir), unit.pipeline)[0])
                        for unit in blocks.units]
    conv_rows = kernels.sources["conv_rows"]
    modules.append(("conv_rows/parsed", _parsed(conv_rows)))
    modules += [(f"tune/tiles{'x'.join(map(str, tiles))}/unroll{unroll}",
                 run_pipeline(_parsed(conv_rows), default_pipeline(tiles, unroll))[0])
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


def _digest(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()[:16]


def per_module() -> list:
    """(label, what ``opt`` prints, the source generated) per module."""
    return [(label, print_module(module), generated_source(module))
            for label, module in labelled_modules()]


def digests(rows=None) -> tuple:
    """(number of modules, opt digest, generated-source digest), of the
    texts ``per_module`` gives."""
    rows = per_module() if rows is None else rows
    return (len(rows), _digest(opt for _, opt, _ in rows),
            _digest(source for _, _, source in rows))


if __name__ == "__main__":
    rows = per_module()
    count, opt, source = digests(rows)
    print(f"modules {count}")
    print(f"opt {opt}")
    print(f"source {source}")
    for label, opt, source in rows:
        print(f"{label} opt {_digest([opt])} source {_digest([source])}")
