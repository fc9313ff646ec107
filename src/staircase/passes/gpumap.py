"""Tag parallel loops with the GPU hierarchy level they should map to."""
from __future__ import annotations

from staircase.ir.core import Operation, ancestors, str_attr

from .rewrite import PassOutcome, matching_ops


def gpu_map_parallel_loops(root: Operation) -> PassOutcome:
    """Set a plain-string mapping attribute on every scf.parallel:
    outermost loops get "blocks", loops nested inside one parallel get
    "threads", anything deeper gets "sequential". Existing mapping
    attributes are overwritten, so the pass is idempotent.
    """
    done = 0
    for loop in matching_ops(root, ("scf.parallel",)):
        depth = sum(a.name == "scf.parallel" for a in ancestors(loop))
        level = ("blocks", "threads")[depth] if depth < 2 else "sequential"
        loop.attributes["mapping"] = str_attr(level)
        done += 1
    return PassOutcome(rewrites=done)
