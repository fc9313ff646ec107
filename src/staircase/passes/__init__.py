"""Pass pipeline engine and the bundled transformation passes."""

from .canonicalize import canonicalize
from .gpumap import gpu_map_parallel_loops
from .loweraffine import lower_affine
from .outline import gpu_kernel_outlining
from .pipeline import (
    ANCHORS,
    PASSES,
    PassScope,
    PassStats,
    pipeline_parse,
    run_pipeline,
)
from .rewrite import PassOutcome
from .tiling import scf_parallel_loop_tiling
from .unroll import loop_unroll

__all__ = [
    "ANCHORS",
    "PASSES",
    "PassOutcome",
    "PassScope",
    "PassStats",
    "canonicalize",
    "gpu_kernel_outlining",
    "gpu_map_parallel_loops",
    "loop_unroll",
    "lower_affine",
    "pipeline_parse",
    "run_pipeline",
    "scf_parallel_loop_tiling",
]
