"""staircase: a staged mini-compiler for annotated Python kernels.

Capture numeric Python functions into an SSA, region-based IR with a
handful of MLIR-flavored dialects, rewrite them with a small scoped pass
pipeline, run them as metered Python generated per module, and search the
tiling/unrolling space with a derivative-free tuner.
"""
from staircase.ir.core import (
    Context,
    clone_module,
    clone_op,
    count_ops,
    create_context,
    create_module,
    create_op,
    erase_op,
    move_op,
    register_dialect,
    replace_all_uses_with,
)
from staircase.ir.verify import verify

__version__ = "0.1.0"

# Frontend, pass, and interpreter names resolve lazily so that IR-only
# users (and the textual tools) do not pay for them at import time.
_FRONTEND = {
    "staged": ("staircase.frontend.capture", "staged"),
    "capture": ("staircase.frontend.capture", "capture"),
    "StagedFunction": ("staircase.frontend.capture", "StagedFunction"),
    "constant": ("staircase.frontend.proxy", "constant"),
    "F32": ("staircase.frontend.types", "F32"),
    "F64": ("staircase.frontend.types", "F64"),
    "I32": ("staircase.frontend.types", "I32"),
    "I64": ("staircase.frontend.types", "I64"),
    "Index": ("staircase.frontend.types", "Index"),
    "MemRef": ("staircase.frontend.types", "MemRef"),
    "scf_for": ("staircase.frontend.markers", "scf_for"),
    "affine_for": ("staircase.frontend.markers", "affine_for"),
    "scf_range": ("staircase.frontend.markers", "scf_range"),
    "affine_range": ("staircase.frontend.markers", "affine_range"),
    "parallel": ("staircase.frontend.markers", "parallel"),
    "scf_endfor": ("staircase.frontend.markers", "scf_endfor"),
    "scf_if": ("staircase.frontend.markers", "scf_if"),
    "scf_else": ("staircase.frontend.markers", "scf_else"),
    "scf_endif_branch": ("staircase.frontend.markers", "scf_endif_branch"),
    "scf_endif": ("staircase.frontend.markers", "scf_endif"),
    "GPUModule": ("staircase.frontend.gpu", "GPUModule"),
    "spirv": ("staircase.frontend.gpu", "spirv"),
    "block_id_x": ("staircase.frontend.markers", "block_id_x"),
    "block_id_y": ("staircase.frontend.markers", "block_id_y"),
    "block_id_z": ("staircase.frontend.markers", "block_id_z"),
    "thread_id_x": ("staircase.frontend.markers", "thread_id_x"),
    "thread_id_y": ("staircase.frontend.markers", "thread_id_y"),
    "thread_id_z": ("staircase.frontend.markers", "thread_id_z"),
    "PassStats": ("staircase.passes", "PassStats"),
    "pipeline_parse": ("staircase.passes", "pipeline_parse"),
    "run_pipeline": ("staircase.passes", "run_pipeline"),
    "Buffer": ("staircase.interp", "Buffer"),
    "run": ("staircase.interp", "run"),
    "cost": ("staircase.interp", "cost"),
    "ParamSpace": ("staircase.tuner", "ParamSpace"),
    "Trial": ("staircase.tuner", "Trial"),
    "search": ("staircase.tuner", "search"),
    "evaluate": ("staircase.tuner", "evaluate"),
}


def __getattr__(name):
    try:
        module_name, attr = _FRONTEND[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(list(globals()) + list(_FRONTEND))


__all__ = [
    "Context",
    "create_context",
    "create_module",
    "create_op",
    "register_dialect",
    "count_ops",
    "replace_all_uses_with",
    "erase_op",
    "move_op",
    "clone_op",
    "clone_module",
    "verify",
    *_FRONTEND,
    "__version__",
]
