"""The old name of the compile entry point, ``codegen.lower_module``.

Only ``perfbench/tracing.py`` reads it: it times ``interp.compile`` by
rebinding every global that is this object, so ``compile_module`` must
be ``lower_module`` itself. The module goes when the tracer points at
``codegen``.
"""
from staircase.interp.codegen import lower_module as compile_module  # noqa: F401
