"""A module's functions, and the program ``run`` executes.

``compile_module`` generates and compiles one Python function per
func.func and gpu.func kernel (see ``codegen``); the ``Program`` it returns
holds them by symbol. A function called with one Buffer as two of its
arguments generates its alias-safe variant from its module's ops then,
so compile a module after the last pipeline that rewrites it. Constants hold
what ``buffer.constant_value`` reads, as the passes read them.
"""
from __future__ import annotations

from staircase.ir.core import Operation, SymbolTable


class Program(dict):
    """Compiled functions by symbol; kernels are keyed ``module::kernel``.

    Valid while its module is unchanged: a function may generate code from
    the module when it is first called with aliased arguments.
    """


def module_functions(module: Operation):
    """(key, op, is_kernel) for each func.func and each gpu.func kernel."""
    for name, op in SymbolTable(module).symbols.items():
        if op.name == "func.func":
            yield name, op, False
        elif op.name == "gpu.module":
            for kernel_name, kernel in SymbolTable(op).symbols.items():
                if kernel.name == "gpu.func":
                    yield f"{name}::{kernel_name}", kernel, True


def compile_module(module: Operation) -> Program:
    """Generate and compile Python source for every function of the module.

    Compile after the last pipeline that rewrites the module in place.
    """
    from staircase.interp.codegen import lower_module  # imports this module

    return lower_module(module)
