"""GPU kernel classes: subclass GPUModule, write kernels as methods.

Instantiating the subclass does not emit anything. The first launch from
inside an active capture materializes a gpu.module holding one gpu.func
per kernel method, then every launch emits a gpu.launch_func. An instance
stays bound to the module it materialized into; launching the same
instance from a different capture is an error.
"""
from __future__ import annotations

from staircase.dialects.builders import (
    build_gpu_func,
    build_gpu_launch,
    build_gpu_module,
    build_index_constant,
)
from staircase.errors import (
    ArityMismatch,
    UnbalancedMarkers,
    UnknownSymbol,
    UnsupportedConstruct,
)
from staircase.frontend import state
from staircase.frontend.capture import annotated_params, build_executable
from staircase.frontend.proxy import ValueProxy
from staircase.ir.core import attr_from


class spirv:
    """Helpers for the attribute dictionaries kernels are tagged with."""

    @staticmethod
    def entry_point_abi(workgroup_size):
        return attr_from({"workgroup_size": list(workgroup_size)})


class _KernelLauncher:
    def __init__(self, owner: "GPUModule", name: str):
        self._owner = owner
        self._name = name

    def __repr__(self) -> str:
        return f"<kernel {type(self._owner).__name__}.{self._name}>"

    def __call__(self, *args, grid_size, block_size):
        cap = state.active()
        self._owner._materialize(cap)
        for label, sizes in (("grid_size", grid_size),
                             ("block_size", block_size)):
            if len(sizes) != 3 or not all(isinstance(s, int) for s in sizes):
                raise ArityMismatch(f"{label} must be three host integers")
        values = []
        for a in args:
            if not isinstance(a, ValueProxy):
                raise UnsupportedConstruct(
                    "kernel launch arguments must be staged values"
                )
            values.append(a.value)
        block, location = cap.insertion(*values)
        grid, blocks = [], []
        for out, sizes in ((grid, grid_size), (blocks, block_size)):
            for s in sizes:
                out.append(build_index_constant(block, s, location=location))
        return build_gpu_launch(block, type(self._owner).__name__, self._name,
                                grid, blocks, values, location=location)


class GPUModule:
    """Base class for GPU kernel containers."""

    _kernel_fns: dict

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._kernel_fns = {}
        for base in reversed(cls.__mro__[1:-1]):
            cls._kernel_fns.update(getattr(base, "_kernel_fns", None) or {})
        for name, member in vars(cls).items():
            if callable(member) and not name.startswith("_"):
                cls._kernel_fns[name] = member

    def __init__(self, func_attributes=None, range_ctor="scf_for"):
        if type(self) is GPUModule:
            raise TypeError("subclass GPUModule and define kernel methods")
        if not self._kernel_fns:
            raise UnsupportedConstruct(
                f"{type(self).__name__} defines no kernel methods"
            )
        self._func_attributes = {
            k: attr_from(v) for k, v in (func_attributes or {}).items()
        }
        self._range_ctor = range_ctor
        self._bound_module = None
        for name in self._kernel_fns:
            setattr(self, name, _KernelLauncher(self, name))
        if state._ACTIVE is not None:
            self._materialize(state._ACTIVE)

    def _materialize(self, cap: state.Capture) -> None:
        if self._bound_module is not None:
            if self._bound_module is not cap.module:
                raise UnknownSymbol(
                    f"gpu.module @{type(self).__name__} was captured into a "
                    f"different module; create a fresh instance per capture"
                )
            return
        from staircase.frontend.capture import _range_name

        range_name = _range_name(self._range_ctor)
        gpu_module = build_gpu_module(cap.module, type(self).__name__,
                                      location=cap.location())
        for name, fn in self._kernel_fns.items():
            params = annotated_params(fn, skip_first=True)
            gpu_func = build_gpu_func(gpu_module, name,
                                      [t for _, t in params],
                                      dict(self._func_attributes),
                                      location=cap.location())
            staged_fn = build_executable(fn, range_name=range_name)
            base_depth = cap.depth
            cap.push(state.Frame("kernel", gpu_func, gpu_func.body(),
                                 filename=fn.__code__.co_filename))
            result = staged_fn(self,
                               *(ValueProxy(a) for a in gpu_func.body().args))
            if result is not None:
                raise UnsupportedConstruct(
                    "GPU kernels cannot return values"
                )
            if cap.depth != base_depth + 1:
                raise UnbalancedMarkers(
                    f"{cap.depth - base_depth - 1} region(s) left open at "
                    f"the end of kernel {name!r}"
                )
            cap.pop(("kernel",))
        self._bound_module = cap.module
