"""Surface type annotations for captured functions.

The scalar names are the IR types themselves; MemRef[(d1, ..., dk), Elem]
builds a static memref type. MemRef.alloca/.alloc stage stack and heap
allocations inside a capture.
"""
from __future__ import annotations

from staircase.dialects.builders import build_memref_alloc
from staircase.errors import TypeMismatch
from staircase.frontend import state
from staircase.frontend.proxy import ValueProxy
from staircase.ir.core import (
    F32,
    F64,
    I1,
    I32,
    I64,
    INDEX,
    IRType,
    memref_type,
)

Index = INDEX

_SCALARS = (F32, F64, I1, I32, I64, INDEX)


class MemRef:
    """Annotation factory and in-capture allocator for buffers."""

    def __class_getitem__(cls, item) -> IRType:
        if not (isinstance(item, tuple) and len(item) == 2):
            raise TypeMismatch(
                "MemRef takes a shape tuple and an element type: "
                "MemRef[(4, 16), F32]"
            )
        shape, elem = item
        if isinstance(shape, int):
            shape = (shape,)
        if not isinstance(elem, IRType) or elem not in _SCALARS[:-1]:
            raise TypeMismatch(f"bad memref element type: {elem!r}")
        return memref_type(tuple(int(d) for d in shape), elem)

    @classmethod
    def _allocate(cls, shape, elem: IRType, stack: bool):
        ty = cls[tuple(shape), elem]
        block, location = state.active().insertion()
        return ValueProxy(build_memref_alloc(block, ty, stack, location))

    @classmethod
    def alloca(cls, shape, elem: IRType):
        return cls._allocate(shape, elem, stack=True)

    @classmethod
    def alloc(cls, shape, elem: IRType):
        return cls._allocate(shape, elem, stack=False)

