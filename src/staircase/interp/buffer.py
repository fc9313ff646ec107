"""Dense strided buffers backing memref values during interpretation.

Storage uses array.array so f32 elements round to C float on every store,
matching what a real 32-bit buffer would hold. Elements lie in row-major
order; row_major_strides gives each dimension's stride in elements.

In JSON a buffer is {"shape": [...], "dtype": "...", "data": [...]}: its
positive extents, one of f32, f64, i32 or i64, and every element in
row-major order. f32 and f64 take integers and floats (NaN and the
infinities too) within the f64 range, and f32 rounds them; i32 and i64
take integers only and wrap them. true and false are not numbers here.

Constants and loop bounds are read here, as a run reads them, by passes
and codegen alike: constant_value, constant_of and static_bounds.
"""
from __future__ import annotations

import json
import math
import struct
from array import array

from staircase.errors import (
    InvalidBound,
    ModeUnsupported,
    OutOfBounds,
    TypeMismatch,
)

_TYPECODES = {"f32": "f", "f64": "d", "i32": "i", "i64": "q"}

_WRAP = {"i32": (1 << 32, 1 << 31), "i64": (1 << 64, 1 << 63)}


def wrap_int(value: int, dtype: str) -> int:
    span, half = _WRAP[dtype]
    return (int(value) + half) % span - half


_F32 = struct.Struct("<f")


def to_f32(x: float) -> float:
    """Round to the nearest f32; values beyond its range become infinities."""
    try:
        return _F32.unpack(_F32.pack(x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


def constant_value(op):
    """The runtime value of an arith.constant, rounded or wrapped to its type."""
    value = op.attributes["value"].value
    kind = op.results[0].type.kind
    if kind == "f32":
        return to_f32(float(value))
    if kind == "f64":
        return float(value)
    # i32 wraps to 32 bits; i64, index and i1 (verified 0 or 1) to 64
    return wrap_int(int(value), "i32" if kind == "i32" else "i64")


def constant_of(value):
    """The runtime value of the arith.constant behind an SSA value, or None."""
    op = value.defining_op
    if op is None or op.name != "arith.constant":
        return None
    return constant_value(op)


def static_bounds(loop) -> list[tuple[int, int, int, int]] | None:
    """(lb, ub, step, trips) per dimension of an scf.for, scf.parallel or
    affine.for (its attributes wrapped to i64), as a run reads them; None
    unless every bound is a constant and every step is at least 1."""
    n = len(loop.body().args)
    if loop.name == "affine.for":
        values = [wrap_int(loop.attributes[key].value, "i64")
                  for key in ("lower_bound", "upper_bound", "step")]
    else:
        values = [constant_of(v) for v in loop.operands]
    if None in values or min(values[2 * n:]) < 1:
        return None
    # trips = ceil((ub - lb) / step); len(range(...)) overflows past sys.maxsize
    return [(lb, ub, step, max(0, -((lb - ub) // step)))
            for lb, ub, step in zip(values[:n], values[n:2 * n], values[2 * n:])]


def fdiv(a: float, b: float) -> float:
    """IEEE division: a zero divisor gives a signed infinity or NaN."""
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


# -- errors the evaluator raises, with the messages tests pin ----------------

def _where(location) -> str:
    return f" at {location.file}:{location.line}" if location else ""


def out_of_bounds(idx: int, extent: int, buf: Buffer, location) -> None:
    raise OutOfBounds(
        f"index {idx} out of bounds for extent {extent} of {buf!r}"
        f"{_where(location)}"
    )


def bad_loop_step() -> None:
    raise InvalidBound("loop step must be positive at runtime")


def bad_parallel_step() -> None:
    raise InvalidBound("scf.parallel steps must be positive at runtime")


def launch_outside_gpu(mode: str, location) -> None:
    raise ModeUnsupported(
        f"gpu.launch_func needs gpu_emulated mode, not {mode!r}"
        f"{_where(location)}"
    )


def row_major_strides(shape) -> tuple:
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return tuple(strides)


class Buffer:
    """One dense numeric array plus its logical shape, equal to another when
    their shape, dtype and bytes are: a NaN equals itself, -0.0 is not 0.0."""

    __slots__ = ("shape", "dtype", "data")

    def __init__(self, shape, dtype: str, data=None):
        shape = tuple(int(s) for s in shape)
        if dtype not in _TYPECODES:
            raise TypeMismatch(
                f"unknown buffer dtype {dtype!r}; expected one of "
                f"{sorted(_TYPECODES)}"
            )
        if any(s <= 0 for s in shape):
            raise TypeMismatch(f"buffer extents must be positive, got {shape}")
        size = math.prod(shape)
        self.shape = shape
        self.dtype = dtype
        if data is None:
            self.data = array(_TYPECODES[dtype], [0] * size)
        else:
            self.data = array(_TYPECODES[dtype], data)
            if len(self.data) != size:
                raise TypeMismatch(
                    f"buffer data has {len(self.data)} elements, shape "
                    f"{shape} needs {size}"
                )

    def copy(self) -> "Buffer":
        return Buffer(self.shape, self.dtype, self.data)

    def tolist(self) -> list:
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Buffer)
            and self.shape == other.shape
            and self.dtype == other.dtype
            and self.data.tobytes() == other.data.tobytes()
        )

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"Buffer<{dims}x{self.dtype}>"


# -- JSON interchange ({"shape": [...], "dtype": "...", "data": [...]}) -------

def buffer_to_json(buf: Buffer) -> str:
    return json.dumps(
        {"shape": list(buf.shape), "dtype": buf.dtype,
         "data": buf.data.tolist()}
    )


def copy_buffers(args) -> list:
    """The arguments with each distinct Buffer copied once: a Buffer passed
    twice stays one Buffer, and other arguments are kept as they are."""
    copies: dict = {}
    return [copies.setdefault(id(a), a.copy()) if isinstance(a, Buffer) else a
            for a in args]


def buffer_from_value(obj) -> Buffer:
    """The buffer a parsed JSON value describes."""
    if not isinstance(obj, dict) or not {"shape", "dtype", "data"} <= set(obj):
        raise TypeMismatch(
            'buffer JSON needs the keys "shape", "dtype" and "data"'
        )
    shape, dtype, data = obj["shape"], obj["dtype"], obj["data"]
    if not isinstance(shape, list) or not set(map(type, shape)) <= {int}:
        raise TypeMismatch("buffer shape must be a list of integers")
    if type(dtype) is not str or dtype not in _TYPECODES:
        raise TypeMismatch(
            f"unknown buffer dtype {dtype!r}; expected one of "
            f"{sorted(_TYPECODES)}"
        )
    if not isinstance(data, list):
        raise TypeMismatch("buffer data must be a flat list of numbers")
    is_float = dtype in ("f32", "f64")
    if not set(map(type, data)) <= ({int, float} if is_float else {int}):
        raise TypeMismatch("float buffer data must be numbers" if is_float
                           else "integer buffer data must be integers")
    try:
        return Buffer(shape, dtype, data)
    except OverflowError:  # an integer beyond the range of the C type
        if is_float:
            raise TypeMismatch("float buffer data must lie within the f64 "
                               "range (magnitude at most "
                               "1.7976931348623157e+308)") from None
        return Buffer(shape, dtype, [wrap_int(v, dtype) for v in data])


def buffer_from_json(text: str) -> Buffer:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TypeMismatch(f"buffer JSON is malformed: {exc}")
    return buffer_from_value(obj)
