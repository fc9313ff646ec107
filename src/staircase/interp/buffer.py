"""Dense strided buffers backing memref values during interpretation.

Storage uses array.array so f32 elements round to C float on every store,
matching what a real 32-bit buffer would hold. Strides are row-major and
measured in elements; they are recorded explicitly so the descriptor
shape does not have to change if other layouts ever appear.

In JSON a buffer is {"shape": [...], "dtype": "...", "data": [...]}: its
positive extents, one of f32, f64, i32 or i64, and every element in
row-major order. f32 and f64 take integers and floats (NaN and the
infinities too) within the f64 range, and f32 rounds them; i32 and i64
take integers only and wrap them. true and false are not numbers here.
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
_FLOAT_DTYPES = frozenset({"f32", "f64"})

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
    """One dense numeric array plus its logical shape."""

    __slots__ = ("shape", "strides", "dtype", "data")

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
        self.strides = row_major_strides(shape)
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

    # -- element access (host-side convenience; the evaluator inlines this) ---

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_float(self) -> bool:
        return self.dtype in _FLOAT_DTYPES

    def offset_of(self, indices) -> int:
        if len(indices) != len(self.shape):
            raise OutOfBounds(
                f"{len(indices)} indices for a rank-{len(self.shape)} buffer"
            )
        off = 0
        for idx, extent, stride in zip(indices, self.shape, self.strides):
            if idx < 0 or idx >= extent:
                raise OutOfBounds(
                    f"index {idx} out of bounds for extent {extent}"
                )
            off += idx * stride
        return off

    def __getitem__(self, indices):
        if not isinstance(indices, tuple):
            indices = (indices,)
        return self.data[self.offset_of(indices)]

    def __setitem__(self, indices, value):
        if not isinstance(indices, tuple):
            indices = (indices,)
        if not self.is_float:
            value = wrap_int(value, self.dtype)
        self.data[self.offset_of(indices)] = value

    def tolist(self) -> list:
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Buffer)
            and self.shape == other.shape
            and self.dtype == other.dtype
            and self.data == other.data
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
    is_float = dtype in _FLOAT_DTYPES
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
