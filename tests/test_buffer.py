"""The buffer JSON format: what each dtype accepts, how elements are
stored, and the message each malformed buffer is rejected with."""
import json
import math

import pytest

from staircase.errors import TypeMismatch
from staircase.interp import Buffer, buffer_from_json, buffer_to_json
from staircase.interp.buffer import to_f32

KEYS = 'buffer JSON needs the keys "shape", "dtype" and "data"'
SHAPE = "buffer shape must be a list of integers"
DATA = "buffer data must be a flat list of numbers"
FLOATS = "float buffer data must be numbers"
INTS = "integer buffer data must be integers"


def _json(shape=(2,), dtype="f64", data=(1, 2)):
    return json.dumps({"shape": shape, "dtype": dtype, "data": data})


@pytest.mark.parametrize("text, message", [
    ('{"shape": [2], "dtype": "f64"}', KEYS),
    ('[1, 2]', KEYS),
    ('2.5', KEYS),
    (_json(shape=2), SHAPE),
    (_json(shape=[True, 1]), SHAPE),
    (_json(shape=[2.0]), SHAPE),
    (_json(dtype="f16"),
     "unknown buffer dtype 'f16'; expected one of ['f32', 'f64', 'i32', 'i64']"),
    (_json(dtype=["f64"]),
     "unknown buffer dtype ['f64']; expected one of ['f32', 'f64', 'i32', 'i64']"),
    (_json(data=3), DATA),
    (_json(data={"a": 1}), DATA),
    (_json(data=[1.0, True]), FLOATS),
    (_json(data=[1.0, "x"]), FLOATS),
    (_json(data=[1.0, None]), FLOATS),
    (_json(data=[1.0, [2.0]]), FLOATS),
    (_json(dtype="f32", data=[False, 2]), FLOATS),
    (_json(dtype="i32", data=[1, 1.5]), INTS),
    (_json(dtype="i32", data=[1, True]), INTS),
    (_json(dtype="i64", data=[1, 2.0]), INTS),
    (_json(dtype="i64", data=[1, "2"]), INTS),
    (_json(data=[1, 2, 3]), "buffer data has 3 elements, shape (2,) needs 2"),
    (_json(shape=[2, 2], dtype="i32", data=[1]),
     "buffer data has 1 elements, shape (2, 2) needs 4"),
    (_json(shape=[0], data=[]), "buffer extents must be positive, got (0,)"),
    ('{"shape": [1], "dtype": "f64", "data": [1,]}',
     "buffer JSON is malformed: Expecting value: line 1 column 43 (char 42)"),
], ids=["no-data", "list", "number", "shape-int", "shape-bool", "shape-float",
        "dtype", "dtype-list", "data-int", "data-dict", "f64-bool", "f64-str", "f64-null",
        "f64-nested", "f32-bool", "i32-float", "i32-bool", "i64-float",
        "i64-str", "count", "count-2d", "extent", "malformed"])
def test_malformed_buffers_are_rejected_with_their_message(text, message):
    with pytest.raises(TypeMismatch) as info:
        buffer_from_json(text)
    assert str(info.value) == message


def test_elements_keep_their_dtype():
    buf = buffer_from_json(_json(shape=[2, 2], data=[1, 2.5, -0.0, 3]))
    assert (buf.shape, buf.strides, buf.dtype) == ((2, 2), (2, 1), "f64")
    assert buf.tolist() == [1.0, 2.5, -0.0, 3.0]
    assert all(type(v) is float for v in buf.tolist())
    assert math.copysign(1.0, buf.tolist()[2]) == -1.0
    special = buffer_from_json(
        '{"shape": [3], "dtype": "f64", "data": [NaN, Infinity, -Infinity]}')
    assert special.tolist()[1:] == [math.inf, -math.inf]
    assert math.isnan(special.tolist()[0])
    ints = buffer_from_json(_json(dtype="i64", data=[-3, 7]))
    assert ints.tolist() == [-3, 7]


def test_f32_data_rounds_to_single_precision():
    data = [0.1, 1 / 3, 16777217, 1e39, -1e39, 1e-46]
    buf = buffer_from_json(_json(shape=[6], dtype="f32", data=data))
    assert buf.tolist() == [to_f32(v) for v in data]
    assert buf.tolist()[:3] == [0.10000000149011612, 0.3333333432674408,
                                16777216.0]
    assert buf.tolist()[3:] == [math.inf, -math.inf, 0.0]


@pytest.mark.parametrize("dtype, data, want", [
    ("i32", [2**31 - 1, 2**31, -2**31 - 1, 2**32 + 5, -2**40],
     [2**31 - 1, -2**31, 2**31 - 1, 5, 0]),
    ("i64", [2**63 - 1, 2**63, -2**63 - 1, 2**64 + 5, 3 * 2**70],
     [2**63 - 1, -2**63, 2**63 - 1, 5, 0]),
])
def test_integer_data_wraps(dtype, data, want):
    buf = buffer_from_json(_json(shape=[5], dtype=dtype, data=data))
    assert buf.tolist() == want


def test_json_round_trip():
    buf = Buffer((2, 3), "f32", [0.5, -1, 2, 3, 4, 1e39])
    text = buffer_to_json(buf)
    assert text == ('{"shape": [2, 3], "dtype": "f32", '
                    '"data": [0.5, -1.0, 2.0, 3.0, 4.0, Infinity]}')
    assert buffer_from_json(text) == buf


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_an_integer_beyond_the_f64_range_is_rejected(dtype):
    with pytest.raises(TypeMismatch, match=r"within the f64 range \(magnitude"
                       r" at most 1\.7976931348623157e\+308\)"):
        buffer_from_json(_json(shape=[2], dtype=dtype, data=[1, 10**400]))
    assert buffer_from_json(_json(shape=[1], data=[2**1023])).tolist() == [
        float(2**1023)]
