"""The command line end to end: emit | opt | run on the kernel corpus."""
import json
import os

import pytest

from conftest import golden_path, golden_text
from staircase import cli

KERNELS = os.path.join(os.path.dirname(__file__), "kernels.py")
CANON = "builtin.module(func.func(canonicalize))"


def _main(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_emit_captures_both_arms_of_a_conditional(capsys):
    out = _main(capsys, "emit", "--input", KERNELS, "--func", "ifs")
    assert out == golden_text("ifs.sir")


def test_emit_opt_run_computes_matmul(capsys, tmp_path):
    import kernels

    m, n, k = kernels.M, kernels.N, kernels.K
    a = [[(i + 2 * j) % 5 - 2 for j in range(n)] for i in range(m)]
    b = [[(3 * j + l) % 7 - 3 for l in range(k)] for j in range(n)]
    c = [[i - l for l in range(k)] for i in range(m)]
    # small integers keep every f32 product and sum exact
    want = [[c[i][l] + sum(a[i][j] * b[j][l] for j in range(n))
             for l in range(k)] for i in range(m)]

    emitted = _write(tmp_path / "matmul.sir",
                     _main(capsys, "emit", "--input", KERNELS, "--func", "matmul"))
    optimized = _write(tmp_path / "opt.sir",
                       _main(capsys, "opt", "--input", emitted, "--pipeline", CANON))
    args = []
    for name, rows in (("a", a), ("b", b), ("c", c)):
        buf = {"shape": [len(rows), len(rows[0])], "dtype": "f32",
               "data": [float(x) for row in rows for x in row]}
        args.append(_write(tmp_path / f"{name}.json", json.dumps(buf)))
    out_dir = tmp_path / "out"
    stats = json.loads(_main(capsys, "run", "--input", optimized, "--func", "matmul",
                             "--args", *args, "--out", str(out_dir)))
    assert stats["mode"] == "sequential"
    result = json.loads((out_dir / "matmul_arg2.json").read_text(encoding="utf-8"))
    assert result["shape"] == [m, k]
    assert result["data"] == [float(x) for row in want for x in row]


# One buffer per dtype, then the scalars true, 2.5 and -7. The f32 data
# rounds and overflows to Infinity; the integer data wraps.
RUN_ARGS = (
    '{"shape": [5], "dtype": "f32", "data": [0.1, 3, -2.5e-3, 1e39, 0]}',
    '{"shape": [7], "dtype": "f64", '
    '"data": [0.1, 3, -0.0, 5e-324, NaN, -Infinity, 1e308]}',
    '{"shape": [4], "dtype": "i32", '
    '"data": [2000000000, 2147483648, -2147483649, 0]}',
    '{"shape": [4], "dtype": "i64", '
    '"data": [3037000500, 9223372036854775808, -7, 0]}',
    "true",
    "2.5",
    "-7",
)


def test_run_writes_every_buffer_byte_for_byte(capsys, tmp_path):
    args = [_write(tmp_path / f"a{i}.json", text + "\n")
            for i, text in enumerate(RUN_ARGS)]
    out_dir = tmp_path / "out"
    stats = json.loads(_main(capsys, "run", "--input",
                             golden_path(os.path.join("run", "buffers.sir")),
                             "--func", "f", "--args", *args,
                             "--out", str(out_dir)))
    names = [os.path.basename(p) for p in stats["outputs"]]
    assert names == [f"f_arg{i}.json" for i in range(4)] + [
        f"f_result{i}.json" for i in range(4)]
    for name in names:
        got = (out_dir / name).read_bytes()
        with open(golden_path(os.path.join("run", name)), "rb") as fh:
            assert got == fh.read(), name


@pytest.mark.parametrize("text, value", [
    ("true", 1), ("false", 0), ("2.5", 2.5), ("-7", -7), ("1e400", float("inf")),
])
def test_scalar_arguments(tmp_path, text, value):
    got = cli._load_argument(_write(tmp_path / "s.json", text))
    assert got == value and type(got) is type(value)


def test_run_rejects_an_argument_that_is_not_json(capsys, tmp_path):
    emitted = golden_path(os.path.join("run", "buffers.sir"))
    bad = _write(tmp_path / "bad.json", '{"shape": [5], "dtype": ')
    assert cli.main(["run", "--input", emitted, "--func", "f",
                     "--args", bad, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not valid JSON (Expecting value)\n"


def test_run_rejects_a_float_buffer_beyond_the_f64_range(capsys, tmp_path):
    emitted = golden_path(os.path.join("run", "buffers.sir"))
    huge = _write(tmp_path / "huge.json",
                  '{"shape": [1], "dtype": "f64", "data": [' + "9" * 400 + "]}")
    assert cli.main(["run", "--input", emitted, "--func", "f",
                     "--args", huge, "--out", str(tmp_path)]) == 1
    assert "within the f64 range" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ['"a\tb"', '"a\\qb"'],
                         ids=["control-character", "bad-escape"])
def test_verify_reports_a_bad_string_with_its_position(capsys, tmp_path,
                                                       literal):
    path = _write(tmp_path / "bad.sir",
                  f"module attributes {{note = {literal}}} {{\n}}\n")
    assert cli.main(["verify", "--input", path]) == 1
    assert capsys.readouterr().err == (
        f"error: 1:27: bad character or escape in string {literal}\n")
