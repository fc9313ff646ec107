"""The command line end to end: emit | opt | run on the kernel corpus."""
import json
import os

from conftest import golden_text
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
