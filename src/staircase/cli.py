"""Command line: capture, transform, execute, verify, and tune kernels.

Five subcommands compose into a pipeline on plain files and stdin:

    staircase emit --input kernels.py --func matmul > matmul.sir
    staircase opt --input matmul.sir --pipeline 'builtin.module(func.func(lower-affine))'
    staircase emit ... | staircase opt --input - ... | staircase run --input - ...

Exit codes: 0 success, 1 user error or diagnostics, 2 internal error.
Artifacts go to stdout or files; everything diagnostic goes to stderr.
Machine-readable stats are single-line JSON.
"""
import argparse
import json
import os
import sys

from staircase.errors import StaircaseError

class _CliError(StaircaseError):
    """User-level failure carrying a message for stderr."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse_ir(path: str):
    from staircase.ir.core import create_context
    from staircase.textio import parse_module

    return parse_module(_read_text(path), create_context())


def _load_kernel_namespace(path: str) -> dict:
    """Execute the user's file with the DSL surface preloaded.

    The file runs in its own module namespace; whatever side effects it
    has are its own business.  The real filename is kept on the code
    object so captured functions report their original source lines.
    """
    if path == "-":
        raise _CliError("kernel files must be real files, not stdin")
    source = _read_text(path)
    import staircase

    # every frontend name the package exports, so kernel files need no imports
    namespace = {name: getattr(staircase, name)
                 for name, (module, _) in staircase._FRONTEND.items()
                 if module.startswith("staircase.frontend.")}
    namespace["__name__"] = "__staircase_kernel__"
    namespace["__file__"] = os.path.abspath(path)
    code = compile(source, os.path.abspath(path), "exec")
    exec(code, namespace)
    return namespace


def _kernel_line(exc: BaseException, path: str):
    """Deepest traceback line inside the user's kernel file, if any."""
    import traceback

    line = None
    for frame in traceback.extract_tb(exc.__traceback__):
        if frame.filename == path:
            line = frame.lineno
    return line


def _capture_from_file(path: str, func: str, range_ctor=None):
    """Return the captured module for one function in a kernel file."""
    from staircase.frontend.capture import StagedFunction, capture

    abspath = os.path.abspath(path)
    try:
        namespace = _load_kernel_namespace(path)
        target = namespace.get(func)
        if target is None:
            raise _CliError(f"{path} defines no function named {func!r}")
        overrides = {}
        if range_ctor is not None:
            overrides["range_ctor"] = range_ctor
        if isinstance(target, StagedFunction):
            if not overrides:
                return target.module
            config = dict(target.config)
            config.update(overrides)
            return capture(target.fn, **config).parent.parent_op
        if not callable(target):
            raise _CliError(f"{func!r} in {path} is not a function")
        return capture(target, **overrides).parent.parent_op
    except _CliError:
        raise
    except StaircaseError as exc:
        line = _kernel_line(exc, abspath)
        if line is not None and f"line {line}" not in str(exc):
            raise _CliError(f"{path}:{line}: {exc}") from exc
        raise


# -- emit ----------------------------------------------------------------


def _cmd_emit(ns) -> int:
    from staircase.textio import print_module

    module = _capture_from_file(ns.input, ns.func, range_ctor=ns.range_ctor)
    sys.stdout.write(print_module(module))
    return 0


# -- opt -----------------------------------------------------------------


def _cmd_opt(ns) -> int:
    from staircase.passes import run_pipeline
    from staircase.textio import print_module

    module = _parse_ir(ns.input)
    work, stats = run_pipeline(module, ns.pipeline)
    sys.stdout.write(print_module(work))
    if ns.print_stats:
        for s in stats:
            print(
                f"{s.pass_name} @ {s.anchor}: ops {s.ops_before}->"
                f"{s.ops_after}, rewrites {s.rewrites}, skipped {s.skipped}, "
                f"{s.elapsed * 1e3:.2f} ms",
                file=sys.stderr,
            )
    return 0


# -- run -----------------------------------------------------------------


def _parse_mode(text: str):
    if text == "sequential":
        return "sequential", 1
    if text == "gpu":
        return "gpu_emulated", 1
    if text.startswith("worksharing:"):
        tail = text.split(":", 1)[1]
        try:
            workers = int(tail)
        except ValueError:
            workers = 0
        if workers < 1:
            raise _CliError(f"bad worker count {tail!r} in --mode {text!r}")
        return "worksharing", workers
    raise _CliError(
        f"unknown mode {text!r}; expected sequential, worksharing:N or gpu"
    )


def _load_argument(path: str):
    from staircase.interp.buffer import buffer_from_value

    try:
        value = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: not valid JSON ({exc.msg})") from exc
    if type(value) is bool:
        return int(value)
    if type(value) in (int, float):
        return value
    return buffer_from_value(value)


def _stats_json(stats, extra=None) -> str:
    record = {
        "total": stats.total,
        "arith": stats.arith_ops,
        "loads": stats.loads,
        "stores": stats.stores,
        "bookkeeping": stats.bookkeeping,
        "per_prefix": dict(sorted(stats.per_prefix.items())),
        "wall_time": stats.wall_time,
        "mode": stats.mode,
        "workers": stats.workers,
    }
    record.update(extra or {})
    return json.dumps(record)


def _cmd_run(ns) -> int:
    from staircase.interp import Buffer, buffer_to_json, cost
    from staircase.interp.machine import run

    module = _parse_ir(ns.input)
    mode, workers = _parse_mode(ns.mode)
    args = [_load_argument(p) for p in ns.args]
    results, stats = run(module, ns.func, args, mode=mode, workers=workers)

    outdir = ns.out
    os.makedirs(outdir, exist_ok=True)
    written = []
    for i, arg in enumerate(args):
        if isinstance(arg, Buffer):
            name = os.path.join(outdir, f"{ns.func}_arg{i}.json")
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(buffer_to_json(arg) + "\n")
            written.append(name)
    for i, value in enumerate(results):
        name = os.path.join(outdir, f"{ns.func}_result{i}.json")
        payload = (buffer_to_json(value) if isinstance(value, Buffer)
                   else json.dumps(value))
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        written.append(name)

    print(_stats_json(stats, {"cost": cost(stats), "outputs": written}))
    return 0


# -- tune ----------------------------------------------------------------


def _tiles_arg(text: str):
    try:
        dims = tuple(
            tuple(int(part) for part in dim.split(","))
            for dim in text.split(";")
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad tile sizes {text!r}; expected like '8,16;8,16'"
        )
    return dims


def _ints_arg(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad factor list {text!r}; expected like '1,2,4'"
        )


def _trial_json(trial) -> str:
    return json.dumps({
        "idx": trial.idx,
        "params": trial.params,
        "cost": trial.cost,
        "status": trial.status,
        "seed": trial.seed,
    })


def _cmd_tune(ns) -> int:
    from staircase.tuner import ParamSpace, persist, search

    seed = ns.seed
    if seed is None:
        env = os.environ.get("STAIRCASE_SEED")
        try:
            seed = int(env) if env is not None else 0
        except ValueError:
            raise _CliError(f"STAIRCASE_SEED must be an integer, got {env!r}")
    space = ParamSpace(tile_sizes=ns.tiles, unroll_factors=ns.unroll)
    module = _capture_from_file(ns.input, ns.func)
    try:
        best, log = search(module, None, space, budget=ns.budget, seed=seed,
                           strategy=ns.strategy, func=ns.func)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    persist(log, ns.log)
    print(_trial_json(best))
    return 0


# -- verify --------------------------------------------------------------


def _cmd_verify(ns) -> int:
    from staircase.ir.verify import verify

    module = _parse_ir(ns.input)
    diagnostics = verify(module)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    return 1 if diagnostics else 0


# -- argument parsing ------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 to match the diagnostics code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="staircase",
        description="Capture, transform, execute and tune staged kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="capture a kernel file, print its IR")
    emit.add_argument("--input", required=True, help="Python file of kernels")
    emit.add_argument("--func", required=True, help="function to capture")
    emit.add_argument("--range-ctor", choices=("scf", "affine"), default=None,
                      help="loop dialect for range() loops")

    opt = sub.add_parser("opt", help="parse IR, run a pass pipeline, print IR")
    opt.add_argument("--input", required=True, help=".sir file or - for stdin")
    opt.add_argument("--pipeline", required=True, help="pipeline spec string")
    opt.add_argument("--print-stats", action="store_true",
                     help="per-pass statistics on stderr")

    runp = sub.add_parser("run", help="interpret a function on JSON buffers")
    runp.add_argument("--input", required=True, help=".sir file or - for stdin")
    runp.add_argument("--func", required=True, help="function to execute")
    runp.add_argument("--args", nargs="*", default=[],
                      help="a JSON file per parameter: a number, or a "
                      "buffer {shape, dtype, data} whose data are numbers for "
                      "f32/f64 and integers for i32/i64, in row-major order")
    runp.add_argument("--mode", default="sequential",
                      help="sequential, worksharing:N or gpu")
    runp.add_argument("--out", default=".",
                      help="directory for mutated buffers and results")

    tune = sub.add_parser("tune", help="search tile sizes and unroll factors")
    tune.add_argument("--input", required=True, help="Python file of kernels")
    tune.add_argument("--func", required=True, help="function to tune")
    tune.add_argument("--tiles", required=True, type=_tiles_arg,
                      help="per-dimension size candidates, like '8,16;8,16'")
    tune.add_argument("--unroll", required=True, type=_ints_arg,
                      help="unroll factor candidates, like '1,2,4'")
    tune.add_argument("--budget", type=int, default=20,
                      help="number of trials including the baseline")
    tune.add_argument("--seed", type=int, default=None,
                      help="search seed (default: $STAIRCASE_SEED or 0)")
    tune.add_argument("--strategy", choices=("random", "es"),
                      default="random", help="search strategy")
    tune.add_argument("--log", required=True, help="JSONL trial log to write")

    ver = sub.add_parser("verify", help="parse IR and print diagnostics")
    ver.add_argument("--input", required=True, help=".sir file or - for stdin")

    return parser


_COMMANDS = {
    "emit": _cmd_emit,
    "opt": _cmd_opt,
    "run": _cmd_run,
    "tune": _cmd_tune,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except (StaircaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
