"""Capture an annotated host function into a verified func.func.

The pipeline: read the source, validate the construct whitelist, rewrite
it in one pass that inserts region markers and writes both arms of every
conditional as straight-line code between them, compile, then run the
result once over value proxies that emit IR.
"""
from __future__ import annotations

import ast
import inspect
import textwrap

import staircase
from staircase.dialects.builders import append_terminator, build_func
from staircase.errors import (
    CaptureError,
    UnannotatedParameter,
    UnbalancedMarkers,
    UnsupportedConstruct,
)
from staircase.frontend import astrewrite, markers, state
from staircase.frontend.proxy import ValueProxy
from staircase.ir.core import (
    Context,
    IRType,
    Operation,
    array_attr,
    create_context,
    create_module,
    erase_op,
    type_attr,
)
from staircase.ir.verify import verify_or_raise

_RANGE_CTORS = {
    "scf": "scf_range",
    "scf_for": "scf_range",
    "scf_range": "scf_range",
    "affine": "affine_range",
    "affine_for": "affine_range",
    "affine_range": "affine_range",
}

# A rewritten body calls the markers insert_markers emits, constant() and
# a kernel's id functions, and names the annotation types; these bind over
# the function's own globals.
_STAGED_BINDINGS = {
    name: getattr(staircase, name)
    for name, (module, _) in staircase._FRONTEND.items()
    if module in (markers.__name__, "staircase.frontend.proxy", "staircase.frontend.types")
}


def _range_name(range_ctor) -> str:
    if callable(range_ctor):
        name = getattr(range_ctor, "__name__", "")
        if name in _RANGE_CTORS:
            return _RANGE_CTORS[name]
    elif isinstance(range_ctor, str) and range_ctor in _RANGE_CTORS:
        return _RANGE_CTORS[range_ctor]
    raise CaptureError(
        f"range_ctor must be one of {sorted(set(_RANGE_CTORS))}, "
        f"got {range_ctor!r}"
    )


def annotated_params(fn, skip_first: bool = False) -> list[tuple[str, IRType]]:
    sig = inspect.signature(fn)
    params = list(sig.parameters.values())
    if skip_first:
        params = params[1:]
    out = []
    for p in params:
        ann = p.annotation
        if isinstance(ann, str):
            ann = eval(ann, getattr(fn, "__globals__", {}))  # noqa: S307
        if not isinstance(ann, IRType):
            raise UnannotatedParameter(
                f"parameter {p.name!r} of {fn.__name__!r} needs a type "
                f"annotation (F32/F64/I32/I64/Index/MemRef[...])"
            )
        out.append((p.name, ann))
    return out


def load_function_def(fn) -> tuple[ast.FunctionDef, str]:
    filename = fn.__code__.co_filename
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError) as exc:
        raise CaptureError(f"cannot read the source of {fn!r}: {exc}")
    tree = ast.parse(textwrap.dedent(source))
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    fn_def = tree.body[0]
    if not isinstance(fn_def, ast.FunctionDef):
        raise CaptureError(f"{fn!r} is not a plain function definition")
    fn_def.decorator_list = []
    return fn_def, filename


def build_executable(fn, *, range_name: str):
    """Compile fn's rewritten form; returns the callable to trace with."""
    fn_def, filename = load_function_def(fn)
    astrewrite.check_supported(fn_def)
    fn_def = astrewrite.insert_markers(fn_def, range_name)

    namespace = dict(fn.__globals__)
    if fn.__closure__:
        namespace.update(
            zip(fn.__code__.co_freevars,
                (c.cell_contents for c in fn.__closure__))
        )
    namespace.update(_STAGED_BINDINGS)

    module = ast.Module(body=[fn_def], type_ignores=[])
    ast.fix_missing_locations(module)
    exec(compile(module, filename, "exec"), namespace)  # noqa: S102
    return namespace[fn.__name__]


def _finish_return(func_op: Operation, result) -> None:
    if result is None:
        return
    rets = result if isinstance(result, tuple) else (result,)
    if not all(isinstance(r, ValueProxy) for r in rets):
        raise UnsupportedConstruct(
            "only staged values can be returned from a captured function"
        )
    body = func_op.body()
    old = body.terminator
    location = old.location if old is not None else None
    if old is not None:
        erase_op(old)
    func_op.attributes["results"] = array_attr(
        type_attr(r.type) for r in rets
    )
    append_terminator(body, "func.return", [r.value for r in rets], location)


def capture(fn, *, range_ctor="scf_for", ctx: Context | None = None) -> Operation:
    """Stage `fn` into a fresh builtin.module; returns its func.func."""
    range_name = _range_name(range_ctor)
    params = annotated_params(fn)
    staged_fn = build_executable(fn, range_name=range_name)

    ctx = ctx or create_context()
    module = create_module(ctx)
    cap = state.Capture(ctx, module, fn.__code__.co_filename)
    state.begin(cap)
    try:
        func_op = build_func(module, fn.__name__, [t for _, t in params])
        cap.push(state.Frame("func", func_op, func_op.body()))
        proxies = [ValueProxy(a) for a in func_op.body().args]
        result = staged_fn(*proxies)
        if cap.depth != 1:
            raise UnbalancedMarkers(
                f"{cap.depth - 1} region(s) left open at the end of capture"
            )
        _finish_return(func_op, result)
        verify_or_raise(module)
        return func_op
    except BaseException:
        if module in ctx.modules:
            ctx.modules.remove(module)
        raise
    finally:
        state.end(cap)


class StagedFunction:
    """Result of the @staged decorator: the function plus its captured IR."""

    def __init__(self, fn, **config):
        self.fn = fn
        self.__name__ = fn.__name__
        self.__doc__ = fn.__doc__
        self.config = config
        self.func_op = capture(fn, **config)
        self.module = self.func_op.parent.parent_op
        self.ctx = self.module.ctx

    def __repr__(self) -> str:
        return f"<staged function {self.__name__}>"


def staged(fn=None, *, range_ctor="scf_for", ctx: Context | None = None):
    """Decorator form of capture; usable bare or with configuration."""

    def wrap(f):
        return StagedFunction(f, range_ctor=range_ctor, ctx=ctx)

    if fn is None:
        return wrap
    return wrap(fn)
