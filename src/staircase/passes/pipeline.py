"""Scope-anchored pass pipelines: parse them, print them, run them.

A pipeline is a tree of scopes. Each scope names an anchor op and holds
an ordered mix of passes and child scopes; a pass runs once per op
matching the anchor, in pre-order. The textual form is
``anchor(item,item,...)`` where an item is ``pass-name{key=val,...}`` or
a nested ``anchor(...)`` — the same grammar the command line accepts.
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from staircase.errors import ParseError, PassFailure, StaircaseError, UnknownPass
from staircase.ir.core import (
    Operation,
    SymbolTable,
    count_ops,
    top_module,
)
from staircase.ir.verify import verify_or_raise

from .canonicalize import canonicalize
from .gpumap import gpu_map_parallel_loops
from .loweraffine import lower_affine
from .outline import gpu_kernel_outlining
from .rewrite import matching_ops
from .tiling import scf_parallel_loop_tiling
from .unroll import loop_unroll

PASSES = {
    "lower-affine": lower_affine,
    "loop-unroll": loop_unroll,
    "scf-parallel-loop-tiling": scf_parallel_loop_tiling,
    "gpu-map-parallel-loops": gpu_map_parallel_loops,
    "gpu-kernel-outlining": gpu_kernel_outlining,
    "canonicalize": canonicalize,
}

ANCHORS = ("builtin.module", "func.func", "gpu.module", "gpu.func")


@dataclass
class PassScope:
    anchor: str
    # (name, params) tuples and nested PassScopes, in execution order
    items: list = field(default_factory=list)

    def names_a_pass(self) -> bool:
        return any(not isinstance(i, PassScope) or i.names_a_pass() for i in self.items)


@dataclass
class Pipeline:
    root: PassScope

    def __str__(self) -> str:
        return _render_scope(self.root)


@dataclass
class PassStats:
    """One pass application on one anchor op."""

    pass_name: str
    anchor: str
    ops_before: int
    ops_after: int
    rewrites: int
    skipped: int
    elapsed: float


def _render_value(value) -> str:
    if isinstance(value, list):
        return "[" + ",".join(str(v) for v in value) + "]"
    return str(value)


def _render_scope(scope: PassScope) -> str:
    parts = []
    for item in scope.items:
        if isinstance(item, PassScope):
            parts.append(_render_scope(item))
        else:
            name, params = item
            if params:
                kv = ",".join(f"{k}={_render_value(v)}" for k, v in params.items())
                parts.append(f"{name}{{{kv}}}")
            else:
                parts.append(name)
    return f"{scope.anchor}({','.join(parts)})"


_TOKEN = re.compile(r"\s*([A-Za-z0-9_.\-]+|[(){}=\[\],])")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                f"pipeline: unexpected character {text[pos]!r} at offset {pos}"
            )
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.at = 0

    def peek(self) -> str | None:
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None:
            want = f", expected {expected!r}" if expected else ""
            raise ParseError(f"pipeline: unexpected end of input{want}")
        if expected is not None and token != expected:
            raise ParseError(f"pipeline: expected {expected!r}, got {token!r}")
        self.at += 1
        return token

    def word(self, what: str) -> str:
        """The next token, which must be a name or number, not punctuation."""
        token = self.take()
        if token in "(){}=[],":  # names and numbers hold none of these
            raise ParseError(f"pipeline: expected {what}, got {token!r}")
        return token

    def scope(self) -> PassScope:
        name = self.take()
        if name not in ANCHORS:
            raise ParseError(
                f"pipeline: unknown anchor {name!r}; expected one of "
                + ", ".join(ANCHORS)
            )
        return self.scope_body(name)

    def scope_body(self, anchor: str) -> PassScope:
        self.take("(")
        scope = PassScope(anchor)
        if self.peek() == ")":
            self.take()
            return scope
        while True:
            scope.items.append(self.item())
            if self.peek() == ",":
                self.take()
                continue
            self.take(")")
            return scope

    def item(self):
        name = self.word("a pass or scope")
        if self.peek() == "(":
            if name not in ANCHORS:
                raise ParseError(
                    f"pipeline: unknown anchor {name!r}; expected one of "
                    + ", ".join(ANCHORS)
                )
            return self.scope_body(name)
        params = self.params() if self.peek() == "{" else {}
        if name not in PASSES:
            raise UnknownPass(f"unknown pass {name!r}")
        return (name, params)

    def params(self) -> dict:
        self.take("{")
        params: dict = {}
        while True:
            key = self.word("a parameter name")
            self.take("=")
            params[key] = self.value()
            if self.peek() == ",":
                self.take()
                continue
            self.take("}")
            return params

    def value(self):
        if self.peek() == "[":
            self.take()
            items = []
            if self.peek() == "]":
                self.take()
                return items
            while True:
                items.append(self.scalar())
                if self.peek() == ",":
                    self.take()
                    continue
                self.take("]")
                return items
        return self.scalar()

    def scalar(self):
        token = self.word("a value")
        try:
            return int(token)
        except ValueError:
            return token


def pipeline_parse(spec: str) -> Pipeline:
    tokens = _tokenize(spec.strip())
    if not tokens:
        raise ParseError("pipeline: empty specification")
    parser = _Parser(tokens)
    scope = parser.scope()
    if parser.peek() is not None:
        raise ParseError(f"pipeline: trailing input {parser.peek()!r}")
    if scope.anchor != "builtin.module":
        scope = PassScope("builtin.module", [scope])
    return Pipeline(scope)


# ---------------------------------------------------------------------------
# execution


def _describe(op: Operation) -> str:
    sym = SymbolTable.name_of(op)
    return op.name if sym is None else f"{op.name} @{sym}"


def _apply(anchor: Operation, name: str, params: dict,
           stats: list[PassStats]) -> None:
    impl = PASSES.get(name)
    if impl is None:
        raise UnknownPass(f"unknown pass {name!r}")
    where = _describe(anchor)
    ops_before = count_ops(anchor)
    begin = time.perf_counter()
    try:
        outcome = impl(anchor, **params)
    except StaircaseError as exc:
        raise PassFailure(f"{name} on {where}: {exc}") from exc
    except TypeError as exc:
        raise PassFailure(f"{name}: {exc}") from exc
    try:
        verify_or_raise(top_module(anchor))
    except StaircaseError as exc:
        raise PassFailure(f"{name} on {where} broke verification: {exc}") from exc
    stats.append(PassStats(
        pass_name=name,
        anchor=where,
        ops_before=ops_before,
        ops_after=count_ops(anchor),
        rewrites=outcome.rewrites,
        skipped=outcome.skipped,
        elapsed=time.perf_counter() - begin,
    ))


def _run_scope(op: Operation, scope: PassScope, stats: list[PassStats]) -> None:
    if op.name == scope.anchor:
        anchors = [op]
    else:
        anchors = matching_ops(op, (scope.anchor,))
    for anchor in anchors:
        for item in scope.items:
            if isinstance(item, PassScope):
                _run_scope(anchor, item, stats)
            else:
                _apply(anchor, item[0], item[1], stats)


def run_pipeline(module: Operation, pipeline) -> tuple[Operation, list[PassStats]]:
    """Run `pipeline` (a Pipeline or its textual form) on `module` in
    place, as MLIR's PassManager does; return (module, stats per pass).

    The module is verified first and after every pass, so callers may
    compile and call it without verifying it again. A pass error or
    verification break raises PassFailure and leaves the module as the
    failing pass left it: a caller that needs the original clones it first.
    """
    if isinstance(pipeline, str):
        pipeline = pipeline_parse(pipeline)
    verify_or_raise(module)
    stats: list[PassStats] = []
    _run_scope(module, pipeline.root, stats)
    return module, stats
