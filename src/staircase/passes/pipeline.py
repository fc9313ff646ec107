"""Scope-anchored pass pipelines: build them, parse them, run them.

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
    clone_module,
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


# ---------------------------------------------------------------------------
# construction


class PipelineBuilder:
    """Assemble a pipeline scope by scope. The root is always a
    builtin.module scope, matching what the parser produces."""

    def __init__(self):
        self._root = PassScope("builtin.module")
        self._stack = [self._root]

    def push_scope(self, anchor: str) -> "PipelineBuilder":
        if anchor not in ANCHORS:
            raise ParseError(
                f"unknown anchor {anchor!r}; expected one of {', '.join(ANCHORS)}"
            )
        scope = PassScope(anchor)
        self._stack[-1].items.append(scope)
        self._stack.append(scope)
        return self

    def pop_scope(self) -> "PipelineBuilder":
        if len(self._stack) == 1:
            raise ParseError("pop_scope without a matching push_scope")
        self._stack.pop()
        return self

    def add_pass(self, name: str, params: dict | None = None) -> "PipelineBuilder":
        if name not in PASSES:
            raise UnknownPass(f"unknown pass {name!r}")
        self._stack[-1].items.append((name, dict(params or {})))
        return self

    def build(self) -> Pipeline:
        if len(self._stack) != 1:
            raise ParseError(f"{len(self._stack) - 1} scope(s) left open")
        return Pipeline(self._root)


def pipeline_builder() -> PipelineBuilder:
    return PipelineBuilder()


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
        name = self.take()
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
            key = self.take()
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
        token = self.take()
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
    """Apply `pipeline` (a Pipeline or its textual form) to a clone of
    `module` and return (rewritten module, stats per pass application).

    The input module is never mutated. The input is verified, and the
    clone after every pass; any pass error or verification break raises
    PassFailure and discards the clone, so callers always hold a verified
    module, which they may compile and call without verifying it again.
    """
    if isinstance(pipeline, str):
        pipeline = pipeline_parse(pipeline)
    verify_or_raise(module)
    work = clone_module(module)
    stats: list[PassStats] = []
    try:
        _run_scope(work, pipeline.root, stats)
    except BaseException:
        if work in module.ctx.modules:
            module.ctx.modules.remove(work)
        raise
    return work, stats
