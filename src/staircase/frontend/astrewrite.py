"""Syntax-tree rewrites that prepare a host function for capture.

check_supported validates the original tree and reports offending source
lines. insert_markers swaps range() for the staged range constructor,
closes loops with an end marker, wraps bare numeric literal assignments
in constant(), and desugars augmented subscript assignment
right-hand-side first. It writes every conditional as straight-line
code, both arms in turn between markers, so one run over proxies
captures both, on every Python.
"""
from __future__ import annotations

import ast

from staircase.errors import UnsupportedConstruct

_RANGE_NAMES = {"range", "scf_range", "affine_range", "scf_for", "affine_for"}
_LOOP_NAMES = _RANGE_NAMES | {"parallel"}

_BANNED_STMT_NAMES = {
    ast.While: "while loops",
    ast.Try: "try blocks",
    ast.With: "with blocks",
    ast.Raise: "raise",
    ast.Assert: "assert",
    ast.Delete: "del",
    ast.Import: "imports",
    ast.ImportFrom: "imports",
    ast.Global: "global declarations",
    ast.Nonlocal: "nonlocal declarations",
    ast.ClassDef: "class definitions",
    ast.FunctionDef: "nested function definitions",
    ast.AsyncFunctionDef: "async functions",
    ast.Break: "break",
    ast.Continue: "continue",
}

_BANNED_EXPR_NAMES = {
    ast.BoolOp: "and/or on staged values",
    ast.IfExp: "conditional expressions",
    ast.ListComp: "comprehensions",
    ast.SetComp: "comprehensions",
    ast.DictComp: "comprehensions",
    ast.GeneratorExp: "comprehensions",
    ast.Lambda: "lambdas",
    ast.Await: "await",
    ast.Yield: "yield",
    ast.YieldFrom: "yield",
    ast.Starred: "starred expressions",
    ast.NamedExpr: "walrus assignments",
    ast.Slice: "slicing",
    ast.FormattedValue: "f-strings",
    ast.JoinedStr: "f-strings",
}


def _reject(msg: str, node: ast.AST):
    raise UnsupportedConstruct(msg, line=getattr(node, "lineno", None))


def _check_expr(node: ast.AST) -> None:
    for sub in ast.walk(node):
        for banned, label in _BANNED_EXPR_NAMES.items():
            if isinstance(sub, banned):
                _reject(f"{label} cannot be staged", sub)
        if isinstance(sub, ast.Compare) and len(sub.ops) > 1:
            _reject("chained comparisons cannot be staged", sub)
        if isinstance(sub, ast.UnaryOp) and not (
                isinstance(sub.op, ast.USub)
                and isinstance(sub.operand, ast.Constant)):
            _reject("unary operators on staged values", sub)


def _check_body(body: list, top_level: bool) -> None:
    for i, stmt in enumerate(body):
        for banned, label in _BANNED_STMT_NAMES.items():
            if isinstance(stmt, banned):
                _reject(f"{label} cannot be staged", stmt)
        if isinstance(stmt, ast.Return):
            if not (top_level and i == len(body) - 1):
                _reject("return is only allowed as the final statement", stmt)
            if stmt.value is not None:
                _check_expr(stmt.value)
        elif isinstance(stmt, ast.For):
            if stmt.orelse:
                _reject("for/else cannot be staged", stmt)
            if not (isinstance(stmt.iter, ast.Call)
                    and isinstance(stmt.iter.func, ast.Name)
                    and stmt.iter.func.id in _LOOP_NAMES):
                _reject("loops must iterate over range() or parallel()", stmt)
            if not _is_name_target(stmt.target):
                _reject("loop targets must be plain names", stmt)
            _check_expr(stmt.iter)
            _check_body(stmt.body, top_level=False)
        elif isinstance(stmt, ast.If):
            _check_expr(stmt.test)
            _check_body(stmt.body, top_level=False)
            _check_body(stmt.orelse, top_level=False)
        elif isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 or not isinstance(
                    stmt.targets[0], (ast.Name, ast.Subscript)):
                _reject("assignment targets must be a name or a subscript",
                        stmt)
            _check_expr(stmt.targets[0])
            _check_expr(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, (ast.Name, ast.Subscript)):
                _reject("augmented targets must be a name or a subscript",
                        stmt)
            if not isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
                _reject("only + - * / augmented assignment can be staged",
                        stmt)
            _check_expr(stmt.target)
            _check_expr(stmt.value)
        elif isinstance(stmt, ast.Expr):
            if not isinstance(stmt.value, ast.Call):
                _reject("expression statements must be calls", stmt)
            _check_expr(stmt.value)
        elif isinstance(stmt, ast.Pass):
            pass
        else:
            _reject(f"{type(stmt).__name__} cannot be staged", stmt)


def check_supported(fn_def: ast.FunctionDef) -> None:
    if fn_def.args.vararg or fn_def.args.kwarg or fn_def.args.kwonlyargs \
            or fn_def.args.posonlyargs:
        _reject("only plain positional parameters can be staged", fn_def)
    _check_body(fn_def.body, top_level=True)


def _is_name_target(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return True
    return isinstance(node, ast.Tuple) and all(
        isinstance(e, ast.Name) for e in node.elts
    )


def _call(name: str, args: list, at: ast.AST) -> ast.Call:
    node = ast.Call(func=ast.Name(id=name, ctx=ast.Load()), args=args,
                    keywords=[])
    return ast.copy_location(node, at)


def _call_stmt(name: str, at: ast.AST, *args) -> ast.Expr:
    return ast.copy_location(ast.Expr(value=_call(name, list(args), at)), at)


class _MarkerTransformer(ast.NodeTransformer):
    def __init__(self, range_name: str):
        self.range_name = range_name

    def visit_For(self, node: ast.For):
        self.generic_visit(node)
        if node.iter.func.id == "range":
            node.iter.func = ast.copy_location(
                ast.Name(id=self.range_name, ctx=ast.Load()), node.iter.func)
        node.body.append(_call_stmt("scf_endfor", node))
        return node

    def visit_If(self, node: ast.If):
        self.generic_visit(node)
        flat = [_call_stmt("scf_if", node, node.test), *node.body,
                _call_stmt("scf_endif_branch", node)]
        if node.orelse:
            flat += [_call_stmt("scf_else", node.orelse[0]), *node.orelse,
                     _call_stmt("scf_endif_branch", node.orelse[0])]
        return flat + [_call_stmt("scf_endif", node)]

    def visit_Assign(self, node: ast.Assign):
        self.generic_visit(node)
        v = node.value
        if isinstance(v, ast.Constant) and isinstance(v.value, (int, float)) \
                and not isinstance(v.value, bool):
            node.value = _call("constant", [v], node)
        return node

    def visit_AugAssign(self, node: ast.AugAssign):
        self.generic_visit(node)
        load_target = ast.copy_location(
            ast.Subscript(value=node.target.value, slice=node.target.slice,
                          ctx=ast.Load()), node
        ) if isinstance(node.target, ast.Subscript) else ast.copy_location(
            ast.Name(id=node.target.id, ctx=ast.Load()), node
        )
        combined = ast.copy_location(
            ast.BinOp(left=load_target, op=node.op,
                      right=ast.copy_location(
                          ast.Name(id="__stc_rhs", ctx=ast.Load()), node)),
            node,
        )
        rhs_first = ast.copy_location(
            ast.Assign(targets=[ast.copy_location(
                ast.Name(id="__stc_rhs", ctx=ast.Store()), node)],
                value=node.value),
            node,
        )
        store = ast.copy_location(
            ast.Assign(targets=[node.target], value=combined), node
        )
        return [rhs_first, store]


def insert_markers(fn_def: ast.FunctionDef, range_name: str) -> ast.FunctionDef:
    out = _MarkerTransformer(range_name).visit(fn_def)
    ast.fix_missing_locations(out)
    return out
