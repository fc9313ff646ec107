"""Parser for the printed module subset.

Each op's syntax is its Form in forms.py, the same table the printer
runs; the Reader here runs forms against tokens and owns the lexer,
scopes, types and attribute literals. The parser is syntax-only: it
reconstructs the always-elided scf.yield terminators of loop and branch
bodies but will happily return a function with no return; verify() owns
semantic judgments. The lexer keeps each token's offset into the
text; a 1-based line:column is worked out from the offsets of the
newlines, once per op for its Location and when an error is raised.
"""
from __future__ import annotations

import bisect
import functools
import json
import re

from staircase.errors import ParseError, UnknownOperation
from staircase.ir.core import (
    F32,
    F64,
    I1,
    I32,
    I64,
    INDEX,
    Attribute,
    Block,
    Context,
    IRType,
    Location,
    Operation,
    Region,
    Value,
    array_attr,
    create_module,
    create_op,
    dict_attr,
    float_attr,
    int_attr,
    memref_type,
    str_attr,
    symbol_attr,
    type_attr,
    unit_attr,
)
from staircase.textio.forms import FORMS, GENERIC

_SCALARS = {t.kind: t for t in (F32, F64, I1, I32, I64, INDEX)}

_MEMREF_RE = re.compile(r"memref<((?:\d+x)*)(\w+)>")

# Blanks and comments. A comment runs to the end of its line, so a run of
# them matches in one way only and a failed token match backs off fast.
_BLANKS = r"(?:[ \t\n]|//[^\n]*(?![^\n]))*"
_BLANKS_RE = re.compile(_BLANKS)

# One token and the blanks before it.
_TOKEN_RE = re.compile(
    _BLANKS + r"""(?:
    (?P<memref>memref<[^>\n]*>)
  | (?P<float>-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+))
  | (?P<int>-?\d+)
  | (?P<pct>%[A-Za-z0-9_]+)
  | (?P<at>@[A-Za-z_][A-Za-z0-9_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_.$]*)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<arrow>->)
  | (?P<dcolon>::)
  | (?P<punct>[(){}\[\],=:])
    )""",
    re.VERBOSE,
)

# The word an op is printed with, to its op name and form.
_MNEMONICS = {name: (name, form) for name, form in FORMS.items()}
_MNEMONICS.update((form.mnemonic, (name, form))
                  for name, form in FORMS.items() if form.mnemonic)


def _lex(text: str):
    """(kind, lexeme, offset) per token, ending with an eof token, and the
    offset of each newline."""
    tokens = []
    match = _TOKEN_RE.match
    pos = 0
    while m := match(text, pos):
        pos = m.end()
        kind = m.lastgroup
        lexeme = m[kind]
        tokens.append((lexeme if kind == "punct" else kind, lexeme,
                       m.start(kind)))
    pos = _BLANKS_RE.match(text, pos).end()
    newlines = [m.start() for m in re.finditer("\n", text)]
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}",
                         *_line_col(newlines, pos))
    tokens.append(("eof", "", pos))
    return tokens, newlines


def _line_col(newlines: list, offset: int) -> tuple:
    """1-based line and column of a text offset."""
    line = bisect.bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


@functools.lru_cache(maxsize=None)
def _literal_tokens(text: str) -> tuple:
    """(kind, lexeme) of each token in a form's literal text."""
    return tuple(tok[:2] for tok in _lex(text)[0][:-1])


class _Pending:
    """What the reader has gathered for one op, and the op once built."""

    def __init__(self, name, form, schema, block, loc):
        self.name = name
        self.form = form
        self.schema = schema  # looked up for the generic form only
        self.block = block  # None for the top-level module
        self.loc = loc
        self.operands: list[Value] = []
        self.attrs: dict[str, Attribute] = {}
        self.result_types: list[IRType] = []
        self.args: list = []  # (name token, type) per block argument
        self.op: Operation | None = None


class Reader:
    """Builds ops by running their forms over a token list."""

    def __init__(self, text: str, ctx: Context):
        self.tokens, self.newlines = _lex(text)
        self.pos = 0
        self.ctx = ctx
        self.values: dict[str, Value] = {}

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, msg: str, tok):
        raise ParseError(msg, *_line_col(self.newlines, tok[2]))

    def expect(self, kind: str, text: str | None = None):
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            self.error(f"expected {want!r}, got {tok[1]!r}", tok)
        return tok

    def accept(self, kind: str, text: str | None = None):
        tok = self.peek()
        if tok[0] == kind and (text is None or tok[1] == text):
            self.pos += 1
            return tok
        return None

    def literal(self, text: str) -> None:
        for kind, lexeme in _literal_tokens(text):
            self.expect(kind, lexeme)

    def starts(self, lead: str) -> bool:
        """Consume lead if it is next; a blank lead starts at a value."""
        tokens = _literal_tokens(lead)
        if not tokens:
            return self.peek()[0] == "pct"
        if self.peek()[:2] != tokens[0]:
            return False
        self.literal(lead)
        return True

    # -- values and types ----------------------------------------------------

    def value(self) -> Value:
        tok = self.expect("pct")
        v = self.values.get(tok[1])
        if v is None:
            self.error(f"use of undefined value {tok[1]}", tok)
        return v

    def define(self, name_tok, v: Value) -> None:
        if name_tok[1] in self.values:
            self.error(f"redefinition of value {name_tok[1]}", name_tok)
        self.values[name_tok[1]] = v

    def comma_list(self, read_one) -> list:
        """One or more items, comma-separated."""
        out = [read_one()]
        while self.accept(","):
            out.append(read_one())
        return out

    def type(self) -> IRType:
        tok = self.next()
        if tok[1] in _SCALARS:
            return _SCALARS[tok[1]]
        m = _MEMREF_RE.fullmatch(tok[1]) if tok[0] == "memref" else None
        if m is None:
            self.error(f"expected a type, got {tok[1]!r}", tok)
        dims, elem = m.groups()
        if elem not in _SCALARS or elem == "index":
            self.error(f"bad memref element type {elem!r}", tok)
        shape = tuple(int(d) for d in dims.split("x") if d)
        if not shape:
            self.error("memref needs at least one dimension", tok)
        return memref_type(shape, _SCALARS[elem])

    def check_type(self, want: IRType) -> None:
        tok = self.peek()
        got = self.type()
        if got != want:
            self.error(f"expected type {want}, got {got}", tok)

    def type_list(self) -> list[IRType]:
        """Zero or more types, comma-separated."""
        tok = self.peek()
        if tok[0] == "memref" or tok[1] in _SCALARS:
            return self.comma_list(self.type)
        return []

    # -- attributes ------------------------------------------------------------

    def attr_value(self) -> Attribute:
        tok = self.peek()
        kind = tok[0]
        if kind == "{":
            return dict_attr(self.attr_dict())
        if kind == "memref" or tok[1] in _SCALARS:
            return type_attr(self.type())
        self.next()
        if kind == "int":
            return int_attr(int(tok[1]))
        if kind == "float":
            return float_attr(float(tok[1]))
        if kind == "str":
            try:
                return str_attr(json.loads(tok[1]))
            except json.JSONDecodeError:
                self.error(f"bad character or escape in string {tok[1]}", tok)
        if kind == "at":
            parts = [tok[1][1:]]
            while self.accept("dcolon"):
                parts.append(self.expect("at")[1][1:])
            return symbol_attr(*parts)
        if kind != "[":
            self.error(f"expected an attribute value, got {tok[1]!r}", tok)
        items = self.comma_list(self.attr_value) if self.peek()[1] != "]" else []
        self.expect("]")
        return array_attr(items)

    def attr_dict(self) -> dict:
        self.expect("{")
        attrs: dict[str, Attribute] = {}
        while self.peek()[1] != "}":
            key = self.expect("id")[1]
            if self.accept("="):
                attrs[key] = self.attr_value()
            else:
                attrs[key] = unit_attr()
            if not self.accept(","):
                break
        self.expect("}")
        return attrs

    # -- operations ----------------------------------------------------------

    def op(self, block: Block | None) -> Operation:
        """One op, appended to block; the top-level module when block is None."""
        result_toks = []
        if self.peek()[0] == "pct":
            result_toks = self.comma_list(lambda: self.expect("pct"))
            self.expect("=")
        name_tok = self.expect("id")
        loc = Location("<input>", *_line_col(self.newlines, name_tok[2]))
        entry = _MNEMONICS.get(name_tok[1])
        if entry is not None:
            (name, form), schema = entry, None
        else:
            name, form = name_tok[1], GENERIC
            schema = self.ctx.registry.lookup_op(name)
            if schema is None:
                raise UnknownOperation(
                    f"line {loc.line}: no registered schema for {name!r}")
        p = _Pending(name, form, schema, block, loc)
        outer = self.values
        if form.isolated:
            self.values = {}
        for read in form.readers:
            read(self, p)
        if p.op is None:
            self.create(p, 0)
        self.values = outer
        op = p.op
        if len(result_toks) != len(op.results):
            self.error(
                f"{name} produces {len(op.results)} result(s), "
                f"{len(result_toks)} named", name_tok)
        for tok, v in zip(result_toks, op.results):
            self.define(tok, v)
        return op

    def create(self, p: _Pending, region_count: int) -> None:
        """Build the op from what its form has read so far."""
        if p.block is None:
            op = create_module(self.ctx, location=p.loc)
            op.attributes.update(p.attrs)
        else:
            op = create_op(p.block, len(p.block.ops), p.name,
                           operands=p.operands, attributes=p.attrs,
                           result_types=p.result_types,
                           region_count=region_count, location=p.loc)
        for tok, ty in p.args:
            self.define(tok, op.body().add_arg(ty))
        p.op = op

    def region(self, op: Operation, i: int, elide_yield: bool) -> None:
        """Region i of op, added when op has only i regions so far."""
        if i == len(op.regions):
            op.regions.append(Region(op))
        block = op.regions[i].blocks[0]
        self.expect("{")
        while self.peek()[1] != "}":
            self.op(block)
        self.expect("}")
        if elide_yield and not (block.ops and block.ops[-1].name == "scf.yield"):
            create_op(block, len(block.ops), "scf.yield")


def parse_module(text: str, ctx: Context) -> Operation:
    reader = Reader(text, ctx)
    head = reader.peek()
    if head[:2] != ("id", "module"):
        reader.error(f"modules start with 'module', got {head[1]!r}", head)
    module = reader.op(None)
    reader.expect("eof")
    return module
