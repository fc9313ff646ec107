"""Parser for the printed module subset.

Each op's syntax is the Form on its OpSchema, found in the context's
registry by the op's name or mnemonic; the printer runs the same Form.
The Reader here owns the lexer, scopes, types and attribute literals.
It has two readers. The line reader (Reader.line) builds a regionless op
written on one line, as printed, from the groups of the regex its Form
generates (Form.line), without lexing the line. The token reader
(Reader.op) runs the Form's directives over tokens, lexed lazily from
the reader's offset; it reads every other op and each line the line
reader declines, and it alone raises ParseErrors, so their positions do
not depend on the reader. As when the whole text was lexed first, an
unexpected character anywhere is the error reported. Both readers build
each op in Reader.create, which gives a result type the text leaves out
from the schema's result rule. An op's results and regions are tuples:
Reader.region adds a region of the generic form's variadic op by
rebinding them. The parser is syntax-only: it builds each op unchecked,
reconstructs the always-elided scf.yield terminators of loop and branch
bodies and will happily return a function with no return or a value
used out of its scope; verify() owns semantic judgments. A 1-based
line:column is worked out from the offsets of the newlines, once per op
for its immutable Location and when an error is raised.
"""
from __future__ import annotations

import bisect
import functools
import json
import re

from staircase.errors import ParseError, StaircaseError, UnknownOperation
from staircase.ir.core import (
    Attribute,
    Block,
    Context,
    IRType,
    Location,
    Operation,
    Value,
    array_attr,
    create_module,
    dict_attr,
    float_attr,
    int_attr,
    memref_type,
    str_attr,
    symbol_attr,
    type_attr,
    unit_attr,
)
from staircase.textio.forms import BLANKS, GENERIC, SCALARS, TOKENS, Decline

_MEMREF_RE = re.compile(r"memref<((?:\d+x)*)(\w+)>")

_BLANKS_RE = re.compile(BLANKS)

# One token and the blanks before it.
_TOKEN_RE = re.compile(BLANKS + "(?:" + "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in TOKENS.items()) + ")")

# An op line up to its form: the blanks before it, the names of its
# results and its name.
_HEAD_RE = re.compile(
    rf"{BLANKS}(?:({TOKENS['pct']}(?:, {TOKENS['pct']})*) = )?({TOKENS['id']})")


def _lex(text: str):
    """(kind, lexeme, offset) per token, ending with an eof token, and the
    offset of each newline."""
    reader = Reader(text, None)
    tokens = [reader.next()]
    while tokens[-1][0] != "eof":
        tokens.append(reader.next())
    return tokens, reader.newlines


def _line_col(newlines: list, offset: int) -> tuple:
    """1-based line and column of a text offset."""
    line = bisect.bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


@functools.lru_cache(maxsize=None)
def _literal_tokens(text: str) -> tuple:
    """(kind, lexeme) of each token in a form's literal text."""
    return tuple(tok[:2] for tok in _lex(text)[0][:-1])


@functools.lru_cache(maxsize=None)
def _types_named(text: str) -> tuple:
    """The types the token reader reads from a list of them."""
    try:
        return tuple(Reader(text, None).type_list())
    except StaircaseError:
        raise Decline(text) from None


class _Pending:
    """What the reader has gathered for one op, and the op once built."""

    __slots__ = ("schema", "block", "loc", "operands", "attrs", "result_types",
                 "args", "op")

    def __init__(self, schema, block, loc):
        self.schema = schema
        self.block = block  # None for the top-level module
        self.loc = loc
        self.operands: list[Value] = []
        self.attrs: dict[str, Attribute] = {}
        self.result_types: list[IRType] | None = None  # None: not written
        self.args: list | tuple = ()  # (name token, type) per block argument
        self.op: Operation | None = None


class Reader:
    """Builds ops from a text, one line by its form's regex or by running
    the form over tokens."""

    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.newlines = [m.start() for m in re.finditer("\n", text)]
        self.at = 0  # where the next token starts, blanks first
        self.tok = None  # that token, once lexed
        self.ctx = ctx
        self.values: dict[str, Value] = {}

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        """The next token, (kind, lexeme, offset); an eof token at the end."""
        if self.tok is not None:
            return self.tok
        m = _TOKEN_RE.match(self.text, self.at)
        if m is None:
            end = _BLANKS_RE.match(self.text, self.at).end()
            if end != len(self.text):
                raise ParseError(f"unexpected character {self.text[end]!r}",
                                 *_line_col(self.newlines, end))
            self.tok = ("eof", "", end)
        else:
            kind = m.lastgroup
            self.tok = (m[kind] if kind == "punct" else kind, m[kind], m.start(kind))
        return self.tok

    def next(self):
        tok = self.tok or self.peek()
        self.at = tok[2] + len(tok[1])
        self.tok = None
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
            return self.next()
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
        if tok[1] in SCALARS:
            return SCALARS[tok[1]]
        m = _MEMREF_RE.fullmatch(tok[1]) if tok[0] == "memref" else None
        if m is None:
            self.error(f"expected a type, got {tok[1]!r}", tok)
        dims, elem = m.groups()
        if elem not in SCALARS or elem == "index":
            self.error(f"bad memref element type {elem!r}", tok)
        shape = tuple(int(d) for d in dims.split("x") if d)
        if not shape:
            self.error("memref needs at least one dimension", tok)
        return memref_type(shape, SCALARS[elem])

    def check_type(self, want: IRType) -> None:
        tok = self.peek()
        got = self.type()
        if got != want:
            self.error(f"expected type {want}, got {got}", tok)

    def type_list(self) -> list[IRType]:
        """Zero or more types, comma-separated."""
        tok = self.peek()
        if tok[0] == "memref" or tok[1] in SCALARS:
            return self.comma_list(self.type)
        return []

    # -- attributes ------------------------------------------------------------

    def attr_value(self) -> Attribute:
        tok = self.peek()
        kind = tok[0]
        if kind == "{":
            return dict_attr(self.attr_dict())
        if kind == "memref" or tok[1] in SCALARS:
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

    # -- the line reader's lookups, which decline where value() or type() raise

    def known(self, name: str) -> Value:
        v = self.values.get(name)
        if v is None:
            raise Decline(name)
        return v

    def types_of(self, text: str) -> list[IRType]:
        return list(_types_named(text))

    # -- operations ----------------------------------------------------------

    def line(self, block: Block) -> bool:
        """The next op, appended to block, if its form's regex reads its
        line and the token reader would build the same op from it; False,
        having read nothing, if not. Names that do not fit the op built
        leave it in block for the token reader to fail on."""
        head = _HEAD_RE.match(self.text, self.at)
        registry = self.ctx.registry
        schema = head and (registry.ops.get(head[2]) or registry.mnemonics.get(head[2]))
        line = schema and (schema.form or GENERIC).line
        m = line and line[0].match(self.text, head.end())
        if not m:
            return False
        p = _Pending(schema, block,
                     Location("<input>", *_line_col(self.newlines, head.start(2))))
        got = iter(m.groups())
        try:
            for take in line[1]:
                take(self, p, got)
        except Decline:
            return False
        self.create(p, 0)
        names = head[1].split(", ") if head[1] else ()
        if len(names) != len(p.op.results) or not self.values.keys().isdisjoint(names) \
                or len(names) > 1 and len(set(names)) < len(names):
            return False  # the token reader raises for these names
        self.values.update(zip(names, p.op.results))
        self.at, self.tok = m.end(), None
        return True

    def op(self, block: Block | None) -> Operation:
        """One op, appended to block; the top-level module when block is None."""
        result_toks = []
        if self.peek()[0] == "pct":
            result_toks = self.comma_list(lambda: self.expect("pct"))
            self.expect("=")
        name_tok = self.expect("id")
        loc = Location("<input>", *_line_col(self.newlines, name_tok[2]))
        registry = self.ctx.registry
        schema = registry.ops.get(name_tok[1]) or registry.mnemonics.get(name_tok[1])
        if schema is None:
            raise UnknownOperation(
                f"line {loc.line}: no registered schema for {name_tok[1]!r}")
        p = _Pending(schema, block, loc)
        form = schema.form or GENERIC
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
                f"{schema.name} produces {len(op.results)} result(s), "
                f"{len(result_toks)} named", name_tok)
        for tok, v in zip(result_toks, op.results):
            self.define(tok, v)
        return op

    def create(self, p: _Pending, region_count: int) -> None:
        """Build the op from what its form has read so far, at the end of
        its block, unchecked."""
        if p.block is None:
            op = create_module(self.ctx, location=p.loc)
            op.attributes.update(p.attrs)
        else:
            if p.result_types is None:
                p.result_types = p.schema.result(p.operands) if p.schema.result else ()
            op = Operation(self.ctx, p.schema.name, p.operands, p.attrs,
                           p.result_types, region_count, p.loc)
            p.block.insert(len(p.block.ops), op)
        for tok, ty in p.args:
            self.define(tok, op.body().add_arg(ty))
        p.op = op

    def region(self, op: Operation, i: int, elide_yield: bool) -> None:
        """Region i of op, added when op has only i regions so far."""
        if i == len(op.regions):
            op.regions += (Block(op),)
        block = op.regions[i]
        self.expect("{")
        while self.line(block) or self.peek()[1] != "}":
            if self.tok is not None:  # not read by the line reader
                self.op(block)
        self.expect("}")
        if elide_yield and not (block.ops and block.ops[-1].name == "scf.yield"):
            self.create(_Pending(self.ctx.registry.ops["scf.yield"], block, None), 0)


def parse_module(text: str, ctx: Context) -> Operation:
    reader = Reader(text, ctx)
    try:
        head = reader.peek()
        if head[:2] != ("id", "module"):
            reader.error(f"modules start with 'module', got {head[1]!r}", head)
        module = reader.op(None)
        reader.expect("eof")
    except StaircaseError:
        _lex(text)  # raises for an unexpected character anywhere
        raise
    return module
