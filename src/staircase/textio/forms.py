"""The grammar of the text format: its tokens and the directives an op's
syntax is written in.

A Form is what follows an op's mnemonic, as a sequence of directives.
Each directive has a ``write`` that renders its part of an op for
printer.Writer and a ``read`` that consumes the same tokens for
parser.Reader, so a printed module parses back to itself. Each op's Form
is on its OpSchema (``dialects/schemas.py`` holds the built-in ones); an
op whose schema has none takes GENERIC, ``name(operands) {attrs} :
(types) -> (types)`` and an optional region. Operand directives take
operands in order, so they all come before the op's regions. No
directive reads a result type the text leaves out: parser.Reader.create
gives it from the schema's result rule.

Each directive's ``line`` gives its part of a regionless op written on
one line: a regex fragment, a ``take`` that reads the fragment's groups
as ``read`` reads the tokens, the tokens ``read`` could go on to read
on the next line, and whether it can read nothing. Form.line joins them,
once per Form, so no line regex is written by hand. A take reports no
error: where ``read`` would raise, or might read otherwise, it raises
Decline and the token reader reads the line.
"""
from __future__ import annotations

import functools
import re

from staircase.ir.core import (F32, F64, I1, I32, I64, INDEX, array_attr, float_attr,
                               int_attr, str_attr, symbol_attr, type_attr)

SCALARS = {t.kind: t for t in (F32, F64, I1, I32, I64, INDEX)}

# Blanks and comments. A comment runs to the end of its line, so a run of
# them matches in one way only and a failed token match backs off fast.
BLANKS = r"[ \t\n]*(?://[^\n]*(?![^\n])[ \t\n]*)*"

# The tokens, in the order the lexer tries them.
TOKENS = {"memref": r"memref<[^>\n]*>",
          "float": r"-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)",
          "int": r"-?\d+", "pct": r"%[A-Za-z0-9_]+", "at": r"@[A-Za-z_][A-Za-z0-9_]*",
          "id": r"[A-Za-z_][A-Za-z0-9_.$]*", "str": r'"(?:[^"\\]|\\.)*"',
          "arrow": r"->", "dcolon": r"::", "punct": r"[(){}\[\],=:]"}

_WORD_END = r"(?![A-Za-z0-9_.$])"
_SCALAR = f"(?:{'|'.join(SCALARS)}){_WORD_END}"
_TYPE = rf"(?:memref<(?:\d+x)+\w+>|{_SCALAR})"  # one type token, no blank or comma
_TYPE_TOKEN = f"(?:{TOKENS['memref']}|{_SCALAR})"  # a token type_list reads on at
_PCT, _AT = TOKENS["pct"], TOKENS["at"]


class Decline(Exception):
    """The line is left to the token reader."""


# Lower-case class names: in a Form they read as the grammar's directives.


class kw:
    """Literal text, kept exactly as printed; blank text reads nothing."""

    def __init__(self, text: str):
        self.text = text

    def write(self, w, op) -> None:
        w.out.append(self.text)

    def read(self, r, p) -> None:
        r.literal(self.text)

    def line(self):
        return re.escape(self.text), None, (), not self.text.strip()


class operands:
    """The next n operands (all the rest if None; a callable gets the op).

    Typed, each prints as ``%v : type`` and the reader checks the type.
    """

    def __init__(self, n=None, typed: bool = False):
        self.n = n
        self.typed = typed

    def write(self, w, op) -> None:
        n = self.n(op) if callable(self.n) else self.n
        values = w.ops[w.k:] if n is None else w.ops[w.k:w.k + n]
        w.k += len(values)
        names = w.names
        if self.typed:
            w.out.append(", ".join([f"{names[v]} : {v.type}" for v in values]))
        else:
            w.out.append(", ".join([names[v] for v in values]))

    def read(self, r, p) -> None:
        if self.n == 1:
            p.operands.append(r.value())
        elif r.peek()[0] == "pct":
            p.operands.extend(r.comma_list(lambda: self.read_one(r)))

    def read_one(self, r):
        value = r.value()
        if self.typed:
            r.literal(" : ")
            r.check_type(value.type)
        return value

    def line(self):
        if self.n == 1:
            return f"({_PCT})", self.take_one, (), False
        item = rf"{_PCT} : {_TYPE}" if self.typed else _PCT
        return f"((?:{item}(?:, {item})*)?)", self.take, (",", "%"), True

    def take_one(self, r, p, got) -> None:
        p.operands.append(r.known(next(got)))

    def take(self, r, p, got) -> None:
        text = next(got)
        for item in text.split(", ") if text else ():
            name, _, ty = item.partition(" : ")
            value = r.known(name)
            if self.typed and [value.type] != r.types_of(ty):
                raise Decline(item)
            p.operands.append(value)


operand = operands(1)


class types:
    """The types of every operand (the reader checks them) or result."""

    def __init__(self, results: bool = False):
        self.results = results

    def write(self, w, op) -> None:
        values = op.results if self.results else w.ops
        w.out.append(", ".join([str(v.type) for v in values]))

    def read(self, r, p) -> None:
        tok = r.peek()
        written = r.type_list()
        if self.results:
            p.result_types = written
        elif written != [v.type for v in p.operands]:
            r.error("operand types do not match the written types", tok)

    def line(self):
        return f"((?:{_TYPE}(?:, {_TYPE})*)?)", self.take, (",", _TYPE_TOKEN), True

    def take(self, r, p, got) -> None:
        written = r.types_of(next(got))
        if self.results:
            p.result_types = written
        elif written != [v.type for v in p.operands]:
            raise Decline(written)


result_type = types(results=True)


class type_of:
    """The type of operand i, which the reader checks."""

    def __init__(self, i: int):
        self.i = i

    def write(self, w, op) -> None:
        w.out.append(str(w.ops[self.i].type))

    def read(self, r, p) -> None:
        r.check_type(p.operands[self.i].type)

    def line(self):
        return f"({_TYPE})", self.take, (), False

    def take(self, r, p, got) -> None:
        if r.types_of(next(got)) != [p.operands[self.i].type]:
            raise Decline(self.i)


class attr:
    """Attribute `name` as a literal (style value), a string as ``@name``
    (sym) or as a bare word (id), or an array of types (types)."""

    def __init__(self, name: str, style: str = "value"):
        self.name = name
        self.style = style

    def write(self, w, op) -> None:
        a = op.attributes[self.name]
        if self.style == "value":
            w.out.append(w.attr_value(a))
        elif self.style == "sym":
            w.out.append("@" + a.value)
        elif self.style == "id":
            w.out.append(a.value)
        else:
            w.out.append(", ".join(str(t.value) for t in a.value))

    def read(self, r, p) -> None:
        if self.style == "value":
            a = r.attr_value()
        elif self.style == "sym":
            a = str_attr(r.expect("at")[1][1:])
        elif self.style == "id":
            a = str_attr(r.expect("id")[1])
        else:
            a = array_attr(type_attr(t) for t in r.type_list())
        p.attrs[self.name] = a

    def line(self):
        if self.style == "types":
            return None  # func.func's, whose region ends no line
        if self.style == "value":  # the literals regionless ops print
            return (f"(?:({TOKENS['float']})|({TOKENS['int']})|({_AT}(?:::{_AT})*))",
                    self.take_value, ("::",), False)
        return f"({_AT if self.style == 'sym' else TOKENS['id']})", self.take, (), False

    def take_value(self, r, p, got) -> None:
        number, integer, symbol = next(got), next(got), next(got)
        p.attrs[self.name] = (
            float_attr(float(number)) if number else int_attr(int(integer)) if integer
            else symbol_attr(*(part[1:] for part in symbol.split("::"))))

    def take(self, r, p, got) -> None:
        text = next(got)
        p.attrs[self.name] = str_attr(text[1:] if self.style == "sym" else text)


class optional:
    """A group printed when when(op) holds; the reader takes it when lead
    is next, or for a blank lead when a value is next."""

    def __init__(self, lead: str, when, *body):
        self.lead = lead
        self.when = when
        self.body = [_directive(d) for d in body]

    def write(self, w, op) -> None:
        if self.when(op):
            w.out.append(self.lead)
            for d in self.body:
                d.write(w, op)

    def read(self, r, p) -> None:
        if r.starts(self.lead):
            for d in self.body:
                d.read(r, p)

    def line(self):
        body = _line(self.body)
        if body is None:
            return None
        regex, takes, follow, _ = body
        skip = re.compile(regex).groups

        def take(r, p, got) -> None:
            if next(got) is None:  # not taken: skip the body's groups
                for _ in range(skip):
                    next(got)
            else:
                for body_take in takes:
                    body_take(r, p, got)
        lead = self.lead.strip()
        regex = f"(?:({re.escape(self.lead)}{'' if lead else '(?=%)'}){regex})?"
        return regex, take, (*follow, re.escape(lead[:1]) or "%"), True


class default:
    """Attribute `name` when the text leaves it out; goes before the
    optional group that can set it."""

    def __init__(self, name: str, value):
        self.name = name
        self.value = value

    def write(self, w, op) -> None:
        pass

    def read(self, r, p) -> None:
        p.attrs[self.name] = self.value

    def line(self):
        return "", lambda r, p, got: self.read(r, p), (), True


class args:
    """The arguments of the op's first block: index induction variables,
    or typed (``%arg0: f32``) function parameters, which isolate the op:
    names restart at %0 and %arg0 in it, and no outer value is visible."""

    def __init__(self, typed: bool = False):
        self.typed = typed

    def write(self, w, op) -> None:
        block_args = op.body().args
        if self.typed:
            w.out.append(", ".join(f"{w.def_arg(a)}: {a.type}" for a in block_args))
        else:
            w.out.append(", ".join(w.def_arg(a) for a in block_args))

    def read(self, r, p) -> None:
        if r.peek()[0] == "pct":
            p.args = r.comma_list(lambda: self.read_one(r))

    line = None  # a region ends no line

    def read_one(self, r):
        tok = r.expect("pct")
        if not self.typed:
            return tok, INDEX
        r.literal(": ")
        return tok, r.type()


class attrs:
    """The attributes not consumed by other directives, as ``attributes
    {...}``; bare prints ``{...}`` on a regionless op, where MLIR's
    attr-dict goes."""

    def __init__(self, *consumed: str, bare: bool = False):
        self.consumed = consumed
        self.bare = bare

    def write(self, w, op) -> None:
        rest = {k: v for k, v in op.attributes.items() if k not in self.consumed}
        if rest:
            lead = " {" if self.bare and not op.regions else " attributes {"
            w.out.append(lead + w.attr_entries(rest) + "}")

    def read(self, r, p) -> None:
        if r.accept("id", "attributes") or (self.bare and r.peek()[0] == "{"):
            p.attrs.update(r.attr_dict())

    def line(self):  # a line with a dictionary is left to the token reader
        follow = ((r"\{",) if self.bare else ()) + ("attributes" + _WORD_END,)
        return f"(?![ \t]*(?:{'|'.join(follow)}))", None, follow, True


class region:
    """Region i as `` {``, one op per line, ``}``; elide_yield drops the
    trailing scf.yield unless it carries attributes, and the reader adds
    it back. The reader builds the op at its first region."""

    def __init__(self, i: int, elide_yield: bool = False):
        self.i = i
        self.elide_yield = elide_yield

    line = None

    def write(self, w, op) -> None:
        w.region(op.regions[self.i], self.elide_yield)

    def read(self, r, p) -> None:
        if p.op is None:
            r.create(p, p.schema.num_regions)
        r.region(p.op, self.i, self.elide_yield)


class regions:
    """The generic form's regions: at most one, without arguments."""

    line = None

    def write(self, w, op) -> None:
        if len(op.regions) > 1:
            raise ValueError(f"{op.name}: no printed form for multiple regions")
        if op.regions:
            block = op.body()
            if block.args:
                raise ValueError(f"{op.name}: no printed form for regions with arguments")
            w.region(block, False)

    def read(self, r, p) -> None:
        variadic = p.schema.variadic_regions
        r.create(p, 0 if variadic else p.schema.num_regions)
        for i in range(len(p.op.regions)):
            r.region(p.op, i, False)
        while variadic and r.peek()[0] == "{":
            r.region(p.op, len(p.op.regions), False)


def _directive(d):
    return kw(d) if isinstance(d, str) else d


def _line(directives):
    """The directives' fragments in sequence, the takes of their groups in
    order, the tokens that would go on reading them past the end of their
    line, and whether they can read nothing; None where one has no line."""
    parts = [d.line and d.line() for d in directives]
    if None in parts:
        return None
    follow, empty = [], True
    for _, _, tokens, can_be_empty in reversed(parts):
        if empty:
            follow += tokens
            empty = can_be_empty
    return "".join(p[0] for p in parts), [p[1] for p in parts if p[1]], follow, empty


class Form:
    """One op's syntax after its mnemonic, the word printed for the op
    when it is not the op's name. A string in it is literal text."""

    def __init__(self, *directives, mnemonic: str | None = None):
        directives = [_directive(d) for d in directives]
        self.mnemonic = mnemonic
        self.directives = directives
        self.writers = [d.write for d in directives]
        self.readers = [d.read for d in directives]
        self.isolated = any(isinstance(d, args) and d.typed for d in directives)

    @functools.cached_property
    def line(self):
        """The regex over the rest of a one-line op after its name, and the
        takes of its groups; None for a form with a region. The match ends
        with the line. Where the token reader could read on (follow), it
        also takes the next line's indent and refuses a next line that is
        blank, a comment or starts with a token in follow."""
        line = _line(self.directives)
        if line is None:
            return None
        regex, takes, follow, _ = line
        if follow:
            regex += rf"[ \t]*(?:\n[ \t]*(?![ \t])|\Z)(?!\n|//|{'|'.join(follow)})"
        else:
            regex += r"[ \t]*(?:\n|\Z)"
        return re.compile(regex), takes


GENERIC = Form("(", operands(), ")", attrs(bare=True), " : (", types(), ") -> (",
               types(results=True), ")", regions())
