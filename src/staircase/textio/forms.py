"""The grammar of the text format: the directives an op's syntax is
written in.

A Form is what follows an op's mnemonic, as a sequence of directives.
Each directive has a ``write`` that renders its part of an op for
printer.Writer and a ``read`` that consumes the same tokens for
parser.Reader, so a printed module parses back to itself. Each op's Form
is on its OpSchema (``dialects/schemas.py`` holds the built-in ones); an
op whose schema has none takes GENERIC, ``name(operands) {attrs} :
(types) -> (types)`` and an optional region. Operand directives take
operands in order, so they all come before the op's regions. No
directive reads a result type the text leaves out: create_op gives it
from the schema's result rule.
"""
from __future__ import annotations

from staircase.ir.core import INDEX, array_attr, str_attr, type_attr

# Lower-case class names: in a Form they read as the grammar's directives.


class kw:
    """Literal text, kept exactly as printed; blank text reads nothing."""

    def __init__(self, text: str):
        self.text = text

    def write(self, w, op) -> None:
        w.out.append(self.text)

    def read(self, r, p) -> None:
        r.literal(self.text)


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
            w.out.append(", ".join([f"{names[v.id]} : {v.type}" for v in values]))
        else:
            w.out.append(", ".join([names[v.id] for v in values]))

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


result_type = types(results=True)


class type_of:
    """The type of operand i, which the reader checks."""

    def __init__(self, i: int):
        self.i = i

    def write(self, w, op) -> None:
        w.out.append(str(w.ops[self.i].type))

    def read(self, r, p) -> None:
        r.check_type(p.operands[self.i].type)


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


class region:
    """Region i as `` {``, one op per line, ``}``; elide_yield drops the
    trailing scf.yield unless it carries attributes, and the reader adds
    it back. The reader builds the op at its first region."""

    def __init__(self, i: int, elide_yield: bool = False):
        self.i = i
        self.elide_yield = elide_yield

    def write(self, w, op) -> None:
        w.region(op.regions[self.i].blocks[0], self.elide_yield)

    def read(self, r, p) -> None:
        if p.op is None:
            r.create(p, p.schema.num_regions)
        r.region(p.op, self.i, self.elide_yield)


class regions:
    """The generic form's regions: at most one, without arguments."""

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


class Form:
    """One op's syntax after its mnemonic, the word printed for the op
    when it is not the op's name. A string in it is literal text."""

    def __init__(self, *directives, mnemonic: str | None = None):
        directives = [_directive(d) for d in directives]
        self.mnemonic = mnemonic
        self.writers = [d.write for d in directives]
        self.readers = [d.read for d in directives]
        self.isolated = any(isinstance(d, args) and d.typed for d in directives)


GENERIC = Form("(", operands(), ")", attrs(bare=True), " : (", types(), ") -> (",
               types(results=True), ")", regions())
