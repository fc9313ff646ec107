"""SSA region-based IR: contexts, dialects, types, values, operations.

Structure mirrors the usual region-based IR nesting, with one level
folded away: only structured control flow is supported, so every region
holds exactly one block, and an operation's `regions` are those blocks.
Blocks contain argument values and operations. An operation's `results`
and `regions` are tuples, the shared () when it has none. Attributes and
Locations are immutable slotted values.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Union

from staircase.errors import (
    ArityMismatch,
    DominanceViolation,
    DuplicateDialect,
    HasUses,
    TypeMismatch,
    UnknownOperation,
)

if TYPE_CHECKING:
    from staircase.textio.forms import Form

# ---------------------------------------------------------------------------
# Types


_KINDS = ("index", "i1", "i32", "i64", "f32", "f64", "memref")
_UNIQUED: dict = {}  # (kind, shape, element) -> the one IRType


@dataclass(frozen=True, eq=False)
class IRType:
    """Structural type: a scalar kind or a static-shaped memref of one.

    Types are uniqued, as in an MLIR context, so equality is identity.
    Memref extents must be static and >= 1; the element must be a scalar
    kind (no nested memrefs).
    """

    kind: str
    shape: tuple = ()
    element: "IRType | None" = None

    def __new__(cls, kind: str, shape: tuple = (), element=None):
        if kind not in _KINDS:
            raise TypeMismatch(f"unknown type kind {kind!r}")
        if kind == "memref":
            if element is None or element.kind == "memref":
                raise TypeMismatch("memref element must be a scalar type")
            if len(shape) < 1:
                raise TypeMismatch("memref requires at least one extent")
            for d in shape:
                if type(d) is not int or d < 1:  # True would key as 1
                    raise TypeMismatch("memref extents must be static integers "
                                       f">= 1, got {d!r}")
        elif shape or element is not None:
            raise TypeMismatch(f"scalar type {kind} takes no shape/element")
        ty = _UNIQUED.get((kind, shape, element))
        if ty is None:
            ty = object.__new__(cls)
            vars(ty).update(kind=kind, shape=shape, element=element)
            # one dict step, so two threads building one new type share one
            ty = _UNIQUED.setdefault((kind, shape, element), ty)
        return ty

    def __reduce__(self):  # copies and pickles come back uniqued
        return IRType, (self.kind, self.shape, self.element)

    @property
    def is_float(self) -> bool:
        return self.kind in ("f32", "f64")

    @property
    def is_int(self) -> bool:
        return self.kind in ("i1", "i32", "i64", "index")

    @property
    def rank(self) -> int:
        return len(self.shape)

    def __str__(self) -> str:
        if self.kind == "memref":
            dims = "x".join(str(d) for d in self.shape)
            return f"memref<{dims}x{self.element}>"
        return self.kind


INDEX = IRType("index")
I1 = IRType("i1")
I32 = IRType("i32")
I64 = IRType("i64")
F32 = IRType("f32")
F64 = IRType("f64")


def memref_type(shape: Iterable[int], element: IRType) -> IRType:
    return IRType("memref", tuple(shape), element)


# ---------------------------------------------------------------------------
# Attributes


_ATTR_KINDS = ("int", "float", "str", "type", "array", "dict", "symbol", "unit")


@dataclass(frozen=True, slots=True)
class Attribute:
    """Immutable tagged union attached to operations by name.

    kinds: int, float, str, type (IRType), array (tuple of Attribute),
    dict (tuple of sorted (key, Attribute) pairs), symbol (tuple of path
    components, e.g. ("Mod", "kern") prints @Mod::@kern), unit.
    """

    kind: str
    value: object = None

    # each __init__ here sets its fields through the slots, at half the
    # cost of the generated one
    def __init__(self, kind: str, value: object = None):
        if kind not in _ATTR_KINDS:
            raise ValueError(f"unknown attribute kind {kind!r}")
        _set_kind(self, kind)
        _set_value(self, value)


_set_kind, _set_value = Attribute.kind.__set__, Attribute.value.__set__


def int_attr(v: int) -> Attribute:
    return Attribute("int", int(v))


def float_attr(v: float) -> Attribute:
    return Attribute("float", float(v))


def str_attr(v: str) -> Attribute:
    return Attribute("str", str(v))


def type_attr(t: IRType) -> Attribute:
    return Attribute("type", t)


def array_attr(items: Iterable[Attribute]) -> Attribute:
    return Attribute("array", tuple(items))


def dict_attr(entries: dict) -> Attribute:
    return Attribute("dict", tuple(sorted(entries.items())))


def symbol_attr(*parts: str) -> Attribute:
    return Attribute("symbol", tuple(parts))


def unit_attr() -> Attribute:
    return Attribute("unit")


def attr_from(obj) -> Attribute:
    """Convert a plain host value (int/float/str/list/dict/IRType) into an
    Attribute; used for opaque user-supplied attribute dictionaries."""
    if isinstance(obj, Attribute):
        return obj
    if isinstance(obj, bool):
        return int_attr(int(obj))
    if isinstance(obj, int):
        return int_attr(obj)
    if isinstance(obj, float):
        return float_attr(obj)
    if isinstance(obj, str):
        return str_attr(obj)
    if isinstance(obj, IRType):
        return type_attr(obj)
    if isinstance(obj, (list, tuple)):
        return array_attr(attr_from(x) for x in obj)
    if isinstance(obj, dict):
        return dict_attr({k: attr_from(v) for k, v in obj.items()})
    if obj is None:
        return unit_attr()
    raise TypeError(f"cannot convert {obj!r} to an attribute")


# ---------------------------------------------------------------------------
# Locations


@dataclass(frozen=True, slots=True)
class Location:
    """A source position; it prints as file:line."""

    file: str
    line: int = 1
    column: int = 0

    def __init__(self, file: str, line: int = 1, column: int = 0):
        if line < 1 or column < 0:
            raise ValueError("location line must be >= 1 and column >= 0")
        _set_file(self, file)
        _set_line(self, line)
        _set_column(self, column)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


_set_file, _set_line, _set_column = (
    Location.file.__set__, Location.line.__set__, Location.column.__set__)


# ---------------------------------------------------------------------------
# Values


class Value:
    """An SSA value: the result of an operation or a block argument."""

    __slots__ = ("type", "owner", "index", "uses")

    def __init__(self, ty: IRType, owner: Union["Operation", "Block"], index: int):
        self.type = ty
        self.owner = owner
        self.index = index
        # (user operation, operand slot) pairs in the order the uses were
        # made, as dict keys (the values are None); kept consistent by
        # Operation
        self.uses: dict = {}

    @property
    def is_block_arg(self) -> bool:
        return isinstance(self.owner, Block)

    @property
    def defining_op(self) -> "Operation | None":
        return self.owner if isinstance(self.owner, Operation) else None

    def __repr__(self) -> str:
        if self.is_block_arg:
            return f"<Value {self.type} (arg {self.index})>"
        return f"<Value {self.type} (result {self.index} of {self.owner.name})>"


# ---------------------------------------------------------------------------
# Operations / regions / blocks


class Operation:
    """A named operation with ordered operands, results, regions."""

    __slots__ = ("ctx", "name", "_operands", "attributes", "location",
                 "parent", "_order", "erased", "results", "regions")

    def __init__(
        self,
        ctx: "Context",
        name: str,
        operands: list,
        attributes: dict,
        result_types: list,
        region_count: int,
        location: Location | None,
    ):
        self.ctx = ctx
        self.name = name
        self._operands: tuple[Value, ...] = tuple(operands)
        self.attributes: dict[str, Attribute] = attributes  # the op's own: not copied
        self.location = location
        self.parent: Block | None = None
        # position in the parent block, as Block numbers it
        self._order = 0
        self.erased = False
        self.results = ((Value(result_types[0], self, 0),) if len(result_types) == 1
                        else tuple([Value(t, self, i) for i, t in enumerate(result_types)]))
        self.regions = (tuple([Block(self) for _ in range(region_count)])
                        if region_count else ())
        for i, v in enumerate(self._operands):
            v.uses[self, i] = None

    # -- operand bookkeeping; all mutation goes through these so use lists
    #    stay consistent

    @property
    def operands(self) -> tuple:
        return self._operands

    def set_operand(self, i: int, v: Value) -> None:
        ops = self._operands
        del ops[i].uses[self, i]
        self._operands = ops[:i] + (v,) + ops[i + 1:]
        v.uses[self, i] = None

    def drop_operand_uses(self) -> None:
        for i, v in enumerate(self._operands):
            del v.uses[self, i]
        self._operands = ()

    # -- structure helpers

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    def body(self, region_index: int = 0) -> "Block":
        """The block of region `region_index`."""
        return self.regions[region_index]

    def block_index(self) -> int:
        assert self.parent is not None
        return self.parent.position(self)

    def walk_nested(self) -> Iterator["Operation"]:
        """Pre-order over the ops nested inside this op (excludes self).

        Reads a block's ops as it enters the block and skips erased ops, so
        callers may rewrite ops it has yielded."""
        stack = [_nested_ops(self)]
        while stack:
            for op in stack[-1]:
                if not op.erased:
                    yield op
                    if op.regions:
                        stack.append(_nested_ops(op))
                        break
            else:
                stack.pop()

    def __repr__(self) -> str:
        return f"<Operation {self.name} at {self.location}>"


def _nested_ops(op: Operation) -> Iterator[Operation]:
    return chain.from_iterable(list(b.ops) for b in op.regions)


_ORDER_STRIDE = 1 << 10
_order_of = attrgetter("_order")


def _list_position(index: int, n: int) -> int:
    """Where `list.insert(index, x)` puts x in a list of length n."""
    return max(index + n, 0) if index < 0 else min(index, n)


class Block:
    """One region of `parent_op`: ordered argument values followed by
    ordered operations.

    Every op in `ops` carries an order number (`Operation._order`) that
    increases along the block, as MLIR's order index behind
    `Operation::isBeforeInBlock` does, so positions and dominance within
    a block are number comparisons. Numbers are spaced `_ORDER_STRIDE`
    apart, and an op inserted between two others takes a number in the
    gap (before the last op, the last op's number moves up instead).
    Only when no gap is left is the block marked for renumbering, which
    happens at the next query, as it is after a `splice` of many ops at
    once. Removing an op keeps the numbering. Ops must enter and leave
    `ops` through `insert`, `splice` and `remove`.
    """

    def __init__(self, parent_op: Operation):
        self.parent_op = parent_op
        self.args: list[Value] = []
        self.ops: list[Operation] = []
        self._order_valid = True
        self.renumbers = 0  # times this block's numbering was rebuilt

    def order_of(self, op: Operation) -> int:
        """The order number of `op`, which must be in this block."""
        if not self._order_valid:
            self._renumber()
        return op._order

    def _renumber(self) -> None:
        for i, op in enumerate(self.ops):
            op._order = i * _ORDER_STRIDE
        self._order_valid = True
        self.renumbers += 1

    def position(self, op: Operation) -> int:
        """The index of `op` in this block."""
        i = bisect_left(self.ops, self.order_of(op), key=_order_of)
        if i == len(self.ops) or self.ops[i] is not op:
            raise ValueError(f"{op!r} is not in this block")
        return i

    def insert(self, index: int, op: Operation) -> None:
        """Put the detached `op` at `index` (read as `list.insert` does)."""
        ops = self.ops
        op.parent = self
        if index >= len(ops) or not ops:  # at the end: no gap to look for
            if self._order_valid:
                op._order = ops[-1]._order + _ORDER_STRIDE if ops else 0
            ops.append(op)
            return
        index = _list_position(index, len(ops))
        ops.insert(index, op)
        if not self._order_valid:
            return
        prev = ops[index - 1]._order if index else None
        nxt = ops[index + 1]
        if prev is None:
            op._order = nxt._order - _ORDER_STRIDE
        elif nxt is ops[-1]:
            # nothing follows the last op (often the terminator), so it can
            # move up alone and ops added before it stay a stride apart
            op._order = prev + _ORDER_STRIDE
            nxt._order = max(nxt._order, op._order + _ORDER_STRIDE)
        elif nxt._order - prev > 1:
            op._order = (prev + nxt._order) // 2
        else:
            self._order_valid = False

    def splice(self, index: int, ops: list) -> None:
        """Put the detached `ops` at `index` as `list.insert` would, in order."""
        self.ops[index:index] = ops
        for op in ops:
            op.parent = self
        self._order_valid = False

    def remove(self, op: Operation) -> None:
        """Take `op` out of this block; the numbering stays valid."""
        del self.ops[self.position(op)]
        op.parent = None

    @property
    def ctx(self) -> "Context":
        return self.parent_op.ctx

    def add_arg(self, ty: IRType) -> Value:
        v = Value(ty, self, len(self.args))
        self.args.append(v)
        return v

    @property
    def terminator(self) -> Operation | None:
        if self.ops:
            last = self.ops[-1]
            schema = last.ctx.registry.ops.get(last.name)
            if schema is not None and schema.is_terminator:
                return last
        return None

    def insertion_index(self) -> int:
        """Index just before the trailing terminator, if one is present."""
        return len(self.ops) - (1 if self.terminator is not None else 0)


# ---------------------------------------------------------------------------
# Dialect registry


@dataclass(frozen=True)
class OpSchema:
    """One operation kind, defined once, as an ODS record defines an op in MLIR.

    check_creation judges operands/attributes/result types and returns a
    list of problem strings; create_op runs it for builders, and verify
    for all IR. check_structure runs at verification time with regions
    fully populated. form is the op's syntax (a textio.forms.Form; None
    is the generic form). result types the results from the operands
    when create_op or the text gives none, as InferTypeOpInterface does,
    and gives [] for operands it cannot type.
    pure lets canonicalize erase the op when no result is used. slot is
    the ExecStats slot a run of the op counts in ("" for none); None marks
    an op the interpreter does not run.
    """

    name: str
    num_regions: int = 0
    variadic_regions: bool = False
    terminator: str | None = None
    is_terminator: bool = False
    check_creation: Callable[["Operation"], list] | None = None
    check_structure: Callable[["Operation"], list] | None = None
    form: Form | None = None
    result: Callable[[list], list] | None = None
    pure: bool = False
    slot: str | None = None


class DialectDef:
    def __init__(self, name: str, ops: Iterable[OpSchema] = ()):
        self.name = name
        self.ops: dict[str, OpSchema] = {schema.name: schema for schema in ops}
        for op_name in self.ops:
            assert op_name.startswith(name + "."), op_name


class DialectRegistry:
    """The registered dialects' ops, by name and by the word printed for
    an op when it is not the op's name."""

    def __init__(self):
        self.dialects: dict[str, DialectDef] = {}
        self.ops: dict[str, OpSchema] = {}
        self.mnemonics: dict[str, OpSchema] = {}

    def register(self, d: DialectDef) -> None:
        if d.name in self.dialects:
            raise DuplicateDialect(f"dialect {d.name!r} is already registered")
        self.dialects[d.name] = d
        self.ops.update(d.ops)
        for schema in d.ops.values():
            if schema.form is not None and schema.form.mnemonic:
                self.mnemonics[schema.form.mnemonic] = schema


# ---------------------------------------------------------------------------
# Context


class Context:
    """Owns dialect registrations and top-level modules."""

    def __init__(self):
        self.registry = DialectRegistry()
        self.modules: list[Operation] = []
        from staircase.dialects.schemas import BUILTIN_DIALECTS

        for dialect in BUILTIN_DIALECTS:
            self.registry.register(dialect)


def create_context() -> Context:
    return Context()


def register_dialect(ctx: Context, dialect: DialectDef) -> None:
    ctx.registry.register(dialect)


def create_module(ctx: Context, location: Location | None = None) -> Operation:
    module = Operation(ctx, "builtin.module", [], {}, [], 1, location)
    ctx.modules.append(module)
    return module


# ---------------------------------------------------------------------------
# Dominance

def _visible_before(value: Value, block: Block, before: Operation | None) -> bool:
    """True if `value` is visible just before `before` in `block` (None:
    at the block's end). Walk outward from `block`, each step to the block
    holding the op that holds the last one, until reaching the value's own
    block; there the definition must come before the point reached."""
    owner = value.owner
    if owner.__class__ is Block:
        while block is not owner:
            block = block.parent_op.parent
            if block is None:
                return False
        return True
    if owner.erased:
        return False
    home = owner.parent
    while block is not home:
        before = block.parent_op
        block = before.parent
        if block is None:
            return False
    return before is None or block.order_of(owner) < before._order


def _op_at(block: Block, index: int) -> Operation | None:
    """The op an insertion at `index` goes before; None at the end."""
    ops = block.ops
    index = _list_position(index, len(ops))
    return ops[index] if index < len(ops) else None


def value_visible_at(value: Value, block: Block, index: int) -> bool:
    """True if `value` dominates the insertion point (block, index)."""
    return _visible_before(value, block, _op_at(block, index))


def value_dominates_op(value: Value, user: Operation) -> bool:
    if user.parent is None:
        return False
    return _visible_before(value, user.parent, user)


# ---------------------------------------------------------------------------
# Core mutation operations


def create_op(
    block: Block,
    insert_index: int,
    name: str,
    operands: list = (),
    attributes: dict | None = None,
    result_types: list | None = None,
    region_count: int = 0,
    location: Location | None = None,
) -> Operation:
    """Create an operation and insert it at `insert_index` in `block`:
    the checked builder, so a builder's mistake fails where it is made.

    Without result_types, the schema's result rule gives them from the
    operands. Each operand must be a Value that dominates the insertion
    point, and the schema's creation checks run after construction; on
    failure the half-built op is detached so the IR is unchanged. The
    parser and clone_op build with Operation and Block.insert instead,
    and verify judges what they build.
    """
    ctx = block.ctx
    schema = ctx.registry.ops.get(name)
    if schema is None:
        raise UnknownOperation(f"no registered schema for {name!r}")
    if not schema.variadic_regions and region_count != schema.num_regions:
        raise TypeMismatch(
            f"{name} takes {schema.num_regions} region(s), got {region_count}"
        )
    operands = list(operands)
    before = _op_at(block, insert_index)
    for v in operands:
        if not isinstance(v, Value):
            raise TypeMismatch(f"operand of {name} is not a Value: {v!r}")
        if not _visible_before(v, block, before):
            raise DominanceViolation(
                f"operand {v!r} of {name} does not dominate the insertion point"
            )
    if result_types is None:
        result_types = schema.result(operands) if schema.result is not None else []
    op = Operation(ctx, name, operands, dict(attributes or {}), list(result_types),
                   region_count, location)
    if schema.check_creation is not None:
        problems = schema.check_creation(op)
        if problems:
            op.drop_operand_uses()
            op.erased = True
            raise TypeMismatch(f"{name}: " + "; ".join(problems))
    block.insert(insert_index, op)
    return op


def top_module(op: Operation) -> Operation:
    """The outermost op enclosing `op`, or `op` when nothing encloses it."""
    while op.parent is not None:
        op = op.parent.parent_op
    return op


class SymbolTable:
    """The symbols defined directly in an op's body, by name.

    A symbol is an op with a string sym_name. The first op to define a
    name keeps it; later ops defining it again are listed in duplicates.
    """

    def __init__(self, scope: Operation):
        self.symbols: dict[str, Operation] = {}
        self.duplicates: list[Operation] = []
        for op in scope.body().ops if scope.regions else ():
            name = self.name_of(op)
            if name in self.symbols:
                self.duplicates.append(op)
            elif name is not None:
                self.symbols[name] = op

    @staticmethod
    def name_of(op: Operation) -> str | None:
        """The symbol `op` defines, or None."""
        attr = op.attributes.get("sym_name")
        if isinstance(attr, Attribute) and attr.kind == "str":
            return attr.value
        return None

    def lookup(self, *path: str) -> Operation | None:
        """The op named by @a (path "a") or @a::@b ("a", "b"), or None."""
        op = self.symbols.get(path[0])
        if op is None or len(path) == 1:
            return op
        return SymbolTable(op).lookup(*path[1:])


def ancestors(op: Operation) -> Iterator[Operation]:
    """The ops enclosing `op`, innermost first."""
    block = op.parent
    while block is not None:
        owner = block.parent_op
        yield owner
        block = owner.parent


def count_ops(root: Operation) -> int:
    """The ops in the subtree rooted at `root`, root included."""
    return 1 + sum(count_ops(op) if op.regions else 1 for b in root.regions for op in b.ops)


def replace_all_uses_with(old: Value, new: Value) -> int:
    """Redirect every use of `old` to `new`; returns the number of uses
    redirected. `new` must have the same type and dominate every use."""
    if old.type != new.type:
        raise TypeMismatch(
            f"cannot replace uses of {old.type} value with {new.type} value"
        )
    if old is new:
        return len(old.uses)
    for user, _ in old.uses:
        if not value_dominates_op(new, user):
            raise DominanceViolation(
                f"replacement value does not dominate user {user.name}"
            )
    count = 0
    for user, slot in list(old.uses):
        user.set_operand(slot, new)
        count += 1
    assert not old.uses
    return count


def _detach_tree(op: Operation) -> None:
    for nested in chain((op,), op.walk_nested()):
        nested.drop_operand_uses()
        nested.erased = True


def erase_op(op: Operation) -> None:
    """Remove `op` from its block. All results must be unused; values
    produced by the op (and anything nested in it) become invalid."""
    for r in op.results:
        if r.uses:
            raise HasUses(
                f"cannot erase {op.name}: result {r.index} still has {len(r.uses)} use(s)"
            )
    _detach_tree(op)
    if op.parent is not None:
        op.parent.remove(op)


def move_op(op: Operation, block: Block, index: int) -> None:
    """Reparent `op` (with everything nested) to `block` at `index`."""
    if op.parent is not None:
        op.parent.remove(op)
    block.insert(index, op)


def merge_block(source: Block, dest: Block, values=()) -> None:
    """Move every op of `source` but its terminator to just before `dest`'s
    terminator, then redirect each use of `source.args[i]` to `values[i]`,
    as MLIR's `RewriterBase::mergeBlocks` does. `source` keeps its
    terminator; `dest` is renumbered at its next order query."""
    if len(values) != len(source.args):
        raise ArityMismatch(f"{len(values)} value(s) for a block with "
                           f"{len(source.args)} argument(s)")
    moved = source.ops[:source.insertion_index()]
    del source.ops[:len(moved)]
    dest.splice(dest.insertion_index(), moved)
    for arg, value in zip(source.args, values):
        replace_all_uses_with(arg, value)


def clone_op(
    op: Operation,
    block: Block | None = None,
    index: int = 0,
    value_map: dict | None = None,
) -> Operation:
    """Deep-copy `op` into `block` at `index`, or detached without a block.

    `value_map` maps old values to replacements; operands not in the map
    are used as-is (values defined outside the cloned subtree). The map is
    extended with the clone's results and block args. The copy is built
    unchecked, so verify it before use: an operand that does not dominate
    `index` is caught there, not here.
    """
    vmap = value_map if value_map is not None else {}
    new = Operation(op.ctx, op.name, [vmap.get(v, v) for v in op._operands],
                    dict(op.attributes), [r.type for r in op.results], len(op.regions),
                    op.location)
    if block is not None:
        block.insert(index, new)
    vmap.update(zip(op.results, new.results))
    if not op.regions:  # most ops: no blocks to walk
        return new
    for old_block, new_block in zip(op.regions, new.regions):
        for arg in old_block.args:
            vmap[arg] = new_block.add_arg(arg.type)
        new_block.splice(0, [clone_op(c, value_map=vmap) for c in old_block.ops])
    return new


def clone_module(module: Operation) -> Operation:
    """Deep-copy a top-level module within its context, unchecked as
    clone_op builds."""
    clone = clone_op(module)
    module.ctx.modules.append(clone)
    return clone
