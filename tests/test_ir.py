"""Core IR: types, SSA bookkeeping, mutation helpers, verifier."""
import copy
import glob
import os
import pickle

import pytest

from conftest import (
    GOLDEN_DIR,
    context_with_test_ops,
    ir_layout,
    visible_by_definition,
)
from irgen import random_module
from staircase.dialects.builders import (
    build_arith_binop,
    build_constant,
    build_func,
    build_gpu_launch,
    build_index_constant,
    build_scf_for,
    build_scf_if,
)
from staircase.errors import (
    ArityMismatch,
    DominanceViolation,
    DuplicateDialect,
    DuplicateSymbol,
    HasUses,
    SignatureMismatch,
    TypeMismatch,
    UnknownOperation,
    UnknownSymbol,
    VerificationFailed,
)
from staircase.ir.core import (
    F64,
    I1,
    INDEX,
    Attribute,
    Block,
    DialectDef,
    IRType,
    Location,
    Operation,
    OpSchema,
    array_attr,
    attr_from,
    clone_module,
    clone_op,
    count_ops,
    create_context,
    create_module,
    create_op,
    dict_attr,
    erase_op,
    float_attr,
    int_attr,
    memref_type,
    merge_block,
    move_op,
    register_dialect,
    replace_all_uses_with,
    str_attr,
    symbol_attr,
    type_attr,
    unit_attr,
    value_dominates_op,
    value_visible_at,
)
from staircase.ir import core
from staircase.ir.verify import verify, verify_or_raise
from staircase.passes.canonicalize import canonicalize
from staircase.textio import parse_module, print_module

INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")

def _func(ctx, params=(), name="f"):
    module = create_module(ctx)
    func = build_func(module, name, params)
    return module, func, func.body()


class TestTypes:
    def test_scalar_identity(self):
        assert F64.kind == "f64" and F64.is_float and not F64.is_int
        assert INDEX.is_int and str(INDEX) == "index"
        assert IRType("f64") is F64

    def test_memref_structure(self):
        ty = memref_type((4, 8), F64)
        assert ty.rank == 2 and ty.shape == (4, 8) and ty.element == F64
        assert str(ty) == "memref<4x8xf64>"

    def test_memref_validation(self):
        with pytest.raises(TypeMismatch):
            memref_type((4,), memref_type((2,), F64))
        with pytest.raises(TypeMismatch):
            memref_type((), F64)
        with pytest.raises(TypeMismatch):
            memref_type((0,), F64)
        with pytest.raises(TypeMismatch):
            IRType("f64", shape=(2,))
        with pytest.raises(TypeMismatch):
            IRType("quaternion")

    def test_types_are_uniqued(self):
        ty = memref_type((4, 8), F64)
        assert memref_type([4, 8], F64) is ty
        assert IRType("memref", (4, 8), IRType("f64")) is ty
        assert memref_type((8, 4), F64) is not ty and ty != memref_type((8, 4), F64)
        assert copy.copy(ty) is ty and copy.deepcopy(ty) is ty
        assert pickle.loads(pickle.dumps(ty)) is ty

    @pytest.mark.parametrize("kind, shape, element, message", [
        ("quaternion", (), None, "unknown type kind 'quaternion'"),
        ("memref", (0,), F64, "memref extents must be static integers >= 1, got 0"),
        ("memref", (4.0,), F64, "memref extents must be static integers >= 1, got 4.0"),
        ("memref", (True,), F64, "memref extents must be static integers >= 1, got True"),
        ("memref", (), F64, "memref requires at least one extent"),
        ("f64", (2,), None, "scalar type f64 takes no shape/element"),
    ], ids=["kind", "zero-extent", "float-extent", "bool-extent", "no-extent",
            "scalar-shape"])
    def test_an_invalid_type_is_refused_every_time_and_kept_nowhere(
            self, kind, shape, element, message):
        memref_type((4,), F64)  # valid types equal to the float and bool extents
        memref_type((1,), F64)
        table = dict(core._UNIQUED)
        for _ in range(2):
            with pytest.raises(TypeMismatch) as info:
                IRType(kind, shape, element)
            assert str(info.value) == message
        assert core._UNIQUED == table

    def test_types_are_dict_keys(self):
        sizes = {F64: 8, memref_type((2, 3), F64): 48}
        assert sizes[IRType("f64")] == 8
        assert sizes[memref_type((2, 3), IRType("f64"))] == 48
        assert memref_type((3, 2), F64) not in sizes


class TestAttributes:
    def test_kinds(self):
        assert int_attr(3).kind == "int" and int_attr(3).value == 3
        assert float_attr(2.5).kind == "float"
        assert str_attr("x").kind == "str"
        assert type_attr(F64).kind == "type"
        assert array_attr([int_attr(1)]).kind == "array"
        assert dict_attr({"a": int_attr(1)}).kind == "dict"
        assert symbol_attr("m", "k").kind == "symbol"
        assert unit_attr().kind == "unit"

    def test_attr_from_coercion(self):
        assert attr_from(3) == int_attr(3)
        assert attr_from(2.5) == float_attr(2.5)
        assert attr_from("s") == str_attr("s")


class TestValueClasses:
    """Attribute and Location are immutable values: equal and hashed by
    their fields, with no field to assign or delete, no name to add, and
    equal to their copies and pickles."""

    @pytest.mark.parametrize("make, fields, other", [
        (Attribute, ("int", 3), ("int", 4)),
        (Attribute, ("dict", (("a", Attribute("unit")),)), ("dict", ())),
        (Location, ("<input>", 3, 5), ("<input>", 3, 6)),
    ], ids=["attribute", "nested-attribute", "location"])
    def test_equal_and_hashed_by_fields(self, make, fields, other):
        value = make(*fields)
        assert value == make(*fields) and value is not make(*fields)
        assert hash(value) == hash(make(*fields))
        assert {value: 1}[make(*fields)] == 1
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        assert value != make(*other) and value != fields
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        # a frozen slotted dataclass raises TypeError, not AttributeError,
        # for a name that is not a field (so on Python 3.10-3.13)
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
        assert make(*fields) == value

    def test_a_location_prints_as_file_and_line(self):
        loc = Location("k.py", 4)
        assert (loc.file, loc.line, loc.column) == ("k.py", 4, 0)
        assert str(loc) == "k.py:4"
        assert repr(loc) == "Location(file='k.py', line=4, column=0)"
        assert repr(int_attr(3)) == "Attribute(kind='int', value=3)"
        assert Location("k.py", 4) != Attribute("str", "k.py")

    @pytest.mark.parametrize("make, message", [
        (lambda: Location("k.py", 0), "location line must be >= 1 and column >= 0"),
        (lambda: Location("k.py", 1, -1), "location line must be >= 1 and column >= 0"),
        (lambda: Attribute("complex", 1j), "unknown attribute kind 'complex'"),
    ], ids=["line", "column", "kind"])
    def test_a_bad_field_is_refused(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


class TestSSA:
    def test_results_and_uses(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        b = build_constant(body, 2.0)
        add = build_arith_binop(body, "arith.addf", a, b)
        op = add.defining_op
        assert op.operands == (a, b)
        assert a.defining_op.name == "arith.constant"
        assert not a.is_block_arg
        assert [user for user, _ in a.uses] == [op]

    def test_results_and_regions_are_tuples(self, ctx):
        _, func, body = _func(ctx)
        ret = body.ops[-1]  # func.return: no result, no region
        assert ret.results == () and ret.regions == ()
        assert type(ret.results) is tuple and type(ret.regions) is tuple
        assert func.results == () and func.regions == (body,)
        a = build_constant(body, 1.0)
        assert a.defining_op.results == (a,) and a.defining_op.regions == ()
        clone = clone_op(func)
        assert clone.results == () and type(clone.regions) is tuple
        assert len(clone.regions) == 1 and clone.regions[0] is not body

    def test_block_args(self, ctx):
        _, func, body = _func(ctx, [memref_type((4,), F64)])
        arg = body.args[0]
        assert arg.is_block_arg and arg.defining_op is None
        assert arg.owner is body

    def test_set_operand_moves_use(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        b = build_constant(body, 2.0)
        add = build_arith_binop(body, "arith.addf", a, a).defining_op
        operands = add.operands
        assert add.operands is operands  # no copy per read
        add.set_operand(1, b)
        assert len(a.uses) == 1
        assert len(b.uses) == 1
        assert add.operands == (a, b) and operands == (a, a)

    def test_dominance_checked_at_creation(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        with pytest.raises(DominanceViolation):
            create_op(body, 0, "arith.addf", operands=[a, a],
                      result_types=[F64])

    def test_non_value_operand_rejected_at_creation(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        ops = list(body.ops)
        with pytest.raises(TypeMismatch) as info:
            create_op(body, 1, "arith.addf", operands=[a, 2.0], result_types=[F64])
        assert str(info.value) == "operand of arith.addf is not a Value: 2.0"
        assert body.ops == ops and not a.uses

    def test_value_from_closed_region_rejected(self, ctx):
        _, _, body = _func(ctx)
        lb = build_index_constant(body, 0)
        ub = build_index_constant(body, 4)
        st = build_index_constant(body, 1)
        loop = build_scf_for(body, lb, ub, st)
        inner = build_constant(loop.body(), 1.0)
        with pytest.raises(DominanceViolation):
            create_op(body, body.insertion_index(), "arith.addf",
                      operands=[inner, inner], result_types=[F64])


    def test_builder_at_an_op_inserts_before_it(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        last = build_arith_binop(body, "arith.addf", a, a).defining_op
        b = build_constant(last, 2.0)
        mul = build_arith_binop(last, "arith.mulf", a, b).defining_op
        for _ in range(40):  # enough to use up the gap before one op
            build_arith_binop(mul, "arith.subf", a, b)
        assert [op.name for op in body.ops] == (
            ["arith.constant"] * 2 + ["arith.subf"] * 40
            + ["arith.mulf", "arith.addf", "func.return"])
        assert [op.block_index() for op in body.ops] == list(range(45))
        orders = [body.order_of(op) for op in body.ops]
        assert orders == sorted(set(orders))
        assert body.renumbers > 0

    def test_builder_at_an_op_checks_dominance(self, ctx):
        _, _, body = _func(ctx)
        first = build_constant(body, 1.0).defining_op
        late = build_constant(body, 2.0)
        with pytest.raises(DominanceViolation):
            build_arith_binop(first, "arith.addf", late, late)
        assert len(body.ops) == 3 and not late.uses


def _dominance_mismatches(root):
    """(value, op) and (value, block, index) queries whose answer differs
    from the definition, and how many queries came out True and False."""
    layout = ops_at, holder = ir_layout(root)
    values = [v for block in holder for v in block.args]
    values += [r for op in ops_at for r in op.results]
    wrong, answers = [], {True: 0, False: 0}
    for v in values:
        for user, (block, index) in ops_at.items():
            want = visible_by_definition(v, block, index, layout)
            answers[want] += 1
            if value_dominates_op(v, user) != want:
                wrong.append((v, user.name, index))
        for block in holder:
            want = visible_by_definition(v, block, len(block.ops), layout)
            if value_visible_at(v, block, len(block.ops)) != want:
                wrong.append((v, "end of block", len(block.ops)))
    return wrong, answers


def _sir_modules():
    paths = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.sir"))
                   + glob.glob(os.path.join(INPUTS, "*.sir")))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), parse_module(
                fh.read(), context_with_test_ops())


class TestDominance:
    def test_matches_the_definition_on_the_corpus(self):
        modules = [(f"irgen {seed}", random_module(seed)) for seed in range(60)]
        modules += list(_sir_modules())
        totals = {True: 0, False: 0}
        for name, module in modules:
            wrong, answers = _dominance_mismatches(module)
            assert wrong == [], name
            totals[True] += answers[True]
            totals[False] += answers[False]
        assert min(totals.values()) > 10000

    def test_matches_the_definition_while_a_renumber_is_pending(self, ctx):
        module, _, body = _func(ctx, [F64])
        a = body.args[0]
        build_arith_binop(body, "arith.addf", a, a)
        # operands that are block arguments make create_op query no order
        # number, so nothing renumbers the block once its gaps are used up
        for _ in range(12):
            create_op(body, 1, "arith.mulf", operands=[a, a],
                      result_types=[F64])
        assert not body._order_valid
        wrong, answers = _dominance_mismatches(module)
        assert wrong == [] and answers[True] and answers[False]

    def test_values_from_closed_regions_are_not_visible(self, ctx):
        _, _, body = _func(ctx)
        lb = build_index_constant(body, 0)
        ub = build_index_constant(body, 4)
        st = build_index_constant(body, 1)
        loop = build_scf_for(body, lb, ub, st)
        inner = build_constant(loop.body(), 1.0)
        after = build_constant(body, 2.0).defining_op
        iv = loop.body().args[0]
        assert value_dominates_op(lb, inner.defining_op)
        assert not value_dominates_op(inner, after)
        assert not value_dominates_op(iv, after)
        assert not value_visible_at(inner, body, len(body.ops))
        assert value_visible_at(inner, loop.body(), len(loop.body().ops))

    def test_erased_definitions_are_not_visible(self, ctx):
        _, _, body = _func(ctx)
        lb = build_index_constant(body, 0)
        ub = build_index_constant(body, 4)
        st = build_index_constant(body, 1)
        loop = build_scf_for(body, lb, ub, st)
        loop_body = loop.body()
        inner = build_constant(loop_body, 1.0)
        gone = build_constant(body, 2.0)
        erase_op(gone.defining_op)
        erase_op(loop)
        # the inner op keeps its place in the erased loop's body
        assert inner.defining_op.parent is loop_body
        user = build_constant(body, 3.0).defining_op
        for v in (gone, inner):
            assert not value_dominates_op(v, user)
            assert not value_visible_at(v, body, len(body.ops))
        assert not value_visible_at(inner, loop_body, len(loop_body.ops))
        assert not value_dominates_op(st, inner.defining_op)
        with pytest.raises(DominanceViolation):
            create_op(body, body.insertion_index(), "arith.addf",
                      operands=[gone, gone], result_types=[F64])


class TestMutation:
    def test_erase_requires_no_uses(self, ctx):
        _, _, body = _func(ctx, [F64])
        a = build_constant(body, 1.0)
        add = build_arith_binop(body, "arith.addf", a, a).defining_op
        assert repr(a) == "<Value f64 (result 0 of arith.constant)>"
        assert repr(body.args[0]) == "<Value f64 (arg 0)>"
        with pytest.raises(HasUses) as info:
            erase_op(a.defining_op)
        assert str(info.value) == (
            "cannot erase arith.constant: result 0 still has 2 use(s)")
        const = a.defining_op
        erase_op(add)
        erase_op(const)
        assert const.erased and add.erased
        assert [op.name for op in body.ops] == ["func.return"]

    def test_erase_detaches_regions(self, ctx):
        _, _, body = _func(ctx)
        lb = build_index_constant(body, 0)
        ub = build_index_constant(body, 4)
        st = build_index_constant(body, 1)
        loop = build_scf_for(body, lb, ub, st)
        inner = build_constant(loop.body(), 1.0).defining_op
        erase_op(loop)
        assert loop.erased and inner.erased

    def test_replace_all_uses(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        b = build_constant(body, 2.0)
        add = build_arith_binop(body, "arith.addf", a, a).defining_op
        n = replace_all_uses_with(a, b)
        assert n == 2
        assert add.operands == (b, b)
        assert not a.uses

    def test_replace_type_checked(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        i = build_index_constant(body, 2)
        build_arith_binop(body, "arith.addf", a, a)
        with pytest.raises(TypeMismatch):
            replace_all_uses_with(a, i)

    def test_replace_dominance_checked(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        build_arith_binop(body, "arith.addf", a, a)
        late = build_constant(body, 3.0)
        with pytest.raises(DominanceViolation):
            replace_all_uses_with(a, late)

    def test_move_op(self, ctx):
        _, _, body = _func(ctx)
        lb = build_index_constant(body, 0)
        ub = build_index_constant(body, 4)
        st = build_index_constant(body, 1)
        loop = build_scf_for(body, lb, ub, st)
        c = build_constant(body, 1.0).defining_op
        move_op(c, loop.body(), 0)
        assert c.parent is loop.body()
        assert loop.body().ops[0] is c
        assert c not in body.ops

    def test_merge_block(self, ctx, monkeypatch):
        module, _, body = _func(ctx)
        lb, ub, st = (build_index_constant(body, v) for v in (0, 4, 1))
        source = build_scf_for(body, lb, ub, st)
        dest = build_scf_for(body, lb, ub, st)
        i, j = source.body().args[0], dest.body().args[0]
        x = build_arith_binop(source.body(), "arith.addi", i, i)
        y = build_arith_binop(source.body(), "arith.muli", x, i)
        nested = build_scf_for(source.body(), lb, i, st)
        kept = build_constant(dest.body(), 1.0).defining_op
        with pytest.raises(ArityMismatch):
            merge_block(source.body(), dest.body())
        spliced = []
        splice = Block.splice
        monkeypatch.setattr(Block, "splice", lambda block, index, ops: (
            spliced.append((block, index, len(ops))), splice(block, index, ops)))
        merge_block(source.body(), dest.body(), [j])
        assert spliced == [(dest.body(), 1, 3)]  # one splice, before the yield
        assert [op.name for op in source.body().ops] == ["scf.yield"]
        moved = dest.body().ops
        assert moved[0] is kept and moved[-1].name == "scf.yield"
        assert [op.name for op in moved[1:-1]] == ["arith.addi", "arith.muli",
                                                   "scf.for"]
        assert not i.uses
        assert x.defining_op.operands == (j, j)
        assert y.defining_op.operands == (x, j)
        assert nested.operands[1] is j
        assert [op.block_index() for op in moved] == list(range(len(moved)))
        assert all(op.parent is dest.body() for op in moved)
        erase_op(source)
        verify_or_raise(module)

    def test_clone_op_remaps_operands(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        b = build_constant(body, 2.0)
        add = build_arith_binop(body, "arith.addf", a, a).defining_op
        twin = clone_op(add, body, body.insertion_index(), value_map={a: b})
        assert twin.operands == (b, b)
        assert twin.results[0] is not add.results[0]

    def test_clone_module_is_independent(self, ctx):
        module, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        build_arith_binop(body, "arith.addf", a, a)
        before = print_module(module)
        twin = clone_module(module)
        assert print_module(twin) == before
        erase_op(twin.body().ops[0].body().ops[-2])
        assert print_module(module) == before
        assert twin in ctx.modules


class TestOrderIndex:
    """Counts, not timings: how often a long block is renumbered."""

    def _long_block(self, steps):
        """A straight-line function of 5 ops a step; each step's mulf folds."""
        lines = ["module {",
                 "  func.func @f(%arg0: memref<64xf64>, %arg1: f64) {"]
        for k in range(steps):
            v = 4 * k
            lines += [
                f"    %{v} = arith.constant {k % 64} : index",
                f"    %{v + 1} = arith.constant {k}.5 : f64",
                f"    %{v + 2} = arith.mulf %{v + 1}, %{v + 1} : f64",
                f"    %{v + 3} = arith.addf %arg1, %{v + 2} : f64",
                f"    memref.store %{v + 3}, %arg0[%{v}] : memref<64xf64>",
            ]
        lines += ["    return", "  }", "}", ""]
        return "\n".join(lines)

    def test_long_block_is_renumbered_rarely(self, ctx, monkeypatch):
        module = parse_module(self._long_block(800), ctx)
        func = module.body().ops[0]
        body = func.body()
        assert len(body.ops) == 4001
        assert module.body().renumbers == body.renumbers == 0
        inserted = []
        insert = Block.insert
        monkeypatch.setattr(Block, "insert", lambda block, index, op: (
            inserted.append(op), insert(block, index, op)))
        canonicalize(func)
        assert len(inserted) == 800
        assert body.renumbers <= len(inserted) // 100
        assert verify(module) == []

    @pytest.mark.parametrize("at", [2, -1], ids=["middle", "before-terminator"])
    def test_a_splice_is_renumbered_once_in_list_order(self, ctx, at):
        module, _, body = _func(ctx, [F64])
        x = body.args[0]
        for _ in range(3):
            x = build_arith_binop(body, "arith.addf", x, x)
        assert [body.order_of(op) for op in body.ops]  # numbering valid
        renumbers = body.renumbers
        source = body.ops[at - 1].results[0]
        made = []
        for _ in range(3):
            made.append(Operation(ctx, "arith.mulf", [source, source], {},
                                  [F64], 0, None))
            source = made[-1].results[0]
        ops = list(body.ops)
        ops[at:at] = made
        body.splice(at, made)
        assert body.ops == ops and body.renumbers == renumbers
        for i, op in enumerate(ops):
            assert op.parent is body and body.position(op) == i
            assert value_visible_at(source, body, i) == (i > ops.index(made[-1]))
        orders = [body.order_of(op) for op in ops]
        assert orders == sorted(set(orders))
        assert body.renumbers == renumbers + 1
        assert verify(module) == []

    def test_ops_built_before_the_terminator_are_not_renumbered(self, ctx):
        module, _, body = _func(ctx, [F64])
        x = body.args[0]
        for _ in range(2000):
            x = build_arith_binop(body, "arith.addf", x,
                                  build_constant(body, 1.0))
        assert len(body.ops) == 4001
        assert body.renumbers == 0
        assert verify(module) == []


class TestWalk:
    def _nested(self, ctx):
        module, func, body = _func(ctx)
        lb = build_index_constant(body, 0)
        ub = build_index_constant(body, 4)
        st = build_index_constant(body, 1)
        loop = build_scf_for(body, lb, ub, st)
        build_constant(loop.body(), 1.0)
        return module, func, loop

    def test_count_ops(self, ctx):
        module, _, _ = self._nested(ctx)
        names = [op.name for op in module.walk_nested()]
        assert names == ["func.func", "arith.constant", "arith.constant",
                         "arith.constant", "scf.for", "arith.constant",
                         "scf.yield", "func.return"]
        assert count_ops(module) == 1 + len(names)


class TestDialectRegistry:
    def test_unknown_op_rejected(self, ctx):
        _, _, body = _func(ctx)
        with pytest.raises(UnknownOperation):
            create_op(body, 0, "nosuch.op")

    def test_duplicate_dialect_rejected(self, ctx):
        register_dialect(ctx, DialectDef("ext", [OpSchema("ext.thing")]))
        with pytest.raises(DuplicateDialect):
            register_dialect(ctx, DialectDef("ext"))

    def test_registered_op_usable(self, ctx):
        register_dialect(ctx, DialectDef("ext", [OpSchema("ext.mark")]))
        _, _, body = _func(ctx)
        op = create_op(body, 0, "ext.mark", result_types=[F64])
        assert op.dialect == "ext"

    def test_duplicate_symbol_rejected(self, ctx):
        module = create_module(ctx)
        build_func(module, "twice", [])
        with pytest.raises(DuplicateSymbol):
            build_func(module, "twice", [])


class TestVerifier:
    def test_clean_module_verifies(self, ctx):
        module, _, body = _func(ctx)
        build_constant(body, 1.0)
        assert verify(module) == []
        verify_or_raise(module)

    def test_wrong_terminator_reported(self, ctx):
        module, func, body = _func(ctx)
        erase_op(body.ops[-1])
        create_op(body, len(body.ops), "scf.yield")
        diags = verify(module)
        assert len(diags) == 1
        assert "func.return" in diags[0].message
        with pytest.raises(VerificationFailed):
            verify_or_raise(module)

    def test_missing_terminator_reported(self, ctx):
        module, func, body = _func(ctx)
        erase_op(body.ops[-1])
        diags = verify(module)
        assert diags and any("termin" in d.message or "func.return" in d.message
                             for d in diags)

    def test_operand_defined_after_its_user_reported(self, ctx):
        module, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        add = build_arith_binop(body, "arith.addf", a, a).defining_op
        move_op(a.defining_op, body, 1)    # after its user, before the return
        assert [op.name for op in body.ops] == [
            "arith.addf", "arith.constant", "func.return"]
        assert [d.message for d in verify(module)] == [
            "operand 0 is not visible at this point",
            "operand 1 is not visible at this point",
        ]
        assert all(d.op_name == "arith.addf" for d in verify(module))
        move_op(add, body, 1)
        assert verify(module) == []

    def test_call_types_and_an_early_terminator_reported_in_walk_order(self):
        module = parse_module("""\
module {
  func.func @g(%arg0: f64) -> (f64) {
    return %arg0 : f64
  }
  func.func @f() {
    %0 = arith.constant 1.0 : f32
    %1 = func.call @g(%0) : (f32) -> (i32)
    %2 = arith.constant 2.0 : f64
    %3 = func.call @g(%2) : (f64) -> (f64)
    return
    return
  }
}
""", create_context())
        # the early return is the enclosing function's finding, so it comes
        # before those of the ops nested in the function
        assert [(d.op_name, d.location.line, d.message) for d in verify(module)] == [
            ("func.return", 10, "terminator is not the last operation in its block"),
            ("func.call", 7, "call operand types do not match @g parameters"),
            ("func.call", 7, "call result types do not match @g results"),
        ]

    def test_every_early_terminator_reported_after_its_region_check(self, ctx):
        module, func, body = _func(ctx)
        loop = build_scf_for(body, *[build_index_constant(body, n) for n in (0, 4, 1)])
        inner = loop.body()
        create_op(inner, 0, "scf.yield")
        create_op(inner, 0, "scf.yield")
        create_op(body, 0, "func.return")
        erase_op(inner.ops[-1])
        create_op(inner, len(inner.ops), "arith.constant",
                  attributes={"value": int_attr(1)}, result_types=[INDEX])
        assert [(d.op_name, d.message) for d in verify(module)] == [
            ("func.return", "terminator is not the last operation in its block"),
            ("scf.for", "region must end with scf.yield"),
            ("scf.yield", "terminator is not the last operation in its block"),
            ("scf.yield", "terminator is not the last operation in its block"),
        ]

    def test_missing_use_entry_reported(self, ctx):
        module, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        add = build_arith_binop(body, "arith.addf", a, a).defining_op
        del a.uses[add, 1]
        assert [d.message for d in verify(module)] == [
            "operand 1 use-list does not record this use",
        ]

    def test_condition_type_checked_in_if(self, ctx):
        _, _, body = _func(ctx)
        a = build_constant(body, 1.0)
        with pytest.raises(TypeMismatch):
            build_scf_if(body, a)

    def test_fractional_integer_constant_rejected(self, ctx):
        _, _, body = _func(ctx)
        with pytest.raises(TypeMismatch, match="cannot use 2.5 where a index"):
            build_constant(body, 2.5, INDEX)
        assert build_constant(body, 2.0, INDEX).defining_op.attributes["value"] \
            == int_attr(2)

    def test_symbols_resolve_once_for_verify_and_builders(self, ctx):
        module = parse_module("""\
module attributes {gpu.container_module} {
  gpu.module @M {
    gpu.func @k(%arg0: f64) kernel {
      gpu.return
    }
  }
  func.func @f(%arg0: memref<4xf64>) {
    %0 = arith.constant 1 : index
    gpu.launch_func @M::@k blocks in (%0, %0, %0) threads in (%0, %0, %0) args(%arg0 : memref<4xf64>)
    gpu.launch_func @M::@j blocks in (%0, %0, %0) threads in (%0, %0, %0) args()
    gpu.launch_func @N::@k blocks in (%0, %0, %0) threads in (%0, %0, %0) args()
    func.call @g() : () -> ()
    return
  }
  func.func @f() {
    return
  }
}
""", ctx)
        assert [d.message for d in verify(module)] == [
            "duplicate symbol @f",
            "kernel @k takes (f64), launch passes (memref<4xf64>)",
            "no kernel @j in gpu.module @M",
            "no gpu.module @N in this module",
            "call to unknown function @g",
        ]
        func = module.body().ops[1]
        one = func.body().ops[0].results[0]
        with pytest.raises(SignatureMismatch, match="launch passes .memref<4xf64>"):
            build_gpu_launch(func.body(), "M", "k", [one] * 3, [one] * 3,
                             func.body().args)
        with pytest.raises(UnknownSymbol, match="no kernel @j in gpu.module @M"):
            build_gpu_launch(func.body(), "M", "j", [one] * 3, [one] * 3, [])

    def test_i1_condition_accepted(self, ctx):
        _, _, body = _func(ctx)
        c = create_op(body, body.insertion_index(), "arith.constant",
                      attributes={"value": int_attr(1)}, result_types=[I1])
        branch = build_scf_if(body, c.results[0], with_else=True)
        assert len(branch.regions) == 2
