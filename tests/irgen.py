"""Deterministic random module builder for round-trip and pass tests.

Builds structurally valid modules out of the core dialects with a seeded
RNG: nested counted loops, conditionals, parallel nests, arithmetic
chains, and memory traffic. Every module is verified before it is
returned, so a failure here is a generator bug, not test noise.
"""
import random

from staircase.dialects.builders import build_func
from staircase.interp import Buffer
from staircase.ir.core import (
    F32,
    F64,
    I1,
    I32,
    I64,
    INDEX,
    IRType,
    create_context,
    create_op,
    create_module,
    float_attr,
    int_attr,
    str_attr,
    memref_type,
)
from staircase.ir.verify import verify_or_raise
from staircase.textio import parse_module

_BINOPS_F = ("arith.addf", "arith.subf", "arith.mulf")
_BINOPS_I = ("arith.addi", "arith.subi", "arith.muli")

# The share of memref indices picked without regard to their extent, so
# that a few seeds still run out of bounds.
STRAY = 0.2


class _Scope:
    """Values visible at the current insertion point, grouped by kind, and
    the largest value each index value can take."""

    def __init__(self, parent=None):
        self.parent = parent
        self.values = {"index": [], "f64": [], "i64": [], "i1": [],
                       "memref": []}
        self.tops = parent.tops if parent else {}

    def add(self, value, top=None):
        kind = value.type.kind
        if kind in self.values:
            self.values[kind].append(value)
        if top is not None:
            self.tops[value] = top

    def all_of(self, kind):
        out = []
        scope = self
        while scope is not None:
            out.extend(scope.values[kind])
            scope = scope.parent
        return out


def _const(block, rng, scope, kind, below=8):
    if kind == "index":
        attr, ty = int_attr(rng.randrange(0, below)), INDEX
    elif kind == "i64":
        attr, ty = int_attr(rng.randrange(-30, 30)), I64
    else:
        attr, ty = float_attr(round(rng.uniform(-4.0, 4.0), 3)), F64
    op = create_op(block, block.insertion_index(), "arith.constant",
                   attributes={"value": attr}, result_types=[ty])
    scope.add(op.results[0], attr.value if kind == "index" else None)
    return op.results[0]


def _index(block, rng, scope, extent):
    """An index value for a dimension of ``extent``: one that stays inside
    it, but for a STRAY share, one of any value."""
    values = _ensure(block, rng, scope, "index", 1)
    if rng.random() < STRAY:
        return rng.choice(values)
    inside = [v for v in values if scope.tops[v] < extent]
    if inside:
        return rng.choice(inside)
    return _const(block, rng, scope, "index", below=extent)


def _ensure(block, rng, scope, kind, n=1):
    values = scope.all_of(kind)
    while len(values) < n:
        _const(block, rng, scope, kind)
        values = scope.all_of(kind)
    return values


def _emit_flat(block, rng, scope):
    """One non-region op appended to block."""
    roll = rng.random()
    if roll < 0.25:
        _const(block, rng, scope, rng.choice(("index", "i64", "f64")))
        return
    if roll < 0.45:
        kind, names = (("f64", _BINOPS_F) if rng.random() < 0.6
                       else ("i64", _BINOPS_I))
        vals = _ensure(block, rng, scope, kind, 2)
        op = create_op(block, block.insertion_index(), rng.choice(names),
                       operands=[rng.choice(vals), rng.choice(vals)],
                       result_types=[vals[0].type])
        scope.add(op.results[0])
        return
    if roll < 0.55:
        vals = _ensure(block, rng, scope, "f64", 2)
        op = create_op(block, block.insertion_index(), "arith.cmpf",
                       operands=[rng.choice(vals), rng.choice(vals)],
                       attributes={"predicate": str_attr("olt")},
                       result_types=[IRType("i1")])
        scope.add(op.results[0])
        return
    if roll < 0.65:
        vals = _ensure(block, rng, scope, "index", 1)
        op = create_op(block, block.insertion_index(), "arith.index_cast",
                       operands=[rng.choice(vals)], result_types=[I64])
        scope.add(op.results[0])
        return
    memrefs = scope.all_of("memref")
    if not memrefs:
        shape = tuple(rng.randrange(2, 9) for _ in range(rng.randrange(1, 3)))
        op = create_op(block, block.insertion_index(),
                       rng.choice(("memref.alloc", "memref.alloca")),
                       result_types=[memref_type(shape, F64)])
        scope.add(op.results[0])
        return
    buf = rng.choice(memrefs)
    indices = [_index(block, rng, scope, extent) for extent in buf.type.shape]
    if rng.random() < 0.5:
        op = create_op(block, block.insertion_index(), "memref.load",
                       operands=[buf, *indices],
                       result_types=[buf.type.element])
        scope.add(op.results[0])
    else:
        vals = _ensure(block, rng, scope, "f64", 1)
        create_op(block, block.insertion_index(), "memref.store",
                  operands=[rng.choice(vals), buf, *indices])


def _emit_region_op(block, rng, scope, depth):
    roll = rng.random()
    if roll < 0.35:
        lb = _const(block, rng, scope, "index")
        ub = _const(block, rng, scope, "index")
        step_op = create_op(block, block.insertion_index(), "arith.constant",
                            attributes={"value": int_attr(rng.randrange(1, 4))},
                            result_types=[INDEX])
        scope.add(step_op.results[0], step_op.attributes["value"].value)
        loop = create_op(block, block.insertion_index(), "scf.for",
                         operands=[lb, ub, step_op.results[0]],
                         region_count=1)
        body = loop.body()
        body.add_arg(INDEX)
        inner = _Scope(scope)
        inner.add(body.args[0], scope.tops[ub] - 1)
        _fill_block(body, rng, inner, depth - 1)
        create_op(body, len(body.ops), "scf.yield")
        return
    if roll < 0.55:
        ub = rng.randrange(1, 9)
        loop = create_op(block, block.insertion_index(), "affine.for",
                         attributes={
                             "lower_bound": int_attr(0),
                             "upper_bound": int_attr(ub),
                             "step": int_attr(rng.randrange(1, 3)),
                         }, region_count=1)
        body = loop.body()
        body.add_arg(INDEX)
        inner = _Scope(scope)
        inner.add(body.args[0], ub - 1)
        _fill_block(body, rng, inner, depth - 1)
        create_op(body, len(body.ops), "scf.yield")
        return
    if roll < 0.8:
        vals = _ensure(block, rng, scope, "f64", 2)
        cond = create_op(block, block.insertion_index(), "arith.cmpf",
                         operands=[rng.choice(vals), rng.choice(vals)],
                         attributes={"predicate": str_attr(rng.choice(("olt", "ogt")))},
                         result_types=[IRType("i1")])
        branch = create_op(block, block.insertion_index(), "scf.if",
                           operands=[cond.results[0]], region_count=2)
        for body in branch.regions:
            _fill_block(body, rng, _Scope(scope), depth - 1)
            create_op(body, len(body.ops), "scf.yield")
        return
    arity = rng.randrange(1, 3)
    bounds = []
    for _ in range(arity):
        bounds.append(_const(block, rng, scope, "index"))
    ubs = [_const(block, rng, scope, "index") for _ in range(arity)]
    steps = []
    for _ in range(arity):
        op = create_op(block, block.insertion_index(), "arith.constant",
                       attributes={"value": int_attr(rng.randrange(1, 3))},
                       result_types=[INDEX])
        steps.append(op.results[0])
    loop = create_op(block, block.insertion_index(), "scf.parallel",
                     operands=[*bounds, *ubs, *steps], region_count=1)
    body = loop.body()
    inner = _Scope(scope)
    for ub in ubs:
        inner.add(body.add_arg(INDEX), scope.tops[ub] - 1)
    _fill_block(body, rng, inner, depth - 1)
    create_op(body, len(body.ops), "scf.yield")


def _fill_block(block, rng, scope, depth):
    for _ in range(rng.randrange(1, 5)):
        if depth > 0 and rng.random() < 0.4:
            _emit_region_op(block, rng, scope, depth)
        else:
            _emit_flat(block, rng, scope)


def random_module(seed: int, ctx=None):
    rng = random.Random(seed)
    ctx = ctx or create_context()
    module = create_module(ctx)
    n_params = rng.randrange(0, 3)
    params = []
    for _ in range(n_params):
        shape = tuple(rng.randrange(2, 7) for _ in range(rng.randrange(1, 3)))
        params.append(memref_type(shape, F64))
    func = build_func(module, f"gen{seed % 1000}", params)
    body = func.body()
    scope = _Scope()
    for arg in body.args:
        scope.add(arg)
    _fill_block(body, rng, scope, depth=rng.randrange(1, 4))
    verify_or_raise(module)
    return module


def random_inputs(param_types, seed):
    """Seeded arguments for param_types: buffers of values in [-2, 2]
    (float) or [-50, 50) (integer), floats in [-2, 2], integers in [0, 8)."""
    rng = random.Random(seed)
    args = []
    for ty in param_types:
        if ty.kind == "memref":
            buf = Buffer(ty.shape, ty.element.kind)
            for i in range(len(buf.data)):
                buf.data[i] = (rng.uniform(-2.0, 2.0)
                               if buf.dtype in ("f32", "f64")
                               else rng.randrange(-50, 50))
            args.append(buf)
        elif ty.is_float:
            args.append(rng.uniform(-2.0, 2.0))
        else:
            args.append(rng.randrange(0, 8))
    return args


# -- index arithmetic ------------------------------------------------------------
#
# random_module's integer binops are i64 only, so none of its memref indices
# is an addi, subi or muli. index_module builds loop nests whose indices are
# such chains over the induction variables.

_CHAIN = ("arith.addi", "arith.subi", "arith.muli")


def _span(name, a, b):
    """The interval of ``a name b`` for intervals a and b."""
    if name == "arith.addi":
        return a[0] + b[0], a[1] + b[1]
    if name == "arith.subi":
        return a[0] - b[1], a[1] - b[0]
    ends = [x * y for x in a for y in b]
    return min(ends), max(ends)


class _Nest:
    """Builds one index_module: the index values in scope at each point,
    and the interval each value stays in."""

    def __init__(self, rng, bufs):
        self.rng = rng
        self.bufs = bufs
        self.spans = {}

    def op(self, block, name, operands=(), attributes=None, result_types=(),
           regions=0):
        return create_op(block, block.insertion_index(), name,
                         operands=list(operands), attributes=attributes,
                         result_types=list(result_types), region_count=regions)

    def const(self, block, k):
        value = self.op(block, "arith.constant", attributes={"value": int_attr(k)},
                        result_types=[INDEX]).results[0]
        self.spans[value] = (k, k)
        return value

    def binop(self, block, name, a, b):
        value = self.op(block, name, [a, b], result_types=[INDEX]).results[0]
        self.spans[value] = _span(name, self.spans[a], self.spans[b])
        return value

    def variables(self, scope):
        """The values in scope that are not constants, or failing that, all."""
        return [v for v in scope if self.spans[v][0] < self.spans[v][1]] or scope

    def chain(self, block, scope):
        """addi, subi or muli by a constant over values in scope; now and
        then a constant minus a value, or a product of two values."""
        rng = self.rng
        name = rng.choice(_CHAIN)
        a, b = (rng.choice(self.variables(scope)) for _ in range(2))
        if name == "arith.muli" and rng.random() < 0.9 or rng.random() < 0.4:
            b = self.const(block, rng.randrange(-3, 6))
        if name == "arith.subi" and rng.random() < 0.5:
            a, b = b, a
        scope.append(self.binop(block, name, a, b))

    def index(self, block, scope, extent):
        """An index for a dimension of ``extent``: inside it, but for a
        share picked from all values in scope (a nest picks many indices,
        so a quarter of random_module's share)."""
        rng = self.rng
        if rng.random() < STRAY / 4:
            return rng.choice(scope)
        variables = self.variables(scope)
        inside = [v for v in variables
                  if self.spans[v][0] >= 0 and self.spans[v][1] < extent]
        if inside and rng.random() < 0.5:
            return rng.choice(inside)
        fits = [v for v in variables
                if self.spans[v][1] - self.spans[v][0] < extent]
        if not fits:
            return self.const(block, rng.randrange(extent))
        v = rng.choice(fits)
        lo, hi = self.spans[v]
        if rng.random() < 0.5:  # v + k
            k = self.const(block, rng.randint(-lo, extent - 1 - hi))
            value = self.binop(block, "arith.addi", v, k)
        else:                   # k - v: a negative coefficient
            k = self.const(block, rng.randint(hi, extent - 1 + lo))
            value = self.binop(block, "arith.subi", k, v)
        scope.append(value)
        return value

    def access(self, block, scope):
        """Load from one buffer, store to another."""
        rng = self.rng
        src, dst = rng.choice(self.bufs), rng.choice(self.bufs)
        indices = [self.index(block, scope, e) for e in src.type.shape]
        value = self.op(block, "memref.load", [src, *indices],
                        result_types=[F64]).results[0]
        indices = [self.index(block, scope, e) for e in dst.type.shape]
        self.op(block, "memref.store", [value, dst, *indices])
        return value

    def loop(self, block, scope):
        """scf.for over constant or chain bounds, affine.for or scf.parallel;
        returns its body and its induction variables."""
        rng = self.rng
        roll = rng.random()
        trips = 0 if rng.random() < 0.05 else rng.randrange(2, 6)
        if roll < 0.2:
            lo, step = rng.randrange(0, 3), rng.randrange(1, 3)
            loop = self.op(block, "affine.for", attributes={
                "lower_bound": int_attr(lo),
                "upper_bound": int_attr(lo + trips * step),
                "step": int_attr(step)}, regions=1)
            spans = [(lo, lo + max(trips - 1, 0) * step)]
        elif roll < 0.4:
            dims = rng.randrange(1, 3)
            ubs = [rng.randrange(1, 4) for _ in range(dims)]
            bounds = ([self.const(block, 0)] * dims
                      + [self.const(block, u) for u in ubs]
                      + [self.const(block, 1)] * dims)
            loop = self.op(block, "scf.parallel", bounds, regions=1)
            spans = [(0, u - 1) for u in ubs]
        else:
            lb = self.const(block, rng.randrange(0, 3))
            step = rng.randrange(1, 3)
            small = [v for v in self.variables(scope) if 0 <= self.spans[v][1] < 6]
            if small and rng.random() < 0.3:   # bounded by a chain
                ub = rng.choice(small)
            else:
                ub = self.const(block, self.spans[lb][0] + trips * step)
            step = self.const(block, step)
            loop = self.op(block, "scf.for", [lb, ub, step], regions=1)
            first = self.spans[lb][0]
            spans = [(first, max(self.spans[ub][1] - 1, first))]
        body = loop.body()
        for span in spans:
            self.spans[body.add_arg(INDEX)] = span
        return body, list(body.args)

    def fill(self, block, scope, depth):
        """A few chains, a loop holding the rest of the nest, accesses after
        it, and now and then an scf.if whose arms access memory too."""
        rng = self.rng
        scope = list(scope)
        for _ in range(rng.randrange(1, 3)):
            self.chain(block, scope)
        if depth:
            body, ivs = self.loop(block, scope)
            self.fill(body, scope + ivs, depth - 1)
            create_op(body, len(body.ops), "scf.yield")
        for _ in range(rng.randrange(1, 3)):
            value = self.access(block, scope)
        if rng.random() < 0.4:
            zero = self.op(block, "arith.constant",
                           attributes={"value": float_attr(0.0)},
                           result_types=[F64]).results[0]
            cond = self.op(block, "arith.cmpf", [value, zero],
                           attributes={"predicate": str_attr("olt")},
                           result_types=[IRType("i1")]).results[0]
            branch = self.op(block, "scf.if", [cond], regions=2)
            for arm in branch.regions:
                self.chain(arm, list(scope))
                self.access(arm, list(scope))
                create_op(arm, len(arm.ops), "scf.yield")


def index_module(seed: int, ctx=None):
    """A loop nest two to four deep over one or two f64 buffers, whose
    memref indices are addi, subi and muli-by-a-constant chains over its
    induction variables, some with negative coefficients. A few indices
    are picked without regard to their extent, so some seeds run out of
    bounds."""
    rng = random.Random(seed)
    ctx = ctx or create_context()
    module = create_module(ctx)
    shapes = [tuple(rng.randrange(2, 7) for _ in range(rng.randrange(1, 4)))
              for _ in range(rng.randrange(1, 3))]
    func = build_func(module, f"idx{seed % 1000}",
                      [memref_type(s, F64) for s in shapes])
    body = func.body()
    nest = _Nest(rng, list(body.args))
    nest.fill(body, [nest.const(body, 0)], rng.randrange(2, 5))
    verify_or_raise(module)
    return module


# -- innermost loops codegen may write over slices -----------------------------
#
# random_module and index_module draw loop bounds under 9, so no loop they
# build reaches codegen.SLICE_TRIPS. slice_module builds the shapes the two
# slice forms take, and the shapes one condition keeps a loop.

class _Lines:
    """The lines of a function body under construction, numbering values."""

    def __init__(self):
        self.lines = []

    def add(self, rhs):
        name = f"%{len(self.lines)}"
        self.lines.append(f"{name} = {rhs}")
        return name

    def index(self, value):
        return self.add(f"arith.constant {value} : index")

    def address(self, i, r, span, outer, stride, rng):
        """``stride * i + t * r + k`` for i in [0, span) and r in [0,
        outer); returns its name and its smallest and largest values."""
        t = rng.choice((0, 0, 1, span))
        k = rng.randrange(0, 3) - (stride * (span - 1) if stride < 0 else 0)
        name = i
        if stride != 1:
            name = self.add(f"arith.muli {i}, {self.index(stride)} : index")
        if t:
            scaled = self.add(f"arith.muli {r}, {self.index(t)} : index")
            name = self.add(f"arith.addi {name}, {scaled} : index")
        if k:
            name = self.add(f"arith.addi {name}, {self.index(k)} : index")
        ends = [stride * a + t * b + k for a in (0, span - 1) for b in (0, outer - 1)]
        return name, min(ends), max(ends)


def slice_module(seed: int, ctx=None):
    """An outer loop (scf.parallel or scf.for) of 1 to 3 trips around an
    innermost scf.for or affine.for of 15 to 64 trips over two or three
    one-dimensional buffers of one element type (f64, f32, i32 or i64).

    The body is elementwise, D[a] = X op Y, or a reduction into D at an
    address the inner loop never changes. Addresses move by strides 1 to
    3 times the loop step, 1 or 2. Some draws break one condition of the
    slice forms: a read of D at the element the trip before stored, a
    stride of -1, an index one past its extent, or 15 trips."""
    rng = random.Random(seed)
    kind = rng.choice(("f64", "f64", "f32", "i32", "i64"))
    add, _, mul = _BINOPS_F if kind[0] == "f" else _BINOPS_I
    outer, step, lb = rng.randrange(1, 4), rng.choice((1, 1, 2)), rng.randrange(0, 3)
    trips = 15 if rng.random() < 0.1 else rng.randrange(16, 65)
    n_params = rng.randrange(2, 4)
    src, other, dst = "%arg0", f"%arg{n_params - 2}", f"%arg{n_params - 1}"
    ty = f"memref<SIZEx{kind}>"     # SIZE: once every address is drawn
    body = _Lines()
    c0, c1 = body.index(0), body.index(1)
    head = ("scf.parallel (%arg9) = ({}) to ({}) step ({}) {{" if rng.random() < 0.5
            else "scf.for %arg9 = {} to {} step {} {{")
    body.lines.append(head.format(c0, body.index(outer), c1))
    ends = []
    reduce = rng.random() < 0.35
    if reduce:      # its element, outside the inner loop
        acc = body.add(f"arith.addi %arg9, {body.index(rng.randrange(0, 3))} : index")
        ends.append(outer + 1)
    if rng.random() < 0.5:
        body.lines.append(f"affine.for %arg8 = {lb} to {lb + trips * step} step {step} {{")
    else:
        body.lines.append(f"scf.for %arg8 = {body.index(lb)} to "
                          f"{body.index(lb + trips * step)} step {body.index(step)} {{")
    i = body.add(f"arith.subi %arg8, {body.index(lb)} : index")  # 0, step, ...

    def address(stride):
        at, low, high = body.address(i, "%arg9", (trips - 1) * step + 1, outer,
                                     stride, rng)
        ends.extend((low, high))
        return at

    def load(buf, at):
        return body.add(f"memref.load {buf}[{at}] : {ty}")

    hazard = rng.random()
    x = load(src, address(rng.choice((1, 2, 3)) if hazard > 0.1 else -1))
    if reduce:
        y = load(other, address(rng.choice((1, 2, 3))))
        total = body.add(f"{add} {load(dst, acc)}, "
                         f"{body.add(f'{mul} {x}, {y} : {kind}')} : {kind}")
        body.lines.append(f"memref.store {total}, {dst}[{acc}] : {ty}")
    else:
        at = address(1 if hazard < 0.25 else rng.choice((1, 1, 2, 3)))
        if hazard < 0.25:   # D[a + 1] = X op D[a]: the element the last trip stored
            y = load(dst, at)
            at = body.add(f"arith.addi {at}, {c1} : index")
            ends.append(max(ends) + 1)
        elif hazard < 0.6:
            y = load(dst, at)
        else:
            y = load(other, address(rng.choice((1, 2, 3))))
        value = body.add(f"{rng.choice(_BINOPS_F if kind[0] == 'f' else _BINOPS_I)} "
                         f"{x}, {y} : {kind}")
        body.lines.append(f"memref.store {value}, {dst}[{at}] : {ty}")
    body.lines += ["}", "}", "return"]
    assert min(ends) >= 0
    size = max(ends) + (0 if rng.random() < 0.1 else rng.randrange(1, 4))
    params = ", ".join(f"%arg{k}: memref<{size}x{kind}>" for k in range(n_params))
    text = "\n".join(body.lines).replace("SIZE", str(size))
    module = parse_module(f"module {{\n  func.func @slices{seed % 1000}({params}) "
                          f"{{\n{text}\n  }}\n}}\n", ctx or create_context())
    verify_or_raise(module)
    return module


def slice_inputs(param_types, seed):
    """random_inputs, but for every third seed the first parameter's
    Buffer is passed as the last one too."""
    args = random_inputs(param_types, seed)
    if seed % 3 == 0:
        args[-1] = args[0]
    return args


# -- short literal nests around a sliced loop ----------------------------------------

JAM_BREAKS = ("store_dep", "second_store", "other_element", "raises", "budget")


def jam_module(seed: int, ctx=None, inside=False):
    """An outer scf.parallel or scf.for of 1 or 2 trips over r, around a
    perfect nest of one or two scf.for or affine.for loops of 1 to 4 trips
    over k (and l), around an innermost loop of 16 to 40 trips over i (or,
    ``inside``, that loop around the nest), on
    buffers of one element type (f64, f32, i32 or i64):
    D[r, i] = D[r, i] + X[r + k, i + l] * W[k, l], or without the read of
    D, D[r, i] = X[r + k, i + l] * W[k, l]. One level reads X[r + k, i + k]
    and W[k, 0].

    About half the draws break one condition of the jam: the store moves
    with l, a second store, a read of D at the next element, a read of X
    one past its extent in the last copy (which raises), or a chain of
    products that takes the copies over codegen.UNROLL_OPS. The function
    is named after the condition a draw breaks (``JAM_BREAKS``), or
    ``jam`` when it breaks none."""
    rng = random.Random(seed)
    kind = rng.choice(("f64", "f64", "f32", "i32", "i64"))
    add, _, mul = _BINOPS_F if kind[0] == "f" else _BINOPS_I
    broken = rng.choice(JAM_BREAKS) if rng.random() < 0.5 else None
    rows, trips = rng.randrange(1, 3), rng.randrange(16, 41)
    shorts = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 3))]
    if broken == "budget":
        shorts = [max(n, 2) for n in shorts]
    body = _Lines()
    c0, c1 = body.index(0), body.index(1)
    head = ("scf.parallel (%arg9) = ({}) to ({}) step ({}) {{" if rng.random() < 0.5
            else "scf.for %arg9 = {} to {} step {} {{")
    body.lines.append(head.format(c0, body.index(rows), c1))
    ivs = ["%arg5", "%arg6"][:len(shorts)]
    loops = list(zip(ivs, shorts))
    loops.insert(0 if inside else len(loops), ("%arg7", trips))
    for iv, n in loops:
        if iv != "%arg7" and rng.random() < 0.5:
            body.lines.append(f"affine.for {iv} = 0 to {n} step 1 {{")
        else:
            body.lines.append(f"scf.for {iv} = {c0} to {body.index(n)} step {c1} {{")
    k, l = ivs[0], ivs[-1]
    xt = (f"memref<{rows + shorts[0] - 1}x"
          f"{trips + shorts[-1] - (2 if broken == 'raises' else 1)}x{kind}>")
    wt = f"memref<4x4x{kind}>"
    past = {"store_dep": shorts[-1] - 1, "other_element": 1}.get(broken, 0)
    dt = f"memref<{rows}x{trips + past}x{kind}>"
    x = body.add(f"memref.load %arg0[{body.add(f'arith.addi %arg9, {k} : index')}, "
                 f"{body.add(f'arith.addi %arg7, {l} : index')}] : {xt}")
    w = body.add(f"memref.load %arg1[{k}, {l if len(ivs) == 2 else c0}] : {wt}")
    value = body.add(f"{mul} {x}, {w} : {kind}")
    if broken == "budget":  # 6 ops and this chain: over 96 once copied
        copies = shorts[0] * (shorts[-1] if len(ivs) == 2 else 1)
        for _ in range(96 // copies - 5):
            value = body.add(f"{mul} {value}, {x} : {kind}")
    if rng.random() < 0.7 or broken == "other_element":
        at = body.add(f"arith.addi %arg7, {c1} : index") \
            if broken == "other_element" else "%arg7"
        d = body.add(f"memref.load %arg2[%arg9, {at}] : {dt}")
        value = body.add(f"{add} {d}, {value} : {kind}")
    if broken == "second_store":
        body.lines.append(f"memref.store {x}, %arg3[%arg9, %arg7] : {dt}")
    at = body.add(f"arith.addi %arg7, {l} : index") if broken == "store_dep" else "%arg7"
    body.lines.append(f"memref.store {value}, %arg2[%arg9, {at}] : {dt}")
    body.lines += ["}"] * (len(ivs) + 2) + ["return"]
    params = [f"%arg0: {xt}", f"%arg1: {wt}", f"%arg2: {dt}"]
    if broken == "second_store":
        params.append(f"%arg3: {dt}")
    text = "\n".join(body.lines)
    module = parse_module(f"module {{\n  func.func @{broken or 'jam'}{seed % 1000}"
                          f"({', '.join(params)}) {{\n{text}\n  }}\n}}\n",
                          ctx or create_context())
    verify_or_raise(module)
    return module


# -- boundary literals -------------------------------------------------------------
#
# random_module draws small numbers only. literal_module draws the literals a
# reader of the text can take apart wrongly: a signed zero, the edges of i32
# and i64, values past 2^64, the smallest subnormal and a double near the
# largest, decimals an f32 cannot hold, and affine.for bounds at the 64-bit
# wrap.

_EDGES = (31, 63)
_INTS = (0, *(sign * ((1 << bits) + delta) for bits in _EDGES
              for sign in (1, -1) for delta in (1, -1)))
_F64S = (0.0, -0.0, 5e-324, -5e-324, 1e+308, -1e+308, 1.5e-07)
_F32S = (0.1, -0.2, 1.1, 3.3, 16777217.0, 1e-07)   # none is an f32
_WRAP = 1 << 64
# (lower, upper) affine.for bounds a run reads wrapped to i64, a few trips apart
_BOUNDS = ((_WRAP, _WRAP + 3), (_WRAP - 1, _WRAP + 1), ((1 << 63) - 3, (1 << 63) - 1),
           (-(1 << 63), -(1 << 63) + 2), (0, _WRAP + 2))


def literal_module(seed: int, ctx=None):
    """A function of boundary constants of every scalar type: index, i32
    and i64 integers at the edges of i32 and i64 and at 2^64 + k, f64s from
    a signed zero to the smallest subnormal and 1e+308, f32 decimals no
    f32 holds. It adds, multiplies, compares and casts them, stores f32
    and i32 values into its two parameters, and runs an affine.for whose
    bounds lie past the 64-bit wrap."""
    rng = random.Random(seed)
    ctx = ctx or create_context()
    module = create_module(ctx)
    func = build_func(module, f"lit{seed % 1000}",
                      [memref_type((4,), F32), memref_type((4,), I32)])
    body = func.body()

    def op(name, operands=(), attributes=None, result_types=(), block=body):
        created = create_op(block, block.insertion_index(), name, list(operands),
                            attributes, list(result_types))
        return created.results[0] if created.results else None

    def const(value, ty):
        attr = float_attr(value) if ty.is_float else int_attr(value)
        return op("arith.constant", attributes={"value": attr}, result_types=[ty])

    def draw(ty):
        if ty == F64:
            return const(rng.choice(_F64S), ty)
        if ty == F32:
            return const(rng.choice(_F32S), ty)
        value = rng.choice(_INTS + (_WRAP + rng.randrange(4),))
        return const(value, ty)

    for _ in range(rng.randrange(3, 7)):
        ty = rng.choice((INDEX, I32, I64, F32, F64))
        a, b = draw(ty), draw(ty)
        if ty.is_float:
            op(rng.choice(_BINOPS_F), [a, b], result_types=[ty])
            op("arith.cmpf", [a, b], {"predicate": str_attr("olt")}, [I1])
        else:
            op(rng.choice(_BINOPS_I), [a, b], result_types=[ty])
            op("arith.cmpi", [a, b], {"predicate": str_attr("slt")}, [I1])
        if ty == INDEX:
            op("arith.index_cast", [a], result_types=[rng.choice((I32, I64))])
    for buf in body.args:
        at = const(rng.randrange(4), INDEX)
        op("memref.store", [draw(buf.type.element), buf, at])
    lower, upper = rng.choice(_BOUNDS)
    loop = create_op(body, body.insertion_index(), "affine.for", attributes={
        "lower_bound": int_attr(lower), "upper_bound": int_attr(upper),
        "step": int_attr(rng.choice((1, 2)))}, region_count=1)
    iv = loop.body().add_arg(INDEX)
    op("arith.index_cast", [iv], result_types=[I64], block=loop.body())
    create_op(loop.body(), len(loop.body().ops), "scf.yield")
    verify_or_raise(module)
    return module


def long_block_module(length: int = 2000, width: int = 64, ctx=None):
    """@long(A, B, x) -> f64: one straight-line block that loads each
    element of A, then runs ``length`` rounds of ``b = A[k % width] - b``
    (b starts as x), each stored to B[(7k + 3) % width], and returns the
    last b. Generated code binds each load and each b, which are read
    more than once: 2 * length + width statements."""
    ty = f"memref<{width}xf64>"
    lines = [f"    %c{k} = arith.constant {k} : index" for k in range(width)]
    lines += [f"    %a{k} = memref.load %arg0[%c{k}] : {ty}" for k in range(width)]
    b = "%arg2"
    for k in range(length):
        lines += [f"    %b{k} = arith.subf %a{k % width}, {b} : f64",
                  f"    memref.store %b{k}, %arg1[%c{(7 * k + 3) % width}] : {ty}"]
        b = f"%b{k}"
    text = (f"module {{\n  func.func @long(%arg0: {ty}, %arg1: {ty}, %arg2: f64)"
            f" -> (f64) {{\n" + "\n".join(lines) + f"\n    return {b} : f64\n  }}\n}}\n")
    return parse_module(text, ctx or create_context())


def deep_parallel_module(loops: int, dims: int, ctx=None):
    """@deep(A: memref<8xf64>, n: index, m: index): an scf.parallel of
    ``dims`` dimensions under ``loops`` scf.for loops, all over runtime
    bounds. The loops and every parallel dimension but the first two run
    to n, those two to m; each point adds 1.0 to A at its first coordinate
    plus the innermost loop's induction variable. Generated code runs a
    region op whose loops would nest past MAX_DEPTH in a function of its
    own."""
    lines = ["%c0 = arith.constant 0 : index", "%c1 = arith.constant 1 : index",
             "%one = arith.constant 1.0 : f64"]
    for k in range(loops):
        lines.append("  " * k + f"scf.for %i{k} = %c0 to %arg1 step %c1 {{")
    pad, at = "  " * loops, "%p0"
    ivs = ", ".join(f"%p{k}" for k in range(dims))
    ubs = ", ".join(["%arg2"] * 2 + ["%arg1"] * (dims - 2))
    lines.append(pad + f"scf.parallel ({ivs}) = ({', '.join(['%c0'] * dims)}) to "
                 f"({ubs}) step ({', '.join(['%c1'] * dims)}) {{")
    if loops:
        lines.append(pad + f"  %at = arith.addi %p0, %i{loops - 1} : index")
        at = "%at"
    lines += [pad + f"  %v = memref.load %arg0[{at}] : memref<8xf64>",
              pad + "  %w = arith.addf %v, %one : f64",
              pad + f"  memref.store %w, %arg0[{at}] : memref<8xf64>", pad + "}"]
    lines += ["  " * k + "}" for k in reversed(range(loops))]
    text = ("module {\n  func.func @deep(%arg0: memref<8xf64>, %arg1: index, "
            "%arg2: index) {\n" + "".join(f"    {line}\n" for line in lines)
            + "    return\n  }\n}\n")
    return parse_module(text, ctx or create_context())
