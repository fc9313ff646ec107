"""Lower a verified module to Python source, and run what it compiles to.

Each func.func and gpu.func becomes one Python function; only a region
op whose loops would put its body past MAX_DEPTH + 1 runs in a closure of
its own, as CPython compiles at most 20 nested blocks per function: it is
defined at its function's entry and called with no arguments, and CPython
resolves the locals it reads from the function around it. SSA values
become locals, integer constants become literals, and a result used once,
later in the same straight-line run, is written into that use as an
expression; a pure op or a proven load that only such dead ops read, or
none, and the ops of a loop with a literal dimension of no trips, are
written nowhere. Loops become ``for`` loops over ``range``, except short
ones over literal bounds, written once per trip (below). An scf.parallel
is a nest of them in place (as MLIR's SCF-to-ControlFlow lowering writes
one of scf.for), over its points in the order ``itertools.product``
would visit them; worksharing mode runs it as sequential mode does and
only records its worker count. A loop whose body writes no statement is
not written, but for one whose step is checked at run time, which must
iterate to raise. The ``array`` of each buffer that a written load or
store touches is bound to a local once; an alloc nothing reads is a bare
``Buffer(...)``, as making one can raise. A kernel takes its grid and
block sizes and runs every thread in nested loops of its own, so a
launch is one call.

Semantics are those of the definitional interpreter ``tests/definterp.py``
(results, buffer contents, error types and messages, i32/i64 wrapping,
f32 rounding), which shares the scalar helpers and error raisers of
``buffer``. Two things are proved at generation time from integer
intervals (constants, loop and parallel induction variables, gpu ids whose
launch sizes are constant, and addi/subi/muli over those): an index that
is always inside its extent needs no bounds check, and a result that
always fits its width needs no wrap. Everything else is checked at run
time, in op order: an index once per straight-line run and extent. A
store writes its value as it is: ops, loads and parameters are all wrapped.

The same values have a linear form, Σ coef·iv + constant over the loop,
parallel and thread induction variables (the ids of one dimension are one
variable, and a form of no terms pins its value), and an address is
computed from the forms of its indices, not from their locals. Its terms
are grouped by the loop that binds each variable: the terms of each loop
outside the innermost one go into a partial sum bound once, in that
loop's header, as the partial sum of the loops outside it plus its own
terms (loop-invariant code motion). The innermost loop's terms and the
constant stay in the statement. A closure's entry is its outermost level,
so the terms of the variables of the function around it are summed there.
An index value used only in addresses, directly or through integer ops,
is never bound.

Elements live in locals where no one can tell (MLIR's ``affine-scalrep``):

- a load whose indices are proven, whose address does not change in a
  loop and whose buffer is defined outside it is bound once just before
  the outermost such loop that stores to no buffer that may be its own;
- a loop that reads and writes one element at indices defined outside
  it, touches no buffer that may hold it in any other way, cannot raise
  (every index proven, no step checked at run time, no call) and runs no
  region op in a closure, whose assignment would make the local its own,
  reads the element into a local before it and stores it once after it;
  a loop inside it finds the element in that local (``promote``);
- a memref parameter that nothing the function stores to may be, and that
  its written loads read more often than it has elements (by their blocks'
  literal counts, a kernel's threads at its largest launch sizes), is read
  from a list made at entry, after the guard below, which tests it: each
  element is boxed once, not per read, at about 4 times an f64 array's
  memory while the call runs.

An alloc is a new array and a call's result may be any array, but two
memref parameters may be one Buffer. So a function whose steps above
assume that some pairs of its parameters are different arrays tests
exactly those pairs with ``is`` at entry (LLVM's ``LoopVersioningLICM``).
If any pair is one array, the call goes to an alias-safe variant, which
assumes nothing about its parameters. That variant is generated and
compiled on its first call; most modules never need it.

ExecStats stay exact without a counter per op. Every block of the IR runs
as a whole, so its ops' counts are its static counts times the number of
times it ran. A loop whose trip count is a literal multiplies its parent's
count; any other loop adds its ``len(range(...))`` to a counter once on
entry; a then-arm increments a counter and its else-arm runs the parent's
count minus that (Ball & Larus' placement). The counts fold into the
tally when the function returns. A run that raises discards its stats.

Each loop takes one form, decided before any code of its function is
written, as MLIR asks ``isVectorizableLoopBody`` before SuperVectorize
rewrites, so a function is generated once and its writers only read the
plan: ``scan`` walks each body once, keeps a ``_Plan`` per region op and
``decide``s each loop as soon as it has walked the loop's body. An scf.for
that ``loop-unroll`` made of copies of one body is first rolled back into
the loop it was made from, over its first copy, with the counts of the
unrolled block (``_rolled``; LLVM's ``LoopRerollPass``, after Larsen and
Amarasinghe's packing of isomorphic statements). The forms:

- "loop": a ``for`` loop.
- "map" or "reduce": an innermost loop of SLICE_TRIPS or more literal
  trips runs over slices of its arrays (MLIR's ``affine-super-vectorize``;
  ``sliceable``): one slice assignment of a comprehension over the zipped
  slices, or, adding into an element kept in a local, a loop over them,
  adding in order (``sum`` rounds otherwise from 3.12). On CPython 3.11
  the first overtakes the loop at 16 to 20 trips, the second at 8 to 12.
- "trips": a loop over literal bounds that runs at most once, or is in a
  short nest, is written once per trip, its induction variable the trip's
  literal (MLIR's ``affine-loop-unroll``, ``unroll-full``). A nest is
  short if each loop in it has at most UNROLL_TRIPS trips and a body of
  constants, pure ops, loads, stores and such loops, nothing in it can
  raise, and its copies write at most UNROLL_OPS ops. The copies open no
  level, and each learns its body anew for its trip (``bind_trip``,
  ``forget``); offsets are a block's own, and a store no trip changes is
  written in the first trip alone (``unchanged``).
- the loop L that a perfect short nest around it, or one that is all of
  its body, jams into (MLIR's ``affine-loop-unroll-jam``, after Carr and
  Kennedy, TOPLAS 1994), if L takes the map form, its store moves with
  none of the nest's loops and neither L nor they run in a closure: the
  innermost body is written once, with the nest's induction variables as
  terms of the linear forms, and one slice assignment zips every copy's
  slices and chains their terms in copy order, a copy's read of the
  stored slice reading what the copy before stored, so each element's
  ops keep their order, f32 rounding and integer wrapping (``jam``).

A loop inside a nest written per trip, or jammed, gets its head's form, as
each condition of the head's holds for it; the loops of a nest inside L
take L as their form when L is decided. A plan reads only what ``scan``
noted: the interval and linear form of each integer value (``learn``),
each through one reader (``dims`` for literal loop bounds, an affine.for's
attributes too; ``within`` for a proven index; ``linearise`` for an
address, so two proven accesses are at one element when their offsets are
equal); what each body stores to and touches, and whether it can raise;
and the depth it is written at, and so whether it runs in a closure, each
loop of two trips or more taken to open a level (though a short nest's
open none). Only ``invariant`` decides as it writes, as the levels open
where a load is written are known only then: a nest written per trip
opens none, and a closure's entry is its outermost level.
"""
from __future__ import annotations

import copy
import functools
import math
from array import array
from dataclasses import dataclass

from staircase.errors import UnknownOperation
from staircase.interp.buffer import (
    Buffer,
    bad_loop_step,
    bad_parallel_step,
    constant_of,
    constant_value,
    fdiv,
    launch_outside_gpu,
    out_of_bounds,
    row_major_strides,
    static_bounds,
    to_f32,
    wrap_int,
)
from staircase.interp.stats import BOOKKEEPING, OP_SLOT
from staircase.ir.core import Operation, SymbolTable, Value, ancestors

MAX_DEPTH = 15  # a body indented past MAX_DEPTH + 1 gets a function of its own
SLICE_TRIPS = 16  # trips from which an innermost loop runs over slices
UNROLL_TRIPS = 4  # trips up to which a loop of a short nest is written per trip
UNROLL_OPS = 96   # ops a nest written once per trip may write in all

_WIDTH = {"i32": 32, "i64": 64, "index": 64}
_FOPS = {"arith.addf": "+", "arith.subf": "-", "arith.mulf": "*"}
_IOPS = {"arith.addi": "+", "arith.subi": "-", "arith.muli": "*"}
_FPREDS = {"oeq": "{a} == {b}", "one": "{a} == {a} and {b} == {b} and {a} != {b}",
           "olt": "{a} < {b}", "ole": "{a} <= {b}", "ogt": "{a} > {b}",
           "oge": "{a} >= {b}"}
_IPREDS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
           "sge": ">="}
_GPU_IDS = ("bx", "by", "bz", "tx", "ty", "tz")
_CALLS = frozenset({"func.call", "gpu.launch_func"})
_MANY = object()    # a buffer stored to at more than one address
_ALLOCS = frozenset({"memref.alloc", "memref.alloca"})


@dataclass
class Function:
    """One func.func or gpu.func, compiled to a Python callable.

    A function is called as ``fn(*args, tally, ctx)`` and returns its
    results as a tuple; a kernel takes its three grid and three block
    sizes before its arguments.
    """

    name: str
    param_types: tuple
    is_kernel: bool
    fn: object = None


class ExecContext:
    """What generated code reads of a run: its mode, as ``X.mode``."""

    __slots__ = ("mode",)

    def __init__(self, mode="sequential"):
        self.mode = mode


def run_tape(func, values, tally, ctx):
    """Call the compiled entry function; returns its results."""
    return func.fn(*values, tally, ctx)


class _OnceThenRaise:
    """scf.for with a step that is not positive: one iteration, then raise."""

    __slots__ = ("lb",)

    def __init__(self, lb):
        self.lb = lb

    def __len__(self):
        return 1

    def __iter__(self):
        yield self.lb
        bad_loop_step()


def bad_step(lb, ub):
    return _OnceThenRaise(lb) if lb < ub else range(0)


_RUNTIME = {
    "Buffer": Buffer,
    "array": array,
    "to_f32": to_f32,
    "fdiv": fdiv,
    "oob": out_of_bounds,
    "bad_step": bad_step,
    "bad_parallel_step": bad_parallel_step,
    "launch_outside_gpu": launch_outside_gpu,
}


# -- integer intervals ----------------------------------------------------------

def _fits(lo: int, hi: int, kind: str) -> bool:
    half = 1 << (_WIDTH[kind] - 1)
    return -half <= lo and hi < half


def _combine(sign: str, a: tuple, b: tuple) -> tuple:
    if sign == "+":
        return a[0] + b[0], a[1] + b[1]
    if sign == "-":
        return a[0] - b[1], a[1] - b[0]
    ends = [x * y for x in a for y in b]
    return min(ends), max(ends)


def _linear(sign: str, a: tuple, b: tuple):
    """The linear form of ``a sign b``, or None for a product of two
    variable forms. A form is ({induction Value: coefficient}, constant)."""
    (ta, ka), (tb, kb) = a, b
    if sign == "*":
        if ta and tb:
            return None
        terms, k, scale = (ta, ka, kb) if not tb else (tb, kb, ka)
        return {v: c * scale for v, c in terms.items()}, k * scale
    s = 1 if sign == "+" else -1
    terms = dict(ta)
    for v, c in tb.items():
        terms[v] = terms.get(v, 0) + s * c
    return {v: c for v, c in terms.items() if c}, ka + s * kb


def _facts(op: Operation, bounds: dict, forms: dict) -> tuple:
    """The interval and linear form of the result of an addi, subi, muli or
    index_cast, each None if unknown, from what ``bounds`` and ``forms`` hold
    of its operands (a point's form is its constant); ``learn`` notes them."""
    (a, *b), kind = op.operands, op.results[0].type.kind
    ra, fa = bounds.get(a), forms.get(a)
    if op.name == "arith.index_cast":   # to i32, it wraps unless it fits
        return (None, None) if kind == "i32" and not (ra and _fits(*ra, kind)) \
            else (ra, fa)
    rb, fb, sign = bounds.get(b[0]), forms.get(b[0]), _IOPS[op.name]
    if sign == "*" and (0, 0) in (ra, rb):
        return (0, 0), ({}, 0)
    if ra is None or rb is None:
        return None, None
    lo, hi = _combine(sign, ra, rb)
    if lo == hi:    # a constant, wrapped as a run wraps it
        lo = wrap_int(lo, "i32" if kind == "i32" else "i64")
        return (lo, lo), ({}, lo)
    if not _fits(lo, hi, kind):
        return None, None
    return (lo, hi), fa and fb and _linear(sign, fa, fb)


def _iv_range(lb, ub):
    """The interval a runtime-bounded induction variable stays in, from its
    bounds': lb <= iv < ub, as a step that is not positive runs only lb."""
    return lb and ub and (lb[0], max(ub[1] - 1, lb[0]))


def _trips(lb: int, ub: int, step: int) -> int:
    """ceil((ub - lb) / step), or 0, which ``len(range(...))`` may overflow."""
    return max(0, -((lb - ub) // step))


def _sum(terms, const: int = 0) -> str:
    """Σ name*coef + const as Python source; ``terms`` are (name, coef) pairs."""
    text = ""
    for name, coef in terms:
        term = name if abs(coef) == 1 else f"{name}*{abs(coef)}"
        text += (" - " if coef < 0 else " + ") + term
    if const or not text:
        text += f" - {-const}" if const < 0 else f" + {const}"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _wrap_expr(expr: str, kind: str) -> str:
    bits = _WIDTH[kind]
    half = 1 << (bits - 1)
    return f"(({expr} + {half}) & {(1 << bits) - 1}) - {half}"


def _launch_extents(module: Operation) -> dict:
    """Per kernel, the largest grid and block sizes over its launches.

    None for a kernel with a launch whose sizes are not all constants.
    """
    extents: dict = {}
    for op in module.walk_nested():
        if op.name != "gpu.launch_func":
            continue
        key = "::".join(op.attributes["kernel"].value)
        sizes = [constant_of(v) for v in op.operands[:6]]
        if key in extents and extents[key] is None or None in sizes:
            extents[key] = None
        else:
            prev = extents.get(key, sizes)
            extents[key] = [max(a, b) for a, b in zip(prev, sizes)]
    return extents


def _note(stores: dict, buf, where) -> None:
    """Add a store to ``buf`` at ``where``, (indices, store) or _MANY, to
    what a region stores to."""
    had = stores.setdefault(buf, where)
    if had is not _MANY and (where is _MANY or had[0] != where[0]):
        stores[buf] = _MANY


def _defined_in(value: Value, loop: Operation) -> bool:
    """Whether ``value`` is defined inside ``loop``'s regions."""
    op = value.owner.parent_op if value.is_block_arg else value.defining_op
    return op is loop or any(a is loop for a in ancestors(op))


def _gpu_dim(op: Operation) -> int:
    """The index in _GPU_IDS of the id a gpu.block_id or gpu.thread_id reads."""
    dim = "xyz".index(op.attributes["dimension"].value)
    return dim + 3 if op.name == "gpu.thread_id" else dim


# A block's execution count is coef * var: var is None (a literal count),
# a counter, "nt" (a kernel's thread count) or an else-arm difference.

def _times(count: tuple, trip: int) -> tuple:
    return count[0] * trip, count[1]


def _render(count: tuple) -> str:
    coef, var = count
    if var is None:
        return str(coef)
    return var if coef == 1 else f"{var}*{coef}"


def _range(r: range) -> str:
    if r.step != 1:
        return f"range({r.start}, {r.stop}, {r.step})"
    return f"range({r.stop})" if r.start == 0 else f"range({r.start}, {r.stop})"


@dataclass
class _Rolled:
    """The body of an scf.for that ``loop-unroll`` made of ``copies`` runs
    of one body, as its first run alone: ``ops`` are the block's ops before
    the second run, and its terminator. ``rest`` is the block's static
    counts less ``copies`` times those of ``ops``; ``moved`` holds the ops
    of the first run with a copy at another location; ``trips`` are the
    loop's, rolled: each runs one copy."""

    ops: list
    copies: int
    rest: list
    moved: set
    trips: range


def _rolled(loop: Operation, lb: int, ub: int, step: int):
    """The body of the scf.for ``loop`` over literal bounds as the loop
    ``loop-unroll`` made it from, a ``_Rolled``, or None (LLVM's
    ``LoopRerollPass``).

    Constants aside, the body must split into F >= 2 runs: each run k >= 1
    opens with ``iv + k*s``, where F*s is the step, and has run 0's
    ``_signature`` with that sum for iv; runs are compared in order up to
    the first that differs. Rolled iteration t*F + k then does what copy k
    of trip t did, in order.
    """
    trips = _trips(lb, ub, step)
    block = loop.body()
    iv = block.args[0]
    ops = [op for op in block.ops[:-1] if op.name != "arith.constant"]
    for at, head in enumerate(ops):
        if not at or head.name != "arith.addi" or head.operands[0] is not iv:
            continue
        size = at + 1   # of each run after the first
        copies, extra = divmod(len(ops) + 1, size)
        s = constant_of(head.operands[1])
        if extra or s is None or copies * s != step \
                or not _fits(lb, lb + trips * step - s, "index"):
            continue
        first = _signature(ops[:at], iv)
        if first is None or not all(
                op.name == "arith.addi" and op.operands[0] is iv
                and constant_of(op.operands[1]) == k * s and _signature(
                    ops[k * size:(k + 1) * size - 1], op.results[0]) == first
                for k, op in enumerate(ops[at::size], 1)):
            continue
        moved = {a for k in range(1, copies)
                 for a, b in zip(ops[:at], ops[k * size:(k + 1) * size])
                 if a.location is not b.location and a.location != b.location}
        view = block.ops[:block.ops.index(head)] + block.ops[-1:]
        rest = [0] * BOOKKEEPING
        for part, n in ((block.ops, 1), (view, -copies)):
            for slot in map(OP_SLOT.get, [op.name for op in part]):
                if slot is not None:
                    rest[slot] += n
        return _Rolled(view, copies, rest, moved, range(lb, lb + trips * step, s))
    return None


def _signature(run: list, iv: Value):
    """Per op of a run, its name, attributes, operands and result types,
    equal for two runs exactly when one is the other with its own ``iv``
    (value numbering, after Rosen, Wegman and Zadeck, POPL 1988): an
    operand by its place among the run's results, as ``iv``, a constant by
    its type and literal, else by itself. None if an op has regions."""
    number = {iv: -1}
    signature = []
    for op in run:
        if op.regions:
            return None
        key = [op.name, op.attributes]
        for v in op.operands:
            at = number.get(v)
            if at is None:
                owner = v.owner
                at = (v.type, repr(owner.attributes["value"].value)) \
                    if owner.__class__ is Operation \
                    and owner.name == "arith.constant" else v
            key.append(at)
        for r in op.results:
            key.append(r.type)
            number[r] = len(number)
        signature.append(key)
    return signature


# -- code generation ------------------------------------------------------------

class _Level:
    """An open loop level, and the statements that go around its loop."""

    __slots__ = ("at", "depth", "op", "sums", "before", "loads")

    def __init__(self, at: int, depth: int, op):
        self.at = at            # the line its header goes before
        self.depth = depth      # the indentation of its body
        self.op = op            # the op whose body the loop runs
        self.sums = []          # partial sums bound in its header
        self.before = []        # elements bound just before its loop
        self.loads = {}         # element -> the local bound before its loop


class _Plan:
    """What ``scan`` found of the ops that run in a region op's body, and,
    for a loop, how it is written (``decide``); ``size`` and ``into`` are
    what a short nest of it writes per trip and the loop it jams into."""

    __slots__ = ("body", "closure", "trips", "innermost", "stores", "touches",
                 "free", "height", "size", "into", "form", "keep", "jam", "once")

    def __init__(self, body):
        self.body = body        # as written: a block, or a _Rolled
        self.closure = False    # whether it runs in a closure past MAX_DEPTH
        self.trips = None       # a loop's over literal bounds, as written
        self.innermost = None   # (induction Value, trips) of the loop that
                                # runs the body, if over literal bounds
        self.stores = {}        # buffer -> (indices, a store), _MANY; call: None
        self.touches = {}       # buffer -> (indices,) of each access, or _MANY
        self.free = True        # whether none of them can raise
        self.height = 0         # how deep its region ops nest
        self.size = 0           # ops, a nested loop's copies counted, or None
        self.into = None        # the loop a nest of it would jam into
        self.form = None        # "loop", "map", "reduce", "trips" or that loop
        self.keep = []          # what ``keep`` found
        self.jam = None         # in the map form, the Values but its own
                                # variable its store moves with, if a nest may jam
        self.once = set()       # per trip: the stores no trip changes


_PURE = frozenset({*_FOPS, "arith.divf", *_IOPS, "arith.cmpf", "arith.cmpi",
                   "arith.index_cast"})
_TERMINATORS = frozenset({"scf.yield", "func.return", "gpu.return"})
_SLICEABLE = _PURE | {"arith.constant", "memref.load", "memref.store",
                      "scf.yield"}   # of a loop body over slices, or per trip
_WRITES = frozenset({"memref.store", "func.call", "gpu.launch_func"})
_INDEX_FROM = {"memref.load": 1, "memref.store": 2}  # first index operand
_LINEAR_OPS = frozenset({*_IOPS, "arith.index_cast"})
_FORS = frozenset({"scf.for", "affine.for"})
_LOOPS = _FORS | {"scf.parallel"}

# The _FuncGen method that writes each op; the others (constants, dealloc
# and the terminators) write no statement of their own.
_HANDLERS = {
    "arith.divf": "float_binop",
    "arith.cmpf": "cmpf", "arith.cmpi": "cmpi", "arith.index_cast": "cast",
    "memref.load": "load", "memref.store": "store", "memref.alloc": "alloc",
    "memref.alloca": "alloc",
    "func.call": "call", "gpu.launch_func": "launch",
    "gpu.block_id": "gpu_id", "gpu.thread_id": "gpu_id",
    "scf.for": "for_loop", "affine.for": "for_loop",
    "scf.parallel": "scf_parallel", "scf.if": "scf_if",
    **{name: "float_binop" for name in _FOPS},
    **{name: "int_binop" for name in _IOPS},
}


class _FuncGen:
    """Source for one func.func or gpu.func, and the functions it calls
    for its region ops past MAX_DEPTH."""

    def __init__(self, op: Operation, pyname: str, pynames: dict,
                 extents, constants: list, guarded: bool = True):
        self.op = op
        self.pyname = pyname
        self.pynames = pynames      # symbol key -> global function name
        self.is_kernel = op.name == "gpu.func"
        self.extents = extents      # a kernel's largest launch sizes, or None
        self.constants = constants  # the K table: objects without a literal
        self.guarded = guarded      # may assume two parameters distinct arrays
        self.assumed: set = set()   # the pairs of parameters assumed distinct
        self.copying = False        # writing a nest per trip: no level innermost
        # while a body is written over slices: (induction Value, trips,
        # {slice: the local each of its elements is read into})
        self.slicing = None
        self.slots: dict = {}       # its loads -> (place per copy, sliced, level),
        self.moving: list = []      # a jammed nest's loops of 2 or more trips,
        self.points = [()]          # by induction Value, their trips per copy,
        self.copy = 0               # the copy being written
        self.stored = None          # the slice stored to, what is there, its line
        self.plan: dict = {}        # region op, the function too -> its _Plan
        self.dead: set = set()      # pure ops only such ops read: no statement
        self.promoted: dict = {}    # buffer -> the local its element is in
        self.names: dict = {}       # Value -> Python expression
        self.arrays: dict = {}      # memref Value -> local bound to .data
        self.reads: dict = {}       # memref Value -> runs of its written loads
        self.strides: dict = {}     # memref shape -> its row-major strides
        self.n = 0
        self.lines: list = []
        self.blocks: list = []      # (count, static counts per tally slot)
        self.counters: list = []
        self.bookkeeping: list = []  # counts of loop bodies and threads
        self.foldable: set = set()  # results written into their one use
        self.folded: set = set()    # Values written into their use
        # the one record of integer facts, noted by ``learn`` before any
        # code is written, and again for each copy written once per trip
        self.bounds: dict = {}      # integer Value -> (lo, hi)
        self.forms: dict = {}       # it -> ({induction Value: coef}, k)
        self.ids: dict = {}         # gpu id dimension -> the Value its forms are over
        self.indexing: dict = {}    # Value -> whether it is used only in addresses
        # Loop levels: 0 is the function's entry, each ``for`` opens one.
        self.levels: dict = {}      # induction local -> the level its loop opens
        self.headers: list = [_Level(0, 1, None)]  # per open level
        self.partials: dict = {}    # (outer partial sum, terms) -> its local
        self.hoisted: dict = {}     # (level, coefs) -> an address's terms there
        self.offsets: dict = {}     # per run: sum -> local, (index, extent) checked
        self.returned: tuple = ()
        self.closures: list = []    # lines defining its closures, at entry

    # -- names and values ---------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def bind(self, value: Value, prefix: str = "v") -> str:
        name = self.names[value] = self.fresh(prefix)
        return name

    def bind_array(self, value: Value) -> list:
        """A local for a memref's ``data`` array, assigned where it is made
        (a parameter's may be rebound to a list of it after the guard); none
        if no load or store that is written touches the memref. Its name is
        taken either way: later locals are named alike whichever arrays are
        bound."""
        name = self.fresh("d")
        if all(op.name not in _INDEX_FROM or op in self.dead
               for op, _ in value.uses):
            return []
        self.arrays[value] = name
        return [f"{name} = {self.names[value]}.data"]

    def alias(self, value: Value, source: Value) -> list:
        """``value`` always equals ``source``: reuse its name, no statement."""
        if self.fold_linear(value):
            return []
        if source in self.folded:   # its uses may be anywhere: bind it
            return self.assign(value, self.val(source))
        self.names[value] = self.names[source]
        return []

    def assign(self, value: Value, expr: str) -> list:
        """Bind a pure op's result, or fold it into its one use."""
        if value in self.foldable:
            self.names[value] = f"({expr})"
            self.folded.add(value)
            return []
        return [f"{self.bind(value)} = {expr}"]

    def fold_linear(self, value: Value) -> bool:
        """Name an index value used only in addresses by its linear form.

        Addresses read the form itself, so nothing binds the value; the
        expression serves a bounds check or a use that is not linear. A
        point is named by its literal instead.
        """
        form = self.forms.get(value)
        if form is None or self.const(value) is not None \
                or not self.index_only(value):
            return False
        self.names[value] = f"({_sum(self.named(form[0]).items(), form[1])})"
        self.folded.add(value)
        return True

    def named(self, coefs: dict) -> dict:
        """Terms over induction Values as terms over the locals that name
        them, summed per local (two ids of one thread dimension are one)."""
        terms: dict = {}
        for v, coef in coefs.items():
            terms[self.names[v]] = terms.get(self.names[v], 0) + coef
        return {name: coef for name, coef in terms.items() if coef}

    def index_only(self, value: Value) -> bool:
        """Whether every use of ``value`` is a memref index, directly or
        through integer ops whose results are used only so; a use that
        writes nothing (``dead``) does not count."""
        memo, stack = self.indexing, [value]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            uses = [use for use in v.uses if use[0] not in self.dead] \
                if self.dead else v.uses
            pending = [u.results[0] for u, _ in uses
                       if u.name in _LINEAR_OPS and u.results[0] not in memo]
            if pending:
                stack += pending
                continue
            stack.pop()
            memo[v] = bool(uses) and all(
                slot >= _INDEX_FROM[u.name] if u.name in _INDEX_FROM
                else u.name in _LINEAR_OPS and memo[u.results[0]]
                for u, slot in uses)
        return memo[value]

    def val(self, value: Value) -> str:
        """The expression for a value, as its op named it."""
        return self.names[value]

    def const(self, value: Value):
        r = self.bounds.get(value)
        return r[0] if r is not None and r[0] == r[1] else None

    def within(self, value: Value, extent: int) -> bool:
        """Whether an index is proven to lie in [0, extent)."""
        r = self.bounds.get(value)
        return r is not None and 0 <= r[0] and r[1] < extent

    def in_bounds(self, op: Operation) -> bool:
        """Whether every index of a load or store is ``within`` its extent:
        no bounds check stays."""
        at = _INDEX_FROM[op.name]
        return all(map(self.within, op.operands[at:],
                       op.operands[at - 1].type.shape))

    def counter(self) -> str:
        name = self.fresh("c")
        self.counters.append(name)
        return name

    def constant(self, obj) -> str:
        self.constants.append(obj)
        return f"K[{len(self.constants) - 1}]"

    def literal(self, value) -> str:
        if isinstance(value, float) and not math.isfinite(value):
            return self.constant(value)
        text = repr(value)
        return f"({text})" if text.startswith("-") else text

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    # -- functions ----------------------------------------------------------

    def generate(self) -> str:
        body = self.op.body()
        params = []
        prologue = []
        # a kernel's threads loop inside the function, but for a dimension
        # every launch sizes 1, which needs no loop, only nt > 0
        looped = [d for d in range(6) if self.is_kernel and (
            self.extents is None or self.extents[d] > 1)]
        self.plan[self.op] = _Plan(body)    # a kernel's thread loops run it
        self.scan(body, self.plan[self.op], 1 + len(looped) + (
            self.is_kernel and len(looped) < 6))
        for arg in body.args:
            params.append(self.bind(arg, "a"))
            if arg.type.kind == "memref":
                prologue += self.bind_array(arg)
        arrays = len(prologue)
        depth = 1
        count = (1, None)
        if self.is_kernel:
            sizes = [f"g{i}" for i in range(6)]
            params = sizes + params
            prologue.append("nt = " + " * ".join(f"len(range({s}))"
                                                  for s in sizes))
            if len(looped) < 6:
                self.emit(depth, "if nt:")
                depth += 1
            for d in looped:
                depth = self.loop(depth, _GPU_IDS[d], f"range({sizes[d]})",
                                  self.op)
            count = (1, "nt")
            self.bookkeeping.append(count)
        self.body(body, count, depth, self.op)
        if self.lines[-1:] == ["    if nt:"]:     # no thread writes a statement
            self.lines.pop()
        self.close_loops(0)
        # a parameter read more often than it has elements, and that nothing
        # the function stores to may be, is read from a list made after the guard
        snapshots = []
        for arg in body.args:
            if self.reads.get(arg, 0) > math.prod(arg.type.shape) and (
                    pairs := self.unaffected(arg, self.op)) is not None:
                self.assumed.update(pairs)
                snapshots.append(f"{self.arrays[arg]} = {self.arrays[arg]}.tolist()")
        prologue[arrays:arrays] = snapshots
        # a parameter that no written load or store touches may be any array
        self.assumed = {(a, b) for a, b in self.assumed
                        if a in self.arrays and b in self.arrays}
        params += ["T", "X"]
        if self.assumed:    # the alias-safe variant takes any other call
            pairs = sorted((a.index, b.index) for a, b in self.assumed)
            test = " or ".join(f"{self.arrays[body.args[a]]} is "
                               f"{self.arrays[body.args[b]]}" for a, b in pairs)
            call = f"{self.pyname}_aliased({', '.join(params)})"
            prologue.insert(arrays, f"if {test}: return {call}")
        self.fold()
        return "\n".join(self.unit(params, prologue)) + "\n"

    def unit(self, params: list, prologue: list) -> list:
        """The lines defining this function, its counts folded and its
        closures defined at its entry, after ``prologue``."""
        if self.returned is not None:
            self.emit(1, "return (" + "".join(f"{r}, " for r in self.returned)
                      .rstrip() + ")")
        if self.counters:
            prologue.insert(0, " = ".join(self.counters) + " = 0")
        return [f"def {self.pyname}({', '.join(params)}):"] + [
            "    " + line for line in prologue + self.closures] + self.lines

    def nested(self) -> "_FuncGen":
        """A generator for the closure that runs a region op past MAX_DEPTH.

        It shares the maps from values to names, intervals and arrays; its
        lines, counts and closures are its own, and it returns nothing. It
        reads this function's locals as a Python closure does: by name,
        when it is called (``call_nested``).
        """
        # advance n before the copy: call_nested takes the child's n back
        pyname = self.fresh(f"{self.pyname}_n")
        child = copy.copy(self)
        child.pyname = pyname
        child.lines, child.blocks, child.counters = [], [], []
        child.bookkeeping, child.closures = [], []
        child.returned = None
        # its entry is its level 0: every local it reads from here is there
        child.levels, child.headers = {}, [_Level(0, 1, None)]
        child.partials, child.hoisted = {}, {}
        return child

    def call_nested(self, child: "_FuncGen", depth: int) -> None:
        """Define ``child`` at this function's entry, a closure of no
        parameters, and call it here, unless it writes nothing (a loop of
        no trips)."""
        self.n = child.n
        child.close_loops(0)
        child.fold()
        if child.lines:
            self.closures += child.unit([], [])
            self.emit(depth, f"{child.pyname}()")

    def fold(self) -> None:
        """Add every block's static counts, times its count, to the tally."""
        per_slot: list = [{} for _ in range(BOOKKEEPING + 1)]
        for (coef, var), stat in self.blocks:
            for slot, k in enumerate(stat):
                if k:
                    per_slot[slot][var] = per_slot[slot].get(var, 0) + coef * k
        for coef, var in self.bookkeeping:
            per_slot[BOOKKEEPING][var] = per_slot[BOOKKEEPING].get(var, 0) + coef
        for slot, terms in enumerate(per_slot):
            rendered = [_render((coef, var)) for var, coef in terms.items()
                        if coef and var is not None]
            if terms.get(None):
                rendered.append(str(terms[None]))
            if rendered:
                self.emit(1, f"T[{slot}] += {' + '.join(rendered)}")

    # -- blocks -------------------------------------------------------------

    def block(self, block, count: tuple, depth: int) -> None:
        """Write a block's ops; ``count`` is how many times the block runs."""
        stat = [0] * BOOKKEEPING
        self.blocks.append((count, stat))
        self.offsets = {}
        coef, var = count   # its runs, where known: a kernel's threads too
        runs = coef if var is None else coef * math.prod(self.extents) \
            if var == "nt" and self.extents else 0
        for op in block.ops:
            name = op.name
            if name not in OP_SLOT:
                raise UnknownOperation(
                    f"the interpreter cannot execute {name!r}")
            if OP_SLOT[name] is not None:
                stat[OP_SLOT[name]] += 1
            if name == "arith.constant":    # a literal: no statement
                if op.results[0] not in self.names:     # or an earlier copy's
                    self.names[op.results[0]] = self.literal(constant_value(op))
            elif op.regions:
                if self.plan[op].closure:
                    child = self.nested()
                    getattr(child, _HANDLERS[name])(op, (1, None), 1)
                    self.call_nested(child, depth)
                else:
                    getattr(self, _HANDLERS[name])(op, count, depth)
                self.offsets = {}
            elif name == "func.return":   # read after the run, not in it
                self.returned = tuple(self.val(v) for v in op.operands)
            elif op in self.dead:
                pass
            elif name in _HANDLERS:
                if name == "memref.load":
                    buf = op.operands[0]
                    self.reads[buf] = self.reads.get(buf, 0) + runs
                for line in getattr(self, _HANDLERS[name])(op):
                    self.emit(depth, line)

    def scan(self, block, plan: _Plan, depth: int) -> None:
        """One pass over the ops of ``block``, written at ``depth``, and
        first of the blocks in them: it rolls each loop that may roll
        (``rolled``), notes the facts of each integer (``learn``) and of
        the block in ``plan``, its op's, and ``decide``s each loop in it.

        It finds the results used once, later in the same straight-line
        run. Such a result is written into its use as an expression, which
        is evaluated where the outermost folded use is written. A pure op
        reads only SSA locals, which never change, and cannot raise, so
        computing it there is unobservable. So is a load's read when no op
        before that point writes memory; its bounds check stays where the
        load is. For the same reason a pure op, or a load no index of which
        needs a check, whose result nothing reads but dead ops is dead: it
        writes no statement. So is every op of a loop with a literal
        dimension of no trips, which stores nothing.
        """
        region = block is not self.op.body()    # not the function's
        run, writes, into, ops = 0, 0, None, 0
        size = 0 if region else None    # only a region op's is read
        where = {}          # op -> (run, memory writes before it)
        for op in block.ops:
            name = op.name
            self.learn(op)
            if name == "arith.constant":    # neither folds nor takes a fold
                continue
            ops += name != "scf.yield"
            if op.regions:
                run += 1
                inner = self.plan[op] = _Plan(self.rolled(op) or op.body())
                dims = self.dims(op) if name in _LOOPS else ()
                dead = any(c and not range(*c) for c in dims)
                if dead:    # it never runs
                    self.dead.update(op.walk_nested())
                opens = sum(c is None or len(range(*c)) != 1 for c in dims) \
                    if name == "scf.parallel" else 1
                # CPython compiles at most 20 nested loops per function
                inner.closure = depth + opens > MAX_DEPTH + 1
                at = 1 if inner.closure else depth
                if isinstance(inner.body, _Rolled):
                    inner.trips = inner.body.trips
                elif name in _FORS and dims[0]:
                    inner.trips = range(*dims[0])
                trips = inner.trips
                if trips is not None:
                    inner.innermost = (op.body().args[0], trips)
                for iv, c in zip(op.body().args, dims) if trips is None else ():
                    if c is None or len(range(*c)) != 1:    # a loop written
                        inner.innermost = c and (iv, range(*c))
                for body in (inner.body, *op.regions[1:]):  # an else-arm too
                    self.scan(body, inner, at + (
                        opens if trips is None or len(trips) > 1 else 0))
                if dead:    # no trip to write
                    inner.form = "trips"
                elif name in _LOOPS and op not in self.dead:
                    self.decide(op, at)
                for buf, stored in () if dead else inner.stores.items():
                    _note(plan.stores, buf, stored)
                grown = None    # in a nest, per trip; in the loop it jams into, once
                if trips is not None and len(trips) <= UNROLL_TRIPS:
                    grown, into = inner.size and len(trips) * inner.size, inner.into
                elif trips and len(trips) >= SLICE_TRIPS:
                    grown, into = inner.size, op
                size = None if size is None or grown is None else size + grown
            else:
                if name == "memref.store":
                    _note(plan.stores, op.operands[1], (op.operands[2:], op))
                elif name in _CALLS:    # a call may store to any buffer
                    plan.stores[None] = _MANY
                if name not in _SLICEABLE:
                    size = None
                elif size is not None:
                    size += name != "scf.yield"
            where[op] = (run, writes)
            writes += name in _WRITES
        plan.size = None if into is not None and ops != 1 else size
        plan.into = into
        point = {}      # folded op -> the op whose statement evaluates it
        for op in reversed(block.ops):
            name = op.name
            if (name in _PURE or name == "memref.load") \
                    and all(u in self.dead for u, _ in op.results[0].uses) \
                    and (name in _PURE or self.in_bounds(op)):
                self.dead.add(op)
                continue
            if op in self.dead:
                continue
            at = region and _INDEX_FROM.get(name)
            if at:      # what the block touches, and whether it can raise
                _note(plan.touches, op.operands[at - 1], (op.operands[at:],))
                plan.free = plan.free and self.in_bounds(op)
            elif op.regions and region:
                inner = self.plan[op]
                plan.free = plan.free and inner.free and (
                    name in ("affine.for", "scf.if") or name == "scf.for"
                    and self.step_proven(op.operands[2]))
                plan.height = max(plan.height, inner.height + 1)
                for buf, touched in inner.touches.items():
                    _note(plan.touches, buf, touched)
            if name not in _PURE and name != "memref.load":
                continue
            uses = op.results[0].uses
            if len(uses) != 1:
                continue
            (user, _), = uses
            if user.parent is not op.parent or user.regions \
                    or user.name in _TERMINATORS:
                continue
            at = point.get(user, user)
            (run, writes), (at_run, at_writes) = where[op], where[at]
            if run == at_run and (op.name in _PURE or writes == at_writes):
                point[op] = at
                self.foldable.add(op.results[0])

    def rolled(self, loop: Operation):
        """``_rolled`` of an scf.for over literal bounds (``dims``), unless
        an op of its first run may name its location in an error where a
        copy's is another: a launch, or an access ``within`` does not prove.
        A rolled loop's induction variables are learnt anew, over its
        rolled trips."""
        bounds = loop.name == "scf.for" and self.dims(loop)[0]
        rolled = bounds and _rolled(loop, *bounds)
        if rolled:
            for op in (loop, *rolled.ops):
                self.learn(op, rolled.copies)
            if any(op.name == "gpu.launch_func" or op.name in _INDEX_FROM
                   and not self.in_bounds(op) for op in rolled.moved):
                self.learn(loop)    # it keeps its copies
                return None
        return rolled

    def learn(self, op: Operation, copies: int = 1) -> None:
        """Note in ``bounds`` and ``forms``, the one record of integer facts,
        the interval and linear form of the integer result of ``op``, or of
        the induction variables of a loop (a rolled one of ``copies`` runs),
        from what they hold of its operands, its literal bounds by ``dims``."""
        name = op.name
        if name in _LINEAR_OPS:
            self.note(op.results[0], *_facts(op, self.bounds, self.forms))
        elif name == "arith.constant" and isinstance(c := constant_value(op), int):
            self.note(op.results[0], (c, c))
        elif name in ("gpu.block_id", "gpu.thread_id") and self.extents:
            r, dim = op.results[0], _gpu_dim(op)    # one variable per dimension
            self.note(r, (0, max(self.extents[dim] - 1, 0)),
                      ({self.ids.setdefault(dim, r): 1}, 0))
        elif name in _LOOPS:
            args = op.body().args
            for k, (iv, c) in enumerate(zip(args, self.dims(op))):
                if c:
                    lb, _, step = c
                    trips = _trips(*c)
                    interval = trips and (lb, lb + trips * step - step // copies)
                else:
                    interval = _iv_range(*map(self.bounds.get,
                                              op.operands[k::len(args)][:2]))
                self.note(iv, interval, ({iv: 1}, 0))

    def note(self, value: Value, interval, form=None) -> None:
        """Note a known interval and its form; a point's is its constant,
        and a form of no terms pins the interval to its constant."""
        if form and not form[0]:
            interval = (form[1], form[1])
        if interval:
            lo, hi = self.bounds[value] = interval
            self.forms[value] = form if lo < hi else ({}, lo)

    def body(self, block, count: tuple, depth: int, op) -> None:
        """A block that the loops ``op`` opened last run, or a function's.
        If it writes no statement, neither do those loops, as their counts
        are static: the elements bound before each take its place. But a
        loop whose step ``bad_step`` checks must iterate to raise, so with
        ``op`` None the block is ``pass``."""
        start = len(self.lines)
        self.block(block, count, depth)
        if len(self.lines) > start:
            return
        if op is None:
            self.emit(depth, "pass")
            return
        while self.headers[-1].op is op \
                and self.headers[-1].at == len(self.lines):
            lv = self.headers.pop()
            self.lines[lv.at - 1:] = ["    " * (lv.depth - 1) + line
                                      for line in lv.before]

    # -- flat ops: each returns its statements ----------------------------------

    def float_binop(self, op: Operation) -> list:
        a, b = (self.val(v) for v in op.operands)
        expr = (f"fdiv({a}, {b})" if op.name == "arith.divf"
                else f"{a} {_FOPS[op.name]} {b}")
        if op.results[0].type.kind == "f32":
            expr = f"to_f32({expr})"
        return self.assign(op.results[0], expr)

    def int_binop(self, op: Operation) -> list:
        sign = _IOPS[op.name]
        (a, b), r = op.operands, op.results[0]
        ca, cb = self.const(a), self.const(b)
        if cb == 0 and sign != "*" or cb == 1 and sign == "*":
            return self.alias(r, a)
        if ca == 0 and sign == "+" or ca == 1 and sign == "*":
            return self.alias(r, b)
        interval = self.bounds.get(r)
        expr = f"{self.val(a)} {sign} {self.val(b)}"
        if interval is None:
            return self.assign(r, _wrap_expr(expr, r.type.kind))
        if interval[0] == interval[1]:  # a constant: fold it
            self.names[r] = self.literal(interval[0])
            return []
        if self.fold_linear(r):
            return []
        return self.assign(r, expr)

    def cmpf(self, op: Operation) -> list:
        a, b = (self.val(v) for v in op.operands)
        pred = _FPREDS[op.attributes["predicate"].value]
        return self.assign(op.results[0], pred.format(a=a, b=b))

    def cmpi(self, op: Operation) -> list:
        a, b = (self.val(v) for v in op.operands)
        pred = _IPREDS[op.attributes["predicate"].value]
        return self.assign(op.results[0], f"{a} {pred} {b}")

    def cast(self, op: Operation) -> list:
        src, r = op.operands[0], op.results[0]
        if r.type.kind != "i32" or r in self.bounds:  # learnt: it fits
            return self.alias(r, src)
        return self.assign(r, _wrap_expr(self.val(src), "i32"))

    def load(self, op: Operation) -> list:
        buf, r = op.operands[0], op.results[0]
        if buf in self.promoted:    # every access in the loop is to it
            return self.assign(r, self.promoted[buf])
        lines = []
        if op in self.slots:    # a later copy of a body that jams (``jam``)
            at, sliced, lv = self.slots[op]
        else:
            at, lv = self.slicing and self.slice_of(buf, op.operands[1:]), None
            sliced = bool(at)
            if not sliced:  # an element: bound before a loop, or read where used
                lines, at, level = self.address(op, buf, op.operands[1:])
                if level is not None and level + 1 < len(self.headers) and r.uses:
                    lv = self.invariant(buf, level + 1)
            if self.slicing is not None:
                self.slots[op] = (at, sliced, lv)
        text = at[self.copy]
        if sliced:  # by its local, or by what the copy before stored there
            if self.stored and text == self.stored[0]:
                return self.assign(r, self.stored[1])
            zipped = self.slicing[2]
            if text not in zipped:
                zipped[text] = self.fresh("x")
            self.names[r] = zipped[text]
            return []
        element = f"{self.arrays[buf]}[{text}]"
        if lv is None:
            return lines + self.assign(r, element)
        if element not in lv.loads:     # bound just before the loop of ``lv``
            lv.loads[element] = self.fresh("v")
            lv.before.append(f"{lv.loads[element]} = {element}")
        self.names[r] = lv.loads[element]
        return lines

    def store(self, op: Operation) -> list:
        value, buf = op.operands[:2]
        expr = self.val(value)  # in its width: ops, loads and parameters wrap
        if self.slicing is not None and buf not in self.promoted:
            # every copy's slice, the next one's read of it, and the statement
            text = (self.stored or self.slice_of(buf, op.operands[2:]))[0]
            self.stored = (text, expr[1:-1] if value in self.folded else expr,
                           f"{text} = array({self.arrays[buf]}.typecode, [{expr}")
            return []
        target = self.promoted.get(buf)
        if target is not None:
            return [f"{target} = {expr}"]
        lines, (off,), _ = self.address(op, buf, op.operands[2:])
        lines.append(f"{self.arrays[buf]}[{off}] = {expr}")
        return lines

    def address(self, op: Operation, buf: Value, indices) -> tuple:
        """Bounds checks for the unproven dimensions, the flat offset (in
        each copy of a jammed body), and the innermost loop level the offset
        changes in (None if it is checked or not linear).

        An index is checked against an extent once per run: a second check
        cannot fail once the first passed. The offset is linearised: the
        terms of loops outside the innermost one come from partial sums
        bound in their headers (``hoist``).
        """
        lines, where, checked = [], None, False
        for v, extent in zip(indices, buf.type.shape):
            if self.within(v, extent):
                continue
            checked = True
            if (v, extent) not in self.offsets:
                self.offsets[v, extent] = None
                expr = self.val(v)
                where = where or self.constant(op.location)
                lines.append(f"if not 0 <= {expr} < {extent}: "
                             f"oob({expr}, {extent}, {self.val(buf)}, {where})")
        coefs, fixed, rest = self.linearise(buf, indices)
        terms, level = self.hoist(coefs)
        if checked or rest:
            level = None
        terms = terms + [(self.val(v), stride) for v, stride in rest]
        if len(terms) > 1 or any(coef != 1 for _, coef in terms):
            key = _sum(terms)
            if "[" not in key:  # reads no memory: reusable in this run
                base = self.offsets.get(key)
                if base is None:
                    base = self.offsets[key] = self.fresh("o")
                    lines.append(f"{base} = {key}")
                terms = [(base, 1)]
        return lines, [_sum(terms, k) for k in fixed], level

    def linearise(self, buf: Value, indices) -> tuple:
        """The flat offset of ``indices`` into ``buf``, by their linear
        forms: {induction Value: coef}, the constant in each copy of a
        jammed body (the jammed loops' terms moved into it), and (index,
        stride) per nonlinear index."""
        shape = buf.type.shape
        strides = self.strides.get(shape)
        if strides is None:
            strides = self.strides[shape] = row_major_strides(shape)
        coefs, fixed, rest = {}, 0, []
        for v, stride in zip(indices, strides):
            form = self.forms.get(v)
            if form is None:
                rest.append((v, stride))
                continue
            for iv, coef in form[0].items():
                coefs[iv] = coefs.get(iv, 0) + coef * stride
            fixed += form[1] * stride
        if not self.moving:
            return coefs, [fixed], rest
        moves = [coefs.pop(v, 0) for v in self.moving]
        return coefs, [fixed + sum(c * t for c, t in zip(moves, point))
                       for point in self.points], rest

    def hoist(self, coefs: dict) -> tuple:
        """Σ coef·iv, over induction Values, as terms of the current loop
        level, led by the partial sum of the outer levels' terms, and the
        innermost level it changes in; each term by its local (``named``),
        as each copy written per trip names its own.

        Each outer level's partial sum adds its terms to the one before it
        and is bound once, in the header of the loop that binds its
        variables; a bare name binds nothing. While a nest is written per
        trip, every open level is an outer one.
        """
        current, coefs = len(self.headers) - (not self.copying), self.named(coefs)
        key = (current, tuple(coefs.items()))
        if key in self.hoisted:
            return self.hoisted[key]
        by_level: dict = {}
        for name, coef in coefs.items():
            by_level.setdefault(self.levels.get(name, 0), []).append((name, coef))
        inner = by_level.pop(current, [])
        partial = None
        for level in sorted(by_level):
            terms = sorted(by_level[level])
            if partial is None and len(terms) == 1 and terms[0][1] == 1:
                partial = terms[0][0]
                continue
            name = self.partials.get((partial, tuple(terms)))
            if name is None:
                name = self.partials[partial, tuple(terms)] = self.fresh("h")
                head = [(partial, 1)] if partial else []
                self.headers[level].sums.append(f"{name} = {_sum(head + terms)}")
            partial = name
        terms = ([(partial, 1)] if partial else []) + inner
        level = current if inner else max(by_level, default=0)
        self.hoisted[key] = terms, level
        return terms, level

    # -- elements in locals -------------------------------------------------

    def separate(self, a: Value, b: Value, loop: Operation):
        """How buffers ``a`` and ``b`` are known to be two arrays: ``()``
        always, a pair of parameters under the entry guard, or None if
        they may be one.

        An alloc is a new array, so it is another than a parameter or
        another alloc, unless ``loop`` makes it anew in each iteration. Any
        other memref, such as a call's result, may be any array.
        """
        if a is b:
            return None
        entry, fresh = self.op.body(), False
        for v in (a, b):
            op = v.owner
            if op is entry:     # a parameter
                continue
            if op.__class__ is Operation and op.name in _ALLOCS \
                    and not _defined_in(v, loop):
                fresh = True
            else:
                return None
        if fresh:
            return ()
        if self.guarded:
            return ((a, b) if a.index < b.index else (b, a),)
        return None

    def unaffected(self, buf: Value, loop: Operation):
        """The pairs under which nothing ``loop`` stores to may be ``buf``'s
        array, or None if something may."""
        pairs: set = set()
        for other in self.plan[loop].stores:
            pair = None if other is None else self.separate(buf, other, loop)
            if pair is None:
                return None
            pairs.update(pair)
        return pairs

    def invariant(self, buf: Value, level: int):
        """The level of the outermost loop, from ``level`` in, that does
        not define ``buf`` and stores to no array that may be its array:
        an element read from it there is bound just before that loop. None
        if there is no such loop."""
        if self.unaffected(buf, self.headers[-1].op) is None:
            return None     # nor can any loop around that one
        for lv in self.headers[level:]:     # a parameter is outside them all
            pairs = self.unaffected(buf, lv.op)
            if pairs is not None and (buf.owner is self.op.body()
                                      or not _defined_in(buf, lv.op)):
                break
        else:
            return None
        self.assumed.update(pairs)
        return lv

    def keep(self, loop: Operation, depth: int) -> list:
        """The elements ``loop``, whose body is written at ``depth``, reads
        and writes at one address it never changes, at linear indices
        defined outside it: (buffer, a store of it, the pairs of parameters
        assumed distinct) for each. The loop must touch no other array that
        may hold such an element, and nothing in it may raise (``free``),
        so a run that raises leaves the buffers as it found them; nor may
        it run a region op in a closure past MAX_DEPTH, which would take
        the local for its own."""
        plan = self.plan[loop]
        if None in plan.stores or not plan.free \
                or depth + plan.height > MAX_DEPTH + 1:
            return []
        kept = []
        for buf, where in plan.stores.items():
            if where is _MANY or plan.touches[buf] is _MANY \
                    or _defined_in(buf, loop) or not all(
                        not _defined_in(v, loop) and self.forms.get(v)
                        for v in where[0]):
                continue
            pairs = set()
            for other in plan.touches.keys() - {buf}:
                pair = self.separate(buf, other, loop)
                if pair is None:
                    break
                pairs.update(pair)
            else:
                kept.append((buf, where[1], pairs))
        return kept

    def unchanged(self, loop: Operation) -> set:
        """The stores in ``loop``, a nest written per trip, that its first trip
        alone writes: of a constant or a value from outside it, at an address
        that moves with none of its loops, to an array no other store may write."""
        stores = [op for op in loop.walk_nested()
                  if op.name == "memref.store" and op not in self.dead]
        once = set()
        for store in stores:
            value, buf, *indices = store.operands
            ends = [buf, *(iv for v in indices      # an index of no form by itself
                           for iv in (self.forms.get(v) or ({v: 1},))[0])]
            if getattr(value.defining_op, "name", "") != "arith.constant":
                ends.append(value)
            if any(_defined_in(v, loop) for v in ends):
                continue
            pairs = [self.separate(buf, other.operands[1], loop)
                     for other in stores if other is not store]
            if None not in pairs:
                once.add(store)
                self.assumed.update(*pairs)
        return once

    def promote(self, loop: Operation, reads: list) -> list:
        """Read each element the plan keeps in a local around ``loop``
        into it, by a line added to ``reads``, which go just before the
        loop: (buffer, local, element) for each. An element that a loop
        around this one keeps is in that loop's local already, and one
        that its first trip stores before any read is read nowhere."""
        promoted = []
        for buf, store, pairs in self.plan[loop].keep:
            if buf in self.promoted:
                continue
            _, (off,), _ = self.address(store, buf, store.operands[2:])
            element = f"{self.arrays[buf]}[{off}]"
            local = self.promoted[buf] = self.fresh("e")
            if not self.stored_first(loop, buf, store):
                reads.append(f"{local} = {element}")
            self.assumed.update(pairs)
            promoted.append((buf, local, element))
        return promoted

    def stored_first(self, loop: Operation, buf: Value, store: Operation) -> bool:
        """Whether ``store`` is the first access to ``buf`` in ``loop``, in
        pre-order, and runs in its first trip: neither it nor a loop between
        it and ``loop`` is in an scf.if, and each of those loops, ``loop``
        too, has literal trips, at least one."""
        first = next(op for op in loop.walk_nested() if op.name in _INDEX_FROM
                     and op.operands[_INDEX_FROM[op.name] - 1] is buf)
        for op in () if first is not store else ancestors(store):
            if not self.plan[op].trips:     # an scf.if has none either
                return False
            if op is loop:
                return True
        return False

    # -- loops over slices ---------------------------------------------------

    def sliceable(self, loop: Operation):
        """The slice form ``loop`` may take: "reduce", "map" or None. The
        loop that runs its body is over SLICE_TRIPS or more literal trips,
        and every address is linear (``linearise``) and moves by a stride of
        at least 1 or not at all, a live load's moves (a dead one is written
        nowhere); in the reduce form the store's element is kept in a local
        (``keep``, as it is if a loop around keeps it); in the map form the
        store's moves with that loop, the stored buffer is read only at the
        stored offset, and no op needs a statement: each pure op, and each
        read of what a store before it wrote, folds or names only an
        address. A map-form loop notes in ``jam`` what a nest that jams
        into it must not define, and a short nest that is all of its body
        (``nest_of``) jams into it, its loops taking it as their form."""
        plan = self.plan[loop]
        iv, trips = plan.innermost or (None, ())
        if len(trips) < SLICE_TRIPS or not self.index_only(iv):
            return None
        nest, block = self.nest_of(loop)
        loads = [op for op in block.ops
                 if op.name == "memref.load" and op not in self.dead]
        stores = [op for op in block.ops if op.name == "memref.store"]
        if len(stores) != 1 or any(op.name not in _SLICEABLE for op in block.ops) \
                or not plan.free or nest and (plan.closure or plan.size > UNROLL_OPS):
            return None
        (store,) = stores
        buf, offsets = store.operands[1], {}
        for op in loads + stores:   # their offsets, terms over induction Values
            at = _INDEX_FROM[op.name]
            coefs, _, rest = offsets[op] = self.linearise(
                op.operands[at - 1], op.operands[at:])
            if rest or coefs.get(iv, 0) < 0:
                return None
        if not any(offsets[op][0].get(iv) for op in loads):
            return None
        if any(buf is kept for kept, _, _ in plan.keep):
            return None if nest else "reduce"   # keep checked the buffers it reads
        if not offsets[store][0].get(iv):
            return None
        pairs, jam = set(), [v for v in offsets[store][0] if v is not iv]
        for load in loads:    # proven, so one offset is one element
            other, r = load.operands[0], load.results[0]
            pair = self.separate(other, buf, loop)
            if pair is None and (other is not buf
                                 or offsets[load] != offsets[store]):
                return None
            if other is buf and r not in self.foldable:     # read by name
                if block.ops.index(load) > block.ops.index(store):
                    return None
                jam = None      # a name the jammed copies would share
            pairs.update(pair or ())
        if any(r not in self.foldable and not (self.index_only(r)
                                                and self.forms.get(r))
               for r in (op.results[0] for op in block.ops
                         if op.name in _PURE and op not in self.dead)):
            return None
        if nest and (jam is None or any(_defined_in(v, nest[0]) for v in jam)):
            return None     # the copies would store to one name, or apart
        self.assumed.update(pairs)
        plan.jam = jam
        for op in nest:
            self.plan[op].form = loop
        return "map"

    def nest_of(self, loop: Operation) -> tuple:
        """The loops of the perfect nest that is all of the body of ``loop``,
        each of 1 to UNROLL_TRIPS literal trips and in no closure, outermost
        first, and the block the innermost one runs."""
        nest, block = [], self.plan[loop].body
        while True:
            ops = [op for op in block.ops if op.name != "arith.constant"]
            inner = len(ops) == 2 and ops[0].name in _FORS and self.plan[ops[0]]
            if not inner or inner.closure or not inner.trips \
                    or len(inner.trips) > UNROLL_TRIPS:
                return nest, block
            nest.append(ops[0])
            block = inner.body

    def loop_body(self, loop: Operation, count: tuple, depth: int) -> None:
        """The body of ``loop``, run by the last loop opened: over slices
        of its arrays in a slice form, else as it is. In the map form, and
        so as the loop a nest jams into, one statement is every copy's."""
        form, block = self.plan[loop].form, self.plan[loop].body
        if form not in ("map", "reduce"):
            self.body(block, count, depth, loop)
            return
        at = len(self.lines)
        self.slicing = (*self.plan[loop].innermost, {})
        if form == "map":   # its body once, then the statement (``jam``)
            self.block(block, count, depth)
            self.lines[at - 1:] = ["    " * (depth - 1) + self.jam(loop)]
        else:
            self.body(block, count, depth, loop)
            self.lines[at - 1] = "    " * (depth - 1) + self.zip_clause() + ":"
        self.slicing = self.stored = None
        self.moving, self.points, self.slots, self.copy = [], [()], {}, 0

    def slice_of(self, buf: Value, indices):
        """The elements of ``buf`` at ``indices`` over the trips of the loop
        being sliced, as a slice of its array in each copy of a jammed
        body; None for an address that does not move, whose element the
        loop form's load reads."""
        iv, trips, _ = self.slicing
        coefs, fixed, _ = self.linearise(buf, indices)
        coef = coefs.pop(iv, 0)
        if not coef:
            return None
        step = coef * trips.step
        terms, _ = self.hoist(coefs)
        span, slices = len(trips) * step, []
        for k in fixed:
            start = _sum(terms, k + coef * trips[0])
            stop = f"{start} + {span}" if terms else str(int(start) + span)
            slices.append(f"{self.arrays[buf]}[{start}:{stop}"
                          + (f":{step}]" if step > 1 else "]"))
        return slices

    def zip_clause(self) -> str:
        """``for`` over the elements of the slices the sliced body reads."""
        zipped = self.slicing[2]
        if len(zipped) == 1:
            ((text, name),) = zipped.items()
            return f"for {name} in {text}"
        return f"for {', '.join(zipped.values())} in zip({', '.join(zipped)})"

    def alloc(self, op: Operation) -> list:
        r = op.results[0]
        ty = r.type
        make = f"Buffer({ty.shape!r}, {ty.element.kind!r})"
        if all(use in self.dead or use.name == "memref.dealloc"
               for use, _ in r.uses):   # made only for the error it may raise
            return [make]
        return [f"{self.bind(r)} = {make}", *self.bind_array(r)]

    def call(self, op: Operation) -> list:
        callee = self.pynames[op.attributes["callee"].value[0]]
        args = [self.val(v) for v in op.operands] + ["T", "X"]
        call = f"{callee}({', '.join(args)})"
        if not op.results:
            return [call]
        lines = ["".join(f"{self.bind(r)}, " for r in op.results) + f"= {call}"]
        for r in op.results:
            if r.type.kind == "memref":
                lines += self.bind_array(r)
        return lines

    def launch(self, op: Operation) -> list:
        where = self.constant(op.location)
        kernel = self.pynames["::".join(op.attributes["kernel"].value)]
        args = [self.val(v) for v in op.operands] + ["T", "X"]
        return [f"if X.mode != 'gpu_emulated': "
                f"launch_outside_gpu(X.mode, {where})",
                f"{kernel}({', '.join(args)})"]

    def gpu_id(self, op: Operation) -> list:
        """Name the id and the Value its dimension's forms are over, which
        may be dead, by its thread loop's variable, or 0 if there is none."""
        r, dim = op.results[0], _gpu_dim(op)
        self.names[r] = self.names[self.ids.get(dim, r)] = \
            "0" if self.const(r) == 0 else _GPU_IDS[dim]
        return []

    # -- region ops: each writes its statements ---------------------------------

    def loop(self, depth: int, name: str, source: str, op) -> int:
        """``for name in source:``, whose body is a new loop level that runs
        the body of ``op``; returns the depth of the body."""
        self.emit(depth, f"for {name} in {source}:")
        self.levels[name] = len(self.headers)
        self.headers.append(_Level(len(self.lines), depth + 1, op))
        return depth + 1

    def close_loops(self, level: int) -> None:
        """Write the partial sums of each level from ``level`` on into the
        header of its loop, and the elements bound before its loop before
        it, and leave those levels."""
        while len(self.headers) > level:
            lv = self.headers.pop()
            self.lines[lv.at:lv.at] = ["    " * lv.depth + line
                                       for line in lv.sums]
            if lv.before:
                self.lines[lv.at - 1:lv.at - 1] = [
                    "    " * (lv.depth - 1) + line for line in lv.before]

    def step_proven(self, step: Value) -> bool:
        r = self.bounds.get(step)
        return r is not None and r[0] >= 1

    def bind_trip(self, iv: Value, trip: int) -> None:
        """Name an induction variable by the literal of its one trip, and
        pin its interval there, for ``forget`` to learn its body anew."""
        self.names[iv] = self.literal(trip)
        self.note(iv, (trip, trip))

    def counted(self, op: Operation, count: tuple, depth: int) -> None:
        """A loop over literal bounds, in its plan's form; the elements it
        keeps in locals are stored back after it. A rolled body runs over
        the trips of the loop it was unrolled from; its block's other counts
        are added per trip of ``op``. A nest that jams is written once, with
        the counts of all its copies (``jam``); ``unchanged`` stores once."""
        plan = self.plan[op]
        iv, trips, block = op.body().args[0], plan.trips, plan.body
        rolled = isinstance(block, _Rolled)     # each trip of op runs its copies
        inner = _times(count, len(trips) // block.copies if rolled else len(trips))
        self.bookkeeping.append(inner)
        if rolled:
            self.blocks.append((inner, block.rest))
            inner = _times(count, len(trips))
        if isinstance(plan.form, Operation):    # a term ``jam`` moves
            self.names[iv] = f"j{len(self.moving)}"     # no local's name
            self.moving = self.moving + [iv]
            self.points = [p + (t,) for p in self.points for t in trips]
            self.block(block, inner, depth)
            return
        if plan.form != "trips":
            level = len(self.headers)
            body = self.loop(depth, self.bind(iv, "i"), _range(trips), op)
            promoted = self.promote(op, self.headers[-1].before)
            self.loop_body(op, inner, body)
            self.close_loops(level)
        else:
            reads, copying = [], self.copying
            self.copying = copying or len(trips) > 1
            promoted = self.promote(op, reads)
            self.lines += ["    " * depth + line for line in reads]
            once = plan.once - self.dead    # after the first trip, dead
            for trip in trips:
                self.bind_trip(iv, trip)
                self.forget(block)
                self.block(block, count, depth)
                self.dead |= once
            self.dead -= once
            self.copying = copying
        for buf, local, element in promoted:
            self.emit(depth, f"{element} = {local}")
            del self.promoted[buf]

    def jam(self, loop: Operation) -> str:
        """The slice statement of the body of ``loop``, or of the nest that
        is all of it, just written as the first copy of a nest that jams
        into it. Each other copy, in order, writes again what it names anew:
        its loads, at their own places (``slots``), the ops that read them,
        and its store, whose value the next copy reads of the stored slice."""
        ops = [op for op in self.nest_of(loop)[1].ops
               if op.name in _HANDLERS and op not in self.dead]
        for copy in range(1, len(self.points)):
            self.copy, fresh = copy, set()  # fresh: the values named anew
            for op in ops:
                if op in self.slots or not fresh.isdisjoint(op.operands):
                    getattr(self, _HANDLERS[op.name])(op)   # writes none
                    fresh.update(op.results)
        return f"{self.stored[2]} {self.zip_clause()}])"

    def forget(self, block) -> None:
        """Before a copy of a loop written once per trip, whose induction
        variable ``bind_trip`` pinned, drop what was noted of the values its
        body ``block`` defines but its constants, literals in every copy:
        names, folds and facts; and learn each op again, in program order,
        rolled bodies and else-arms included. (A nest that jams writes its
        body once.)"""
        for op in block.ops:
            if op.name == "arith.constant":
                continue
            for v in (*op.results, *(a for b in op.regions for a in b.args)):
                self.names.pop(v, None)
                self.bounds.pop(v, None)
                self.forms.pop(v, None)
                self.folded.discard(v)
            plan = self.plan.get(op)    # a region op's, as scan found it
            body = plan and plan.body
            self.learn(op, body.copies if isinstance(body, _Rolled) else 1)
            if body is not None:
                for inner in (body, *op.regions[1:]):
                    self.forget(inner)

    def for_loop(self, op: Operation, count: tuple, depth: int) -> None:
        if self.plan[op].trips is not None:     # over literal bounds
            self.counted(op, count, depth)
            return
        iv = op.body().args[0]
        level = len(self.headers)
        l, u, s = (self.val(v) for v in op.operands)
        rng = self.fresh("r")
        inner = (1, self.counter())
        proven = self.step_proven(op.operands[2])
        if proven:
            self.emit(depth, f"{rng} = range({l}, {u}, {s})")
        else:
            self.emit(depth, f"{rng} = range({l}, {u}, {s}) if {s} > 0 "
                             f"else bad_step({l}, {u})")
        self.emit(depth, f"{inner[1]} += len({rng})")
        depth = self.loop(depth, self.bind(iv, "i"), rng, op)
        self.bookkeeping.append(inner)
        self.body(op.body(), inner, depth, op if proven else None)
        self.close_loops(level)

    def dims(self, op: Operation) -> list:
        """Per dimension of a loop, (lb, ub, step) if each is a point and
        the step is positive, else None: the one reader of literal loop
        bounds. An affine.for's are its attributes, as a run reads them."""
        if op.name == "affine.for":
            return [static_bounds(op)[0][:3]]
        n = len(op.body().args)
        return [c if None not in c and c[2] > 0 else None for c in
                (tuple(map(self.const, op.operands[k::n])) for k in range(n))]

    def decide(self, loop: Operation, depth: int) -> None:
        """The ``form`` of ``loop``, written at ``depth``, and the elements
        it keeps in locals (``keep``), from what ``scan`` found of its body:
        a short nest's head is written per trip (``unchanged``), or jams
        into its innermost loop if that takes the map form and its store
        moves with none of the nest's loops (``_Plan.jam``); any other loop
        takes the slice form its body may take, a nest inside jamming in."""
        plan, form = self.plan[loop], "loop"
        trips = plan.trips
        if trips is not None and len(trips) < 2:
            form = "trips"      # at most one trip
        elif trips is not None and len(trips) <= UNROLL_TRIPS \
                and plan.size is not None and plan.free \
                and len(trips) * plan.size <= UNROLL_OPS \
                and depth + plan.height <= MAX_DEPTH + 1:
            into = plan.into    # its store moves with none of the nest's loops
            jam = None if into is None else self.plan[into].jam
            form = "trips" if into is None else "loop" if jam is None or any(
                _defined_in(v, loop) for v in jam) else into
        if trips and len(trips) > 1 and form in ("trips", "loop"):
            plan.keep = self.keep(loop, depth + (form == "loop"))
            plan.once = self.unchanged(loop) if form == "trips" else set()
        if form == "loop":
            form = self.sliceable(loop) or form
        plan.form = form

    def scf_parallel(self, op: Operation, count: tuple, depth: int) -> None:
        """Loops over the points, in the order ``itertools.product`` visits
        them, around the body: per dimension over literal bounds, over a
        literal range, or none for one trip; per other, over a range whose
        length is counted on entry, as a runtime scf.for's is."""
        n = len(op.body().args)
        unproven = [self.val(s) for s in op.operands[2 * n:]
                    if not self.step_proven(s)]
        if unproven:
            self.emit(depth, "if " + " or ".join(f"{s} <= 0" for s in unproven)
                      + ": bad_parallel_step()")
        if self.plan[op].form == "trips":
            return      # no points: nothing to write, its counts are x0
        dims = self.dims(op)
        level, coef, sizes = len(self.headers), 1, []
        for k, c in enumerate(dims):
            if c:
                coef *= len(range(*c))
                continue
            dims[k] = self.fresh("r")
            self.emit(depth, f"{dims[k]} = range("
                             f"{', '.join(map(self.val, op.operands[k::n]))})")
            sizes.append(f"len({dims[k]})")
        inner = _times(count, coef)
        if sizes:
            inner = (coef, self.counter())
            self.emit(depth, f"{inner[1]} += {' * '.join(sizes)}")
        self.bookkeeping.append(inner)
        for iv, c in zip(op.body().args, dims):
            if isinstance(c, str):
                depth = self.loop(depth, self.bind(iv, "i"), c, op)
            elif len(range(*c)) == 1:
                self.bind_trip(iv, c[0])
            else:
                depth = self.loop(depth, self.bind(iv, "i"), _range(range(*c)), op)
        self.loop_body(op, inner, depth)
        self.close_loops(level)

    def scf_if(self, op: Operation, count: tuple, depth: int) -> None:
        taken = self.counter()
        self.emit(depth, f"if {self.val(op.operands[0])}:")
        self.emit(depth + 1, f"{taken} += 1")
        self.block(op.body(0), (1, taken), depth + 1)
        if len(op.regions) == 2:
            start = len(self.lines)
            self.emit(depth, "else:")
            self.block(op.body(1), (1, f"({_render(count)} - {taken})"),
                       depth + 1)
            if len(self.lines) == start + 1:
                self.lines.pop()


def module_functions(module: Operation):
    """(key, op, is_kernel) for each func.func and each gpu.func kernel."""
    for name, op in SymbolTable(module).symbols.items():
        if op.name == "func.func":
            yield name, op, False
        elif op.name == "gpu.module":
            for kernel_name, kernel in SymbolTable(op).symbols.items():
                if kernel.name == "gpu.func":
                    yield f"{name}::{kernel_name}", kernel, True


def lower_module(module: Operation) -> dict:
    """Generate, compile and bind one Python function per func and kernel.

    The program returned is a dict of each ``Function`` by symbol, a
    kernel's keyed ``module::kernel``. It is valid while its module is
    unchanged: an aliased call generates code from the module then, so
    compile after the last pipeline. A function whose entry guard can fail
    gets its alias-safe variant from a stand-in that generates it on the
    first call that needs it.
    """
    entries = list(module_functions(module))
    pynames = {key: f"f{i}" for i, (key, _, _) in enumerate(entries)}
    extents = _launch_extents(module) if any(e[2] for e in entries) else {}
    constants: list = []
    namespace = dict(_RUNTIME, K=constants)
    units = []
    for key, op, _ in entries:
        gen = _FuncGen(op, pynames[key], pynames, extents.get(key), constants)
        units.append(gen.generate())
        if gen.assumed:
            namespace[f"{gen.pyname}_aliased"] = functools.partial(
                _alias_safe, namespace, op, gen.pyname, pynames, gen.extents)
    _define(units, namespace)
    program = {}
    for key, op, is_kernel in entries:
        program[key] = Function(
            name=key,
            param_types=tuple(a.type for a in op.body().args),
            is_kernel=is_kernel,
            fn=namespace[pynames[key]],
        )
    return program


def _alias_safe(namespace: dict, op: Operation, pyname: str, pynames: dict,
                extents, *args):
    """Generate and compile the alias-safe variant of ``op``, which takes
    the place of this stand-in in ``namespace``, and call it."""
    gen = _FuncGen(op, f"{pyname}_aliased", pynames, extents, namespace["K"],
                   guarded=False)
    _define([gen.generate()], namespace)
    return namespace[gen.pyname](*args)


def _define(units: list, namespace: dict) -> None:
    """Compile the units with one ``compile()`` and run their definitions."""
    exec(compile("".join(units), "<staircase>", "exec"), namespace)  # noqa: S102
