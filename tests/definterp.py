"""A definitional interpreter: the semantics ``run`` is tested against.

A recursive walk over the ops of a verified module, with a dict from SSA
values to what they hold: no registers, no jumps and no generated code
(Reynolds, "Definitional interpreters for higher-order programming
languages", 1972). Each op's meaning is one method below, named after the
op. The generated code ``run`` executes must leave the same buffers,
return the same results and count the same ExecStats, or raise the same
exception type with the same message.

What is not an op's meaning is shared with the program: argument and mode
checking, the stats tally, constants, scalar rounding and the error
raisers, so each message is written in one place.
"""
import operator
import time
from itertools import product

from staircase.errors import MissingMain, UnknownOperation
from staircase.interp.buffer import (
    Buffer,
    bad_loop_step,
    bad_parallel_step,
    constant_value,
    fdiv,
    launch_outside_gpu,
    out_of_bounds,
    row_major_strides,
    to_f32,
    wrap_int,
)
from staircase.interp.machine import check_args, normalize_mode
from staircase.interp.stats import BOOKKEEPING, OP_SLOT, fold_tally, new_tally
from staircase.ir.core import SymbolTable
from staircase.ir.verify import verify_or_raise

_BINARY = {
    "arith.addf": operator.add, "arith.subf": operator.sub,
    "arith.mulf": operator.mul, "arith.divf": fdiv,
    "arith.addi": operator.add, "arith.subi": operator.sub,
    "arith.muli": operator.mul,
}
_PREDICATES = {
    "oeq": operator.eq, "one": lambda a, b: a == a and b == b and a != b,
    "olt": operator.lt, "ole": operator.le, "ogt": operator.gt,
    "oge": operator.ge,
    "eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
    "sle": operator.le, "sgt": operator.gt, "sge": operator.ge,
}


def run(module, func_name, args, mode="sequential", workers=1):
    """Execute @func_name over args; returns (results, ExecStats)."""
    mode, workers = normalize_mode(mode, workers)
    verify_or_raise(module)
    symbols = SymbolTable(module)
    func = symbols.lookup(func_name)
    if func is None or func.name != "func.func":
        raise MissingMain(f"no function @{func_name} in this module")
    values = check_args(func_name, [a.type for a in func.body().args], args)
    machine = _Machine(symbols, mode)
    start = time.perf_counter()
    results = machine.call(func, values)
    wall = time.perf_counter() - start
    return results, fold_tally(machine.tally, wall, mode, workers)


class _Machine:
    """One run: the module's symbols, the mode, the tally, the GPU thread."""

    def __init__(self, symbols, mode):
        self.symbols = symbols
        self.mode = mode
        self.tally = new_tally()
        self.ids = None     # (bx, by, bz, tx, ty, tz) of the running thread

    def call(self, func, args) -> tuple:
        body = func.body()
        return self.block(body, dict(zip(body.args, args)))

    def block(self, block, env):
        """Run a block's ops in order; a function's return ends it with
        the values it returns."""
        for op in block.ops:
            name = op.name
            if name not in OP_SLOT:
                raise UnknownOperation(
                    f"the interpreter cannot execute {name!r}")
            if OP_SLOT[name] is not None:
                self.tally[OP_SLOT[name]] += 1
            if name in ("func.return", "gpu.return"):
                return tuple(env[v] for v in op.operands)
            _MEANING[name](self, op, env)
        return None

    # -- arith ---------------------------------------------------------------

    def arith_constant(self, op, env):
        env[op.results[0]] = constant_value(op)

    def binary(self, op, env):
        a, b = [env[v] for v in op.operands]
        value = _BINARY[op.name](a, b)
        kind = op.results[0].type.kind
        if kind == "f32":
            value = to_f32(value)
        elif kind != "f64":
            value = wrap_int(value, "i32" if kind == "i32" else "i64")
        env[op.results[0]] = value

    arith_addf = arith_subf = arith_mulf = arith_divf = binary
    arith_addi = arith_subi = arith_muli = binary

    def compare(self, op, env):
        a, b = [env[v] for v in op.operands]
        env[op.results[0]] = _PREDICATES[op.attributes["predicate"].value](a, b)

    arith_cmpf = arith_cmpi = compare

    def arith_index_cast(self, op, env):
        value, r = env[op.operands[0]], op.results[0]
        env[r] = wrap_int(value, "i32") if r.type.kind == "i32" else value

    # -- memref --------------------------------------------------------------

    def memref_load(self, op, env):
        buf, *indices = [env[v] for v in op.operands]
        env[op.results[0]] = buf.data[_offset(op, buf, indices)]

    def memref_store(self, op, env):
        value, buf, *indices = [env[v] for v in op.operands]
        offset = _offset(op, buf, indices)
        if buf.dtype in ("i32", "i64"):
            value = wrap_int(value, buf.dtype)
        buf.data[offset] = value

    def memref_alloc(self, op, env):
        ty = op.results[0].type
        env[op.results[0]] = Buffer(ty.shape, ty.element.kind)

    memref_alloca = memref_alloc

    def memref_dealloc(self, op, env):
        pass    # a buffer lives as long as a value holds it

    scf_yield = memref_dealloc

    # -- scf and affine ------------------------------------------------------

    def scf_for(self, op, env):
        self.loop(op, env, *[env[v] for v in op.operands])

    def affine_for(self, op, env):
        attrs = op.attributes
        self.loop(op, env, wrap_int(attrs["lower_bound"].value, "i64"),
                  wrap_int(attrs["upper_bound"].value, "i64"),
                  attrs["step"].value)

    def loop(self, op, env, lb, ub, step):
        """A step that is not positive fails once the first iteration ran."""
        body = op.body()
        i = lb
        while i < ub:
            self.tally[BOOKKEEPING] += 1
            env[body.args[0]] = i
            self.block(body, env)
            if step <= 0:
                bad_loop_step()
            i += step

    def scf_if(self, op, env):
        if env[op.operands[0]]:
            self.block(op.body(0), env)
        elif len(op.regions) == 2:
            self.block(op.body(1), env)

    def scf_parallel(self, op, env):
        """The points in row-major order, as one loop nest would visit them."""
        body = op.body()
        n = len(body.args)
        args = [env[v] for v in op.operands]
        lbs, ubs, steps = args[:n], args[n:2 * n], args[2 * n:]
        if any(step <= 0 for step in steps):
            bad_parallel_step()
        for point in product(*map(range, lbs, ubs, steps)):
            self.tally[BOOKKEEPING] += 1
            env.update(zip(body.args, point))
            self.block(body, env)

    # -- func and gpu --------------------------------------------------------

    def func_call(self, op, env):
        callee = self.symbols.lookup(*op.attributes["callee"].value)
        results = self.call(callee, [env[v] for v in op.operands])
        env.update(zip(op.results, results))

    def gpu_launch_func(self, op, env):
        """Every thread of the grid, one after another."""
        if self.mode != "gpu_emulated":
            launch_outside_gpu(self.mode, op.location)
        args = [env[v] for v in op.operands]
        kernel = self.symbols.lookup(*op.attributes["kernel"].value)
        outer = self.ids
        for ids in product(*map(range, args[:6])):
            self.tally[BOOKKEEPING] += 1
            self.ids = ids
            self.call(kernel, args[6:])
        self.ids = outer

    def gpu_id(self, op, env):
        dim = "xyz".index(op.attributes["dimension"].value)
        thread = op.name == "gpu.thread_id"
        env[op.results[0]] = self.ids[dim + 3 * thread]

    gpu_block_id = gpu_thread_id = gpu_id


# The method that gives each op its meaning, found by the op's name.
_MEANING = {name: getattr(_Machine, name.replace(".", "_")) for name in OP_SLOT
            if name not in ("func.return", "gpu.return")}


def _offset(op, buf, indices) -> int:
    """The flat offset of in-bounds indices; the first one outside its
    extent raises."""
    offset = 0
    strides = row_major_strides(buf.shape)
    for i, extent, stride in zip(indices, buf.shape, strides):
        if i < 0 or i >= extent:
            out_of_bounds(i, extent, buf, op.location)
        offset += i * stride
    return offset
