"""Compile a verified module for execution.

``compile_module`` is what ``run`` executes: one generated Python function
per func.func and gpu.func (see ``codegen``). ``compile_tapes`` builds the
flat instruction tapes that the reference evaluator ``_evalpy`` and the
race checker interpret.

In a tape, loops and branches flatten into jump-based code over a dense
register file (one slot per SSA value). Two constructs stay structured
because execution needs to schedule them: scf.parallel bodies become
sub-tapes with an explicit capture list, and gpu.launch_func references a
kernel tape by symbol. Instructions are plain tuples with a small-int
opcode first. The opcodes also index the per-run tally that both
evaluators count into and ``stats.fold_tally`` reads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from staircase.errors import UnknownOperation
from staircase.interp.buffer import to_f32, wrap_int
from staircase.ir.core import Block, Operation

# opcodes ---------------------------------------------------------------------

CONST = 0        # (CONST, dst, value)
BINF = 1         # (BINF, dst, fop, a, b, is_f32)
BINI = 2         # (BINI, dst, iop, a, b, dtype)
CMPF = 3         # (CMPF, dst, pred, a, b)
CMPI = 4         # (CMPI, dst, pred, a, b)
CAST = 5         # (CAST, dst, src, dtype|None)
LOAD = 6         # (LOAD, dst, buf, (idx...), location)
STORE = 7        # (STORE, src, buf, (idx...), location)
ALLOC = 8        # (ALLOC, dst, shape, dtype)
DEALLOC = 9      # (DEALLOC, buf)
LOOP_INIT_S = 10  # (op, i, lb_reg)        scf.for entry
LOOP_INIT_A = 11  # (op, i, lb_imm)        affine.for entry
LOOP_TEST_R = 12  # (op, i, ub_reg, end_pc)
LOOP_TEST_I = 13  # (op, i, ub_imm, end_pc)
LOOP_NEXT_R = 14  # (op, i, step_reg, head_pc)
LOOP_NEXT_I = 15  # (op, i, step_imm, head_pc)
JUMP = 16        # (JUMP, target_pc)
IF_FALSE = 17    # (IF_FALSE, cond, target_pc)   scf.if entry
PARALLEL = 18    # (PARALLEL, sub, (lb...), (ub...), (step...))
CALL = 19        # (CALL, (dst...), callee, (arg...))
RETURN = 20      # (RETURN, (src...))
LAUNCH = 21      # (LAUNCH, key, (grid...), (block...), (arg...), location)
GPUID = 22       # (GPUID, dst, dim, is_thread)
RETURN_GPU = 23  # (RETURN_GPU, ()) — gpu.return, charged to its own dialect

N_OPCODES = 24

# Which dialect each opcode's dynamic execution is charged to (None for
# internal bookkeeping instructions that are not ops).
OPCODE_PREFIX = (
    "arith", "arith", "arith", "arith", "arith", "arith",   # CONST..CAST
    "memref", "memref", "memref", "memref",                 # LOAD..DEALLOC
    "scf", "affine",                                        # LOOP_INIT_*
    None, None, None, None, None,                           # tests/next/jump
    "scf", "scf", "func", "func", "gpu", "gpu", "gpu",      # IF..RETURN_GPU
)

ARITH_OPCODES = frozenset({CONST, BINF, BINI, CMPF, CMPI, CAST})

_FOPS = {"arith.addf": 0, "arith.subf": 1, "arith.mulf": 2, "arith.divf": 3}
_IOPS = {"arith.addi": 0, "arith.subi": 1, "arith.muli": 2}
_FPREDS = {"oeq": 0, "one": 1, "olt": 2, "ole": 3, "ogt": 4, "oge": 5}
_IPREDS = {"eq": 0, "ne": 1, "slt": 2, "sle": 3, "sgt": 4, "sge": 5}


@dataclass
class SubTape:
    """A structured scf.parallel body: own register file, captured inputs."""

    code: tuple = ()
    n_regs: int = 0
    index_regs: tuple = ()
    captures: tuple = ()   # (outer_reg, inner_reg) pairs


@dataclass
class FuncTape:
    name: str
    code: tuple = ()
    n_regs: int = 0
    arg_regs: tuple = ()
    param_types: tuple = ()
    result_types: tuple = ()
    is_kernel: bool = False


@dataclass
class Program:
    """Compiled functions by symbol; kernels are keyed ``module::kernel``."""

    funcs: dict = field(default_factory=dict)

    def __getitem__(self, name: str):
        return self.funcs[name]

    def __contains__(self, name: str) -> bool:
        return name in self.funcs


def _int_dtype(ty) -> str:
    return "i32" if ty.kind == "i32" else "i64"


def constant_value(op: Operation):
    """The runtime value of an arith.constant, rounded or wrapped to its type."""
    value = op.attributes["value"].value
    kind = op.results[0].type.kind
    if kind == "f32":
        return to_f32(float(value))
    if kind == "f64":
        return float(value)
    if kind == "i1":
        return 1 if value else 0
    # i32/i64/index: keep register contents within the width
    return wrap_int(int(value), "i32" if kind == "i32" else "i64")


class _Compiler:
    """Register allocation and code emission for one tape."""

    def __init__(self, parent: "_Compiler | None" = None):
        self.parent = parent
        self.regs: dict = {}
        self.n_regs = 0
        self.code: list = []
        self.captures: list = []

    def reg_of(self, value) -> int:
        r = self.regs.get(value)
        if r is None:
            if self.parent is None:
                raise UnknownOperation(
                    f"value {value!r} has no register; module not verified?"
                )
            outer = self.parent.reg_of(value)
            r = self.define(value)
            self.captures.append((outer, r))
        return r

    def define(self, value) -> int:
        r = self.n_regs
        self.n_regs += 1
        self.regs[value] = r
        return r

    def emit(self, *ins) -> int:
        self.code.append(list(ins))
        return len(self.code) - 1

    def here(self) -> int:
        return len(self.code)

    def patch(self, pc: int, slot: int, target: int) -> None:
        self.code[pc][slot] = target

    def finish(self) -> tuple:
        return tuple(tuple(ins) for ins in self.code)

    # -- per-op compilation ---------------------------------------------------

    def block(self, b: Block) -> None:
        for op in b.ops:
            self.op(op)

    def op(self, op: Operation) -> None:
        name = op.name
        if name == "scf.yield":
            return
        if name == "arith.constant":
            self.emit(CONST, self.define(op.results[0]), constant_value(op))
        elif name in _FOPS:
            a, b = (self.reg_of(v) for v in op.operands)
            self.emit(BINF, self.define(op.results[0]), _FOPS[name], a, b,
                      op.results[0].type.kind == "f32")
        elif name in _IOPS:
            a, b = (self.reg_of(v) for v in op.operands)
            self.emit(BINI, self.define(op.results[0]), _IOPS[name], a, b,
                      _int_dtype(op.results[0].type))
        elif name == "arith.cmpf":
            pred = _FPREDS[op.attributes["predicate"].value]
            a, b = (self.reg_of(v) for v in op.operands)
            self.emit(CMPF, self.define(op.results[0]), pred, a, b)
        elif name == "arith.cmpi":
            pred = _IPREDS[op.attributes["predicate"].value]
            a, b = (self.reg_of(v) for v in op.operands)
            self.emit(CMPI, self.define(op.results[0]), pred, a, b)
        elif name == "arith.index_cast":
            src = self.reg_of(op.operands[0])
            ty = op.results[0].type
            dtype = "i32" if ty.kind == "i32" else None
            self.emit(CAST, self.define(op.results[0]), src, dtype)
        elif name == "memref.load":
            buf = self.reg_of(op.operands[0])
            idx = tuple(self.reg_of(v) for v in op.operands[1:])
            self.emit(LOAD, self.define(op.results[0]), buf, idx, op.location)
        elif name == "memref.store":
            src = self.reg_of(op.operands[0])
            buf = self.reg_of(op.operands[1])
            idx = tuple(self.reg_of(v) for v in op.operands[2:])
            self.emit(STORE, src, buf, idx, op.location)
        elif name in ("memref.alloc", "memref.alloca"):
            ty = op.results[0].type
            self.emit(ALLOC, self.define(op.results[0]), ty.shape,
                      ty.element.kind)
        elif name == "memref.dealloc":
            self.emit(DEALLOC, self.reg_of(op.operands[0]))
        elif name in ("scf.for", "affine.for"):
            self._loop(op)
        elif name == "scf.if":
            self._branch(op)
        elif name == "scf.parallel":
            self._parallel(op)
        elif name == "func.call":
            callee = op.attributes["callee"].value[0]
            args = tuple(self.reg_of(v) for v in op.operands)
            dsts = tuple(self.define(r) for r in op.results)
            self.emit(CALL, dsts, callee, args)
        elif name == "func.return":
            self.emit(RETURN, tuple(self.reg_of(v) for v in op.operands))
        elif name == "gpu.return":
            self.emit(RETURN_GPU, ())
        elif name == "gpu.launch_func":
            mod_sym, kernel_sym = op.attributes["kernel"].value
            grid = tuple(self.reg_of(v) for v in op.operands[:3])
            blocks = tuple(self.reg_of(v) for v in op.operands[3:6])
            args = tuple(self.reg_of(v) for v in op.operands[6:])
            self.emit(LAUNCH, f"{mod_sym}::{kernel_sym}", grid, blocks, args,
                      op.location)
        elif name in ("gpu.block_id", "gpu.thread_id"):
            dim = "xyz".index(op.attributes["dimension"].value)
            self.emit(GPUID, self.define(op.results[0]), dim,
                      name == "gpu.thread_id")
        else:
            raise UnknownOperation(
                f"the interpreter cannot execute {name!r}"
            )

    def _loop(self, op: Operation) -> None:
        body = op.body()
        i_reg = self.define(body.args[0])
        if op.name == "scf.for":
            lb, ub, step = (self.reg_of(v) for v in op.operands)
            self.emit(LOOP_INIT_S, i_reg, lb)
            head = self.emit(LOOP_TEST_R, i_reg, ub, -1)
            self.block(body)
            self.emit(LOOP_NEXT_R, i_reg, step, head)
        else:
            lb = wrap_int(op.attributes["lower_bound"].value, "i64")
            ub = wrap_int(op.attributes["upper_bound"].value, "i64")
            step = op.attributes["step"].value
            self.emit(LOOP_INIT_A, i_reg, lb)
            head = self.emit(LOOP_TEST_I, i_reg, ub, -1)
            self.block(body)
            self.emit(LOOP_NEXT_I, i_reg, step, head)
        self.patch(head, 3, self.here())

    def _branch(self, op: Operation) -> None:
        cond = self.reg_of(op.operands[0])
        enter = self.emit(IF_FALSE, cond, -1)
        self.block(op.body(0))
        if len(op.regions) == 2:
            skip = self.emit(JUMP, -1)
            self.patch(enter, 2, self.here())
            self.block(op.body(1))
            self.patch(skip, 1, self.here())
        else:
            self.patch(enter, 2, self.here())

    def _parallel(self, op: Operation) -> None:
        n = len(op.body().args)
        lbs = tuple(self.reg_of(v) for v in op.operands[:n])
        ubs = tuple(self.reg_of(v) for v in op.operands[n:2 * n])
        steps = tuple(self.reg_of(v) for v in op.operands[2 * n:])
        sub = _Compiler(parent=self)
        index_regs = tuple(sub.define(a) for a in op.body().args)
        sub.block(op.body())
        tape = SubTape(sub.finish(), sub.n_regs, index_regs,
                       tuple(sub.captures))
        self.emit(PARALLEL, tape, lbs, ubs, steps)


def _compile_func(op: Operation, *, is_kernel: bool = False) -> FuncTape:
    c = _Compiler()
    body = op.body()
    arg_regs = tuple(c.define(a) for a in body.args)
    c.block(body)
    results = op.attributes.get("results")
    result_types = tuple(a.value for a in results.value) if results else ()
    return FuncTape(
        name=op.attributes["sym_name"].value,
        code=c.finish(),
        n_regs=c.n_regs,
        arg_regs=arg_regs,
        param_types=tuple(a.type for a in body.args),
        result_types=result_types,
        is_kernel=is_kernel,
    )


def module_functions(module: Operation):
    """(key, op, is_kernel) for each func.func and each gpu.func kernel."""
    for op in module.body().ops:
        if op.name == "func.func":
            yield op.attributes["sym_name"].value, op, False
        elif op.name == "gpu.module":
            mod_sym = op.attributes["sym_name"].value
            for kernel in op.body().ops:
                if kernel.name == "gpu.func":
                    name = kernel.attributes["sym_name"].value
                    yield f"{mod_sym}::{name}", kernel, True


def compile_module(module: Operation) -> Program:
    """Generate and compile Python source for every function of the module."""
    from staircase.interp.codegen import lower_module  # imports this module

    return lower_module(module)


def compile_tapes(module: Operation) -> Program:
    """The instruction tapes of every function, for ``_evalpy``."""
    program = Program()
    for key, op, is_kernel in module_functions(module):
        program.funcs[key] = _compile_func(op, is_kernel=is_kernel)
    return program
