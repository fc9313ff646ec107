"""Derivative-free search over tile sizes and unroll factors.

A search owns one captured kernel module and one fixed set of seeded
inputs.  Every budgeted step instantiates the pipeline template at a
parameter point, runs the transformed module in the interpreter, and
scores it with the static cost model.  Trial 0 is always the identity
point, so its cost is the untransformed baseline and
``best.cost <= baseline.cost`` holds by construction.

Two strategies are provided.  ``random`` samples each coordinate
uniformly and independently.  ``one_plus_one_es`` keeps a parent point
and mutates each coordinate with probability one half, moving only on
strict improvement.  Both are pure functions of the seed.

A trial runs the pipeline on a clone of the kernel, which ``run_pipeline``
verifies first and after each pass, then compiles and calls the clone as
it is; the kernel itself is never rewritten.  A trial whose pipeline names
no pass, as the identity point's does, runs the baseline's program.  Its
results and buffers, compared by their bytes, must equal the baseline's:
every registered pass preserves them bit for bit.
"""
import math
import random
import struct

from staircase.errors import (
    EmptySpace,
    MissingMain,
    PassFailure,
    StaircaseError,
    VerificationFailed,
)
from staircase.interp import Buffer, cost as model_cost
from staircase.interp.buffer import copy_buffers
from staircase.interp.codegen import lower_module
from staircase.interp.machine import call
from staircase.ir.core import Operation, SymbolTable, clone_module
from staircase.ir.verify import verify_or_raise
from staircase.passes import pipeline_parse, run_pipeline
from staircase.tuner.space import ParamSpace, Trial

__all__ = ["default_pipeline", "evaluate", "search"]

def default_pipeline(tiles, unroll: int) -> str:
    """Render the pipeline spec for one parameter point.

    The identity point renders an empty pipeline so its trial is exactly
    the baseline: unit tiles add no tiling pass and factor 1 adds no
    unroll pass.  Unrolling is preceded by lower-affine so kernels
    captured with affine loops expose plain counted loops to it.
    """
    items = []
    if any(t != 1 for t in tiles):
        sizes = ", ".join(str(t) for t in tiles)
        items.append("scf-parallel-loop-tiling{sizes=[" + sizes + "]}")
    if unroll != 1:
        items.append("lower-affine")
        items.append("loop-unroll{factor=%d}" % unroll)
    return "builtin.module(func.func(" + ", ".join(items) + "))"


def _resolve_module(kernel) -> Operation:
    module = kernel() if callable(kernel) else kernel
    if not isinstance(module, Operation) or module.name != "builtin.module":
        raise StaircaseError(
            "tuner needs a builtin.module or a factory returning one, "
            f"got {module!r}"
        )
    return module


def _find_func(module: Operation, name: str | None) -> Operation:
    table = SymbolTable(module)
    if name is None:
        funcs = [op for op in table.symbols.values() if op.name == "func.func"]
        if not funcs:
            raise MissingMain("module has no func.func to tune")
        return funcs[0]
    op = table.lookup(name)
    if op is None or op.name != "func.func":
        raise MissingMain(f"no function named @{name} in module")
    return op


def _fresh_argument(ty, rng: random.Random):
    if ty.kind == "memref":
        kind = ty.element.kind
        size = math.prod(ty.shape)
        if ty.element.is_float:     # rng.uniform(-2.0, 2.0)'s own formula
            draw = rng.random
            data = [-2.0 + 4.0 * draw() for _ in range(size)]
        else:
            data = [rng.randrange(-50, 50) for _ in range(size)]
        return Buffer(ty.shape, kind, data)
    if ty.is_float:
        return rng.uniform(-2.0, 2.0)
    if ty.kind == "i1":
        return rng.randrange(2)
    if ty.kind == "index":
        return rng.randrange(0, 8)
    return rng.randrange(-50, 50)


def make_inputs(module: Operation, func: str | None, seed: int) -> list:
    """Deterministic arguments for the named function, same for every trial."""
    func_op = _find_func(module, func)
    rng = random.Random(seed)
    return [_fresh_argument(arg.type, rng) for arg in func_op.body().args]


def _bits(results) -> list:
    """The results with each float as its bytes."""
    return [struct.pack("<d", v) if type(v) is float else v for v in results]


def _digest(stats) -> dict:
    return {
        "total": stats.total,
        "arith": stats.arith_ops,
        "loads": stats.loads,
        "stores": stats.stores,
        "bookkeeping": stats.bookkeeping,
        "wall_time": stats.wall_time,
    }


class _Session:
    """One kernel, one input set, one baseline; evaluates parameter points."""

    def __init__(self, module, func=None, seed=0, pipeline_template=None):
        verify_or_raise(module)
        self.module = module
        self.func = SymbolTable.name_of(_find_func(module, func))
        self.seed = seed
        self.template = pipeline_template or default_pipeline
        self.inputs = make_inputs(module, self.func, seed)
        self.want_args = copy_buffers(self.inputs)
        self.program = lower_module(module)
        self.want_results = _bits(call(self.program, self.func, self.want_args,
                                       "sequential", 1)[0])

    def trial(self, idx: int, tiles, unroll: int) -> Trial:
        params = {"tiles": [int(t) for t in tiles], "unroll": int(unroll)}
        spec = self.template(params["tiles"], params["unroll"])
        pipeline = pipeline_parse(spec)
        program = self.program
        if pipeline.names_a_pass():
            work = clone_module(self.module)
            try:
                run_pipeline(work, pipeline)
                program = lower_module(work)
            except (PassFailure, VerificationFailed):
                return Trial(idx, params, None, "skipped", self.seed)
            finally:
                self.module.ctx.modules.remove(work)
        args = copy_buffers(self.inputs)
        results, stats = call(program, self.func, args, "sequential", 1)
        if _bits(results) != self.want_results or args != self.want_args:
            raise StaircaseError(
                f"pipeline {spec!r} changed the results of @{self.func}; "
                "transformed kernels must match the untransformed run"
            )
        return Trial(idx, params, model_cost(stats), "evaluated", self.seed,
                     stats=_digest(stats))


def evaluate(kernel, pipeline_template=None, params=None, *, func=None,
             seed=0) -> Trial:
    """Score a single parameter point against a freshly run baseline.

    ``params`` holds ``tiles`` (list of ints) and ``unroll``.  Points the
    pipeline rejects come back as skipped trials with no cost; points
    whose transformed kernel disagrees with the baseline raise.
    """
    if params is None:
        raise EmptySpace("evaluate needs a params dict with tiles and unroll")
    module = _resolve_module(kernel)
    session = _Session(module, func=func, seed=seed,
                       pipeline_template=pipeline_template)
    return session.trial(0, params["tiles"], params["unroll"])


def _sample_random(space: ParamSpace, rng: random.Random):
    tiles = [rng.choice(dim) for dim in space.tile_sizes]
    unroll = rng.choice(space.unroll_factors)
    return tiles, unroll


def _mutate(space: ParamSpace, parent, rng: random.Random):
    tiles = list(parent["tiles"])
    unroll = parent["unroll"]
    for axis, dim in enumerate(space.tile_sizes):
        if rng.random() < 0.5:
            tiles[axis] = rng.choice(dim)
    if rng.random() < 0.5:
        unroll = rng.choice(space.unroll_factors)
    return tiles, unroll


def search(kernel, pipeline_template=None, space: ParamSpace | None = None,
           budget: int = 20, seed: int = 0, strategy: str = "random", *,
           func=None):
    """Run a budgeted search and return ``(best, log)``.

    The log has exactly ``budget`` trials; trial 0 is the identity point.
    Searches are deterministic: the same seed, space, budget and strategy
    replay the same trial sequence and costs.
    """
    if space is None:
        raise EmptySpace("search needs a ParamSpace")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    strategy = {"es": "one_plus_one_es"}.get(strategy, strategy)
    if strategy not in ("random", "one_plus_one_es"):
        raise ValueError(f"unknown strategy {strategy!r}")

    module = _resolve_module(kernel)
    session = _Session(module, func=func, seed=seed,
                       pipeline_template=pipeline_template)
    identity = space.identity()
    log = [session.trial(0, identity["tiles"], identity["unroll"])]

    rng = random.Random(seed)
    parent = dict(log[0].params)
    parent_cost = log[0].cost
    for idx in range(1, budget):
        if strategy == "random":
            tiles, unroll = _sample_random(space, rng)
        else:
            tiles, unroll = _mutate(space, parent, rng)
        trial = session.trial(idx, tiles, unroll)
        log.append(trial)
        if (strategy == "one_plus_one_es" and trial.status == "evaluated"
                and trial.cost < parent_cost):
            parent = dict(trial.params)
            parent_cost = trial.cost

    evaluated = [t for t in log if t.status == "evaluated"]
    if not evaluated:
        name = getattr(session.template, "__name__", repr(session.template))
        raise StaircaseError(
            f"pipeline template {name} was refused at all {budget} points "
            "of the search, the identity point included")
    best = min(evaluated, key=lambda t: (t.cost, t.idx))
    return best, log
