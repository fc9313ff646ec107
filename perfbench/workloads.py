"""The three workloads: what one job is, how its inputs are made, how it is checked.

A workload's ``setup`` writes its inputs (``.sir`` and JSON buffer files)
into a work directory and checks that every IR input parses and verifies;
``cycle(k)`` then gives the units of the k-th cycle.  Running a unit
returns one ``Job`` per job it performed: a CLI unit is one ``opt`` +
``run`` pair, a tuner unit is one ``search`` whose trials are the jobs.
``check`` runs off the clock and marks each job correct or not.
"""
import contextlib
import io
import json
import os
import random
import time

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

CANON = "builtin.module(func.func(canonicalize))"
UNROLL = "builtin.module(func.func(lower-affine,loop-unroll{factor=62},canonicalize))"
GPU = "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)"
MODES = (("sequential", CANON), ("worksharing:2", CANON), ("gpu", GPU))


class Job:
    """One job's wall time, evaluation time and event count, and its verdict."""

    __slots__ = ("key", "wall", "exec", "events", "skipped", "ok", "error",
                 "outcome", "scale")

    def __init__(self, key, wall, exec_s=0.0, events=0, skipped=False,
                 error=None):
        self.key = key
        self.wall = wall
        self.exec = exec_s
        self.events = events
        self.skipped = skipped
        self.error = error
        self.ok = error is None
        self.outcome = None
        self.scale = 1.0


def _write_buffer(path, shape, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"shape": list(shape), "dtype": "f64", "data": data}, fh)


def _read_data(path):
    """The flat data of a JSON buffer file, or None if there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["data"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


class Checker:
    """Per-run correctness state shared by a workload's jobs.

    Every ``opt`` output must be a print -> parse -> print fixed point, and
    every repeat of a job key must give the same output text, event count
    and (for tuner trials) point and cost as its first run.
    """

    def __init__(self):
        self.firsts = {}    # job key -> what its first run produced
        self.texts = {}     # job key -> opt output text
        self.ops = {}       # opt output text -> op count
        self.best = None    # the tuner's best trial and its op count

    def repeat(self, key, value):
        first = self.firsts.setdefault(key, value)
        if first != value:
            return f"{key}: got {value!r}, its first run gave {first!r}"
        return None

    def opt_output(self, key, text):
        from staircase.ir.core import count_ops, create_context
        from staircase.textio import parse_module, print_module

        first = self.texts.setdefault(key, text)
        if first != text:
            return f"{key}: opt output differs from its first run"
        if text not in self.ops:
            module = parse_module(text, create_context())
            if print_module(module) != text:
                return f"{key}: print -> parse -> print is not a fixed point"
            self.ops[text] = count_ops(module)
        return None


# -- CLI workloads ---------------------------------------------------------------

class CliUnit:
    """One ``staircase opt`` then ``staircase run``, in process, on files."""

    def __init__(self, key, sir, func, pipeline, mode, args, expected, work):
        self.key = key
        self.sir = sir
        self.func = func
        self.pipeline = pipeline
        self.mode = mode
        self.args = args            # JSON buffer files, one per parameter
        self.expected = expected    # flat data per parameter after the call
        self.opt_path = os.path.join(work, f"opt-{key}.sir")
        self.out = os.path.join(work, f"out-{key}")
        self.outputs = [os.path.join(self.out, f"{func}_arg{i}.json")
                        for i in range(len(args))]

    def run(self, tracer=None):
        from staircase import cli

        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)
        err, stats = io.StringIO(), io.StringIO()
        span = tracer.begin("bench.job", key=self.key) if tracer else None
        start = time.perf_counter()
        with open(self.opt_path, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
            rc = _main(cli, tracer, "cli.opt",
                       ["opt", "--input", self.sir, "--pipeline", self.pipeline])
        if rc == 0:
            with contextlib.redirect_stdout(stats), contextlib.redirect_stderr(err):
                rc = _main(cli, tracer, "cli.run",
                           ["run", "--input", self.opt_path, "--func", self.func,
                            "--args", *self.args, "--mode", self.mode,
                            "--out", self.out])
        wall = time.perf_counter() - start
        if span:
            tracer.end(span)
        if rc != 0:
            return [Job(self.key, wall, error=f"{self.key}: exit {rc}: "
                        f"{err.getvalue().strip()}")]
        record = json.loads(stats.getvalue())
        return [Job(self.key, wall, record["wall_time"], record["total"])]

    def check(self, jobs, checker):
        job, = jobs
        if not job.ok:
            return
        with open(self.opt_path, encoding="utf-8") as fh:
            job.error = checker.opt_output(self.key, fh.read())
        job.error = job.error or checker.repeat(self.key, job.events)
        for i, (path, want) in enumerate(zip(self.outputs, self.expected)):
            if job.error:
                break
            got = _read_data(path)
            if got is None:
                job.error = f"{self.key}: argument {i} was not written"
            elif not oracle.close(got, want):
                job.error = f"{self.key}: argument {i} differs from the reference"
        job.ok = job.error is None

    def out_ops(self, checker):
        return checker.ops[checker.texts[self.key]]


def _main(cli, tracer, name, argv):
    if tracer is None:
        return cli.main(argv)
    span = tracer.begin(name)
    try:
        return cli.main(argv)
    finally:
        tracer.end(span)


def _conv_inputs(rng, work, tag, hi, co, ho):
    """conv_rows-shaped buffers: 1x1x{hi}x64 in, {co}x1x3x3 filter, 1x{co}x{ho}x62 out."""
    src, flt, dst = (oracle.uniform(rng, n) for n in (hi * 64, co * 9, co * ho * 62))
    paths = [os.path.join(work, f"{tag}-arg{i}.json") for i in range(3)]
    for path, shape, data in zip(paths, ((1, 1, hi, 64), (co, 1, 3, 3),
                                         (1, co, ho, 62)), (src, flt, dst)):
        _write_buffer(path, shape, data)
    want = oracle.conv_rows(src, flt, dst, hi, 64, co, ho, 62)
    return paths, [src, flt, want]


def _check_parses(paths):
    """Every IR input must parse and verify before anything is timed."""
    from staircase.ir.core import create_context
    from staircase.ir.verify import verify
    from staircase.textio import parse_module

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            module = parse_module(fh.read(), create_context())
        problems = verify(module)
        if problems:
            raise RuntimeError(f"{path} does not verify: {problems[0]}")


class Kernels:
    """Evaluation-bound: bench-scale kernels in all three execution modes."""

    name = "kernels"
    cycle_s = 9.0   # seconds a cycle takes at the reference speed

    def __init__(self, root):
        self.sources = {
            "conv_rows": os.path.join(INPUTS, "conv_rows.sir"),
            "conv2d": os.path.join(root, "tests", "golden", "conv2d.sir"),
            "matmul": os.path.join(INPUTS, "matmul.sir"),
            "saxpy": os.path.join(INPUTS, "saxpy.sir"),
        }

    def setup(self, work, seed):
        _check_parses(self.sources.values())
        rng = random.Random(seed)
        inputs = {}
        for func in ("conv_rows", "conv2d"):
            inputs[func] = _conv_inputs(rng, work, func, 64, 3, 62)
        a, b, c = (oracle.uniform(rng, 32 * 32) for _ in range(3))
        x, y = (oracle.uniform(rng, 256 * 256) for _ in range(2))
        for func, shapes, datas, want in (
                ("matmul", [(32, 32)] * 3, (a, b, c),
                 [a, b, oracle.matmul(a, b, c, 32)]),
                ("saxpy", [(256, 256)] * 2, (x, y), [x, oracle.saxpy(x, y)])):
            paths = [os.path.join(work, f"{func}-arg{i}.json")
                     for i in range(len(datas))]
            for path, shape, data in zip(paths, shapes, datas):
                _write_buffer(path, shape, data)
            inputs[func] = (paths, want)
        self.units = [CliUnit(f"{func}-{mode.split(':')[0]}", self.sources[func],
                              func, pipeline, mode, paths, want, work)
                      for func, (paths, want) in inputs.items()
                      for mode, pipeline in MODES]
        self.seed = seed

    def cycle(self, k):
        order = list(self.units)
        random.Random(self.seed * 1000 + k).shuffle(order)
        return order

    def warmup(self):
        return next(u for u in self.units if u.key == "matmul-sequential")

    def finish(self, checker):
        """Whole-run checks beyond each job's own; none for CLI jobs."""
        return None


class Bigblocks:
    """IR-bound: long straight-line blocks and an unrolled convolution strip."""

    name = "bigblocks"
    cycle_s = 7.0
    SIZES = (1000, 2000, 4000)

    def __init__(self, root):
        self.strip = os.path.join(INPUTS, "conv_rows_strip.sir")

    def setup(self, work, seed):
        rng = random.Random(seed)
        sources = [self.strip]
        cases = [("conv_rows_strip", self.strip,
                  *_conv_inputs(rng, work, "strip", 4, 3, 2))]
        for n in self.SIZES:
            block = oracle.straight_line_block(f"block{n}", n, rng.randrange(2**32))
            sir = os.path.join(work, f"block{n}.sir")
            with open(sir, "w", encoding="utf-8") as fh:
                fh.write(block.text)
            sources.append(sir)
            paths = [os.path.join(work, f"block{n}-arg{i}.json") for i in (0, 1)]
            for path, data in zip(paths, block.inputs):
                _write_buffer(path, (block.width,), data)
            cases.append((block.name, sir, paths, [block.inputs[0], block.expected]))
        _check_parses(sources)
        self.units = [CliUnit(f"{func}-{tag}", sir, func, pipeline,
                              "sequential", paths, want, work)
                      for func, sir, paths, want in cases
                      for tag, pipeline in (("canon", CANON), ("unroll", UNROLL))]
        self.seed = seed

    cycle = Kernels.cycle
    finish = Kernels.finish

    def warmup(self):
        return next(u for u in self.units if u.key == "block1000-canon")


# -- tuner workload ------------------------------------------------------------

TILES = ((1, 3), (1, 2, 31, 62))
UNROLLS = (1, 2, 31, 62)
BUDGET = 3


class TuneUnit:
    """One ``tuner.search`` (random strategy) over one unroll factor.

    Each trial is one job.  Every cycle repeats the same searches, so
    trial ``i`` of a search is the same point with the same inputs each
    time: its repeats are compared exactly and timed as one job kind.
    """

    def __init__(self, module, seed, unroll, budget=BUDGET):
        self.module = module
        self.seed = seed
        self.unroll = unroll
        self.budget = budget
        self.best = None
        self.session = None

    def run(self, tracer=None):
        from staircase.tuner import ParamSpace, default_pipeline, search

        marks = []

        def template(tiles, unroll):
            # Called once as each trial starts, so it marks trial boundaries.
            marks.append(time.perf_counter())
            if tracer:
                tracer.swap("tuner.trial")
            return default_pipeline(tiles, unroll)

        space = ParamSpace(tile_sizes=TILES, unroll_factors=(self.unroll,))
        span = tracer.begin("tuner.search") if tracer else None
        if tracer:
            tracer.begin("tuner.session")
        start = time.perf_counter()
        try:
            self.best, log = search(self.module, template, space,
                                    budget=self.budget, seed=self.seed,
                                    strategy="random", func="conv_rows")
        except Exception as exc:  # a trial that disagrees with the baseline raises
            error = f"search u{self.unroll}: {type(exc).__name__}: {exc}"
            log = None
        end = time.perf_counter()
        if tracer:
            while tracer.stack[-1] is not span:
                tracer.end(tracer.stack[-1])
            tracer.end(span)
        if log is None:
            return [Job(f"u{self.unroll}-trial{i}", (end - start) / self.budget,
                        error=error) for i in range(self.budget)]
        self.session = marks[0] - start
        bounds = marks + [end]
        jobs = []
        for i, t in enumerate(log):
            stats = t.stats or {"wall_time": 0.0, "total": 0}
            job = Job(f"u{self.unroll}-trial{i}", bounds[i + 1] - bounds[i],
                      stats["wall_time"], stats["total"], t.stats is None)
            job.outcome = (t.params, t.cost, t.status, stats["total"])
            jobs.append(job)
        return jobs

    def check(self, jobs, checker):
        """Every repeat of a trial must give its first run's point, cost and events."""
        for job in jobs:
            if job.ok:
                job.error = checker.repeat(job.key, job.outcome)
                job.ok = job.error is None
        if self.best is not None and (checker.best is None
                                      or self.best.cost < checker.best[0].cost):
            checker.best = (self.best, None)

    def out_ops(self, checker):
        return checker.best[1]


class Tune:
    """Tuner-bound: compile and evaluation both block every trial."""

    name = "tune"
    cycle_s = 14.0

    def __init__(self, root):
        self.source = os.path.join(INPUTS, "conv_rows.sir")

    def setup(self, work, seed):
        from staircase.ir.core import create_context
        from staircase.textio import parse_module

        _check_parses([self.source])
        with open(self.source, encoding="utf-8") as fh:
            self.module = parse_module(fh.read(), create_context())
        self.seed = seed

    def cycle(self, k):
        # One search per unroll factor, so every run and every seed sees the
        # same mix of small and unrolled kernels; only the tiles are drawn.
        return [TuneUnit(self.module, self.seed, u) for u in UNROLLS]

    def warmup(self):
        return TuneUnit(self.module, self.seed, 1, budget=1)

    def finish(self, checker):
        """Re-run the best point found, off the clock, against the oracle.

        The tuner compares every trial with its own baseline run on the
        same inputs; this closes the loop by comparing the chosen kernel
        with the plain-Python convolution and by checking that its cost and
        event count repeat exactly.
        """
        from staircase.interp import cost
        from staircase.interp.machine import run
        from staircase.ir.core import count_ops
        from staircase.passes import run_pipeline
        from staircase.tuner import default_pipeline
        from staircase.tuner.search import make_inputs

        if checker.best is None:
            return "tune: no search completed"
        best = checker.best[0]
        work, _ = run_pipeline(self.module, default_pipeline(
            best.params["tiles"], best.params["unroll"]))
        try:
            args = make_inputs(self.module, "conv_rows", self.seed)
            src, flt, dst = (list(a.data) for a in args)
            _, stats = run(work, "conv_rows", args)
            checker.best = (best, count_ops(work))
        finally:
            self.module.ctx.modules.remove(work)
        if not oracle.close(list(args[2].data),
                            oracle.conv_rows(src, flt, dst, 64, 64, 3, 62, 62)):
            return f"tune: best kernel {best.params} differs from the reference"
        if cost(stats) != best.cost or stats.total != best.stats["total"]:
            return f"tune: best point {best.params} does not repeat its cost"
        return None


WORKLOADS = {w.name: w for w in (Kernels, Bigblocks, Tune)}
