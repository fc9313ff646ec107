"""The staircase benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead, taken from a traced run of the same jobs, and a
Chrome trace is written under ``.perfbench/``.  ``--report FILE`` also
writes the full result with its machine block, for ``compare.py``.
See README.md for what each workload and metric is for.
"""
import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 3
MIN_CYCLES = 2
TAIL_BEYOND = 10
PASS_NAMES = ("canonicalize", "lower-affine", "loop-unroll",
              "scf-parallel-loop-tiling", "gpu-map-parallel-loops",
              "gpu-kernel-outlining")
# Layers whose self time is not already one metric: textio's is
# parse_ms + print_ms, cli's is cli.io_ms.
SELF_LAYERS = ("ir", "passes", "interp", "tuner")


# -- machine block -------------------------------------------------------------

def _commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(git, ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_block():
    from staircase.interp.machine import ENGINE_NAME

    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "engine": ENGINE_NAME,
        "staircase_pure": os.environ.get("STAIRCASE_PURE") is not None,
        "commit": _commit(),
    }


# -- the reference: how fast the machine is right now ------------------------------

# An interpreter-shaped loop that does not touch staircase: tuple decode,
# an if-chain dispatch, list and array indexing, float arithmetic.
_REF_CODE = [(i % 5, i % 7, (i * 3) % 11) for i in range(200)]
# Seconds the reference takes on the machine the bounds were set on
# (2-CPU Intel Xeon, Python 3.11), when no other tenant slows it.
REF_S = 0.007


def reference():
    """Time one run of the reference loop, in seconds."""
    start = time.perf_counter()
    regs = [0.5] * 16
    data = array("d", [0.25] * 64)
    tally = [0] * 8
    total = 0.0
    for _ in range(300):
        for ins in _REF_CODE:
            op = ins[0]
            tally[op] += 1
            if op == 0:
                regs[ins[1]] = data[ins[2]]
            elif op == 1:
                regs[ins[1]] = regs[ins[1]] + regs[ins[2]]
            elif op == 2:
                data[ins[2]] = regs[ins[1]] * 0.5
            else:
                total += regs[ins[1]]
    return time.perf_counter() - start


# -- timed phases ------------------------------------------------------------------

class Phase:
    """Jobs from whole cycles of a workload, and the time spent in its units.

    Only unit calls are on the clock.  Around each unit the reference loop
    is timed; a job's *scale* is REF_S over the mean of the two, so a
    scaled time is what the job would have taken at the reference speed.
    Other tenants of a shared host slow the machine by up to 1.8x for
    seconds to minutes at a time, and that slows the reference as much as
    the jobs around it.
    """

    def __init__(self, workload, checker):
        self.workload = workload
        self.checker = checker
        self.jobs = []
        self.first_cycle = []   # units of cycle 0, checked
        self.busy = 0.0
        self.cycles = 0
        self.sessions = []      # scaled tuner session seconds, one per search

    def run_cycle(self, tracer=None):
        for unit in self.workload.cycle(self.cycles):
            before = reference()
            start = time.perf_counter()
            jobs = unit.run(tracer)
            self.busy += time.perf_counter() - start
            scale = 2 * REF_S / (before + reference())
            for job in jobs:
                job.scale = scale
            unit.check(jobs, self.checker)
            self.jobs.extend(jobs)
            if getattr(unit, "session", None) is not None:
                self.sessions.append(unit.session * scale)
            if self.cycles == 0:
                self.first_cycle.append((unit, jobs))
        self.cycles += 1

    def run(self, seconds, tracer=None):
        """Run the cycles that take ``seconds`` at the workload's nominal pace.

        The cycle count depends on ``seconds`` only, never on how fast this
        run goes, so every run has the same mix and number of jobs.
        """
        for _ in range(cycles_for(self.workload, seconds)):
            self.run_cycle(tracer)
        return self

    @property
    def ok(self):
        return sum(j.ok for j in self.jobs)

    def per_kind(self, value):
        """Median over each job kind's repeats of ``value(job) * job.scale``.

        Returns one value per job, so a job kind counts once per repeat.
        """
        reps = {}
        for j in self.jobs:
            reps.setdefault(j.key, []).append(value(j) * j.scale)
        mid = {key: statistics.median(v) for key, v in reps.items()}
        return [mid[j.key] for j in self.jobs]

    def jobs_per_s(self):
        """Correct jobs per scaled second of job and tuner-session time."""
        return self.ok / (sum(self.per_kind(lambda j: j.wall)) + sum(self.sessions))


def cycles_for(workload, seconds):
    return max(MIN_CYCLES, math.ceil(seconds / workload.cycle_s))


def tail(values):
    """The value with TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(phase, setup_s):
    jobs = phase.jobs
    walls = [w * 1e3 for w in phase.per_kind(lambda j: j.wall)]
    tail_ms, tail_pct = tail(walls)
    ops = [unit.out_ops(phase.checker) for unit, jobs_ in phase.first_cycle
           if all(j.ok for j in jobs_)]
    first_jobs = [j for _, js in phase.first_cycle for j in js]
    metrics = {
        "setup_s": setup_s,
        "job_ms_p50": statistics.median(walls),
        "job_ms_tail": tail_ms,
        "jobs_per_s": phase.jobs_per_s(),
        "compile_ms_mean": statistics.fmean(
            phase.per_kind(lambda j: (j.wall - j.exec) * 1e3)),
        "exec_ms_mean": statistics.fmean(phase.per_kind(lambda j: j.exec * 1e3)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": phase.ok / len(jobs),
        "out_ops": statistics.fmean(ops) if ops else 0.0,
        "exec_events": statistics.fmean(j.events for j in first_jobs),
    }
    info = {"jobs": len(jobs), "cycles": phase.cycles,
            "busy_s": round(phase.busy, 3),
            "tail_percentile": round(tail_pct, 1),
            "fail_ratio": 1.0 - metrics["ok_ratio"],
            "mean_scale": statistics.fmean(j.scale for j in jobs),
            "unscaled_job_ms_p50": statistics.median(j.wall * 1e3 for j in jobs),
            "unscaled_jobs_per_s": phase.ok / phase.busy}
    return metrics, info


# -- per-layer metrics from the traced phase -----------------------------------------

def _doubling_probe(seed):
    """4k-op over 2k-op time for parse, verify and canonicalize (best of two)."""
    import oracle
    from staircase.ir.core import create_context
    from staircase.ir.verify import verify
    from staircase.passes import run_pipeline
    from staircase.textio import parse_module
    from workloads import CANON

    best = {}
    for n in (2000, 4000):
        block = oracle.straight_line_block(f"probe{n}", n, seed)
        for _ in range(2):
            t0 = time.perf_counter()
            module = parse_module(block.text, create_context())
            t1 = time.perf_counter()
            verify(module)
            t2 = time.perf_counter()
            _, stats = run_pipeline(module, CANON)
            times = {"parse": t1 - t0, "verify": t2 - t1,
                     "canonicalize": stats[0].elapsed}
            for step, t in times.items():
                best[step, n] = min(best.get((step, n), t), t)
    return {step: best[step, 4000] / best[step, 2000]
            for step in ("parse", "verify", "canonicalize")}


def per_layer(spans, phase, untraced, probe, best_cost):
    """The per-layer metrics of BENCHMARK.json from the traced phase's spans."""
    import tracing

    n = len(phase.jobs)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def per_job_ms(name):
        return total(name) * 1e3 / n

    runs = by_name.get("interp.run", ())
    wall = sum(s["args"]["wall"] for s in runs)
    events, evals = {}, {}
    for s in runs:
        mode = s["args"]["mode"]
        events[mode] = events.get(mode, 0) + s["args"]["events"]
        evals[mode] = evals.get(mode, 0.0) + s["args"]["wall"]
    per_pass = {p: [0.0, 0, 0] for p in PASS_NAMES}
    for s in by_name.get("passes.pipeline", ()):
        for name, elapsed, rewrites, skipped in s["args"]["passes"]:
            acc = per_pass[name]
            acc[0] += elapsed
            acc[1] += rewrites
            acc[2] += skipped
    trials = by_name.get("tuner.trial", ())
    trial_ids = {s["id"] for s in trials}
    in_trials = sum(s["end"] - s["start"] for s in by_name.get("passes.pipeline", ())
                    if s["parent"] in trial_ids)
    selfs = tracing.self_times(spans)

    m = {
        "textio.parse_ms": per_job_ms("textio.parse"),
        "textio.print_ms": per_job_ms("textio.print"),
        "textio.parse_doubling": probe["parse"],
        "ir.verify_ms": per_job_ms("ir.verify"),
        "ir.verify_doubling": probe["verify"],
        "ir.clone_ms": per_job_ms("ir.clone"),
        "passes.pipeline_ms": per_job_ms("passes.pipeline"),
        "passes.canonicalize.doubling": probe["canonicalize"],
        "interp.compile_ms": per_job_ms("interp.compile"),
        "interp.run_overhead_ms": (total("interp.run") - wall) * 1e3 / n,
        "interp.eval_ms": per_job_ms("interp.eval"),
        "interp.eval_share": total("interp.eval") / phase.busy,
        "interp.worksharing_speedup": (
            evals["sequential"] / evals["worksharing"]
            if "worksharing" in evals and "sequential" in evals else 0.0),
        "tuner.trial_pipeline_share": (
            in_trials / total("tuner.trial") if trials else 0.0),
        "tuner.session_ms": (total("tuner.session") * 1e3 / len(by_name["tuner.session"])
                             if "tuner.session" in by_name else 0.0),
        "tuner.skipped_ratio": sum(j.skipped for j in phase.jobs) / n,
        "tuner.best_cost": best_cost,
        "cli.io_ms": selfs.get("cli", 0.0) * 1e3 / n,
        "trace_overhead": phase.jobs_per_s() / untraced.jobs_per_s(),
    }
    for mode, label in (("sequential", "sequential"), ("worksharing", "worksharing"),
                        ("gpu_emulated", "gpu")):
        m[f"interp.events_per_s.{label}"] = (
            events[mode] / evals[mode] if evals.get(mode) else 0.0)
    for name, (elapsed, rewrites, skipped) in per_pass.items():
        m[f"passes.{name}.ms"] = elapsed * 1e3 / n
        m[f"passes.{name}.rewrites"] = rewrites / n
        m[f"passes.{name}.skipped"] = skipped / n
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = selfs.get(layer, 0.0) * 1e3 / n
    return m


# -- main -------------------------------------------------------------------------

def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _setup(workload, work, seed):
    """Set the workload up SETUP_REPS times; return the scaled median and the warm-up unit."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        before = reference()
        start = time.perf_counter()
        workload.setup(work, seed)
        warm = workload.warmup()
        jobs = warm.run()
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * REF_S / (before + reference()))
    return statistics.median(times), warm, jobs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full result here")
    ns = parser.parse_args(argv)

    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        spec = _load_spec()
        import staircase.cli  # noqa: F401
        import staircase.tuner  # noqa: F401
        from workloads import WORKLOADS, Checker
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(staircase.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: staircase was not imported from {src}", file=sys.stderr)
        return 2
    import_s = (time.perf_counter() - start) * REF_S / reference()
    if ns.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {ns.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[ns.workload](ROOT)

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        try:
            setup_s, warm, warm_jobs = _setup(workload, work, ns.seed)
        except (OSError, RuntimeError) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
        checker = Checker()
        warm.check(warm_jobs, checker)
        errors = [j.error for j in warm_jobs if not j.ok]
        plain = Phase(workload, checker)
        if ns.trace:
            tracer, warm_phase, traced = _alternate(workload, checker, plain,
                                                    ns.seconds / 2)
        else:
            plain.run(ns.seconds)
        finish_error = workload.finish(checker)
        if finish_error:
            errors.append(finish_error)
        result, info = end_to_end(plain, import_s + setup_s)
        phases = [plain]
        if ns.trace:
            phases += [warm_phase, traced]
            result, path, problems = _per_layer(tracer, traced, plain, checker, ns)
            errors.extend(problems)
            if result is None:
                print(f"perfbench: {problems[0]}", file=sys.stderr)
                return 2
            info["trace_file"] = os.path.relpath(path, ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for phase in phases:
        errors.extend(j.error for j in phase.jobs if not j.ok)
    attempted = len(warm_jobs) + sum(len(p.jobs) for p in phases)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if ns.trace else "end_to_end"]}
    missing = set(units) ^ set(result)
    if missing:
        print(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 2

    machine = machine_block()
    print(f"perfbench {ns.workload} seed={ns.seed} trace={ns.trace} "
          f"engine={machine['engine']}")
    print("machine " + json.dumps(machine))
    print("run " + json.dumps(info))
    for name in units:
        print(f"  {name:<40} {result[name]:>16.6g} {units[name]}")
    for error in errors[:20]:
        print(f"FAILED: {error}", file=sys.stderr)
    out = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": result[name], "unit": units[name]}
                    for name in units},
    }
    if ns.report:
        with open(ns.report, "w", encoding="utf-8") as fh:
            json.dump({"workload": ns.workload, "seed": ns.seed,
                       "trace": ns.trace, "machine": machine, "run": info,
                       "errors": errors, **out,
                       "jobs": [[j.key, j.wall, j.exec, j.events, j.scale]
                                for p in phases for j in p.jobs]}, fh, indent=1)
    print(json.dumps(out))
    return 0


def _alternate(workload, checker, plain, seconds):
    """Alternate untraced and traced cycles, so both see the same machine.

    A first, unmeasured cycle takes the one-off costs of each job kind,
    which would otherwise all land on the untraced side.
    """
    import tracing

    tracer = tracing.Tracer()
    warm, traced = Phase(workload, checker), Phase(workload, checker)
    warm.run_cycle()
    for _ in range(cycles_for(workload, seconds)):
        plain.run_cycle()
        tracer.install()
        try:
            traced.run_cycle(tracer)
        finally:
            tracer.uninstall()
    return tracer, warm, traced


def _per_layer(tracer, traced, plain, checker, ns):
    import tracing

    unclosed = [s["name"] for s in tracer.spans if s["end"] is None]
    if unclosed:
        return None, None, [f"trace: spans left open: {unclosed[:5]}"]
    path = os.path.join(OUT, f"trace-{ns.workload}-{ns.seed}.json")
    tracer.write_chrome(path)
    problems = [f"trace: {p}" for p in tracing.check_chrome(path, len(tracer.spans))]
    best_cost = checker.best[0].cost if checker.best else 0.0
    result = per_layer(tracer.spans, traced, plain, _doubling_probe(ns.seed),
                       best_cost)
    return result, path, problems


if __name__ == "__main__":
    sys.exit(main())
