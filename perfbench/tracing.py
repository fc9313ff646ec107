"""Spans around the program's layer entry points, for the traced run only.

``install`` replaces each entry point with a pass-through wrapper that
records a span (name, start, end, parent) and returns the original result
unchanged; ``uninstall`` puts the originals back.  The untraced run never
calls ``install``, so it measures the program exactly as shipped.

A span's name is ``<layer>.<what>``; the layer is one of the program's
modules (textio, ir, passes, interp, tuner, cli) or ``bench`` for the
benchmark's own job span.  Self time is a span's duration minus the time
its direct children cover.
"""
import json
import sys
import time
import types


class Tracer:
    """Spans kept in memory, and the wrappers that record them."""

    def __init__(self):
        self.spans = []     # dicts: id, name, parent, start, end, args
        self.stack = []
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name, **args):
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": time.perf_counter(), "end": None, "args": args}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        if not self.stack or self.stack[-1] is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        span["end"] = time.perf_counter()
        self.stack.pop()

    def swap(self, name, **args):
        """Close the innermost open span and open ``name`` in its place."""
        self.end(self.stack[-1])
        return self.begin(name, **args)

    def wrap(self, fn, name, record=None):
        """Pass-through wrapper; ``record(span, result)`` may note counts."""
        def traced(*a, **kw):
            span = self.begin(name)
            try:
                result = fn(*a, **kw)
            finally:
                self.end(span)
            if record is not None:
                record(span, result)
            return result
        return traced

    # -- installing wrappers --------------------------------------------------

    def _patch(self, owner, attr, new):
        old = getattr(owner, attr) if not isinstance(owner, dict) else owner[attr]
        self._undo.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def _replace_everywhere(self, fn, wrapper):
        """Rebind every ``staircase`` module global that names ``fn``.

        Modules bind entry points with ``from ... import f``; each binding
        is its own reference, so each one is swapped.
        """
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("staircase"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self):
        import staircase.cli  # noqa: F401 -- loads the modules patched below
        import staircase.interp.machine as machine
        import staircase.interp.tape as tape
        import staircase.ir.core as core
        import staircase.ir.verify as verify
        import staircase.passes.pipeline as pipeline
        import staircase.textio.parser as parser
        import staircase.textio.printer as printer
        import staircase.tuner.search  # noqa: F401

        def note_passes(span, result):
            span["args"]["passes"] = [
                (s.pass_name, s.elapsed, s.rewrites, s.skipped)
                for s in result[1]]

        def note_exec(span, result):
            stats = result[1]
            span["args"].update(events=stats.total, wall=stats.wall_time,
                                mode=stats.mode)

        for fn, name, record in (
                (parser.parse_module, "textio.parse", None),
                (printer.print_module, "textio.print", None),
                (verify.verify, "ir.verify", None),
                (core.clone_module, "ir.clone", None),
                (pipeline.run_pipeline, "passes.pipeline", note_passes),
                (tape.compile_module, "interp.compile", None),
                (machine.run, "interp.run", note_exec)):
            self._replace_everywhere(fn, self.wrap(fn, name, record))
        for pass_name, fn in list(pipeline.PASSES.items()):
            self._patch(pipeline.PASSES, pass_name,
                        self.wrap(fn, "passes." + pass_name))
        # Only the outermost evaluation call: the evaluator recurses through
        # its own module global once per parallel point, which stays bare.
        engine = machine._engine
        self._patch(machine, "_engine", types.SimpleNamespace(
            ExecContext=engine.ExecContext,
            run_tape=self.wrap(engine.run_tape, "interp.eval")))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- output ---------------------------------------------------------------

    def write_chrome(self, path):
        """Chrome Trace Event JSON: one complete ("X") event per span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        events = []
        for s in self.spans:
            args = {"id": s["id"], "parent": s["parent"], **s["args"]}
            events.append({
                "name": s["name"], "cat": s["name"].split(".", 1)[0],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (s["start"] - t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": args})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def check_chrome(path, n_spans):
    """Reload a written trace; return a list of problems (empty when sound)."""
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    problems = []
    if len(events) != n_spans:
        problems.append(f"trace holds {len(events)} events, {n_spans} spans")
    ids = {e["args"]["id"]: e for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if e["dur"] < 0:
            problems.append(f"span {e['args']['id']} ({e['name']}) ends before it starts")
        if parent is None:
            continue
        p = ids.get(parent)
        if p is None:
            problems.append(f"span {e['args']['id']} has unknown parent {parent}")
        elif e["ts"] < p["ts"] or e["ts"] + e["dur"] > p["ts"] + p["dur"] + 1e-3:
            problems.append(f"span {e['args']['id']} ({e['name']}) leaves its parent")
    return problems


def self_times(spans):
    """Per-layer self time in seconds, from closed spans."""
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    layers = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        layers[layer] = layers.get(layer, 0.0) + own
    return layers
