"""Race detection for scf.parallel bodies and GPU launches.

Runs the program on copies of the argument buffers, as code generated for
a recorder: besides what ``run`` executes, it reports every load and
store, and the points of each parallel loop and each launch's threads.
The recorder notes which point of the outermost parallel loop or launch
reads and writes each buffer address. Worksharing partitions exactly that
iteration space, so conflicts here are precisely what would break it.
"""
from __future__ import annotations

from staircase.interp.buffer import Buffer, copy_buffers
from staircase.interp.codegen import lower_module
from staircase.interp.machine import call
from staircase.ir.core import Operation
from staircase.ir.verify import verify_or_raise


class _Recorder:
    """Tracks per-point touch sets inside the outermost parallel loop."""

    def __init__(self, labels: dict):
        self.labels = labels          # id(buffer) -> stable name
        self.labelled: list = []      # kept alive, so no id names two buffers
        self.depth = 0                # parallel loops and launches entered
        self.point = None
        self.writes: dict = {}        # addr -> writing point
        self.reads: dict = {}         # addr -> up to two distinct points
        self.conflicts: dict = {}     # (point, point, addr) -> None, in order

    def _label(self, buf) -> str:
        key = id(buf)
        if key not in self.labels:
            self.labels[key] = f"tmp{len(self.labels)}"
            self.labelled.append(buf)
        return self.labels[key]

    def begin_parallel(self) -> None:
        self.depth += 1

    def begin_point(self, point) -> None:
        if self.depth == 1:
            self.point = point

    def end_parallel(self) -> None:
        self.depth -= 1
        if self.depth == 0:
            self.point = None
            self.writes.clear()
            self.reads.clear()

    def on_read(self, buf, off) -> None:
        if self.point is None:
            return
        addr = (self._label(buf), off)
        writer = self.writes.get(addr)
        if writer is not None and writer != self.point:
            self.conflicts[writer, self.point, addr] = None
        readers = self.reads.get(addr)
        if readers is None:
            self.reads[addr] = (self.point,)
        elif len(readers) == 1 and readers[0] != self.point:
            self.reads[addr] = (readers[0], self.point)

    def on_write(self, buf, off) -> None:
        if self.point is None:
            return
        addr = (self._label(buf), off)
        writer = self.writes.get(addr)
        if writer is None:
            self.writes[addr] = self.point
        elif writer != self.point:
            self.conflicts[writer, self.point, addr] = None
        for reader in self.reads.get(addr, ()):
            if reader != self.point:
                self.conflicts[reader, self.point, addr] = None


def check_races(module: Operation, func_name: str, args) -> list:
    """Returns conflicting (point, point, address) triples."""
    args = copy_buffers(args)
    # reversed: a Buffer passed twice is named by its first parameter
    labels = {id(a): f"arg{i}" for i, a in reversed(list(enumerate(args)))
              if isinstance(a, Buffer)}
    recorder = _Recorder(labels)
    verify_or_raise(module)
    # gpu_emulated is the permissive mode: launches run, loops stay serial
    call(lower_module(module, recorder), func_name, args, "gpu_emulated", 1)
    return list(recorder.conflicts)
