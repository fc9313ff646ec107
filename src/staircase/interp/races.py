"""Race detection for scf.parallel bodies.

Sequentially simulates the program on copies of the argument buffers,
recording which outermost-parallel iteration reads and writes each
buffer address. Worksharing partitions exactly that iteration space, so
conflicts here are precisely what would break it.
"""
from __future__ import annotations

from staircase.interp.buffer import Buffer
from staircase.interp.machine import run_reference
from staircase.ir.core import Operation


class _Recorder:
    """Tracks per-iteration touch sets inside the outermost parallel."""

    def __init__(self, labels: dict):
        self.labels = labels          # id(buffer) -> stable name
        self.point = None
        self.writes: dict = {}        # addr -> writing point
        self.reads: dict = {}         # addr -> up to two distinct points
        self.conflicts: list = []
        self._seen: set = set()

    def _label(self, buf) -> str:
        key = id(buf)
        if key not in self.labels:
            self.labels[key] = f"tmp{sum(1 for k in self.labels)}"
        return self.labels[key]

    def _conflict(self, a, b, addr) -> None:
        entry = (a, b, addr)
        if entry not in self._seen:
            self._seen.add(entry)
            self.conflicts.append(entry)

    def begin_point(self, point) -> None:
        self.point = point

    def end_parallel(self) -> None:
        self.point = None
        self.writes.clear()
        self.reads.clear()

    def on_read(self, buf, off) -> None:
        if self.point is None:
            return
        addr = (self._label(buf), off)
        writer = self.writes.get(addr)
        if writer is not None and writer != self.point:
            self._conflict(writer, self.point, addr)
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
            self._conflict(writer, self.point, addr)
        for reader in self.reads.get(addr, ()):
            if reader != self.point:
                self._conflict(reader, self.point, addr)


def check_races(module: Operation, func_name: str, args) -> list:
    """Returns conflicting (iteration, iteration, address) triples."""
    args = [a.copy() if isinstance(a, Buffer) else a for a in args]
    labels = {id(a): f"arg{i}" for i, a in enumerate(args)
              if isinstance(a, Buffer)}
    recorder = _Recorder(labels)
    # gpu_emulated is the permissive mode: launches run, loops stay serial
    run_reference(module, func_name, args, "gpu_emulated", 1, recorder)
    return recorder.conflicts
