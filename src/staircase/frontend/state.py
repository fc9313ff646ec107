"""Capture-local state: the insertion stack and the active capture handle.

One capture runs at a time (captures never nest; a GPU kernel materialized
mid-capture shares the active capture's stack as an extra frame). Markers
and proxy operators reach the active capture through module-level
functions here, ask it where to insert (``Capture.insertion``) and build
their ops with the dialect builders.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from staircase.errors import CaptureError, CaptureLeak, UnbalancedMarkers
from staircase.ir.core import (
    Block,
    Context,
    Location,
    Operation,
    Value,
    value_visible_at,
)


@dataclass
class Frame:
    """One insertion scope: the function/kernel body or an open region."""

    kind: str          # "func" | "kernel" | "for" | "parallel" | "if"
    op: Operation
    block: Block
    filename: str = ""
    arm: str = "then"          # for "if" frames
    arm_ended: bool = False    # set by the branch-end marker


class Capture:
    def __init__(self, ctx: Context, module: Operation, filename: str):
        self.ctx = ctx
        self.module = module
        self.filename = filename
        self.stack: list[Frame] = []

    # -- insertion stack ----------------------------------------------------

    def push(self, frame: Frame) -> None:
        if not frame.filename:
            frame.filename = self.stack[-1].filename if self.stack \
                else self.filename
        self.stack.append(frame)

    def pop(self, kinds: tuple[str, ...]) -> Frame:
        if not self.stack or self.stack[-1].kind not in kinds:
            found = self.stack[-1].kind if self.stack else "nothing"
            raise UnbalancedMarkers(
                f"expected an open {' or '.join(kinds)} region, found {found}"
            )
        return self.stack.pop()

    def top(self) -> Frame:
        if not self.stack:
            raise UnbalancedMarkers("no open region")
        return self.stack[-1]

    @property
    def depth(self) -> int:
        return len(self.stack)

    def in_kernel(self) -> bool:
        return any(f.kind == "kernel" for f in self.stack)

    # -- insertion point ------------------------------------------------------

    def location(self) -> Location:
        filename = self.stack[-1].filename if self.stack else self.filename
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename == filename:
                return Location(filename, frame.f_lineno)
            frame = frame.f_back
        return Location(filename, 1)

    def insertion(self, *operands: Value) -> tuple[Block, Location]:
        """The block the next op goes into and the caller's source line.

        Raises CaptureLeak if an operand was defined in a region that has
        already closed.
        """
        block = self.top().block
        index = block.insertion_index()
        location = self.location()
        for v in operands:
            if not value_visible_at(v, block, index):
                raise CaptureLeak(
                    f"a value defined in an already-closed region is used "
                    f"at {location}"
                )
        return block, location


_ACTIVE: Capture | None = None


def active() -> Capture:
    if _ACTIVE is None:
        raise CaptureError(
            "staged constructs are only usable inside a capture"
        )
    return _ACTIVE


def begin(capture: Capture) -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        raise CaptureError("captures do not nest")
    _ACTIVE = capture


def end(capture: Capture) -> None:
    global _ACTIVE
    if _ACTIVE is capture:
        _ACTIVE = None
