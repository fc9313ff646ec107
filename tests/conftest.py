"""Shared fixtures and paths for the test suite."""
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def ctx():
    from staircase.ir.core import create_context

    return create_context()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def golden_text(name: str) -> str:
    with open(golden_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def context_with_test_ops():
    """A context with a dialect the text format has no custom form for."""
    from staircase.ir.core import (
        DialectDef,
        OpSchema,
        create_context,
        register_dialect,
    )

    ctx = create_context()
    register_dialect(ctx, DialectDef("test", [
        OpSchema("test.op"),
        OpSchema("test.nop"),
        OpSchema("test.region", num_regions=1),
        OpSchema("test.two", num_regions=2),
    ]))
    return ctx


def ir_layout(root):
    """Where each op and block sits, from a walk of the regions alone:
    op -> (block, index in block.ops) and block -> the op holding it."""
    ops_at, holder = {}, {}

    def go(op):
        for block in op.regions:
            holder[block] = op
            for i, child in enumerate(block.ops):
                ops_at[child] = (block, i)
                go(child)

    go(root)
    return ops_at, holder


def visible_by_definition(value, block, index, layout):
    """Dominance by its definition: `value` is an argument of `block` or of
    a block enclosing it, or the result of an op before the point in one of
    those blocks; the point is `index` in `block`, then each enclosing op.
    `layout` is what ir_layout returns for the module."""
    ops_at, holder = layout
    while True:
        if value.owner is block:
            return True
        defined = ops_at.get(value.owner)
        if defined is not None and defined[0] is block:
            return defined[1] < index
        outer = holder[block]
        if outer not in ops_at:
            return False
        block, index = ops_at[outer]
