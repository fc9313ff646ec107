"""Deterministic textual form for modules.

Each op's syntax is the Form on its OpSchema (GENERIC when it has none);
the Writer here runs forms and owns numbering, indentation and attribute
literals. Numbering is positional: results are %0, %1, ... and block
arguments are %arg0, %arg1, ... in pre-order, with both counters reset
at each function; the Writer keys each name by its Value.
Attribute dictionaries are sorted by key. Loop and branch bodies never
show their scf.yield (it is always empty in this dialect subset); return
and gpu.return are explicit.
"""
from __future__ import annotations

import json

from staircase.ir.core import Attribute, Block, Operation, Value
from staircase.textio.forms import GENERIC


class Writer:
    """Renders ops by running their forms; the text collects in out."""

    def __init__(self, schemas: dict):
        self.schemas = schemas  # op name -> OpSchema
        self.out: list[str] = []
        self.names: dict[Value, str] = {}
        self.next_result = 0
        self.next_arg = 0
        self.indent = ""
        self.ops: tuple = ()  # operands of the op being written
        self.k = 0  # how many of them are written

    def def_arg(self, v: Value) -> str:
        name = f"%arg{self.next_arg}"
        self.next_arg += 1
        self.names[v] = name
        return name

    def attr_value(self, attr: Attribute) -> str:
        kind = attr.kind
        if kind in ("int", "type"):
            return str(attr.value)
        if kind == "float":
            return repr(attr.value)
        if kind == "str":
            return json.dumps(attr.value)
        if kind == "array":
            return "[" + ", ".join(self.attr_value(a) for a in attr.value) + "]"
        if kind == "dict":
            return "{" + self.attr_entries(dict(attr.value)) + "}"
        if kind == "symbol":
            return "::".join("@" + part for part in attr.value)
        raise ValueError(f"unit attributes print as bare keys, not values ({kind})")

    def attr_entries(self, attrs: dict) -> str:
        parts = []
        for key in sorted(attrs):
            unit = attrs[key].kind == "unit"
            parts.append(key if unit else f"{key} = {self.attr_value(attrs[key])}")
        return ", ".join(parts)

    def region(self, block: Block, elide_yield: bool) -> None:
        indent = self.indent
        self.out.append(" {\n")
        self.indent = indent + "  "
        ops = block.ops
        if elide_yield and ops and ops[-1].name == "scf.yield" \
                and not ops[-1].attributes:
            ops = ops[:-1]
        for op in ops:
            self.op(op)
        self.indent = indent
        self.out.append(indent + "}")

    def op(self, op: Operation) -> None:
        form = self.schemas[op.name].form or GENERIC
        head = self.indent
        if op.results:
            labels = []
            for r in op.results:
                label = f"%{self.next_result}"
                self.next_result += 1
                self.names[r] = label
                labels.append(label)
            head += ", ".join(labels) + " = "
        self.out.append(head + (form.mnemonic or op.name))
        if form.isolated:
            saved = self.next_result, self.next_arg
            self.next_result = self.next_arg = 0
        self.ops = op.operands
        self.k = 0
        for write in form.writers:
            write(self, op)
        if form.isolated:
            self.next_result, self.next_arg = saved
        self.out.append("\n")


def print_module(module: Operation) -> str:
    writer = Writer(module.ctx.registry.ops)
    writer.op(module)
    return "".join(writer.out)
