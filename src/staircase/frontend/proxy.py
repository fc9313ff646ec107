"""Operator-overloaded handles on SSA values during capture.

Arithmetic between proxies builds one arith op. Mixing a proxy with a host
number materializes an arith.constant typed after the proxy operand.
Subscripting a memref proxy builds loads and stores; integer subscripts
materialize index constants.
"""
from __future__ import annotations

from staircase.dialects.builders import (
    build_arith_binop,
    build_cmp,
    build_constant,
    build_memref_access,
)
from staircase.errors import TypeMismatch, UnsupportedConstruct
from staircase.frontend import state
from staircase.ir.core import INDEX, IRType, Value

_FLOAT_OPS = {"+": "arith.addf", "-": "arith.subf",
              "*": "arith.mulf", "/": "arith.divf"}
_INT_OPS = {"+": "arith.addi", "-": "arith.subi", "*": "arith.muli"}


def materialize_constant(value, ty: IRType | None) -> Value:
    block, location = state.active().insertion()
    return build_constant(block, value, ty, location)


def constant(value, ty: IRType | None = None) -> "ValueProxy":
    """Stage a host number as an arith.constant (f64/i64 by default)."""
    return ValueProxy(materialize_constant(value, ty))


class ValueProxy:
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value

    @property
    def type(self) -> IRType:
        return self.value.type

    def __repr__(self) -> str:
        return f"<staged {self.type} value>"

    def __bool__(self):
        raise UnsupportedConstruct(
            "a staged value has no host truth value; conditions must go "
            "through the if rewrite"
        )

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> Value:
        if isinstance(other, ValueProxy):
            return other.value
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return materialize_constant(other, self.type)
        raise TypeMismatch(f"cannot stage operand {other!r}")

    def _binop(self, other, symbol: str, reflected: bool) -> "ValueProxy":
        rhs = self._coerce(other)
        lhs = self.value
        if reflected:
            lhs, rhs = rhs, lhs
        name = (_FLOAT_OPS if lhs.type.is_float else _INT_OPS).get(symbol)
        if name is None:
            raise TypeMismatch(f"no {symbol!r} operation on {lhs.type}")
        block, location = state.active().insertion(lhs, rhs)
        return ValueProxy(build_arith_binop(block, name, lhs, rhs, location))

    def __add__(self, other):
        return self._binop(other, "+", False)

    def __radd__(self, other):
        return self._binop(other, "+", True)

    def __sub__(self, other):
        return self._binop(other, "-", False)

    def __rsub__(self, other):
        return self._binop(other, "-", True)

    def __mul__(self, other):
        return self._binop(other, "*", False)

    def __rmul__(self, other):
        return self._binop(other, "*", True)

    def __truediv__(self, other):
        return self._binop(other, "/", False)

    def __rtruediv__(self, other):
        return self._binop(other, "/", True)

    # -- comparison -----------------------------------------------------------
    # (Python reflects a comparison by swapping the operator: 1 < x is x > 1)

    def _cmp(self, other, operator: str) -> "ValueProxy":
        rhs = self._coerce(other)
        block, location = state.active().insertion(self.value, rhs)
        return ValueProxy(build_cmp(block, operator, self.value, rhs, location))

    def __lt__(self, other):
        return self._cmp(other, "<")

    def __le__(self, other):
        return self._cmp(other, "<=")

    def __gt__(self, other):
        return self._cmp(other, ">")

    def __ge__(self, other):
        return self._cmp(other, ">=")

    def __eq__(self, other):
        return self._cmp(other, "==")

    def __ne__(self, other):
        return self._cmp(other, "!=")

    __hash__ = None

    # -- memref subscripts ------------------------------------------------------

    def _indices(self, key) -> list[Value]:
        if self.type.kind != "memref":
            raise TypeMismatch(f"{self.type} values are not subscriptable")
        if not isinstance(key, tuple):
            key = (key,)
        out = []
        for k in key:
            if isinstance(k, ValueProxy):
                if k.type != INDEX:
                    raise TypeMismatch(
                        f"memref subscripts must be index values, got {k.type}"
                    )
                out.append(k.value)
            elif isinstance(k, int) and not isinstance(k, bool):
                out.append(materialize_constant(k, INDEX))
            else:
                raise TypeMismatch(f"cannot index a memref with {k!r}")
        return out

    def __getitem__(self, key) -> "ValueProxy":
        indices = self._indices(key)
        block, location = state.active().insertion(self.value, *indices)
        return ValueProxy(build_memref_access(block, "load", self.value, indices,
                                              location=location))

    def __setitem__(self, key, item) -> None:
        indices = self._indices(key)
        if isinstance(item, ValueProxy):
            stored = item.value
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            stored = materialize_constant(item, self.type.element)
        else:
            raise TypeMismatch(f"cannot store {item!r} into {self.type}")
        block, location = state.active().insertion(stored, self.value, *indices)
        build_memref_access(block, "store", self.value, indices, stored, location)
