"""A kernel whose annotations are strings (PEP 563): capture evaluates
them in this module's globals."""
from __future__ import annotations

from staircase import F64, Index, MemRef


def scale(a: MemRef[(4,), F64], x: F64, n: Index):
    for i in range(n):
        a[i] = a[i] * x
