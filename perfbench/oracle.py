"""Seeded inputs and plain-Python reference results.

Nothing here imports the program under test: the synthetic blocks are
written as IR text and evaluated by the generator itself, and the kernel
references are direct loops over flat lists.  The benchmark compares every
output buffer the program writes against these.
"""
import math
import random

REL_TOL = 1e-9
ABS_TOL = 1e-12

# Constants the synthetic blocks draw from.  A finite pool makes some
# constants repeat, so canonicalize's dedup sweep has work to do.
_SCALES = tuple(k / 64.0 for k in range(-32, 33) if k)


def uniform(rng, n):
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def close(got, want):
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        for g, w in zip(got, want))


# -- kernel references (row-major flat lists) ---------------------------------

def conv_rows(src, flt, dst, hi, wi, co, ho, wo, k=3):
    """dst[0, c, h, w] += sum over (ki, kj) of src[0, 0, h+ki, w+kj] * flt[c, 0, ki, kj].

    The sum runs in the kernel's loop order, starting from the initial
    output value, so the reference rounds exactly as the kernel does.
    """
    out = list(dst)
    for c in range(co):
        for h in range(ho):
            for w in range(wo):
                acc = out[(c * ho + h) * wo + w]
                for ki in range(k):
                    for kj in range(k):
                        acc += src[(h + ki) * wi + w + kj] * flt[(c * k + ki) * k + kj]
                out[(c * ho + h) * wo + w] = acc
    return out


def matmul(a, b, c, n):
    out = list(c)
    for i in range(n):
        for j in range(n):
            acc = out[i * n + j]
            for k in range(n):
                acc += a[i * n + k] * b[k * n + j]
            out[i * n + j] = acc
    return out


def saxpy(x, y):
    return [yv + xv * 2.0 for xv, yv in zip(x, y)]


# -- synthetic straight-line blocks --------------------------------------------

class Block:
    """One generated function: its IR text, inputs and expected outputs."""

    def __init__(self, name, text, width, inputs, expected, ops):
        self.name = name
        self.text = text
        self.width = width
        self.inputs = inputs        # [arg0 data, arg1 initial data]
        self.expected = expected    # arg1 after the call
        self.ops = ops              # ops in the function body, return included


def straight_line_block(name, n_ops, seed, width=256):
    """A single-block function of about ``n_ops`` ops over two f64 buffers.

    The body loads from ``%arg0``, combines values with addf/subf/mulf,
    scales them by constants and stores results into ``%arg1``.  About 40%
    of the ops are dead, duplicate or foldable, which canonicalize erases.
    Every value stays in [-1, 1]: terms are ``(a op b) * s`` with
    ``|s| <= 1/2``, and folded constants are sums of two such scales.
    """
    rng = random.Random(seed)
    ty = f"memref<{width}xf64>"
    src = uniform(rng, width)
    dst0 = uniform(rng, width)
    dst = list(dst0)
    lines = []
    live = []       # (ssa name, value) usable as operands
    counter = [0]

    def emit(rhs, value=None):
        ssa = f"%{counter[0]}"
        counter[0] += 1
        lines.append(f"    {ssa} = {rhs}")
        return ssa, value

    def index():
        k = rng.randrange(width)
        return emit(f"arith.constant {k} : index", k)

    def scale():
        s = rng.choice(_SCALES)
        return emit(f"arith.constant {s!r} : f64", s)

    def load():
        at, k = index()
        return emit(f"memref.load %arg0[{at}] : {ty}", src[k])

    def term():
        a, b = rng.choice(live), rng.choice(live)
        opname, fn = rng.choice((("addf", lambda x, y: x + y),
                                 ("subf", lambda x, y: x - y),
                                 ("mulf", lambda x, y: x * y)))
        ab = emit(f"arith.{opname} {a[0]}, {b[0]} : f64", fn(a[1], b[1]))
        s = scale()
        return emit(f"arith.mulf {ab[0]}, {s[0]} : f64", ab[1] * s[1])

    def store(value):
        at, k = index()
        lines.append(f"    memref.store {value[0]}, %arg1[{at}] : {ty}")
        dst[k] = value[1]

    for _ in range(4):
        live.append(load())
    body_ops = lambda: len(lines) + 1  # noqa: E731 -- the return op
    while body_ops() < n_ops - 3:
        roll = rng.random()
        if roll < 0.30:
            live.append(load())
        elif roll < 0.60:
            live.append(term())
        elif roll < 0.72:
            term()                      # dead: canonicalize erases it
        elif roll < 0.80:
            a, b = scale(), scale()     # folds to one constant
            live.append(emit(f"arith.addf {a[0]}, {b[0]} : f64",
                             a[1] + b[1]))
        else:
            store(rng.choice(live))
        if len(live) > 32:
            store(live.pop(0))
    store(live[-1])
    lines.append("    return")
    text = (
        "module {\n"
        f"  func.func @{name}(%arg0: {ty}, %arg1: {ty}) {{\n"
        + "\n".join(lines) + "\n  }\n}\n"
    )
    return Block(name, text, width, [src, dst0], dst, len(lines))
