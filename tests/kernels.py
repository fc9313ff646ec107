"""Captured kernel corpus shared across the test suite.

These live in a real module (not test bodies) because capture reads the
function's source from disk. Shapes are desk scale: big enough to make
transformations meaningful, small enough that the whole suite stays fast.
"""
from staircase import (
    F32,
    F64,
    GPUModule,
    MemRef,
    block_id_x,
    constant,
    parallel,
    staged,
    thread_id_x,
)

M, N, K = 4, 16, 8


@staged
def ifs(M: F64, N: F64):
    one = 1.0
    if M < N:
        two = constant(2.0)
        mem = MemRef.alloca([3, 3], F64)
    else:
        six = constant(6.0)
        mem = MemRef.alloca([7, 7], F64)
    return


@staged(range_ctor="affine_for")
def matmul(
    A: MemRef[(M, N), F32],
    B: MemRef[(N, K), F32],
    C: MemRef[(M, K), F32],
):
    for i in range(M):
        for j in range(N):
            for k in range(K):
                a = A[i, j]
                b = B[j, k]
                c = C[i, k]
                d = a * b
                e = c + d
                C[i, k] = e


# 2D NCHW convolution parallelized across output elements, filter FCHW.
# Desk scale: 1x1x64x64 input, (Ci, Co, K) = (1, 3, 3), 1x3x62x62 output.
CONV_SHAPES = {
    "input": (1, 1, 64, 64),
    "kernel": (3, 1, 3, 3),
    "output": (1, 3, 62, 62),
}


@staged
def conv2d(
    input: MemRef[(1, 1, 64, 64), F64],
    kernel: MemRef[(3, 1, 3, 3), F64],
    output: MemRef[(1, 3, 62, 62), F64],
):
    for n, co, ho, wo in parallel((0, 0, 0, 0), (1, 3, 62, 62)):
        for ci in range(0, 1):
            for ki in range(0, 3):
                for kj in range(0, 3):
                    ii = ho + ki
                    jj = wo + kj
                    inp = input[n, ci, ii, jj]
                    ker = kernel[co, ci, ki, kj]
                    output[n, co, ho, wo] += inp * ker


# Same convolution at 1x1x18x18 so that 8x8 and 4x16 tiles divide the
# 16x16 output exactly; pass-equivalence checks want tiling to fire.
CONV_SMALL_SHAPES = {
    "input": (1, 1, 18, 18),
    "kernel": (2, 1, 3, 3),
    "output": (1, 2, 16, 16),
}


@staged
def conv_small(
    input: MemRef[(1, 1, 18, 18), F64],
    kernel: MemRef[(2, 1, 3, 3), F64],
    output: MemRef[(1, 2, 16, 16), F64],
):
    for n, co, ho, wo in parallel((0, 0, 0, 0), (1, 2, 16, 16)):
        for ci in range(0, 1):
            for ki in range(0, 3):
                for kj in range(0, 3):
                    inp = input[n, ci, ho + ki, wo + kj]
                    ker = kernel[co, ci, ki, kj]
                    output[n, co, ho, wo] += inp * ker


# Tuning target: rows of the desk-scale convolution. The parallel nest
# covers (co, ho) only, each point owning one output row, so worksharing
# is race-free and the innermost wo loop (trip 62) rewards unrolling.
@staged
def conv_rows(
    input: MemRef[(1, 1, 64, 64), F64],
    kernel: MemRef[(3, 1, 3, 3), F64],
    output: MemRef[(1, 3, 62, 62), F64],
):
    for co, ho in parallel((0, 0), (3, 62)):
        for ci in range(0, 1):
            for ki in range(0, 3):
                for kj in range(0, 3):
                    for wo in range(0, 62):
                        inp = input[0, ci, ho + ki, wo + kj]
                        ker = kernel[co, ci, ki, kj]
                        output[0, co, ho, wo] += inp * ker


@staged
def strided(buf: MemRef[(64,), F64]):
    for i in range(0, 42, 2):
        buf[i] = buf[i] * 3.0 + 1.0


class AddOne(GPUModule):
    """One thread per element of an 8-element buffer: two blocks of four."""

    def add_one(self, a: MemRef[(8,), F64]):
        i = block_id_x() * 4 + thread_id_x()
        a[i] = a[i] + 1.0


@staged
def add_one(a: MemRef[(8,), F64]):
    AddOne().add_one(a, grid_size=[2, 1, 1], block_size=[4, 1, 1])
