"""check_races: which points of a parallel loop touch the same address.

A conflict is (earlier point, later point, (buffer label, flat offset)).
Arguments are labelled arg0, arg1, ...; only the points of the outermost
parallel loop are told apart.
"""
from unittest import mock

import definterp
from irgen import index_module, random_inputs
from staircase.interp import Buffer, check_races, races
from staircase.ir.core import clone_module, create_context
from staircase.passes import run_pipeline
from staircase.textio import parse_module

GPU = "builtin.module(gpu-map-parallel-loops,gpu-kernel-outlining)"


def _module(body, params):
    text = f"module {{\n  func.func @f({params}) {{\n{body}\n  }}\n}}\n"
    return parse_module(text, create_context())


def test_conv_rows_has_no_conflict():
    import kernels

    module = kernels.conv_rows.module
    params = [a.type for a in module.body().ops[0].body().args]
    assert check_races(module, "conv_rows", random_inputs(params, 3)) == []


def test_conv2d_has_no_conflict():
    # the code check_races runs keeps conv2d's 3-trip loops, and each
    # output point still adds only into its own element
    import kernels

    module = kernels.conv2d.module
    params = [a.type for a in module.body().ops[0].body().args]
    assert check_races(module, "conv2d", random_inputs(params, 3)) == []


# Four points store to a[0].
ONE_ADDRESS = ("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 4 : index
    %3 = arith.constant 1.0 : f64
    scf.parallel (%arg1) = (%0) to (%2) step (%1) {
      memref.store %3, %arg0[%0] : memref<4xf64>
    }
    return""", "%arg0: memref<4xf64>")


def test_points_storing_to_one_address():
    module = _module(*ONE_ADDRESS)
    assert check_races(module, "f", [Buffer((4,), "f64")]) == [
        ((0,), (k,), ("arg0", 0)) for k in (1, 2, 3)]


def test_read_of_another_points_write():
    # point i reads a[i] and writes a[i + 1]: point 1 reads what point 0
    # wrote, and point 2 what point 1 wrote
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 3 : index
    scf.parallel (%arg1) = (%0) to (%2) step (%1) {
      %3 = memref.load %arg0[%arg1] : memref<4xf64>
      %4 = arith.addi %arg1, %1 : index
      memref.store %3, %arg0[%4] : memref<4xf64>
    }
    return""", "%arg0: memref<4xf64>")
    assert check_races(module, "f", [Buffer((4,), "f64")]) == [
        ((0,), (1,), ("arg0", 1)), ((1,), (2,), ("arg0", 2))]


def test_one_buffer_passed_twice_races_through_the_alias():
    # every point reads a[3] and point i writes b[i]: with one Buffer as
    # both, point 3 writes what points 0 and 1 read, under its first name
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 4 : index
    %3 = arith.constant 3 : index
    scf.parallel (%arg2) = (%0) to (%2) step (%1) {
      %4 = memref.load %arg0[%3] : memref<4xf64>
      memref.store %4, %arg1[%arg2] : memref<4xf64>
    }
    return""", "%arg0: memref<4xf64>, %arg1: memref<4xf64>")
    buf = Buffer((4,), "f64", [1.0, 2.0, 3.0, 4.0])
    assert check_races(module, "f", [buf, buf]) == [
        ((0,), (3,), ("arg0", 3)), ((1,), (3,), ("arg0", 3))]
    assert buf.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert check_races(module, "f", [buf, buf.copy()]) == []


def test_nested_parallel_loops_record_outer_points():
    # the inner points of one outer point share b[i]; the outer points
    # share a[0], and they are reported by the outer index alone
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 2 : index
    %3 = arith.constant 1.0 : f64
    scf.parallel (%arg2) = (%0) to (%2) step (%1) {
      scf.parallel (%arg3) = (%0) to (%2) step (%1) {
        memref.store %3, %arg1[%arg2] : memref<2xf64>
        memref.store %3, %arg0[%0] : memref<2xf64>
      }
    }
    return""", "%arg0: memref<2xf64>, %arg1: memref<2xf64>")
    args = [Buffer((2,), "f64"), Buffer((2,), "f64")]
    assert check_races(module, "f", args) == [((0,), (1,), ("arg0", 0))]
    assert args[0].tolist() == [0.0, 0.0]   # it runs on copies


def test_threads_of_a_launch_are_points():
    # outlining turns the four points into four blocks of one thread
    # each; their stores to a[0] conflict as the points' stores do
    outlined, _ = run_pipeline(_module(*ONE_ADDRESS), GPU)
    assert check_races(outlined, "f", [Buffer((4,), "f64")]) == [
        ((0, 0, 0, 0, 0, 0), (k, 0, 0, 0, 0, 0), ("arg0", 0))
        for k in (1, 2, 3)]


def test_buffers_a_point_allocates_are_its_own():
    # each point stores to and loads from a buffer it allocates; once the
    # point ends, the buffer may be freed, but its id must not label the
    # next point's buffer as the same address
    module = _module("""\
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = arith.constant 4 : index
    %3 = arith.constant 1.0 : f64
    scf.parallel (%arg1) = (%0) to (%2) step (%1) {
      %4 = memref.alloc() : memref<2xf64>
      memref.store %3, %4[%0] : memref<2xf64>
      %5 = memref.load %4[%0] : memref<2xf64>
      memref.store %5, %arg0[%arg1] : memref<4xf64>
    }
    return""", "%arg0: memref<4xf64>")
    assert check_races(module, "f", [Buffer((4,), "f64")]) == []


def _reference_races(module, func, args):
    """What check_races should report, from the definitional interpreter:
    the same recorder, told of each access in op order and of the points
    of each parallel loop and launch."""
    args = [a.copy() if isinstance(a, Buffer) else a for a in args]
    recorder = races._Recorder({id(a): f"arg{i}" for i, a in enumerate(args)
                                if isinstance(a, Buffer)})
    meaning = dict(definterp._MEANING)

    def access(first, report):
        def run(machine, op, env):
            meaning[op.name](machine, op, env)
            buf, *indices = (env[v] for v in op.operands[first:])
            report(buf, definterp._offset(op, buf, indices))
        return run

    def points(body_of, point_of):
        def run(machine, op, env):
            body, block = body_of(machine, op), machine.block

            def enter(b, env):
                if b is body:
                    recorder.begin_point(point_of(machine, b, env))
                return block(b, env)

            recorder.begin_parallel()
            machine.block = enter
            try:
                meaning[op.name](machine, op, env)
            finally:
                machine.block = block
            recorder.end_parallel()
        return run

    patches = {
        "memref.load": access(0, recorder.on_read),
        "memref.store": access(1, recorder.on_write),
        "scf.parallel": points(lambda m, op: op.body(),
                               lambda m, b, env: tuple(env[a] for a in b.args)),
        "gpu.launch_func": points(
            lambda m, op: m.symbols.lookup(*op.attributes["kernel"].value).body(),
            lambda m, b, env: m.ids),
    }
    with mock.patch.dict(definterp._MEANING, patches):
        definterp.run(module, func, args, "gpu_emulated")
    return list(recorder.conflicts)


def _conflicts(check, module, func, args):
    try:
        return check(module, func, args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_index_corpus_matches_the_definitional_interpreter():
    # generated code reports the addresses its partial sums compute; a
    # run that raises on both sides agrees, so such seeds are counted
    found = raised = 0
    seeds = range(60)
    for seed in seeds:
        built = index_module(seed)
        params = [a.type for a in built.body().ops[0].body().args]
        for module in (built, run_pipeline(clone_module(built), GPU)[0]):
            args = random_inputs(params, seed)
            want = _conflicts(_reference_races, module, f"idx{seed}", args)
            got = _conflicts(check_races, module, f"idx{seed}", args)
            assert got == want, f"seed {seed}: {got!r} != {want!r}"
            found += isinstance(want, list) and bool(want)
            raised += module is built and not isinstance(want, list)
    print(f"{found} of 120 runs with conflicts; {raised} of {len(seeds)} seeds "
          "raise untransformed")
    assert raised < len(seeds) // 2
    assert found >= 5
