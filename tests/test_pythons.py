"""The frontend imports and captures alike on every Python that
``requires-python >= 3.10`` admits.

tests/every_python.py imports staircase, captures tests/kernels.py and
prints each kernel's IR, whether that text parses back to itself (so the
parser's line and token readers and the IR's slotted value classes run
on each version), each op's source line, and the ExecStats and
buffers of a gpu_emulated run after canonicalize and after
lower-affine,loop-unroll{factor=2}, whose copies generated code rolls
back into one loop, the run of a function of about 4,060 statements
in one straight-line run, which generated code writes as one Python
function, and the runs of three parallel loops nested to MAX_DEPTH + 1
and past it, so each version's compiler limits meet them. Each python3.10 to
python3.13 on PATH runs it, and its output must equal what the
interpreter running this suite (3.11 for tier-1) prints. Each runs with
PYENV_VERSION set to its version, so a pyenv shim picks that version
when none is selected. An interpreter that is not on PATH, or that still
cannot run ``-c pass``, is reported as skipped, by version.
"""
import os
import shutil
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
SCRIPT = os.path.join(TESTS, "every_python.py")
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def _run(python: str, env=os.environ) -> subprocess.CompletedProcess:
    env = dict(env, PYTHONPATH=os.pathsep.join([SRC, TESTS]),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([python, SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def reference() -> str:
    done = _run(sys.executable)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("version", VERSIONS)
def test_capture_agrees_on_every_python(version, reference):
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"python{version} is not on PATH")
    env = dict(os.environ, PYENV_VERSION=version)
    probe = subprocess.run([python, "-c", "pass"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        why = probe.stderr.strip().splitlines() or [f"exit {probe.returncode}"]
        pytest.skip(f"python{version} cannot run: {why[0]}")
    done = _run(python, env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == reference
