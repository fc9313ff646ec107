"""The frontend imports on this Python and captures the kernel corpus exactly."""
import importlib
import pkgutil

import pytest

import staircase
from conftest import golden_text
from staircase.textio import print_module


def test_every_module_imports():
    names = [info.name for info in pkgutil.walk_packages(
        staircase.__path__, prefix="staircase.")]
    assert "staircase.frontend.capture" in names
    for name in names:
        importlib.import_module(name)


@pytest.mark.parametrize("name", ["ifs", "matmul", "conv2d"])
def test_capture_matches_golden(name):
    import kernels

    assert print_module(getattr(kernels, name).module) == golden_text(f"{name}.sir")
