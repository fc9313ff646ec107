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
