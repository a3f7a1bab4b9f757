"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def child_env():
    """The environment for a child interpreter, with this checkout's src
    first on PYTHONPATH, so the child imports the sparcomp under test
    whether or not the package is installed."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
