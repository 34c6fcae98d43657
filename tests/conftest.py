import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

import qshift.cli  # noqa: E402
import qshift.simulation  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _blas_threads_kept():
    """The session ends on the OpenBLAS thread count it started on, so no
    test runs at a count that an earlier test left behind."""
    start = qshift.simulation._blas_threads()
    yield
    assert qshift.simulation._blas_threads() == start, "a test changed the OpenBLAS thread count"


@pytest.fixture(autouse=True)
def _cli_keeps_blas_threads(monkeypatch):
    """In-process ``cli.main`` calls leave OpenBLAS's thread count as it is.

    A command sets one thread for good, which suits a process that runs
    one command and not a test session; the tests that run commands in a
    subprocess check the real setter.
    """
    monkeypatch.setattr(qshift.cli, "_single_blas_thread", lambda: None)
