"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    # a forked worker that outlives its test is a leak, running or unreaped
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave pid {pid})")
