"""Suite-wide checks that run after every test."""
import os

import pytest


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item, nextitem):
    """Fail a test that leaves a child process behind, running or unreaped.

    A hook rather than an autouse fixture, so that hypothesis's health check on
    function-scoped fixtures is not tripped.  It runs after the test's fixtures
    are torn down.
    """
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"{item.nodeid} left a child process" + (f" ({pid} exited)" if pid else ""))
