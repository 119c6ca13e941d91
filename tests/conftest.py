import os
import re

import pytest

_CRITERION = re.compile(r"test_c(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    """Emit one status line per acceptance criterion as it finishes."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    match = _CRITERION.match(name)
    if match is None:
        return
    num, slug = match.groups()
    status = "PASS" if report.passed else "FAIL"
    print(f"\ncriterion {num} ({slug.replace('_', '-')}): {status}", flush=True)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"a child process was left behind: waitpid gave pid {pid}, status {status}", pytrace=False)
