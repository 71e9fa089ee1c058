import os

import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws more examples, in a fixed order, so a
# CI failure reproduces from the log alone; the default profile is unchanged.
settings.register_profile("ci", max_examples=1000, derandomize=True)


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(k)` makes `oracle.run_properties` see k CPUs, so k >= 2 takes
    the forked path on any POSIX host; the test must leave no child behind."""
    yield lambda k: monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(k)), raising=False
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
