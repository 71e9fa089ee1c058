import itertools
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


@pytest.fixture(scope="session")
def every_pair(request):
    """For n = request.param: the permutations of 1..n, and for each ordered
    pair of them, f = perms[k] and g = perms[m], failing[k][m], the pairs
    that fail f <=eo g: every 0-based (i, j), i < j, with f(i) > f(j) and
    g(i) < g(j), in lexicographic order, so the first is the least witness.

    The double loop runs once per pair however many sweeps read the table.
    A sweep names n by parametrizing every_pair with indirect=True, and
    pytest runs the tests of one n together, so one table is held at a
    time.  Equal tuples are stored once: the 518,400 pairs at n = 6 share
    at most 2^15 of them."""
    n = request.param
    perms = list(itertools.permutations(range(1, n + 1)))
    pairs = list(itertools.combinations(range(n), 2))
    stored = {}
    failing = []
    for f in perms:
        row = [tuple((i, j) for i, j in pairs if f[i] > f[j] and g[i] < g[j]) for g in perms]
        failing.append([stored.setdefault(fails, fails) for fails in row])
    return perms, failing
