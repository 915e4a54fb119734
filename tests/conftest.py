import pytest

from aluthge import _workers


@pytest.fixture
def forks(monkeypatch):
    """The items of each child that ``_workers._Child`` forked, recorded as
    the children are forked; a ``_Child`` that computes its items here (no
    child may start, or the pipe or the fork failed) is not recorded."""
    calls = []

    class Recording(_workers._Child):
        def __init__(self, fn, items):
            super().__init__(fn, items)
            if self.pipe is not None:
                calls.append(items)

    monkeypatch.setattr(_workers, "_Child", Recording)
    return calls


@pytest.fixture
def children(monkeypatch):
    """The test runs inside the commands' process context with two usable
    CPUs, so that a ``_Child`` forks wherever BLAS's thread count can be set."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    with _workers._blas_children():
        yield
