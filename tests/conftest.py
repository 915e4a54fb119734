import pytest

from aluthge import _workers


@pytest.fixture
def forks(monkeypatch):
    """What each forked child was given, recorded as the children are forked:
    the items of a ``_workers._Child``, the ``(shape, slots)`` of a
    ``_workers._Ring``. One that computes here (no child may start, or the
    pipe, the mmap or the fork failed) is not recorded."""
    calls = []

    class Recording(_workers._Child):
        def __init__(self, fn, items):
            super().__init__(fn, items)
            if self.pid:
                calls.append(items)

    class RecordingRing(_workers._Ring):
        def __init__(self, fn, shape, slots):
            super().__init__(fn, shape, slots)
            if self.pid:
                calls.append((shape, slots))

    monkeypatch.setattr(_workers, "_Child", Recording)
    monkeypatch.setattr(_workers, "_Ring", RecordingRing)
    return calls


@pytest.fixture
def children(monkeypatch):
    """The test runs inside the commands' process context with two usable
    CPUs, so that a ``_Child`` forks wherever BLAS's thread count can be set."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    with _workers._blas_children():
        yield
