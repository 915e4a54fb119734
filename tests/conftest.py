import pytest

from aluthge import _workers


@pytest.fixture
def forks(monkeypatch):
    """Each child ``_workers._shared`` started, recorded once, as it is
    forked: the list of items it could claim, or the shape of a stream's
    ring, ``_RING_SLOTS`` slots each shaped like the stream's first item. A
    call that computes here alone (no child may start, or the mmap, a pipe
    or the fork failed) is not recorded."""
    calls = []

    class Recording(_workers._Forked):
        def __init__(self, fn, items, shape=None):
            super().__init__(fn, items, shape)
            if self.pid:
                calls.append(items if shape is None else self.ring.shape)

    monkeypatch.setattr(_workers, "_Forked", Recording)
    return calls


@pytest.fixture
def children(monkeypatch):
    """The test runs inside the commands' process context with two usable
    CPUs, so that a child forks wherever BLAS's thread count can be set."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    with _workers._blas_children():
        yield
