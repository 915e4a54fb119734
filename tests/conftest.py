import pytest

from aluthge import _workers


@pytest.fixture
def forks(monkeypatch):
    """The items of each ``_fork_join`` call that forks a child, which
    computes the last of them, recorded as the calls are made."""
    calls = []
    fork_join = _workers._fork_join

    def recording(fn, items):
        if len(items) > 1:
            calls.append(items)
        return fork_join(fn, items)

    monkeypatch.setattr(_workers, "_fork_join", recording)
    return calls
