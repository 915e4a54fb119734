import pytest

from aluthge import _workers


@pytest.fixture
def forks(monkeypatch):
    """The items of each child forked, or tried, by ``_workers._Child``,
    recorded as the children are made."""
    calls = []

    class Recording(_workers._Child):
        def __init__(self, fn, items):
            calls.append(items)
            super().__init__(fn, items)

    monkeypatch.setattr(_workers, "_Child", Recording)
    return calls
