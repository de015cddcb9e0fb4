import pytest

from eovsim.ordering import BlockCutter


@pytest.fixture
def commit_times(monkeypatch):
    """Instants of every BlockCutter.add call; the leader makes one at each
    record's commit, in commit order."""
    times = []
    add = BlockCutter.add

    def spy(self, env, now):
        times.append(now)
        return add(self, env, now)

    monkeypatch.setattr(BlockCutter, "add", spy)
    return times
