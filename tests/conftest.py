import pytest

from eovsim import committer, endorser
from eovsim.ordering import BlockCutter


@pytest.fixture
def commit_times(monkeypatch):
    """The now of every BlockCutter.add call: the leader makes one per
    record at the instant the record commits, in commit order (production's
    at the record's append, the reference's at the commit)."""
    times = []
    add = BlockCutter.add

    def spy(self, env, now):
        times.append(now)
        return add(self, env, now)

    monkeypatch.setattr(BlockCutter, "add", spy)
    return times


@pytest.fixture
def executions(monkeypatch):
    """The op of every smallbank execution endorse() runs, in call order."""
    ops = []
    execute = endorser.execute

    def spy(op, snapshot):
        ops.append(op)
        return execute(op, snapshot)

    monkeypatch.setattr(endorser, "execute", spy)
    return ops


@pytest.fixture
def validations(monkeypatch):
    """The height of every block validate_block flags, in call order."""
    heights = []
    validate_block = committer.validate_block

    def spy(block, threshold, ledger):
        heights.append(block.height)
        return validate_block(block, threshold, ledger)

    monkeypatch.setattr(committer, "validate_block", spy)
    return heights
