import random
from types import SimpleNamespace

import pytest

from eovsim.committer import ValidationFlag
from eovsim.ledger import (GENESIS_PREV_HASH, Block, ChainIntegrityError,
                           CutReason, Ledger, ReadSet, WriteSet, hash_block)

# Golden digest for the canonical fixture below, computed once from the
# reference encoding and frozen.
GOLDEN_FIXTURE_DIGEST = "3709fc0e250788b5cd35567dbdb335ff"


def stub_txns(*ids):
    return [SimpleNamespace(txn_id=i) for i in ids]


def valid(block):
    """One Valid flag per txn: the flags append_block requires."""
    return [ValidationFlag.VALID] * len(block.txns)


def fixture_block():
    return Block(height=0, prev_hash=GENESIS_PREV_HASH,
                 txns=stub_txns("alpha", "beta", "gamma"),
                 cut_reason=CutReason.COUNT_THRESHOLD, created_at=0)


def test_identical_blocks_identical_digests():
    assert hash_block(fixture_block()) == hash_block(fixture_block())


def test_one_txn_id_changes_digest():
    other = fixture_block()
    other.txns[1] = SimpleNamespace(txn_id="BETA")
    assert hash_block(other) != hash_block(fixture_block())


def test_golden_fixture_digest():
    assert hash_block(fixture_block()) == GOLDEN_FIXTURE_DIGEST


def test_digest_sensitive_to_height_prev_and_reason():
    base = hash_block(fixture_block())
    b = fixture_block()
    b.height = 1
    assert hash_block(b) != base
    b = fixture_block()
    b.prev_hash = "f" * 32
    assert hash_block(b) != base
    b = fixture_block()
    b.cut_reason = CutReason.TIMEOUT
    assert hash_block(b) != base


def test_append_genesis_then_chain():
    ledger = Ledger()
    genesis = fixture_block()
    ledger.append_block(genesis, valid(genesis))
    assert ledger.height == 0
    nxt = Block(height=1, prev_hash=hash_block(genesis), txns=stub_txns("d"),
                cut_reason=CutReason.TIMEOUT, created_at=5)
    ledger.append_block(nxt, valid(nxt))
    assert ledger.height == 1
    assert ledger.tip_hash == hash_block(nxt)


def test_append_height_gap_fails():
    ledger = Ledger()
    ledger.append_block(fixture_block(), valid(fixture_block()))
    far = Block(height=2, prev_hash=ledger.tip_hash, txns=stub_txns("x"),
                cut_reason=CutReason.TIMEOUT, created_at=1)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(far, valid(far))


def test_append_prev_hash_mismatch_fails():
    ledger = Ledger()
    ledger.append_block(fixture_block(), valid(fixture_block()))
    bad = Block(height=1, prev_hash="0" * 32, txns=stub_txns("x"),
                cut_reason=CutReason.TIMEOUT, created_at=1)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(bad, valid(bad))


def test_append_rejects_empty_block():
    ledger = Ledger()
    empty = Block(height=0, prev_hash=GENESIS_PREV_HASH, txns=[],
                  cut_reason=CutReason.TIMEOUT, created_at=0)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(empty, [])


def test_append_requires_one_flag_per_txn():
    ledger = Ledger()
    block = fixture_block()
    with pytest.raises(TypeError):
        ledger.append_block(block)  # flags are required
    for flags in ([], valid(block)[:-1], valid(block) + [ValidationFlag.VALID]):
        with pytest.raises(ChainIntegrityError, match="one flag per txn"):
            ledger.append_block(block, flags)
    assert ledger.blocks == [] and ledger.flags == []
    ledger.append_block(block, valid(block))
    assert ledger.flags == [valid(block)]


def test_read_state_fresh_is_absent():
    assert Ledger().read_state("cust/1/checking") is None


def test_read_state_after_write():
    ledger = Ledger()
    ledger.apply_write_set(WriteSet([("k", 5)]), (3, 7))
    assert ledger.read_state("k") == (5, (3, 7))


def test_later_commit_wins():
    ledger = Ledger()
    ledger.apply_write_set(WriteSet([("k", 5)]), (3, 7))
    ledger.apply_write_set(WriteSet([("k", 6)]), (4, 0))
    assert ledger.read_state("k") == (6, (4, 0))


def test_empty_write_set_keeps_digest():
    ledger = Ledger()
    ledger.apply_write_set(WriteSet([("k", 1)]), (0, 0))
    before = ledger.state_digest()
    ledger.apply_write_set(WriteSet(), (1, 0))
    assert ledger.state_digest() == before


def test_same_writes_same_digest_across_instances():
    a, b = Ledger(), Ledger()
    ws = WriteSet([("k1", 10), ("k2", -3)])
    a.apply_write_set(ws, (2, 4))
    b.apply_write_set(ws, (2, 4))
    assert a.state_digest() == b.state_digest()


def test_digest_independent_of_write_order():
    a, b = Ledger(), Ledger()
    a.apply_write_set(WriteSet([("k1", 1)]), (0, 0))
    a.apply_write_set(WriteSet([("k2", 2)]), (0, 1))
    b.apply_write_set(WriteSet([("k2", 2)]), (0, 1))
    b.apply_write_set(WriteSet([("k1", 1)]), (0, 0))
    assert a.state_digest() == b.state_digest()


def test_digest_differs_on_value_and_version():
    a, b, c = Ledger(), Ledger(), Ledger()
    a.apply_write_set(WriteSet([("k", 1)]), (0, 0))
    b.apply_write_set(WriteSet([("k", 2)]), (0, 0))
    c.apply_write_set(WriteSet([("k", 1)]), (0, 1))
    assert len({a.state_digest(), b.state_digest(), c.state_digest()}) == 3


def random_chain(rng, blocks=10, keys=6):
    """A random but well-formed chain with per-txn write sets."""
    chain = []
    prev = GENESIS_PREV_HASH
    txn = 0
    for h in range(blocks):
        txns = []
        for _ in range(rng.randint(1, 5)):
            writes = [(f"k{rng.randrange(keys)}", rng.randint(-100, 100))
                      for _ in range(rng.randint(0, 3))]
            txns.append(SimpleNamespace(txn_id=f"t{txn}",
                                        write_set=WriteSet(writes)))
            txn += 1
        block = Block(height=h, prev_hash=prev, txns=txns,
                      cut_reason=CutReason.COUNT_THRESHOLD, created_at=h)
        prev = hash_block(block)
        chain.append(block)
    return chain


def replay(chain):
    ledger = Ledger()
    for block in chain:
        ledger.append_block(block, valid(block))
        for idx, t in enumerate(block.txns):
            ledger.apply_write_set(t.write_set, (block.height, idx))
    return ledger


def test_replay_ten_block_trace_matches():
    chain = random_chain(random.Random(99))
    original = replay(chain)
    fresh = replay(chain)
    assert fresh.tip_hash == original.tip_hash
    assert fresh.state_digest() == original.state_digest()


def test_chain_integrity_invariant():
    chain = random_chain(random.Random(5), blocks=12)
    ledger = replay(chain)
    for h in range(1, len(ledger.blocks)):
        assert ledger.blocks[h].prev_hash == hash_block(ledger.blocks[h - 1])


def test_version_monotonicity_under_commits():
    rng = random.Random(7)
    ledger = Ledger()
    last_seen: dict[str, tuple] = {}
    for h in range(50):
        for idx in range(rng.randint(1, 4)):
            key = f"k{rng.randrange(5)}"
            ledger.apply_write_set(WriteSet([(key, rng.randint(0, 9))]), (h, idx))
            _, version = ledger.read_state(key)
            assert version >= last_seen.get(key, (-1, -1))
            last_seen[key] = version


def test_fork_is_independent():
    a = Ledger()
    a.apply_write_set(WriteSet([("k", 1)]), (0, 0))
    b = a.fork()
    assert b.state_digest() == a.state_digest()
    b.apply_write_set(WriteSet([("k", 2)]), (1, 0))
    assert a.read_state("k") == (1, (0, 0))
    assert b.state_digest() != a.state_digest()


def test_trace_lines_schema():
    import json
    chain = random_chain(random.Random(3), blocks=3)
    ledger = Ledger()
    for block in chain:
        ledger.append_block(block, valid(block))
    lines = list(ledger.trace_lines())
    assert len(lines) == 3
    for line, block in zip(lines, chain):
        record = json.loads(line)
        assert record["height"] == block.height
        assert record["txn_ids"] == [t.txn_id for t in block.txns]
        assert record["cut_reason"] == block.cut_reason.value
        assert record["valid"] == ["Valid"] * len(block.txns)
