import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eovsim.committer import ValidationFlag
from eovsim.ledger import (GENESIS_PREV_HASH, Block, ChainIntegrityError,
                           CutReason, Ledger, ReadSet, WriteSet, hash_block)

# Golden digest for the canonical fixture below, computed once from the
# reference encoding and frozen.
GOLDEN_FIXTURE_DIGEST = "3709fc0e250788b5cd35567dbdb335ff"


def stub_txns(*ids):
    return [SimpleNamespace(txn_id=i) for i in ids]


def valid(block):
    """The block with one Valid flag per txn: the flags append_block
    requires."""
    block.flags = [ValidationFlag.VALID] * len(block.txns)
    return block


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
    ledger.append_block(valid(genesis))
    assert ledger.height == 0
    nxt = Block(height=1, prev_hash=hash_block(genesis), txns=stub_txns("d"),
                cut_reason=CutReason.TIMEOUT, created_at=5)
    ledger.append_block(valid(nxt))
    assert ledger.height == 1
    assert ledger.tip_hash == hash_block(nxt)


def test_append_height_gap_fails():
    ledger = Ledger()
    ledger.append_block(valid(fixture_block()))
    far = Block(height=2, prev_hash=ledger.tip_hash, txns=stub_txns("x"),
                cut_reason=CutReason.TIMEOUT, created_at=1)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(valid(far))


def test_append_prev_hash_mismatch_fails():
    ledger = Ledger()
    ledger.append_block(valid(fixture_block()))
    bad = Block(height=1, prev_hash="0" * 32, txns=stub_txns("x"),
                cut_reason=CutReason.TIMEOUT, created_at=1)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(valid(bad))


def test_append_rejects_empty_block():
    ledger = Ledger()
    empty = Block(height=0, prev_hash=GENESIS_PREV_HASH, txns=[],
                  cut_reason=CutReason.TIMEOUT, created_at=0)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(valid(empty))


def test_append_requires_one_flag_per_txn():
    ledger = Ledger()
    block = fixture_block()
    one_each = [ValidationFlag.VALID] * len(block.txns)
    for flags in (None, [], one_each[:-1], one_each + [ValidationFlag.VALID]):
        block.flags = flags
        with pytest.raises(ChainIntegrityError, match="one flag per txn"):
            ledger.append_block(block)
    assert ledger.blocks == [] and ledger.tip_hash == GENESIS_PREV_HASH
    block.flags = one_each
    ledger.append_block(block)
    assert ledger.blocks == [block] and ledger.blocks[0].flags is one_each


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


def test_apply_write_set_stores_one_entry_per_distinct_value():
    # entries are immutable, so every key written with one value shares one
    # (value, version) entry; the state equals a write-by-write reference
    ws = WriteSet([("a", 7), ("c", -1), ("b", 7), ("e", -1), ("c", 7),
                   ("d", 7), ("f", 0)])
    shared, reference = Ledger(), Ledger()
    shared.apply_write_set(ws, (2, 3))
    for write in ws.writes:
        reference.apply_write_set(WriteSet([write]), (2, 3))
    state = dict(shared.state_items())
    assert state["a"] is state["b"] is state["c"] is state["d"]
    assert len({id(entry) for entry in state.values()}) == 3
    assert state == dict(reference.state_items())
    assert shared.state_digest() == reference.state_digest()
    assert shared.agrees_with(reference)


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
        ledger.append_block(valid(block))
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


def test_parent_writes_after_fork_are_invisible_to_the_child():
    parent = Ledger()
    parent.apply_write_set(WriteSet([("k", 1), ("j", 1)]), (0, 0))
    child = parent.fork()
    parent.apply_write_set(WriteSet([("k", 2), ("new", 7)]), (1, 0))
    parent.apply_writes([("j", (3, (1, 1)))])
    assert child.read_state("k") == (1, (0, 0))
    assert child.read_state("j") == (1, (0, 0))
    assert child.read_state("new") is None
    assert dict(child.state_items()) == {"k": (1, (0, 0)), "j": (1, (0, 0))}
    assert parent.read_state("k") == (2, (1, 0))
    assert dict(parent.state_items()) == {
        "k": (2, (1, 0)), "j": (3, (1, 1)), "new": (7, (1, 0))}


def test_child_writes_are_invisible_to_the_parent_and_siblings():
    parent = Ledger()
    parent.apply_write_set(WriteSet([("k", 1)]), (0, 0))
    child, sibling = parent.fork(), parent.fork()
    child.apply_writes([("k", (5, (1, 0))), ("x", (6, (1, 1)))])
    for other in (parent, sibling):
        assert other.read_state("k") == (1, (0, 0))
        assert other.read_state("x") is None
        assert dict(other.state_items()) == {"k": (1, (0, 0))}
        assert not other.agrees_with(child)


def test_fork_of_a_fork_sees_its_parents_writes_and_no_later_ones():
    root = Ledger()
    root.apply_write_set(WriteSet([("a", 1), ("b", 1)]), (0, 0))
    mid = root.fork()
    mid.apply_write_set(WriteSet([("b", 2), ("c", 2)]), (1, 0))
    leaf = mid.fork()
    mid.apply_write_set(WriteSet([("a", 3)]), (2, 0))
    leaf.apply_write_set(WriteSet([("c", 4)]), (2, 1))
    root.apply_write_set(WriteSet([("d", 5)]), (1, 1))
    assert dict(leaf.state_items()) == {
        "a": (1, (0, 0)), "b": (2, (1, 0)), "c": (4, (2, 1))}
    assert dict(mid.state_items()) == {
        "a": (3, (2, 0)), "b": (2, (1, 0)), "c": (2, (1, 0))}
    assert dict(root.state_items()) == {
        "a": (1, (0, 0)), "b": (1, (0, 0)), "d": (5, (1, 1))}


def flat_ledger(state):
    """A never-forked ledger holding exactly `state`, all in one layer."""
    ledger = Ledger()
    ledger.apply_writes(list(state.items()))
    return ledger


def test_forked_written_ledger_digest_equals_flat_ledger():
    parent = Ledger()
    parent.apply_write_set(WriteSet([(f"k{i}", i) for i in range(50)]), (0, 0))
    child = parent.fork()
    # overwrite some base keys, add new ones, and write one twice
    child.apply_writes([("k3", (-30, (1, 0))), ("k7", (7, (0, 0))),
                        ("new", (1, (1, 1))), ("k3", (31, (1, 2)))])
    flat = flat_ledger(dict(child.state_items()))
    assert child.state_digest() == flat.state_digest()
    assert child.state_digest() != parent.state_digest()
    # a key rewritten to its base entry leaves the digest as the base's
    twin = parent.fork()
    twin.apply_writes([("k7", (7, (0, 0)))])
    assert twin.state_digest() == parent.state_digest()


def test_entry_hash_is_the_five_part_encoding():
    import hashlib
    from eovsim.ledger import _entry_hash

    def reference(key, value, bh, ti):
        h = hashlib.blake2b(digest_size=16)
        h.update(key.encode())
        h.update(b"=")
        h.update(value.to_bytes(8, "big", signed=True))
        h.update(bh.to_bytes(8, "big"))
        h.update(ti.to_bytes(8, "big"))
        return int.from_bytes(h.digest(), "big")

    for key, value, bh, ti in [("cust/17/checking", 100, 0, 0), ("k", -1, 3, 9),
                               ("", -2**63, 2**64 - 1, 2**32),
                               ("ünï", 2**63 - 1, 1, 0)]:
        assert _entry_hash(key, (value, (bh, ti))) == reference(key, value, bh, ti)


def test_agrees_with_on_a_shared_base_compares_effective_entries():
    parent = Ledger()
    parent.apply_write_set(WriteSet([("k", 1), ("j", 2)]), (0, 0))
    a, b = parent.fork(), parent.fork()
    assert a._base is b._base
    assert a.agrees_with(b)
    # an overlay entry equal to the base entry it shadows changes nothing
    a.apply_writes([("k", (1, (0, 0)))])
    assert a.agrees_with(b) and b.agrees_with(a)
    # one differing entry in one overlay, in value or in version
    b.apply_writes([("j", (3, (0, 0)))])
    assert not a.agrees_with(b) and not b.agrees_with(a)
    a.apply_writes([("j", (3, (0, 1)))])
    assert not a.agrees_with(b)
    a.apply_writes([("j", (3, (0, 0)))])
    assert a.agrees_with(b)
    # a key only one side added
    a.apply_writes([("new", (0, (1, 0)))])
    assert not a.agrees_with(b) and not b.agrees_with(a)


def test_agrees_with_across_different_bases_compares_effective_states():
    state = {"k": (1, (0, 0)), "j": (2, (0, 0))}
    layered = flat_ledger({"k": (1, (0, 0))}).fork()
    layered.apply_writes([("j", (2, (0, 0)))])
    flat = flat_ledger(state)
    assert layered._base is not flat._base
    assert layered.agrees_with(flat) and flat.agrees_with(layered)
    other = flat_ledger({**state, "j": (2, (0, 1))}).fork()
    assert not layered.agrees_with(other) and not other.agrees_with(layered)
    assert not flat_ledger({"k": (1, (0, 0))}).agrees_with(flat)


def test_build_shares_one_genesis_base_across_peers():
    # the memory property: N peers hold one genesis state between them,
    # and a peer's overlay holds only what it applied since genesis
    from eovsim.config import ExperimentConfig
    from eovsim.simulation import build
    cfg = ExperimentConfig.from_dict({
        "topology": {"peers": 4, "non_endorsing": 2},
        "workload": {"n_accounts": 50}})
    peers = build(cfg).all_peers()
    base = peers[0].ledger._base
    assert len(base) == 2 * cfg.workload.n_accounts
    assert len(peers) == 6
    for peer in peers:
        assert peer.ledger._base is base
        assert peer.ledger._state == {}
        assert peer.ledger.height == 0


# Ledger operations drawn by the property test below: a write set applied
# at a version, a list of (key, (value, version)) writes, or a fork. Each
# names its ledger by an index into the ledgers made so far.
KEYS = st.sampled_from(["a", "b", "c", "d"])
ENTRY = st.tuples(st.integers(-3, 3), st.tuples(st.integers(0, 2),
                                                st.integers(0, 2)))
LEDGER_OPS = st.one_of(
    st.tuples(st.just("write_set"), st.integers(0, 7),
              st.lists(st.tuples(KEYS, st.integers(-3, 3)), max_size=3),
              st.tuples(st.integers(0, 2), st.integers(0, 2))),
    st.tuples(st.just("writes"), st.integers(0, 7),
              st.lists(st.tuples(KEYS, ENTRY), max_size=3)),
    st.tuples(st.just("fork"), st.integers(0, 7)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(LEDGER_OPS, max_size=25))
def test_layered_ledgers_match_a_flat_model(ops):
    ledgers, models = [Ledger()], [{}]
    for op in ops:
        i = op[1] % len(ledgers)
        ledger, model = ledgers[i], models[i]
        if op[0] == "write_set":
            ledger.apply_write_set(WriteSet(op[2]), op[3])
            model.update((key, (value, op[3])) for key, value in op[2])
        elif op[0] == "writes":
            ledger.apply_writes(op[2])
            model.update(op[2])
        else:
            ledgers.append(ledger.fork())
            models.append(dict(model))
    for ledger, model in zip(ledgers, models):
        for key in ["a", "b", "c", "d"]:
            assert ledger.read_state(key) == model.get(key)
        items = list(ledger.state_items())
        assert len(items) == len(model) and dict(items) == model
        assert ledger.state_digest() == flat_ledger(model).state_digest()
    for a, model_a in zip(ledgers, models):
        for b, model_b in zip(ledgers, models):
            assert a.agrees_with(b) == (model_a == model_b)


def test_trace_lines_schema():
    import json
    chain = random_chain(random.Random(3), blocks=3)
    ledger = Ledger()
    for block in chain:
        ledger.append_block(valid(block))
    lines = list(ledger.trace_lines())
    assert len(lines) == 3
    for line, block in zip(lines, chain):
        record = json.loads(line)
        assert record["height"] == block.height
        assert record["txn_ids"] == [t.txn_id for t in block.txns]
        assert record["cut_reason"] == block.cut_reason.value
        assert record["valid"] == ["Valid"] * len(block.txns)
