import copy
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eovsim.committer import ValidationFlag, commit_block
from eovsim.ledger import (GENESIS_PREV_HASH, Block, Chain,
                           ChainIntegrityError, CutReason, Ledger, ReadSet,
                           WriteSet, _entry_hash, _rule_hash, hash_block)
from eovsim.ordering import Envelope
from eovsim.smallbank import Genesis, total_balance

# Golden digest for the canonical fixture below, computed once from the
# reference encoding and frozen.
GOLDEN_FIXTURE_DIGEST = "3709fc0e250788b5cd35567dbdb335ff"


def stub_txns(*ids):
    return [SimpleNamespace(txn_id=i) for i in ids]


def valid(block):
    """The block with one Valid flag per txn, as its validation leaves it."""
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
    ledger.append_block(genesis)
    assert ledger.height == 0
    nxt = Block(height=1, prev_hash=hash_block(genesis), txns=stub_txns("d"),
                cut_reason=CutReason.TIMEOUT, created_at=5)
    ledger.append_block(nxt)
    assert ledger.height == 1
    assert ledger.tip_hash == hash_block(nxt)


def test_append_height_gap_fails():
    ledger = Ledger()
    ledger.append_block(fixture_block())
    far = Block(height=2, prev_hash=ledger.tip_hash, txns=stub_txns("x"),
                cut_reason=CutReason.TIMEOUT, created_at=1)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(far)


def test_append_prev_hash_mismatch_fails():
    ledger = Ledger()
    ledger.append_block(fixture_block())
    bad = Block(height=1, prev_hash="0" * 32, txns=stub_txns("x"),
                cut_reason=CutReason.TIMEOUT, created_at=1)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(bad)


def test_append_rejects_empty_block():
    ledger = Ledger()
    empty = Block(height=0, prev_hash=GENESIS_PREV_HASH, txns=[],
                  cut_reason=CutReason.TIMEOUT, created_at=0)
    with pytest.raises(ChainIntegrityError):
        ledger.append_block(empty)


def test_append_rejects_another_block_at_a_height():
    ledger = Ledger()
    genesis = fixture_block()
    assert ledger.append_block(genesis) is True
    behind = ledger.fork()
    nxt = Block(height=1, prev_hash=hash_block(genesis), txns=stub_txns("d"),
                cut_reason=CutReason.TIMEOUT, created_at=5)
    assert ledger.append_block(nxt) is True
    # a later ledger at the height brings the very block the chain holds,
    # and only moves its height
    assert behind.append_block(nxt) is False
    assert behind.height == 1 and behind.tip_hash == ledger.tip_hash
    # an equal copy, or another block on the same prev_hash, is refused
    for other in (copy.copy(nxt), Block(1, hash_block(genesis), stub_txns("e"),
                                        CutReason.TIMEOUT, 5)):
        stray = Ledger(ledger.chain, 0)
        with pytest.raises(ChainIntegrityError, match="another block"):
            stray.append_block(other)
        assert stray.height == 0
    assert ledger.chain.blocks == [genesis, nxt]
    assert ledger.chain.hashes == [hash_block(genesis), hash_block(nxt)]


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


def test_apply_write_set_equals_write_by_write_reference():
    # a key written twice in one set keeps its last value; the state equals
    # that of applying the writes one at a time
    ws = WriteSet([("a", 7), ("c", -1), ("b", 7), ("e", -1), ("c", 7),
                   ("d", 7), ("f", 0)])
    whole, reference = Ledger(), Ledger()
    whole.apply_write_set(ws, (2, 3))
    for write in ws.writes:
        reference.apply_write_set(WriteSet([write]), (2, 3))
    state = dict(whole.state_items())
    assert state["c"] == (7, (2, 3))
    assert state == dict(reference.state_items())
    assert whole.state_digest() == reference.state_digest()


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
        ledger.append_block(block)
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


def commit(ledger, *write_sets):
    """Commit the next block on the ledger, one txn per list of (key, value)
    writes; the first ledger at its height validates it at threshold 0."""
    h = ledger.height + 1
    txns = [Envelope(txn_id=f"t{h}.{i}", endorsers=(), read_set=ReadSet(),
                     write_set=WriteSet(list(writes)), client="")
            for i, writes in enumerate(write_sets)]
    block = Block(height=h, prev_hash=ledger.tip_hash, txns=txns,
                  cut_reason=CutReason.COUNT_THRESHOLD, created_at=h)
    commit_block(ledger, block, 0)
    return block


def test_fork_is_independent():
    a = Ledger()
    commit(a, [("k", 1)])
    b = a.fork()
    assert b.state_digest() == a.state_digest()
    commit(b, [("k", 2)])
    assert a.read_state("k") == (1, (0, 0)) and a.height == 0
    assert b.read_state("k") == (2, (1, 0)) and b.height == 1
    assert b.state_digest() != a.state_digest()


def test_parent_writes_after_fork_are_invisible_to_the_child():
    parent = Ledger()
    commit(parent, [("k", 1), ("j", 1)])
    child = parent.fork()
    commit(parent, [("k", 2), ("new", 7)], [("j", 3)])
    assert child.read_state("k") == (1, (0, 0))
    assert child.read_state("j") == (1, (0, 0))
    assert child.read_state("new") is None
    assert dict(child.state_items()) == {"k": (1, (0, 0)), "j": (1, (0, 0))}
    assert parent.read_state("k") == (2, (1, 0))
    assert dict(parent.state_items()) == {
        "k": (2, (1, 0)), "j": (3, (1, 1)), "new": (7, (1, 0))}


def test_child_writes_are_invisible_to_the_parent_and_siblings():
    parent = Ledger()
    commit(parent, [("k", 1)])
    child, sibling = parent.fork(), parent.fork()
    commit(child, [("k", 5)], [("x", 6)])
    for other in (parent, sibling):
        assert other.read_state("k") == (1, (0, 0))
        assert other.read_state("x") is None
        assert dict(other.state_items()) == {"k": (1, (0, 0))}
        assert other != child


def test_fork_of_a_fork_sees_its_parents_writes_and_no_later_ones():
    root = Ledger()
    commit(root, [("a", 1), ("b", 1)])
    mid = root.fork()
    commit(mid, [("b", 2), ("c", 2)])
    leaf = mid.fork()
    block = commit(mid, [("a", 3)])
    assert dict(leaf.state_items()) == {
        "a": (1, (0, 0)), "b": (2, (1, 0)), "c": (2, (1, 0))}
    assert dict(mid.state_items()) == {
        "a": (3, (2, 0)), "b": (2, (1, 0)), "c": (2, (1, 0))}
    assert dict(root.state_items()) == {"a": (1, (0, 0)), "b": (1, (0, 0))}
    commit_block(leaf, block, 0)
    assert leaf == mid and dict(leaf.state_items()) == dict(mid.state_items())


def flat_ledger(state):
    """A ledger at the tip of its own chain holding exactly `state`."""
    ledger = Ledger()
    for key, (value, version) in state.items():
        ledger.apply_write_set(WriteSet([(key, value)]), version)
    return ledger


def test_forked_written_ledger_digest_equals_flat_ledger():
    parent = Ledger()
    commit(parent, [(f"k{i}", i) for i in range(50)])
    genesis_digest = parent.state_digest()
    child = parent.fork()
    # overwrite some genesis keys, add new ones, and write one twice
    commit(child, [("k3", -30), ("k7", 7)], [("new", 1)], [("k3", 31)])
    flat = flat_ledger(dict(child.state_items()))
    assert child.state_digest() == flat.state_digest()
    # the parent, now behind the tip, keeps the genesis digest
    assert parent.state_digest() == genesis_digest != child.state_digest()


def test_entry_hash_is_the_five_part_encoding():
    import hashlib

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


def test_a_block_keeps_only_the_entries_it_replaced_from_earlier_heights():
    ledger = Ledger()
    commit(ledger, [("k", 1), ("j", 1)])
    # block 1 writes k twice and first writes "new"; it keeps k's genesis
    # entry alone
    commit(ledger, [("k", 2), ("new", 5)], [("k", 3)])
    assert ledger.chain.replaced[1] == {"k": (1, (0, 0))}
    assert ledger.chain.state["k"] == (3, (1, 1))
    commit(ledger, [("new", 6)])
    assert ledger.chain.replaced[2] == {"new": (5, (1, 0))}
    assert Ledger(ledger.chain, 0).read_state("new") is None
    assert Ledger(ledger.chain, 0).read_state("k") == (1, (0, 0))
    assert Ledger(ledger.chain, 1).read_state("k") == (3, (1, 1))


def test_ledgers_are_equal_on_one_chain_at_one_height():
    a = Ledger()
    commit(a, [("k", 1)])
    b = a.fork()
    assert a == b
    block = commit(b, [("k", 2)])
    assert a != b
    commit_block(a, block, 0)
    assert a == b
    # equal blocks and state on another chain make another ledger
    other = Ledger()
    commit(other, [("k", 1)])
    commit(other, [("k", 2)])
    assert other.tip_hash == a.tip_hash
    assert other.state_digest() == a.state_digest()
    assert other != a


# A chain drawn by the property test below: blocks of txns, each txn a list
# of (key, value) writes. A key may be written twice in one txn or block, and
# first written after genesis.
KEYS = ["a", "b", "c", "d"]
TXN_WRITES = st.lists(st.tuples(st.sampled_from(KEYS), st.integers(-3, 3)),
                      max_size=3)
CHAINS = st.lists(st.lists(TXN_WRITES, min_size=1, max_size=3),
                  min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(CHAINS)
@example([[[("a", 1)]], [[("b", 2)], [("b", 3), ("a", 0)]], [[("c", 1)]],
          [[("a", 2), ("a", 3)], [("c", 2)]], [[("d", 0)]]])
def test_reads_behind_the_tip_match_per_height_snapshots(blocks):
    # one ledger left at each height, including -1 before genesis, while
    # the tip commits the whole chain; each must read its height's snapshot
    tip = Ledger()
    ledgers, snapshots, model = [tip.fork()], [{}], {}
    for h, txns in enumerate(blocks):
        commit(tip, *txns)
        for idx, writes in enumerate(txns):
            model.update((key, (value, (h, idx))) for key, value in writes)
        ledgers.append(tip.fork())
        snapshots.append(dict(model))
    for h, (ledger, snapshot) in enumerate(zip(ledgers, snapshots), start=-1):
        assert ledger.height == h and ledger.chain is tip.chain
        for key in KEYS:
            assert ledger.read_state(key) == snapshot.get(key)
        assert dict(ledger.state_items()) == snapshot
        assert ledger.state_digest() == flat_ledger(snapshot).state_digest()


def genesis_rule_ledger(n_accounts=5, balance=100):
    """A ledger at height 0 on a chain holding a genesis rule; the genesis
    block writes nothing."""
    ledger = Ledger(Chain(genesis=Genesis(n_accounts, balance)))
    commit(ledger, [])
    return ledger


def test_genesis_rule_reads_only_canonical_balance_keys():
    ledger = genesis_rule_ledger(n_accounts=5)
    entry = ledger.chain.genesis.entry
    assert entry == (100, (0, 0)) and not ledger.chain.state
    for key in ("cust/0/checking", "cust/3/savings", "cust/4/checking"):
        assert ledger.read_state(key) is entry
    for key in ("cust/01/checking", "cust/-1/savings", "cust/5/checking",
                "cust/3/other", "acct/3/checking", "cust/3", "cust/ 3/savings",
                "cust/3/checking/", "cust/\u0663/checking"):
        assert ledger.read_state(key) is None


def test_a_key_first_written_at_a_height_reads_genesis_below_it():
    ledger = genesis_rule_ledger()
    commit(ledger, [("cust/1/checking", 7)])
    commit(ledger, [("cust/2/savings", 9), ("cust/1/checking", 8)])
    below = Ledger(ledger.chain, 1)
    assert below.read_state("cust/2/savings") == (100, (0, 0))
    assert below.read_state("cust/1/checking") == (7, (1, 0))
    assert Ledger(ledger.chain, 0).read_state("cust/1/checking") == (100, (0, 0))
    assert ledger.read_state("cust/2/savings") == (9, (2, 0))
    assert ledger.read_state("cust/1/checking") == (8, (2, 0))


def rule_digest(rule, materialised):
    """The digest of a chain on `rule`, from a ledger that holds the same
    state written out: the rule's hash, XOR each entry that differs from
    the rule's with the rule's entry for that key swapped out. Before the
    genesis block (height -1) no rule applies."""
    if materialised.height < 0:
        return "0" * 32
    acc = _rule_hash(rule)
    for key, entry in materialised.state_items():
        genesis = rule.get(key)
        if entry != genesis:
            acc ^= _entry_hash(key, entry)
            if genesis is not None:
                acc ^= _entry_hash(key, genesis)
    return f"{acc:032x}"


def test_a_rule_chain_digest_hashes_the_rule_and_the_keys_written():
    # at genesis the digest is the rule's hash alone, and the balance the
    # rule's
    ledger = genesis_rule_ledger()
    assert ledger.state_digest() == f"{_rule_hash(ledger.chain.genesis):032x}"
    assert total_balance(ledger) == 2 * 5 * 100
    digests = {genesis_rule_ledger(n, b).state_digest()
               for n, b in [(5, 100), (6, 100), (5, 101)]}
    assert len(digests) == 3
    # the same final state, first written in another order
    one, other = genesis_rule_ledger(), genesis_rule_ledger()
    commit(one, [("cust/1/checking", 0), ("x", 0)])
    commit(one, [("x", 2), ("cust/1/checking", 1)])
    commit(other, [("x", 0)], [("cust/1/checking", 3)])
    commit(other, [("cust/1/checking", 1), ("x", 2)])
    assert list(one.chain.state) != list(other.chain.state)
    assert dict(one.state_items()) == dict(other.state_items())
    assert one.state_digest() == other.state_digest() != ledger.state_digest()


# Random write sequences for the genesis rule's property test: genesis keys,
# a balance key past the last customer and a key of another kind, so a write
# may overwrite a genesis balance or add a key the rule does not hold.
RULE_ACCOUNTS, RULE_BALANCE = 3, 5
RULE_KEYS = [f"cust/{c}/{kind}" for c in range(RULE_ACCOUNTS + 1)
             for kind in ("checking", "savings")] + ["other"]
RULE_TXN_WRITES = st.lists(
    st.tuples(st.sampled_from(RULE_KEYS), st.integers(-3, 3)), max_size=3)
RULE_CHAINS = st.lists(st.lists(RULE_TXN_WRITES, min_size=1, max_size=3),
                       max_size=6)


@settings(max_examples=200, deadline=None)
@given(RULE_CHAINS)
@example([[[("cust/0/checking", 5)]], [[("cust/3/savings", 1), ("other", 2)]],
          [[("cust/1/savings", -3)], [("cust/1/savings", 5)]]])
def test_genesis_rule_reads_as_a_materialised_genesis(blocks):
    # one chain holds the rule and commits a genesis block that writes
    # nothing; the reference writes every genesis balance at (0, 0). Both
    # then commit the same blocks, and a ledger left at every height from
    # genesis on must read the same state through every path
    rule = Genesis(RULE_ACCOUNTS, RULE_BALANCE)
    ruled = Ledger(Chain(genesis=rule))
    reference = Ledger()
    commit(ruled, [])
    commit(reference, [(key, RULE_BALANCE) for key in rule.keys()])
    pairs = [(ruled.fork(), reference.fork())]
    for txns in blocks:
        commit(ruled, *txns)
        commit(reference, *txns)
        pairs.append((ruled.fork(), reference.fork()))
    for ledger, expected in pairs:
        assert ledger.height == expected.height
        for key in RULE_KEYS:
            assert ledger.read_state(key) == expected.read_state(key)
        items = list(ledger.state_items())
        state = dict(items)
        assert len(state) == len(items)
        assert state == dict(expected.state_items())
        assert ledger.state_digest() == rule_digest(rule, expected)
        assert total_balance(ledger) == total_balance(expected) == sum(
            value for key, (value, _) in state.items()
            if key.startswith("cust/"))


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
