"""Validation/commit behavior checked against a brute-force serial oracle
(reference.oracle_block) that replays endorsement-time reads with
first-writer-wins conflicts."""

import random

import pytest
from reference import oracle_block, traffic

from eovsim import committer
from eovsim.committer import Peer, ValidationFlag, commit_block
from eovsim.config import ExperimentConfig
from eovsim.engine import Engine, LatencyModel, Message, MessageKind
from eovsim.ledger import (Block, Chain, ChainIntegrityError, CutReason,
                           GENESIS_PREV_HASH, Ledger, ReadSet, WriteSet,
                           hash_block)
from eovsim.ordering import Envelope

THRESHOLD = 2


def mk_env(txn_id, reads, writes, peers=("p0", "p1")):
    """Envelope whose endorser ids trivially satisfy THRESHOLD (or not)."""
    return Envelope(txn_id=txn_id, endorsers=tuple(peers),
                    read_set=ReadSet(list(reads)),
                    write_set=WriteSet(list(writes)), client="c")


def mk_block(height, prev, envs, created=0):
    return Block(height=height, prev_hash=prev, txns=list(envs),
                 cut_reason=CutReason.COUNT_THRESHOLD, created_at=created)


def committed(block, ledger):
    """The block committed on the ledger, carrying its validation outcome."""
    commit_block(ledger, block, THRESHOLD)
    return block


# --- directed cases -----------------------------------------------------------

def committed_ledger(writes):
    """Ledger holding a genesis stub block with `writes` applied at (0, 0)."""
    ledger = Ledger()
    stub = mk_block(0, GENESIS_PREV_HASH, [mk_env("genesis", [], writes)])
    commit_block(ledger, stub, 0)
    return ledger


def test_double_write_same_key_first_wins():
    ledger = committed_ledger([("k", 1)])
    v = (0, 0)
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[("k", v)], writes=[("k", 2)]),
        mk_env("t1", reads=[("k", v)], writes=[("k", 3)]),
        mk_env("t2", reads=[("k", (1, 0))], writes=[]),
    ])
    # t1 conflicts with t0's in-block write; t2, which expects exactly that
    # write's version (1, 0), is valid, so reads see the running state
    assert committed(block, ledger).flags == [
        ValidationFlag.VALID, ValidationFlag.MVCC_CONFLICT,
        ValidationFlag.VALID]


def test_policy_violation_flag():
    # too few ids, and a repeated id, which counts once
    ledger = committed_ledger([])
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[], writes=[("k", 1)], peers=("p0",)),
        mk_env("t1", reads=[], writes=[("k", 2)], peers=("p0", "p0")),
        mk_env("t2", reads=[], writes=[("k", 3)], peers=("p1", "p0", "p1")),
    ])
    assert committed(block, ledger).flags == [
        ValidationFlag.POLICY_VIOLATION, ValidationFlag.POLICY_VIOLATION,
        ValidationFlag.VALID]
    assert ledger.read_state("k") == (3, (1, 2))


def test_read_only_block_all_valid():
    ledger = committed_ledger([("a", 1), ("b", 2)])
    envs = [mk_env(f"q{i}", reads=[("a", (0, 0)), ("b", (0, 0))], writes=[])
            for i in range(10)]
    before = dict(ledger.chain.state)
    block = committed(mk_block(1, ledger.tip_hash, envs), ledger)
    assert ledger.chain.state == before
    assert all(flag is ValidationFlag.VALID for flag in block.flags)


def test_absent_key_reads_match_none():
    ledger = committed_ledger([])
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[("nope", None)], writes=[("nope", 1)]),
        mk_env("t1", reads=[("nope", None)], writes=[]),
    ])
    flags = committed(block, ledger).flags
    assert flags[0] is ValidationFlag.VALID
    assert flags[1] is ValidationFlag.MVCC_CONFLICT  # t0 bumped it


def test_commit_applies_only_valid_writes():
    ledger = committed_ledger([("k", 1), ("j", 1)])
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[("k", (0, 0))], writes=[("k", 5)]),
        mk_env("t1", reads=[("k", (0, 0))], writes=[("k", 9), ("j", 9)]),
    ])
    committed(block, ledger)
    assert block.flags == [ValidationFlag.VALID, ValidationFlag.MVCC_CONFLICT]
    assert ledger.height == 1
    assert ledger.read_state("k") == (5, (1, 0))
    assert ledger.read_state("j") == (1, (0, 0))


def test_all_invalid_block_leaves_state_unchanged():
    ledger = committed_ledger([("k", 1)])
    before = ledger.state_digest()
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[("k", (9, 9))], writes=[("k", 5)]),
        mk_env("t1", reads=[], writes=[("k", 6)], peers=("p0",)),
    ])
    committed(block, ledger)
    assert ledger.state_digest() == before
    assert ledger.height == 1  # block still appended


def test_rollback_completeness_no_version_points_at_invalid_txn():
    rng = random.Random(11)
    ledger = Ledger()
    prev = GENESIS_PREV_HASH
    flags_per_block = []
    for h in range(30):
        envs = random_envs(rng, ledger, h)
        block = committed(mk_block(h, prev, envs), ledger)
        flags_per_block.append(block.flags)
        prev = ledger.tip_hash
    for key, (value, (bh, ti)) in ledger.state_items():
        if (bh, ti) == (0, 0) and not flags_per_block:
            continue
        assert flags_per_block[bh][ti] is ValidationFlag.VALID


# --- randomized oracle equivalence --------------------------------------------

def random_envs(rng, ledger, height, max_txns=20, keys=8):
    """Blocks with a mix of current reads, stale reads and policy failures."""
    envs = []
    for i in range(rng.randint(1, max_txns)):
        reads = []
        for key in rng.sample([f"k{j}" for j in range(keys)],
                              rng.randint(0, 3)):
            entry = ledger.read_state(key)
            version = entry[1] if entry else None
            if rng.random() < 0.25:
                version = (rng.randrange(3), rng.randrange(3))  # likely stale
            reads.append((key, version))
        writes = [(f"k{rng.randrange(keys)}", rng.randint(-50, 50))
                  for _ in range(rng.randint(0, 2))]
        draw = rng.random()
        peers = (("p0", "p1") if draw > 0.1 else ("p0",) if draw > 0.05
                 else ("p1", "p1"))
        envs.append(mk_env(f"b{height}x{i}", reads, writes, peers))
    return envs


def test_randomized_blocks_match_serial_oracle_on_two_peers():
    # ledger_a commits each block first and validates it on the chain;
    # ledger_b, on the same chain, reads the state one block behind, then
    # commits the block by moving its height
    rng = random.Random(1234)
    ledger_a = Ledger()
    ledger_b = ledger_a.fork()
    oracle_state: dict = {}
    prev = GENESIS_PREV_HASH
    for h in range(200):
        envs = random_envs(rng, ledger_a, h)
        block = mk_block(h, prev, envs)
        before = dict(oracle_state)
        expected_flags = oracle_block(oracle_state, block, THRESHOLD)
        assert committed(block, ledger_a).flags == expected_flags
        assert dict(ledger_a.state_items()) == oracle_state
        assert dict(ledger_b.state_items()) == before
        assert all(ledger_b.read_state(k) == before.get(k)
                   for k in oracle_state)
        commit_block(ledger_b, block, THRESHOLD)
        assert block.flags == expected_flags
        assert ledger_b == ledger_a
        assert dict(ledger_b.state_items()) == oracle_state
        prev = ledger_a.tip_hash


# --- peers as nodes: gossip and buffering --------------------------------------

def wire_peers(n_non_endorsing=2):
    cfg = ExperimentConfig.from_dict({
        "topology": {"non_endorsing": n_non_endorsing},
        "policy": {"threshold": THRESHOLD}})
    engine = Engine(LatencyModel(base_us={}, default_us=500, per_byte_ns=0,
                                 jitter_fraction=0.0), seed=9)
    root = Ledger()
    anchor = Peer("peer000", cfg, root.fork())
    npeers = [Peer(f"npeer{i:03d}", cfg, root.fork())
              for i in range(n_non_endorsing)]
    anchor.gossip_targets = [p.id for p in npeers]
    engine.add_node(anchor)
    for p in npeers:
        engine.add_node(p)
    return engine, anchor, npeers


def chain_blocks(count, txns_per_block=3):
    blocks = []
    prev = GENESIS_PREV_HASH
    serial = 0
    for h in range(count):
        envs = [mk_env(f"t{serial + i}", reads=[],
                       writes=[(f"k{i}", h)]) for i in range(txns_per_block)]
        serial += txns_per_block
        block = mk_block(h, prev, envs, created=h * 1000)
        prev = hash_block(block)
        blocks.append(block)
    return blocks


def deliver_block(engine, target, block, at):
    engine.schedule(target, Message(MessageKind.BLOCK_DELIVER, 1000, block),
                    at)


def test_gossip_zero_targets_sends_nothing():
    engine, anchor, _ = wire_peers(n_non_endorsing=0)
    anchor.gossip_targets = []
    for i, block in enumerate(chain_blocks(2)):
        deliver_block(engine, anchor.id, block, at=i * 100)
    engine.run_until_quiescent()
    assert traffic(anchor)["sent_msgs"] == 0


def test_gossip_two_targets_converge_to_anchor_tip():
    engine, anchor, npeers = wire_peers(n_non_endorsing=2)
    for i, block in enumerate(chain_blocks(5)):
        deliver_block(engine, anchor.id, block, at=i * 100)
    engine.run_until_quiescent()
    for p in npeers:
        assert p.ledger.height == anchor.ledger.height == 4
        assert p.ledger.tip_hash == anchor.ledger.tip_hash
        assert p.ledger.state_digest() == anchor.ledger.state_digest()


def test_out_of_order_block_buffered_until_gap_fills():
    engine, anchor, npeers = wire_peers(n_non_endorsing=1)
    target = npeers[0]
    b0, b1, b2 = chain_blocks(3)
    # deliver 2 then 0 then 1 directly to the non-endorsing peer
    deliver_block(engine, target.id, b2, at=0)
    deliver_block(engine, target.id, b0, at=10)
    engine.run_until_quiescent()
    assert target.ledger.height == 0  # b2 parked, waiting for b1
    deliver_block(engine, target.id, b1, at=0)
    engine.run_until_quiescent()
    assert target.ledger.height == 2
    assert target.ledger.tip_hash == hash_block(b2)


def test_buffered_blocks_reenter_and_pay_validation_once(monkeypatch):
    engine, anchor, npeers = wire_peers(n_non_endorsing=1)
    target = npeers[0]
    commits = []
    inner = committer.commit_block

    def spy(ledger, block, threshold):
        if ledger is target.ledger:
            commits.append((block.height, engine.now))
        inner(ledger, block, threshold)
    monkeypatch.setattr(committer, "commit_block", spy)
    b0, b1, b2 = chain_blocks(3, txns_per_block=3)
    deliver_block(engine, target.id, b2, at=0)   # buffered
    deliver_block(engine, target.id, b1, at=50)  # buffered
    deliver_block(engine, target.id, b0, at=100)
    summary = engine.run_until_quiescent()
    # each block pays its validation service once, back to back after b0
    cost = 3 * target.cfg.service.validate_per_txn
    assert commits == [(0, 100 + cost), (1, 100 + 2 * cost),
                       (2, 100 + 3 * cost)]
    # three arrivals and two re-deliveries: a peer handles each block when
    # it arrives, at the instant its validation completes
    assert summary.events_dispatched == 5
    assert target.ledger.tip_hash == hash_block(b2)


def test_peers_on_one_tip_share_one_validation(validations):
    engine, anchor, npeers = wire_peers(n_non_endorsing=1)
    anchor.gossip_targets = []
    other = npeers[0]
    b0 = mk_block(0, GENESIS_PREV_HASH, [
        mk_env("t0", reads=[], writes=[("k", 1), ("j", 1)]),
        mk_env("t1", reads=[("k", (9, 9))], writes=[("k", 2)]),
        mk_env("t2", reads=[], writes=[("k", 3)]),
    ])
    for peer in (anchor, other):
        deliver_block(engine, peer.id, b0, at=0)
    engine.run_until_quiescent()
    assert validations == [0]
    assert dict(anchor.ledger.state_items()) == dict(other.ledger.state_items())
    assert anchor.ledger.read_state("k") == (3, (0, 2))
    # both peers hold the one block, and with it its one outcome
    assert anchor.ledger.blocks[0] is other.ledger.blocks[0] is b0
    assert b0.flags == [ValidationFlag.VALID, ValidationFlag.MVCC_CONFLICT,
                        ValidationFlag.VALID]


def shared_state(chain):
    """Copies of the chain's state and of the entries its blocks replaced."""
    return dict(chain.state), {h: dict(d) for h, d in chain.replaced.items()}


def test_ledger_at_another_tip_does_not_reuse_a_validation(validations):
    engine, anchor, npeers = wire_peers(n_non_endorsing=1)
    anchor.gossip_targets = []
    stray = npeers[0]
    b0, b1 = chain_blocks(2)
    deliver_block(engine, anchor.id, b0, at=0)
    deliver_block(engine, anchor.id, b1, at=10)
    deliver_block(engine, stray.id, b0, at=20)
    engine.run_until_quiescent()
    chain = anchor.ledger.chain
    assert stray.ledger.chain is chain and stray.ledger.height == 0
    before = shared_state(chain)
    # the stray peer, one block behind on the same chain, brings another
    # block 1 on the same prev_hash: it is refused before it writes
    other = mk_block(1, hash_block(b0), [mk_env("x1", [], [("k0", 7)])])
    with pytest.raises(ChainIntegrityError, match="another block"):
        commit_block(stray.ledger, other, THRESHOLD)
    # a ledger on another chain holds a different block 0, so its tip
    # differs, and b1 does not append on it
    elsewhere = Ledger()
    fork = committed(mk_block(0, GENESIS_PREV_HASH,
                              [mk_env("x0", [], [("k0", 7)])]), elsewhere)
    with pytest.raises(ChainIntegrityError, match="prev_hash"):
        commit_block(elsewhere, b1, THRESHOLD)
    # neither validates b1 again, nor changes a chain or its state
    assert validations == [0, 1, 0]
    assert shared_state(chain) == before
    assert stray.ledger.height == 0 and chain.blocks == [b0, b1]
    assert elsewhere.blocks == [fork] and elsewhere.height == 0
    assert dict(elsewhere.state_items()) == {"k0": (7, (0, 0))}


def test_duplicate_blocks_committed_exactly_once():
    engine, anchor, npeers = wire_peers(n_non_endorsing=1)
    target = npeers[0]
    blocks = chain_blocks(3)
    for repeat in range(3):  # duplicates of every height, interleaved
        for i, block in enumerate(blocks):
            deliver_block(engine, target.id, block, at=repeat * 7 + i)
    engine.run_until_quiescent()
    assert target.ledger.height == 2
    assert [b.height for b in target.ledger.blocks] == [0, 1, 2]


def test_flags_recorded_per_txn_in_peer_ledger():
    engine, anchor, _ = wire_peers(n_non_endorsing=0)
    anchor.gossip_targets = []
    b0 = mk_block(0, GENESIS_PREV_HASH, [
        mk_env("t0", reads=[], writes=[("k", 1)]),
        mk_env("t1", reads=[("k", (9, 9))], writes=[("k", 2)]),
        mk_env("t2", reads=[], writes=[], peers=("p0",)),
    ])
    deliver_block(engine, anchor.id, b0, at=0)
    engine.run_until_quiescent()
    assert anchor.ledger.blocks == [b0]
    assert b0.flags == [ValidationFlag.VALID, ValidationFlag.MVCC_CONFLICT,
                        ValidationFlag.POLICY_VIOLATION]


def contended_run():
    """A short real run on four hot accounts: it commits Valid and
    MVCCConflict txns, and every peer agrees."""
    from eovsim.simulation import run_simulation
    cfg = ExperimentConfig.from_dict({
        "duration_s": 2.0, "rate": {"total_tps": 100.0},
        "workload": {"n_accounts": 4,
                     "op_mix": {"send_payment": 0.6, "deposit_checking": 0.4},
                     "access": {"kind": "hotspot", "fraction_hot": 0.5,
                                "prob_hot": 0.9}}})
    result = run_simulation(cfg)
    assert result.report.all_peers_agree
    return result


def test_agreement_needs_one_chain_and_one_height():
    from eovsim.simulation import collect_report
    result = contended_run()
    peer = result.sim.all_peers()[2]
    observer = result.sim.all_peers()[0].ledger

    def report():
        return collect_report(result.sim, result.trace, result.journeys)

    # a peer left one block behind on the shared chain
    peer.ledger = Ledger(observer.chain, observer.height - 1)
    assert peer.ledger.state_digest() != observer.state_digest()
    behind = report()
    assert behind.all_peers_agree is False
    assert behind.state_digest == result.report.state_digest
    assert behind.valid_txns == result.report.valid_txns
    # a ledger on another chain with equal blocks, hashes and state
    chain = observer.chain
    copied = Chain(list(chain.blocks), list(chain.hashes), dict(chain.state),
                   dict(chain.replaced), chain.genesis)
    peer.ledger = Ledger(copied, observer.height)
    assert peer.ledger.tip_hash == observer.tip_hash
    assert peer.ledger.state_digest() == observer.state_digest()
    assert report().all_peers_agree is False
    peer.ledger = observer.fork()
    assert report().all_peers_agree is True


def test_every_peer_commits_each_height_from_the_leaders_message():
    from eovsim.simulation import build
    cfg = ExperimentConfig.from_dict({
        "duration_s": 1.0, "rate": {"total_tps": 60.0},
        "cutter": {"max_txn_count": 5},
        "topology": {"peers": 2, "clients": 2, "orderers": 2, "brokers": 3,
                     "non_endorsing": 3}})
    sim = build(cfg)
    leader = sim.brokers[0].id
    built = {}  # height -> the BLOCK_DELIVER message the leader sent
    delivered = []  # every BLOCK_DELIVER message any node sent
    proposals = []  # (client, message) per proposal sent
    send = sim.engine.send

    def spy(src, dst, msg, extra_delay_us=0):
        if msg.kind is MessageKind.BLOCK_DELIVER:
            if src == leader:
                built.setdefault(msg.body.height, msg)
            delivered.append(msg)
        if msg.kind is MessageKind.PROPOSAL:
            proposals.append((src, msg))
        send(src, dst, msg, extra_delay_us)
    sim.engine.send = spy
    sim.engine.run_until_quiescent(cfg.duration_us + cfg.drain_limit_us)
    heights = sorted(built)
    assert len(heights) >= 3 and heights == list(range(1, len(heights) + 1))
    assert len(sim.non_endorsing) == 3
    # every block message that travels is the one the leader built for its
    # height: orderers and anchor peers forward it as received
    assert all(msg is built[msg.body.height] for msg in delivered)
    for peer in sim.all_peers():
        assert peer.ledger.height == heights[-1]
        for h in heights:
            assert peer.ledger.blocks[h] is built[h].body
    # a proposal is one message shared by every endorsing peer it goes to
    assert len(proposals) == 2 * len({id(m) for _, m in proposals})
