"""Validation/commit behavior checked against a brute-force serial oracle
that replays endorsement-time reads with first-writer-wins conflicts."""

import copy
import dataclasses
import random

import pytest

from eovsim import committer
from eovsim.committer import Peer, ValidationFlag, commit_block, validate_block
from eovsim.config import ExperimentConfig
from eovsim.engine import Engine, LatencyModel, Message, MessageKind
from eovsim.ledger import (Block, ChainIntegrityError, CutReason,
                           GENESIS_PREV_HASH, Ledger, ReadSet, WriteSet,
                           hash_block)
from eovsim.ordering import Envelope

THRESHOLD = 2


def mk_env(txn_id, reads, writes, peers=("p0", "p1")):
    """Envelope whose endorser ids trivially satisfy THRESHOLD (or not)."""
    return Envelope(txn_id=txn_id, endorsers=tuple(peers),
                    read_set=ReadSet(list(reads)),
                    write_set=WriteSet(list(writes)), client="c")


def mk_block(height, prev, envs, created=0, flags=None):
    return Block(height=height, prev_hash=prev, txns=list(envs),
                 cut_reason=CutReason.COUNT_THRESHOLD, created_at=created,
                 flags=flags)


def validated(block, ledger):
    """The block carrying its validation outcome on the ledger's state, as
    the first peer to commit it leaves it."""
    block.flags, block.writes = validate_block(block, THRESHOLD, ledger)
    return block


# --- independent serial oracle ----------------------------------------------

def oracle_block(state, block, threshold):
    """state: {key: (value, version)}; returns (flags, new state)."""
    flags = []
    for idx, env in enumerate(block.txns):
        if len(set(env.endorsers)) < threshold:
            flags.append(ValidationFlag.POLICY_VIOLATION)
            continue
        ok = all((state[k][1] if k in state else None) == ver
                 for k, ver in env.read_set.reads)
        if not ok:
            flags.append(ValidationFlag.MVCC_CONFLICT)
            continue
        for k, v in env.write_set.writes:
            state[k] = (v, (block.height, idx))
        flags.append(ValidationFlag.VALID)
    return flags, state


def oracle_state_of(ledger_like_state):
    return dict(ledger_like_state)


# --- directed cases -----------------------------------------------------------

def committed_ledger(writes):
    """Ledger holding a genesis stub block with `writes` applied at (0, 0)."""
    ledger = Ledger()
    stub = mk_block(0, GENESIS_PREV_HASH, [mk_env("genesis", [], writes)],
                    flags=[ValidationFlag.VALID])
    commit_block(ledger, stub)
    return ledger


def test_double_write_same_key_first_wins():
    ledger = committed_ledger([("k", 1)])
    v = (0, 0)
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[("k", v)], writes=[("k", 2)]),
        mk_env("t1", reads=[("k", v)], writes=[("k", 3)]),
        mk_env("t2", reads=[("k", (1, 0))], writes=[]),
    ])
    flags, _writes = validate_block(block, THRESHOLD, ledger)
    # t1 conflicts with t0's in-block write; t2, which expects exactly that
    # write's version (1, 0), is valid, so reads go through the overlay
    assert flags == [ValidationFlag.VALID, ValidationFlag.MVCC_CONFLICT,
                     ValidationFlag.VALID]


def test_policy_violation_flag():
    # too few ids, and a repeated id, which counts once
    ledger = committed_ledger([])
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[], writes=[("k", 1)], peers=("p0",)),
        mk_env("t1", reads=[], writes=[("k", 2)], peers=("p0", "p0")),
        mk_env("t2", reads=[], writes=[("k", 3)], peers=("p1", "p0", "p1")),
    ])
    flags, writes = validate_block(block, THRESHOLD, ledger)
    assert flags == [ValidationFlag.POLICY_VIOLATION,
                     ValidationFlag.POLICY_VIOLATION, ValidationFlag.VALID]
    assert writes == [("k", (3, (1, 2)))]


def test_read_only_block_all_valid():
    ledger = committed_ledger([("a", 1), ("b", 2)])
    envs = [mk_env(f"q{i}", reads=[("a", (0, 0)), ("b", (0, 0))], writes=[])
            for i in range(10)]
    flags, writes = validate_block(mk_block(1, ledger.tip_hash, envs),
                                   THRESHOLD, ledger)
    assert writes == []
    assert all(flag is ValidationFlag.VALID for flag in flags)


def test_absent_key_reads_match_none():
    ledger = committed_ledger([])
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[("nope", None)], writes=[("nope", 1)]),
        mk_env("t1", reads=[("nope", None)], writes=[]),
    ])
    flags, _writes = validate_block(block, THRESHOLD, ledger)
    assert flags[0] is ValidationFlag.VALID
    assert flags[1] is ValidationFlag.MVCC_CONFLICT  # t0 bumped it


def test_commit_applies_only_valid_writes():
    ledger = committed_ledger([("k", 1), ("j", 1)])
    block = mk_block(1, ledger.tip_hash, [
        mk_env("t0", reads=[("k", (0, 0))], writes=[("k", 5)]),
        mk_env("t1", reads=[("k", (0, 0))], writes=[("k", 9), ("j", 9)]),
    ])
    commit_block(ledger, validated(block, ledger))
    assert block.flags == [ValidationFlag.VALID, ValidationFlag.MVCC_CONFLICT]
    assert block.writes == [("k", (5, (1, 0)))]  # only t0's
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
    commit_block(ledger, validated(block, ledger))
    assert ledger.state_digest() == before
    assert ledger.height == 1  # block still appended


def test_rollback_completeness_no_version_points_at_invalid_txn():
    rng = random.Random(11)
    ledger = Ledger()
    prev = GENESIS_PREV_HASH
    flags_per_block = []
    for h in range(30):
        envs = random_envs(rng, ledger, h)
        block = validated(mk_block(h, prev, envs), ledger)
        commit_block(ledger, block)
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
    # ledger_a commits each block through its shared writes, ledger_b
    # through its flags alone, write set by write set, as genesis commits
    rng = random.Random(1234)
    ledger_a, ledger_b = Ledger(), Ledger()
    oracle_state: dict = {}
    prev = GENESIS_PREV_HASH
    for h in range(200):
        envs = random_envs(rng, ledger_a, h)
        block = mk_block(h, prev, envs)
        expected_flags, oracle_state = oracle_block(oracle_state, block,
                                                    THRESHOLD)
        assert validate_block(block, THRESHOLD, ledger_b)[0] == expected_flags
        validated(block, ledger_a)
        assert block.flags == expected_flags
        commit_block(ledger_a, block)
        commit_block(ledger_b, dataclasses.replace(block, writes=None))
        assert dict(ledger_a.state_items()) == oracle_state
        assert dict(ledger_b.state_items()) == oracle_state
        assert ledger_a.state_digest() == ledger_b.state_digest()
        prev = ledger_a.tip_hash


# --- peers as nodes: gossip and buffering --------------------------------------

def wire_peers(n_non_endorsing=2):
    cfg = ExperimentConfig.from_dict({
        "topology": {"non_endorsing": n_non_endorsing},
        "policy": {"threshold": THRESHOLD}})
    engine = Engine(LatencyModel(base_us={}, default_us=500, per_byte_ns=0,
                                 jitter_fraction=0.0), seed=9)
    anchor = Peer("peer000", cfg, Ledger())
    npeers = [Peer(f"npeer{i:03d}", cfg, Ledger())
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
    assert anchor.sent_msgs == 0


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

    def spy(ledger, block):
        if ledger is target.ledger:
            commits.append((block.height, engine.now))
        inner(ledger, block)
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
    # three arrivals, two re-deliveries, three service completions
    assert summary.events_dispatched == 8
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


def test_ledger_at_another_tip_does_not_reuse_a_validation(validations):
    engine, anchor, npeers = wire_peers(n_non_endorsing=1)
    anchor.gossip_targets = []
    stray = npeers[0]
    b0, b1 = chain_blocks(2)
    deliver_block(engine, anchor.id, b0, at=0)
    deliver_block(engine, anchor.id, b1, at=10)
    engine.run_until_quiescent()
    # the stray peer holds a different block 0, so its tip differs
    fork = mk_block(0, GENESIS_PREV_HASH, [mk_env("x0", [], [("k0", 7)])],
                    flags=[ValidationFlag.VALID])
    commit_block(stray.ledger, fork)
    assert stray.ledger.tip_hash != hash_block(b0)
    state = dict(stray.ledger.state_items())
    deliver_block(engine, stray.id, b1, at=0)
    with pytest.raises(ChainIntegrityError):
        engine.run_until_quiescent()
    # b1 carries the anchor's outcome: the stray peer validates nothing,
    # and its chain and state are as they were
    assert validations == [0, 1]
    assert stray.ledger.blocks == [fork]
    assert stray.ledger.tip_hash == hash_block(fork)
    assert dict(stray.ledger.state_items()) == state


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


def test_agreement_compares_every_txn_flag_not_totals():
    from eovsim.simulation import collect_report
    result = contended_run()
    # swap one Valid and one MVCCConflict flag in one peer: its flag totals,
    # chain and state are unchanged, but two txns now disagree. Peers share
    # each block and its flags, so the peer gets its own copies of the two
    # blocks, each with its own flags list, to swap in.
    observer, peer = (p.ledger for p in result.sim.all_peers()[:2])
    blocks = peer.blocks
    slots = {flag: (h, i) for h in range(1, len(blocks))
             for i, flag in enumerate(blocks[h].flags)}
    (hv, iv) = slots[ValidationFlag.VALID]
    (hm, im) = slots[ValidationFlag.MVCC_CONFLICT]
    for h in {hv, hm}:
        blocks[h] = copy.copy(blocks[h])
        blocks[h].flags = list(blocks[h].flags)
    (blocks[hv].flags[iv], blocks[hm].flags[im]) = (blocks[hm].flags[im],
                                                    blocks[hv].flags[iv])
    assert observer.blocks[hv].flags[iv] is ValidationFlag.VALID
    assert peer.tip_hash == observer.tip_hash
    report = collect_report(result.sim, result.trace, result.journeys)
    assert report.valid_txns == result.report.valid_txns
    assert report.all_peers_agree is False


def test_agreement_compares_world_state_values():
    from eovsim.simulation import collect_report
    result = contended_run()
    peers = result.sim.all_peers()
    observer, other = peers[0].ledger, peers[2].ledger
    # one different value under an unchanged version: chains and flags stay
    # equal, only the world state differs
    value, version = other.read_state("cust/0/checking")
    other.apply_write_set(WriteSet([("cust/0/checking", value + 1)]), version)
    assert other.tip_hash == observer.tip_hash
    assert ([b.flags for b in other.blocks]
            == [b.flags for b in observer.blocks])
    report = collect_report(result.sim, result.trace, result.journeys)
    assert report.all_peers_agree is False
    assert report.state_digest == result.report.state_digest


def test_agreement_compares_world_state_through_a_different_base():
    from eovsim.simulation import collect_report
    result = contended_run()
    peer = result.sim.all_peers()[2]
    observer = result.sim.all_peers()[0].ledger
    assert peer.ledger._base is observer._base

    def rebased(state):
        """The peer's chain over `state`, held as the base of a new ledger
        that shares no layer with the observer's."""
        flat = Ledger()
        flat.blocks = peer.ledger.blocks
        flat.tip_hash = peer.ledger.tip_hash
        flat.apply_writes(list(state.items()))
        ledger = flat.fork()
        assert ledger._base is not observer._base and not ledger._state
        return ledger

    state = dict(observer.state_items())
    peer.ledger = rebased(state)
    assert collect_report(result.sim, result.trace,
                          result.journeys).all_peers_agree is True
    value, version = state["cust/1/savings"]
    peer.ledger = rebased(state | {"cust/1/savings": (value, (version[0] + 1,
                                                               version[1]))})
    report = collect_report(result.sim, result.trace, result.journeys)
    assert report.all_peers_agree is False
    assert report.state_digest == result.report.state_digest


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
