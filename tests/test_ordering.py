"""Ordering-service behavior: cutter thresholds, quorum commit, proxy
counters and block fan-out, driven through small hand-wired engines."""

import pytest

from eovsim.config import ExperimentConfig
from eovsim.endorser import Endorsement
from eovsim.engine import (Engine, LatencyModel, Message, MessageKind, Node,
                           NodeClass)
from eovsim.ledger import CutReason, GENESIS_PREV_HASH, ReadSet, WriteSet
from eovsim.ordering import BlockCutter, BrokerNode, Envelope, OrdererNode
from eovsim.simulation import build, run_simulation


def ordering_cfg(count=100, max_bytes=10 * 1024 * 1024, envelope=500, **over):
    """A run config with these cut thresholds, a 2-s cut timeout, and
    envelopes of `envelope` bytes: one endorsement, of half of them."""
    cfg = ExperimentConfig.from_dict(over | {
        "cutter": {"max_txn_count": count, "timeout_s": 2.0,
                   "max_block_bytes": max_bytes},
        "policy": {"threshold": 1},
        "sizes_bytes": {"proposal": envelope // 2,
                        "endorsement": envelope - envelope // 2}})
    assert cfg.envelope_bytes == envelope
    return cfg


def mk_envelope(txn_id, client="client000"):
    return Envelope(txn_id=txn_id, endorsements=(),
                    read_set=ReadSet(), write_set=WriteSet(), client=client)


# --- block cutter ------------------------------------------------------------

def fresh_cutter(cfg=None):
    return BlockCutter(cfg or ordering_cfg(), next_height=1,
                       prev_hash=GENESIS_PREV_HASH)


def test_cutter_count_threshold_exact_fill():
    cutter = fresh_cutter()
    for i in range(99):
        block, _ = cutter.add(mk_envelope(f"t{i}"), now=i)
        assert block is None
    block, _ = cutter.add(mk_envelope("t99"), now=99)
    assert block is not None
    assert len(block.txns) == 100
    assert block.cut_reason is CutReason.COUNT_THRESHOLD
    _, arm = cutter.add(mk_envelope("t100"), now=100)
    assert arm  # the cut emptied the batch: the next txn starts a fresh one


def test_cutter_timeout_single_txn_exact():
    cutter = fresh_cutter()
    block, arm = cutter.add(mk_envelope("only"), now=12345)
    assert block is None and arm
    epoch = cutter.epoch
    # a stale or early fire does nothing; the real one cuts at +2 s exactly
    assert cutter.on_timeout(epoch - 1, 12345 + 1) is None
    block = cutter.on_timeout(epoch, 12345 + 2_000_000)
    assert block is not None
    assert block.cut_reason is CutReason.TIMEOUT
    assert block.created_at == 12345 + 2_000_000
    assert [t.txn_id for t in block.txns] == ["only"]


def test_cutter_timeout_with_nothing_pending():
    cutter = fresh_cutter()
    assert cutter.on_timeout(cutter.epoch, 999) is None


def test_cutter_size_threshold():
    cutter = fresh_cutter(ordering_cfg(100, 1000, envelope=600))
    block, _ = cutter.add(mk_envelope("a"), now=0)
    assert block is None
    block, _ = cutter.add(mk_envelope("b"), now=1)
    assert block is not None
    assert block.cut_reason is CutReason.SIZE_THRESHOLD
    assert len(block.txns) == 2


def test_cutter_count_wins_over_size_on_same_envelope():
    cutter = fresh_cutter(ordering_cfg(2, 100, envelope=60))
    cutter.add(mk_envelope("a"), now=0)
    block, _ = cutter.add(mk_envelope("b"), now=1)
    assert block.cut_reason is CutReason.COUNT_THRESHOLD


def test_cutter_chains_prev_hashes():
    from eovsim.ledger import hash_block
    cutter = fresh_cutter(ordering_cfg(2, 10**9))
    b1, _ = [cutter.add(mk_envelope(f"a{i}"), 0) for i in range(2)][-1]
    b2, _ = [cutter.add(mk_envelope(f"b{i}"), 1) for i in range(2)][-1]
    assert b1.height == 1 and b2.height == 2
    assert b2.prev_hash == hash_block(b1)


def test_full_run_cuts_size_blocks_of_exactly_three_envelopes(monkeypatch):
    envelope = ExperimentConfig.from_dict({}).envelope_bytes
    cfg = ExperimentConfig.from_dict({
        "duration_s": 2.0, "cutter": {"max_block_bytes": 3 * envelope}})
    assert cfg.cutter.max_txn_count == 100
    delivered = []  # (height, bytes) of every BLOCK_DELIVER sent
    send = Engine.send

    def spy(self, src, dst, msg, extra_delay_us=0):
        if msg.kind is MessageKind.BLOCK_DELIVER:
            delivered.append((msg.body.height, msg.size_bytes))
        send(self, src, dst, msg, extra_delay_us)
    monkeypatch.setattr(Engine, "send", spy)
    blocks = run_simulation(cfg).sim.endorsing[0].ledger.blocks[1:]
    *size_cut, last = blocks
    assert size_cut and all(b.cut_reason is CutReason.SIZE_THRESHOLD
                            and len(b.txns) == 3 for b in size_cut)
    # what is left pending at the end goes out in one timeout block
    assert (last.cut_reason, len(last.txns)) in (
        (CutReason.SIZE_THRESHOLD, 3), (CutReason.TIMEOUT, 1),
        (CutReason.TIMEOUT, 2))
    header = cfg.sizes.block_header
    assert {h for h, _ in delivered} == {b.height for b in blocks}
    assert all(size == header + 3 * envelope for h, size in delivered
               if h != last.height)
    assert all(size == header + len(last.txns) * envelope
               for h, size in delivered if h == last.height)


# --- wired ordering service --------------------------------------------------

class Sink(Node):
    """Terminal node collecting everything delivered to it."""

    def __init__(self, node_id, klass):
        super().__init__(node_id, klass)
        self.got = []

    def handle(self, msg):
        self.got.append((self.engine.now, msg))


def wire_service(n_brokers=4, replication_factor=3, min_insync=2,
                 orderer_capacity=5000, n_peers=2, cut=(100, 10 * 1024 * 1024),
                 orderers=1, window_end=10**12):
    cfg = ordering_cfg(
        *cut,
        topology={"peers": n_peers, "orderers": orderers,
                  "brokers": n_brokers},
        replication={"replication_factor": replication_factor,
                     "min_insync": min_insync},
        queues={"orderer_capacity": orderer_capacity},
        duration_s=window_end / 1e6)
    assert cfg.duration_us == window_end
    engine = Engine(LatencyModel(base_us={}, default_us=1000, per_byte_ns=0,
                                 jitter_fraction=0.0), seed=1)
    assert len(cfg.follower_ids) == replication_factor - 1
    cutter = BlockCutter(cfg, next_height=1, prev_hash=GENESIS_PREV_HASH)
    nodes = {}
    for oid in cfg.orderer_ids:
        nodes[oid] = OrdererNode(oid, cfg)
    for bid in cfg.broker_ids:
        nodes[bid] = BrokerNode(bid, cfg,
                                cutter if bid == cfg.leader_id else None)
    for pid in cfg.peer_ids:
        nodes[pid] = Sink(pid, NodeClass.PEER)
    nodes["client000"] = Sink("client000", NodeClass.CLIENT)
    for node in nodes.values():
        engine.add_node(node)
    return engine, nodes, list(cfg.orderer_ids), cfg.leader_id


def inject_envelope(engine, orderer_id, env, at=0):
    size = engine.nodes[orderer_id].cfg.envelope_bytes
    engine.schedule(orderer_id, Message(MessageKind.ENVELOPE, size, env), at)


def test_single_envelope_acked_counters_balanced():
    engine, nodes, [oid], leader = wire_service()
    inject_envelope(engine, oid, mk_envelope("t0"))
    engine.run_until_quiescent()
    orderer = nodes[oid]
    assert orderer.enqueue_attempts == 1
    assert orderer.enqueue_successes == 1
    assert orderer.refusals == 0
    client = nodes["client000"]
    acks = [m for _, m in client.got if m.kind is MessageKind.BROADCAST_ACK]
    assert len(acks) == 1 and acks[0].body == "t0"


def test_queue_capacity_one_refuses_second_simultaneous_envelope():
    engine, nodes, [oid], _ = wire_service(orderer_capacity=1)
    inject_envelope(engine, oid, mk_envelope("t0"), at=0)
    inject_envelope(engine, oid, mk_envelope("t1"), at=0)
    engine.run_until_quiescent()
    orderer = nodes[oid]
    assert orderer.enqueue_attempts == 2
    assert orderer.enqueue_successes == 1
    assert orderer.refusals == 1


def test_saturating_burst_attempts_lead_successes_then_drain_equalizes():
    engine, nodes, [oid], _ = wire_service()
    for i in range(50):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=0)
    engine.run_until_quiescent(time_limit_us=40_000)
    orderer = nodes[oid]
    assert orderer.enqueue_attempts == 50
    assert 0 < orderer.enqueue_successes < 50  # backlog draining: r > 1
    engine.run_until_quiescent()
    assert orderer.enqueue_successes == 50  # full drain, no refusals: r == 1


def test_offsets_are_gap_free_in_arrival_order():
    engine, nodes, [oid], leader_id = wire_service()
    for i in range(25):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 100)
    engine.run_until_quiescent()
    leader = nodes[leader_id]
    assert leader.committed_count == 25
    assert [env.txn_id for env in leader.records] == \
        [f"t{i}" for i in range(25)]


def test_min_insync_one_commits_at_append():
    engine, nodes, [oid], leader_id = wire_service(replication_factor=1,
                                                   min_insync=1)
    inject_envelope(engine, oid, mk_envelope("t0"))
    engine.run_until_quiescent()
    leader = nodes[leader_id]
    assert leader.committed_count == 1
    # no followers were involved at all
    others = [n for n in nodes.values()
              if isinstance(n, BrokerNode) and not n.is_leader]
    assert others and all(n.recv_msgs == n.sent_msgs == 0 for n in others)


def test_high_min_insync_waits_for_follower_acks(commit_times):
    engine, nodes, [oid], leader_id = wire_service(n_brokers=16,
                                                   replication_factor=15,
                                                   min_insync=14)
    inject_envelope(engine, oid, mk_envelope("t0"))
    engine.run_until_quiescent()
    leader = nodes[leader_id]
    assert leader.committed_count == 1
    followers = [n for n in nodes.values()
                 if isinstance(n, BrokerNode) and not n.is_leader]
    # each of the replication_factor - 1 followers received the copy and
    # acked it once; the 16th broker is outside the replica set
    assert sorted(f.sent_msgs for f in followers) == [0] + [1] * 14
    # commit needed 13 follower acks on top of the leader's copy: at least
    # one round trip of intra-cluster latency after the append finished
    assert len(commit_times) == 1
    commit_time = commit_times[0]
    append_done = 1000 + nodes[leader_id].service_us(
        Message(MessageKind.LOG_APPEND, 500, mk_envelope("t0")))
    assert commit_time > append_done


def test_commit_order_is_offset_order_even_with_jitter():
    engine, nodes, [oid], leader_id = wire_service(
        n_brokers=8, replication_factor=7, min_insync=4,
        cut=(7, 10**9))
    engine.latency.jitter_fraction = 0.3
    for i in range(30):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 50)
    engine.run_until_quiescent()
    leader = nodes[leader_id]
    assert leader.committed_count == 30
    blocks = sorted((m.body for _, m in nodes["peer000"].got
                     if m.kind is MessageKind.BLOCK_DELIVER),
                    key=lambda b: b.height)
    assert [b.height for b in blocks] == [1, 2, 3, 4, 5]
    assert [txn_id for b in blocks for txn_id in b.txn_ids()] == \
        [env.txn_id for env in leader.records]


def test_window_counters_count_only_envelopes_handled_before_window_end():
    window_end = 50_000
    engine, nodes, [oid], _ = wire_service(window_end=window_end)
    orderer = nodes[oid]
    forward = orderer.cfg.service.orderer_forward
    for i in range(3):  # handled and committed well inside the window
        inject_envelope(engine, oid, mk_envelope(f"early{i}"), at=0)
    # handled at window_end - forward - 1, committed after window_end
    inject_envelope(engine, oid, mk_envelope("edge"),
                    at=window_end - 2 * forward - 1)
    # handled exactly at window_end, then well after it
    inject_envelope(engine, oid, mk_envelope("at_end"), at=window_end - forward)
    inject_envelope(engine, oid, mk_envelope("late"), at=window_end + 10_000)
    engine.run_until_quiescent(time_limit_us=window_end - 1)
    assert orderer.window_attempts == orderer.enqueue_attempts == 4
    assert orderer.window_successes == orderer.enqueue_successes == 3
    engine.run_until_quiescent()
    assert (orderer.window_attempts, orderer.enqueue_attempts) == (4, 6)
    assert (orderer.window_successes, orderer.enqueue_successes) == (3, 6)


def test_block_fanout_one_message_per_peer():
    engine, nodes, [oid], leader_id = wire_service(
        n_peers=4, cut=(3, 10**9))
    for i in range(3):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 10)
    engine.run_until_quiescent()
    for pid in ("peer000", "peer001", "peer002", "peer003"):
        blocks = [m for _, m in nodes[pid].got
                  if m.kind is MessageKind.BLOCK_DELIVER]
        assert len(blocks) == 1
        assert len(blocks[0].body.txns) == 3


def test_peers_receive_consecutive_blocks_in_height_order():
    engine, nodes, [oid], _ = wire_service(
        n_peers=3, cut=(2, 10**9))
    for i in range(8):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 2000)
    engine.run_until_quiescent()
    for pid in ("peer000", "peer001", "peer002"):
        heights = [m.body.height for _, m in nodes[pid].got
                   if m.kind is MessageKind.BLOCK_DELIVER]
        assert heights == [1, 2, 3, 4]


def test_fanout_stagger_makes_wide_fanout_cost_more():
    # last scheduled delivery grows with the peer count under any positive
    # per-peer stagger and latency
    cfg = ExperimentConfig.from_dict({})
    stagger = cfg.service.orderer_deliver_stagger
    base = cfg.latency.base_for(NodeClass.ORDERER, NodeClass.PEER)

    def last_delivery(n_peers):
        return base + (n_peers - 1) * stagger

    assert last_delivery(24) > last_delivery(4)


def test_wide_fanout_sends_one_message_per_peer_24():
    engine, nodes, [oid], _ = wire_service(
        n_peers=24, cut=(1, 10**9))
    inject_envelope(engine, oid, mk_envelope("t0"))
    engine.run_until_quiescent()
    delivered = [pid for pid in nodes
                 if pid.startswith("peer")
                 and any(m.kind is MessageKind.BLOCK_DELIVER
                         for _, m in nodes[pid].got)]
    assert len(delivered) == 24


def test_proxy_neutrality_orderer_count_does_not_change_committed_set():
    from eovsim.config import ExperimentConfig as EC
    from eovsim.simulation import run_simulation

    def committed_txns(orderers):
        cfg = EC.from_dict({"duration_s": 3.0, "rate": {"total_tps": 60.0},
                            "topology": {"peers": 3, "clients": 3,
                                         "brokers": 3, "orderers": orderers}})
        result = run_simulation(cfg)
        ledger = result.sim.endorsing[0].ledger
        return sorted(t.txn_id for b in ledger.blocks[1:] for t in b.txns)

    assert committed_txns(2) == committed_txns(4)


def test_designated_orderer_rotates_by_height():
    engine, nodes, orderer_ids, leader_id = wire_service(
        orderers=3, n_peers=1, cut=(1, 10**9))
    # block heights 1..4 -> designated orderer index height % 3
    for i in range(4):
        inject_envelope(engine, orderer_ids[0], mk_envelope(f"t{i}"),
                        at=i * 3000)
    engine.run_until_quiescent()
    leader = nodes[leader_id]
    assert leader.cutter.next_height == 5
    # every block reached the single peer exactly once regardless of route
    heights = [m.body.height for _, m in nodes["peer000"].got
               if m.kind is MessageKind.BLOCK_DELIVER]
    assert sorted(heights) == [1, 2, 3, 4]


def test_commit_notice_for_another_orderers_txn_changes_nothing():
    engine, nodes, orderer_ids, _ = wire_service(orderers=2)
    orderer = nodes[orderer_ids[1]]
    inject_envelope(engine, orderer.id, mk_envelope("mine"))
    engine.run_until_quiescent(
        time_limit_us=orderer.cfg.service.orderer_forward)
    assert orderer.sent_msgs == 1  # "mine" is forwarded and awaits commit

    def counters():
        return (orderer.enqueue_attempts, orderer.enqueue_successes,
                orderer.window_successes, orderer.refusals,
                orderer.sent_msgs, orderer.sent_bytes)
    before = counters()
    # every orderer hears every commit; orderer000 forwarded "theirs"
    orderer.handle(Message(MessageKind.COMMIT_NOTICE, 64, "theirs"))
    assert counters() == before
    orderer.handle(Message(MessageKind.COMMIT_NOTICE, 64, "mine"))
    assert orderer.enqueue_successes == 1 and orderer.sent_msgs == 2


def test_one_message_per_fanout_and_log_record_is_the_envelope():
    engine, nodes, [oid, designated], leader_id = wire_service(
        n_brokers=4, replication_factor=4, min_insync=4, n_peers=3,
        orderers=2, cut=(1, 10**9))
    sent = []  # (src, dst, message) per send
    send = engine.send

    def spy(src, dst, msg, extra_delay_us=0):
        sent.append((src, dst, msg))
        send(src, dst, msg, extra_delay_us)
    engine.send = spy
    env = mk_envelope("t0")
    inject_envelope(engine, oid, env)
    engine.run_until_quiescent()
    by_kind = {}
    for src, dst, msg in sent:
        by_kind.setdefault((src, msg.kind), []).append(msg)
    # the orderer forwards the client's envelope itself as the log record
    [record] = by_kind[oid, MessageKind.LOG_APPEND]
    assert record.body is env
    assert nodes[leader_id].records == [env]
    # one copy message for all followers, one notice for all orderers, and
    # the designated orderer forwards the leader's block message as is
    for kind, receivers in ((MessageKind.LOG_APPEND, 3),
                            (MessageKind.COMMIT_NOTICE, 2),
                            (MessageKind.BLOCK_DELIVER, 1)):
        msgs = by_kind[leader_id, kind]
        assert len(msgs) == receivers and len({id(m) for m in msgs}) == 1
    [block_msg] = by_kind[leader_id, MessageKind.BLOCK_DELIVER]
    forwarded = by_kind[designated, MessageKind.BLOCK_DELIVER]
    assert len(forwarded) == 3 and all(m is block_msg for m in forwarded)
    cfg = nodes[leader_id].cfg
    assert block_msg.size_bytes == cfg.sizes.block_header + cfg.envelope_bytes


# --- the leader's demand per record and the capacity it implies ---------------

@pytest.mark.parametrize("overrides", [
    {},
    {"topology": {"peers": 16, "clients": 16, "brokers": 16}},
    {"topology": {"peers": 8, "orderers": 6, "brokers": 5},
     "policy": {"threshold": 3}, "replication": {"replication_factor": 2}},
])
def test_leader_demand_us_is_the_leaders_log_append_service(overrides):
    cfg = ExperimentConfig.from_dict(overrides)
    leader, *_, follower = build(cfg).brokers
    size = cfg.envelope_bytes + cfg.sizes.log_overhead
    service = leader.service_us(
        Message(MessageKind.LOG_APPEND, size, mk_envelope("t0")))
    # D, from the leader's own wiring: one copy send per follower, one
    # notice per orderer, and the per-byte cost of the envelope it orders
    svc = cfg.service
    envelope = cfg.sizes.proposal + cfg.policy_threshold * cfg.sizes.endorsement
    demand = (svc.leader_order + svc.broker_append
              + len(leader.followers) * svc.leader_copy_send
              + len(leader.orderers) * svc.leader_notice_send
              + envelope * svc.leader_order_per_byte_ns // 1000)
    assert service == demand == cfg.leader_demand_us
    # a follower's copy costs the append alone
    assert follower.service_us(Message(MessageKind.LOG_APPEND, size, 0)) == \
        cfg.service.broker_append


@pytest.mark.parametrize("overrides,capacity", [
    ({"topology": {"peers": 16, "clients": 16, "brokers": 16},
      "rate": {"total_tps": 300.0}}, 284.33),
    ({"topology": {"peers": 16, "clients": 16, "brokers": 4},
      "rate": {"total_tps": 300.0}}, 294.38),
    ({"topology": {"peers": 8, "clients": 8, "brokers": 16},
      "rate": {"total_tps": 400.0}}, 306.65),
    ({"topology": {"peers": 16, "clients": 16, "brokers": 16},
      "replication": {"replication_factor": 1, "min_insync": 1},
      "rate": {"total_tps": 300.0}}, 296.12),
    ({"topology": {"peers": 16, "clients": 16, "brokers": 16},
      "rate": {"total_tps": 250.0}}, 284.33),
], ids=["nck16-300", "k4-300", "nc8-400", "rf1-300", "nck16-250-below-knee"])
def test_leader_commits_at_capacity_or_offered_rate(overrides, capacity,
                                                    commit_times):
    # The leader is the one server every record passes: saturated, it
    # commits at 1e6 / D per second; below the knee, at the offered rate.
    cfg = ExperimentConfig.from_dict(overrides | {"duration_s": 5.0})
    assert cfg.capacity_tps == pytest.approx(capacity, abs=0.005)
    run_simulation(cfg)
    window_s = (cfg.duration_us - cfg.warmup_us) / 1e6
    rate = sum(cfg.warmup_us <= t < cfg.duration_us
               for t in commit_times) / window_s
    expected = min(cfg.capacity_tps, cfg.total_tps)
    assert rate == pytest.approx(expected, rel=0.005)
