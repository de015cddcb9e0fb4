"""Ordering-service behavior: cutter thresholds, quorum commit, proxy
counters and block fan-out, driven through small hand-wired engines."""

import pytest
from reference import QueuedBroker, ReferenceFollower, traffic

from eovsim.config import ExperimentConfig
from eovsim.engine import (Engine, LatencyModel, Message, MessageKind, Node,
                           NodeClass)
from eovsim.ledger import CutReason, GENESIS_PREV_HASH, ReadSet, WriteSet
from eovsim.ordering import BlockCutter, BrokerNode, Envelope, OrdererNode
from eovsim.simulation import build, run_simulation


def ordering_cfg(count=100, max_bytes=10 * 1024 * 1024, envelope=500,
                 timeout_s=2.0, **over):
    """A run config with these cut thresholds and cut timeout, and
    envelopes of `envelope` bytes: one endorsement, of half of them."""
    cfg = ExperimentConfig.from_dict(over | {
        "cutter": {"max_txn_count": count, "timeout_s": timeout_s,
                   "max_block_bytes": max_bytes},
        "policy": {"threshold": 1},
        "sizes_bytes": {"proposal": envelope // 2,
                        "endorsement": envelope - envelope // 2}})
    assert cfg.envelope_bytes == envelope
    return cfg


def mk_envelope(txn_id, client="client000"):
    return Envelope(txn_id=txn_id, endorsers=(),
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
    for late in (0, 1, 500_000):
        cutter = fresh_cutter()
        block, arm = cutter.add(mk_envelope("only"), now=12345)
        assert block is None and arm
        # an early call does nothing; one at or past the deadline cuts at
        # the deadline, +2 s exactly, whenever it is made
        assert cutter.on_timeout(12345 + 2_000_000 - 1) is None
        block = cutter.on_timeout(12345 + 2_000_000 + late)
        assert block is not None
        assert block.cut_reason is CutReason.TIMEOUT
        assert block.created_at == 12345 + 2_000_000
        assert [t.txn_id for t in block.txns] == ["only"]
        assert cutter.on_timeout(12345 + 2_000_000 + late) is None


def test_cutter_timeout_with_nothing_pending():
    cutter = fresh_cutter()
    assert cutter.on_timeout(999) is None
    assert cutter.on_timeout(10**12) is None


def test_a_stale_timeout_finds_the_next_batchs_later_deadline():
    # The first batch is cut by count at 10; the next starts at 20. The
    # timer the first batch armed fires at its deadline, before the second
    # batch's, and cuts nothing.
    cutter = fresh_cutter(ordering_cfg(2, 10**9))
    cutter.add(mk_envelope("a"), now=0)
    block, _ = cutter.add(mk_envelope("b"), now=10)
    assert block.cut_reason is CutReason.COUNT_THRESHOLD
    _, arm = cutter.add(mk_envelope("c"), now=20)
    assert arm
    assert cutter.on_timeout(2_000_000) is None
    assert cutter.on_timeout(2_000_019) is None
    block = cutter.on_timeout(2_000_020)
    assert [t.txn_id for t in block.txns] == ["c"]
    assert block.created_at == 2_000_020


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
                 orderers=1, window_end=10**12, reference=False, **over):
    """An ordering service on a 1-ms jitter-free network; with reference,
    the leader and its followers are the reference nodes (reference.py)."""
    cfg = ordering_cfg(
        *cut,
        topology={"peers": n_peers, "orderers": orderers,
                  "brokers": n_brokers},
        replication={"replication_factor": replication_factor,
                     "min_insync": min_insync},
        queues={"orderer_capacity": orderer_capacity},
        duration_s=window_end / 1e6, **over)
    assert cfg.duration_us == window_end
    engine = Engine(LatencyModel(base_us={}, default_us=1000, per_byte_ns=0,
                                 jitter_fraction=0.0), seed=1)
    assert len(cfg.follower_ids) == replication_factor - 1
    cutter = BlockCutter(cfg, next_height=1, prev_hash=GENESIS_PREV_HASH)
    nodes = {}
    for oid in cfg.orderer_ids:
        nodes[oid] = OrdererNode(oid, cfg)
    for bid in cfg.broker_ids:
        if bid == cfg.leader_id:
            nodes[bid] = (QueuedBroker if reference else BrokerNode)(cfg, cutter)
        elif reference:
            nodes[bid] = ReferenceFollower(bid, cfg)
        else:
            nodes[bid] = Node(bid, NodeClass.BROKER)
    for pid in cfg.peer_ids:
        nodes[pid] = Sink(pid, NodeClass.PEER)
    nodes["client000"] = Sink("client000", NodeClass.CLIENT)
    for node in nodes.values():
        engine.add_node(node)
    return engine, nodes, list(cfg.orderer_ids), cfg.leader_id


def inject_envelope(engine, orderer_id, env, at=0):
    size = engine.nodes[orderer_id].cfg.envelope_bytes
    engine.schedule(orderer_id, Message(MessageKind.ENVELOPE, size, env), at)


def spy_appends(monkeypatch):
    """The txn ids the leader appends, in offset order."""
    appended = []
    handle = BrokerNode.handle

    def spy(self, msg):
        if msg.kind is MessageKind.LOG_APPEND:
            appended.append(msg.body.txn_id)
        handle(self, msg)
    monkeypatch.setattr(BrokerNode, "handle", spy)
    return appended


def delivered_txn_ids(sink):
    """The txn ids of the blocks a sink peer received, in height order."""
    blocks = sorted((m.body for _, m in sink.got
                     if m.kind is MessageKind.BLOCK_DELIVER),
                    key=lambda b: b.height)
    return [txn_id for b in blocks for txn_id in b.txn_ids()]


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


def test_offsets_are_gap_free_in_arrival_order(commit_times):
    engine, nodes, [oid], _ = wire_service()
    for i in range(25):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 100)
    engine.run_until_quiescent()
    assert len(commit_times) == nodes[oid].enqueue_successes == 25
    assert delivered_txn_ids(nodes["peer000"]) == [f"t{i}" for i in range(25)]


def test_min_insync_one_commits_at_append(commit_times):
    engine, nodes, [oid], leader_id = wire_service(replication_factor=1,
                                                   min_insync=1)
    inject_envelope(engine, oid, mk_envelope("t0"))
    engine.run_until_quiescent()
    assert len(commit_times) == nodes[oid].enqueue_successes == 1
    # no followers were involved at all
    others = [n for n in nodes.values()
              if n.klass is NodeClass.BROKER and n.id != leader_id]
    assert others and all(set(traffic(n).values()) == {0} for n in others)


@pytest.mark.parametrize("min_insync", [1, 2, 3],
                         ids=["insync1", "insync2", "insync-rf"])
def test_every_record_is_added_at_its_commit_instant_at_append(
        monkeypatch, min_insync):
    # The leader's own copy is the first of min_insync copies, so every
    # record, min_insync 1 included, is fed to the cutter at its append, in
    # append order, at its commit instant; with min_insync 1 that instant is
    # the append. Each orderer hears the commit no earlier than it.
    engine, nodes, [oid], _ = wire_service(replication_factor=3,
                                           min_insync=min_insync)
    engine.latency.jitter_fraction = 0.3
    appends, adds = [], []  # (txn id, now[, commit instant])
    handle, add = BrokerNode.handle, BlockCutter.add

    def spy_handle(self, msg):
        if msg.kind is MessageKind.LOG_APPEND:
            appends.append((msg.body.txn_id, self.engine.now))
        handle(self, msg)

    def spy_add(self, env, now):
        adds.append((env.txn_id, engine.now, now))
        return add(self, env, now)
    monkeypatch.setattr(BrokerNode, "handle", spy_handle)
    monkeypatch.setattr(BlockCutter, "add", spy_add)
    notices = {}  # txn id -> the instant the orderer handles its notice
    orderer_handle = nodes[oid].handle

    def spy_notice(msg):
        if msg.kind is MessageKind.COMMIT_NOTICE:
            notices[msg.body] = engine.now
        orderer_handle(msg)
    nodes[oid].handle = spy_notice
    for i in range(20):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 100)
    engine.run_until_quiescent()
    assert len(appends) == nodes[oid].enqueue_successes == 20
    assert [(txn, now) for txn, now, _ in adds] == appends
    commits = [at for _, _, at in adds]
    assert commits == sorted(commits)
    if min_insync == 1:
        assert commits == [now for _, now in appends]
    else:
        assert all(c > a for (_, a), c in zip(appends, commits))
    assert all(notices[txn] >= at for txn, _, at in adds)


def test_a_commit_on_a_batchs_deadline_comes_after_the_cut(monkeypatch,
                                                          commit_times):
    # Replication lag exceeds the cut timeout: record 2 is appended before
    # record 0 commits, and commits exactly at the deadline of the batch
    # record 0 starts. The batch is cut first, and record 2 starts the next.
    wiring = dict(n_brokers=2, replication_factor=2, min_insync=2)
    _, nodes, [oid], _ = wire_service(**wiring)
    demand = nodes[oid].cfg.leader_demand_us
    engine, nodes, [oid], _ = wire_service(timeout_s=2 * demand / 1e6,
                                           **wiring)
    assert nodes[oid].cfg.cutter.timeout_us == 2 * demand
    engine.latency.base_us[NodeClass.BROKER, NodeClass.BROKER] = 10_000
    appends = []
    handle = BrokerNode.handle

    def spy(self, msg):
        if msg.kind is MessageKind.LOG_APPEND:
            appends.append(self.engine.now)
        handle(self, msg)
    monkeypatch.setattr(BrokerNode, "handle", spy)
    for i in range(4):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"))
    engine.run_until_quiescent()
    assert appends[2] < commit_times[0]
    assert commit_times[2] == commit_times[0] + 2 * demand
    blocks = sorted((m.body for _, m in nodes["peer000"].got
                     if m.kind is MessageKind.BLOCK_DELIVER),
                    key=lambda b: b.height)
    assert [b.txn_ids() for b in blocks] == [["t0", "t1"], ["t2", "t3"]]
    assert blocks[0].cut_reason is CutReason.TIMEOUT
    assert blocks[0].created_at == commit_times[2]


def test_high_min_insync_waits_for_follower_acks(commit_times):
    engine, nodes, [oid], leader_id = wire_service(n_brokers=16,
                                                   replication_factor=15,
                                                   min_insync=14)
    inject_envelope(engine, oid, mk_envelope("t0"))
    engine.run_until_quiescent()
    assert nodes[oid].enqueue_successes == 1
    followers = [n for n in nodes.values()
                 if n.klass is NodeClass.BROKER and n.id != leader_id]
    # each of the replication_factor - 1 followers received the copy and
    # acked it once; the 16th broker is outside the replica set
    assert sorted(traffic(f)["sent_msgs"] for f in followers) == [0] + [1] * 14
    # commit needed 13 follower acks on top of the leader's copy: at least
    # one round trip of intra-cluster latency after the append finished
    assert len(commit_times) == 1
    commit_time = commit_times[0]
    append_done = 1000 + nodes[leader_id].service_us(
        Message(MessageKind.LOG_APPEND, 500, mk_envelope("t0")))
    assert commit_time > append_done


def test_commit_order_is_offset_order_even_with_jitter(monkeypatch,
                                                      commit_times):
    engine, nodes, [oid], _ = wire_service(
        n_brokers=8, replication_factor=7, min_insync=4,
        cut=(7, 10**9))
    engine.latency.jitter_fraction = 0.3
    appended = spy_appends(monkeypatch)
    for i in range(30):
        inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 50)
    engine.run_until_quiescent()
    assert len(commit_times) == nodes[oid].enqueue_successes == 30
    heights = [m.body.height for _, m in nodes["peer000"].got
               if m.kind is MessageKind.BLOCK_DELIVER]
    assert sorted(heights) == [1, 2, 3, 4, 5]
    assert delivered_txn_ids(nodes["peer000"]) == appended


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
    # on the jitter-free network, peer i's copy of one block arrives
    # exactly i staggers after peer000's: a fan-out to n peers spans
    # (n - 1) staggers
    for n_peers in (4, 24):
        engine, nodes, [oid], _ = wire_service(n_peers=n_peers, cut=(1, 10**9))
        stagger = nodes[oid].cfg.service.orderer_deliver_stagger
        assert stagger > 0
        inject_envelope(engine, oid, mk_envelope("t0"))
        engine.run_until_quiescent()
        arrivals = []
        for pid in nodes[oid].cfg.peer_ids:
            [at] = [at for at, m in nodes[pid].got
                    if m.kind is MessageKind.BLOCK_DELIVER]
            arrivals.append(at)
        assert len(arrivals) == n_peers
        assert [at - arrivals[0] for at in arrivals] == [
            i * stagger for i in range(n_peers)]


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
    # "mine" is forwarded and awaits commit
    assert traffic(orderer)["sent_msgs"] == 1

    def counters():
        return (orderer.enqueue_attempts, orderer.enqueue_successes,
                orderer.window_successes, orderer.refusals,
                traffic(orderer))
    before = counters()
    # every orderer hears every commit; orderer000 forwarded "theirs"
    orderer.handle(Message(MessageKind.COMMIT_NOTICE, 64, "theirs"))
    assert counters() == before
    orderer.handle(Message(MessageKind.COMMIT_NOTICE, 64, "mine"))
    assert orderer.enqueue_successes == 1 and traffic(orderer)["sent_msgs"] == 2


def test_one_message_per_fanout_and_log_record_is_the_envelope():
    engine, nodes, [oid, designated], leader_id = wire_service(
        n_brokers=4, replication_factor=4, min_insync=4, n_peers=3,
        orderers=2, cut=(1, 10**9))
    cfg = nodes[leader_id].cfg
    followers = [nodes[f] for f in cfg.follower_ids]
    events = []  # (follower id, message) of every event a follower gets
    for follower in followers:
        follower.deliver = (lambda msg, fid=follower.id:
                            events.append((fid, msg)))
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
    assert nodes[oid].enqueue_successes == 1
    # the followers are a recursion at the leader: no copy or ack is an
    # event, yet each follower's counters show the one copy in and the one
    # ack out, and the leader's the three acks in
    assert events == [] and (leader_id, MessageKind.LOG_APPEND) not in by_kind
    copy_bytes = cfg.envelope_bytes + cfg.sizes.log_overhead
    for follower in followers:
        assert traffic(follower) == {
            "sent_msgs": 1, "sent_bytes": cfg.sizes.log_ack,
            "recv_msgs": 1, "recv_bytes": copy_bytes}
    assert traffic(nodes[leader_id])["recv_msgs"] == 1 + 3
    # one notice message for all orderers, and the designated orderer
    # forwards the leader's block message as is
    for kind, receivers in ((MessageKind.COMMIT_NOTICE, 2),
                            (MessageKind.BLOCK_DELIVER, 1)):
        msgs = by_kind[leader_id, kind]
        assert len(msgs) == receivers and len({id(m) for m in msgs}) == 1
    [block_msg] = by_kind[leader_id, MessageKind.BLOCK_DELIVER]
    assert block_msg.body.txns == [env] and block_msg.body.txns[0] is env
    forwarded = by_kind[designated, MessageKind.BLOCK_DELIVER]
    assert len(forwarded) == 3 and all(m is block_msg for m in forwarded)
    assert block_msg.size_bytes == cfg.sizes.block_header + cfg.envelope_bytes


# --- followers: the queue recursion against event-driven followers ----------

def broker_counters(nodes, cfg):
    return {bid: traffic(nodes[bid]) for bid in cfg.broker_ids}


def run_replication(reference, envelopes, gap_us, jitter, commit_times,
                    **wiring):
    """Commit times and broker counters of one jittered run."""
    engine, nodes, orderer_ids, leader_id = wire_service(
        reference=reference, **wiring)
    engine.latency.jitter_fraction = jitter
    for i in range(envelopes):
        inject_envelope(engine, orderer_ids[i % len(orderer_ids)],
                        mk_envelope(f"t{i}"), at=i * gap_us)
    engine.run_until_quiescent()
    assert sum(nodes[oid].enqueue_successes for oid in orderer_ids) == \
        len(commit_times) == envelopes
    times = list(commit_times)
    commit_times.clear()
    return times, broker_counters(nodes, nodes[leader_id].cfg), nodes


# D is broker_append alone: the leader appends every 700 us, and a copy that
# arrives early finds its follower still serving the one before.
BUSY_FOLLOWERS = {"leader_order": 0, "leader_copy_send": 0,
                  "leader_notice_send": 0, "leader_order_per_byte_ns": 0,
                  "broker_append": 700}


@pytest.mark.parametrize("replication_factor,min_insync,service", [
    (5, 3, {}), (7, 7, {}), (4, 1, {}), (5, 2, BUSY_FOLLOWERS)],
    ids=["rf5-insync3", "rf7-insync7", "rf4-insync1", "busy-followers"])
def test_follower_recursion_equals_event_driven_followers(
        replication_factor, min_insync, service, commit_times):
    # Copies cross a 1,000-us broker link with a spread of 300 us, while the
    # leader appends at most once per D; D > 2 * 300, so every copy reaches
    # its follower in send order (the next test takes them out of it).
    wiring = dict(n_brokers=8, replication_factor=replication_factor,
                  min_insync=min_insync, orderers=2, cut=(5, 10**9),
                  service_us=service)
    runs = [run_replication(reference, 60, 100, 0.3, commit_times, **wiring)
            for reference in (False, True)]
    (times, counters, nodes), (ref_times, ref_counters, ref_nodes) = runs
    leader = nodes["broker000"]
    assert leader.cfg.leader_demand_us > 2 * 300
    assert times == ref_times and len(times) == 60
    assert counters == ref_counters
    # both leaders commit in the reference's offset order
    offsets = [env.txn_id for env in ref_nodes["broker000"].records]
    assert delivered_txn_ids(nodes["peer000"]) == \
        delivered_txn_ids(ref_nodes["peer000"]) == offsets
    for follower in leader.followers:
        assert ref_nodes[follower].served == list(range(60))
        assert (counters[follower]["sent_msgs"]
                == counters[follower]["recv_msgs"] == 60)


def test_the_recursion_serves_a_followers_copies_in_send_order(
        monkeypatch, commit_times):
    # A tiny D (broker_append alone, 5 us) under a 300-us spread: copies
    # reach the follower out of send order. The recursion serves them in send
    # order, which is offset order, as Kafka's in-order replica fetch does;
    # so does the reference follower, which holds a copy that arrives before
    # the one ahead of it.
    wiring = dict(n_brokers=2, replication_factor=2, min_insync=2,
                  cut=(5, 10**9),
                  service_us={"leader_order": 0, "leader_copy_send": 0,
                              "leader_notice_send": 0,
                              "leader_order_per_byte_ns": 0,
                              "broker_append": 5, "orderer_forward": 0})
    timeline = []  # (now, src, dst, delay) of every transit the leader takes
    transit = Engine.transit_us

    def spy(self, src, dst, size_bytes, extra_delay_us=0):
        delay = transit(self, src, dst, size_bytes, extra_delay_us)
        if "broker001" in (src, dst):
            timeline.append((self.now, src, delay))
        return delay
    with monkeypatch.context() as patch:
        patch.setattr(Engine, "transit_us", spy)
        appended = spy_appends(patch)
        times, _, nodes = run_replication(False, 30, 0, 0.3, commit_times,
                                          **wiring)
    ref_times, _, ref_nodes = run_replication(True, 30, 0, 0.3, commit_times,
                                              **wiring)
    assert nodes["broker000"].cfg.leader_demand_us == 5
    assert ref_nodes["broker001"].served == list(range(30))
    assert ref_nodes["broker001"].held > 0

    # the recursion's timeline: copy k arrives at a_k, is served in offset
    # order from max(a_k, done_k-1), and its ack arrives at done_k + ack
    copies = [(now + delay) for now, src, delay in timeline
              if src == "broker000"]
    acks = [delay for _, src, delay in timeline if src == "broker001"]
    assert len(copies) == len(acks) == 30
    assert copies != sorted(copies)  # arrivals out of send order
    done, quorum = 0, []
    for arrive, ack in zip(copies, acks):
        done = max(arrive, done) + 5
        quorum.append(done + ack)
    # with one follower a record is in sync at its ack; some records reach
    # quorum before the record ahead of them, yet commits follow in offset
    # order, each at the latest ack up to and including its own
    assert any(quorum[k] < quorum[k - 1] for k in range(1, 30))
    expected = [max(quorum[:k + 1]) for k in range(30)]
    assert times == expected
    assert times == ref_times
    assert len(appended) == 30
    assert delivered_txn_ids(nodes["peer000"]) == appended


def test_a_truncated_run_counts_follower_acks_at_append(monkeypatch,
                                                       commit_times):
    # A follower's copy and ack, and the record's commit notice and block,
    # are counted when the leader appends, not when the follower would
    # serve the copy and send the ack or the record would commit: a run cut
    # in between counts messages that would not yet have been sent.
    engine, nodes, [oid], leader_id = wire_service(
        n_brokers=2, replication_factor=2, min_insync=2, cut=(1, 10**9))
    leader, follower, orderer = nodes[leader_id], nodes["broker001"], nodes[oid]
    cfg = leader.cfg
    appended = spy_appends(monkeypatch)
    inject_envelope(engine, oid, mk_envelope("t0"))
    append_at = cfg.service.orderer_forward + 1000 + cfg.leader_demand_us
    assert engine.run_until_quiescent(time_limit_us=append_at).truncated
    # the record commits past the limit, once the follower's ack is back
    assert appended == ["t0"] and len(commit_times) == 1
    assert commit_times[0] > append_at
    assert orderer.enqueue_successes == 0
    # the copy reaches the follower 1,000 us after the append, and its ack
    # the leader 1,000 us after the follower's broker_append
    assert (traffic(follower)["recv_msgs"],
            traffic(follower)["sent_msgs"]) == (1, 1)
    assert traffic(leader)["recv_msgs"] == 2  # the record and the follower's ack
    # the copy, the notice and the one-txn block
    assert traffic(leader)["sent_msgs"] == 3
    at_limit = traffic(orderer)
    assert at_limit["recv_msgs"] == 2  # the notice and the block
    engine.run_until_quiescent()
    assert len(commit_times) == orderer.enqueue_successes == 1
    assert (traffic(follower)["recv_msgs"], traffic(follower)["sent_msgs"],
            traffic(leader)["recv_msgs"], traffic(leader)["sent_msgs"]) == \
        (1, 1, 2, 3)
    # only the orderer's own sends follow: the ack to the client and the
    # block's fan-out to the peers
    assert traffic(orderer)["recv_msgs"] == at_limit["recv_msgs"]
    assert traffic(orderer)["sent_msgs"] == \
        at_limit["sent_msgs"] + 1 + len(cfg.peer_ids)


def test_the_leaders_state_does_not_grow_with_the_record_count():
    # The leader keeps no log: each record's commit instant is known at
    # append, so no attribute of the leader holds one entry per record.
    engine, nodes, [oid], leader_id = wire_service(cut=(5, 10**9))
    leader = nodes[leader_id]

    def sizes_after(total):
        """Run to total records committed; the size of every sized
        attribute of the leader."""
        for i in range(nodes[oid].enqueue_attempts, total):
            inject_envelope(engine, oid, mk_envelope(f"t{i}"), at=i * 100)
        engine.run_until_quiescent()
        assert nodes[oid].enqueue_successes == total
        return {name: len(value) for name, value in vars(leader).items()
                if hasattr(value, "__len__")}
    after_five = sizes_after(5)
    assert "_follower_free" in after_five
    assert sizes_after(50) == after_five


# --- the leader's demand per record and the capacity it implies ---------------

@pytest.mark.parametrize("overrides", [
    {},
    {"topology": {"peers": 16, "clients": 16, "brokers": 16}},
    {"topology": {"peers": 8, "orderers": 6, "brokers": 5},
     "policy": {"threshold": 3}, "replication": {"replication_factor": 2}},
])
def test_leader_demand_us_is_the_leaders_log_append_service(overrides):
    cfg = ExperimentConfig.from_dict(overrides)
    leader = build(cfg).brokers[0]
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
