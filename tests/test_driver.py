import pytest
from reference import traffic

from eovsim.committer import BlockCommitted, ValidationFlag
from eovsim.config import ExperimentConfig
from eovsim.driver import (ClientNode, JourneyStatus, TxnJourney,
                           submission_times)
from eovsim.endorser import Endorsement
from eovsim.engine import (Engine, LatencyModel, Message, MessageKind, Node,
                           NodeClass)
from eovsim.ledger import (GENESIS_PREV_HASH, Block, CutReason, ReadSet,
                           WriteSet)
from eovsim.ordering import Envelope
from eovsim.simulation import run_simulation
from eovsim.smallbank import OpKind, Proposal, SmallbankOp


def client_cfg(rate, duration_us, max_txns=None, **overrides):
    """A config whose one client submits at `rate` for `duration_us`."""
    cfg = ExperimentConfig.from_dict({
        "rate": {"total_tps": None, "per_client_tps": rate,
                 "total_txns_per_client": max_txns},
        "duration_s": duration_us / 1e6} | overrides)
    assert cfg.duration_us == duration_us
    return cfg


def test_rate_30_schedule_rounding():
    cfg = client_cfg(rate=30, duration_us=200_000)
    assert submission_times(cfg)[:6] == [0, 33333, 66667, 100000, 133333,
                                         166667]


def test_rate_1_five_second_run_has_five_submissions():
    cfg = client_cfg(rate=1, duration_us=5_000_000)
    assert submission_times(cfg) == [0, 1_000_000, 2_000_000, 3_000_000,
                                     4_000_000]


def test_max_txns_caps_schedule():
    cfg = client_cfg(rate=100, duration_us=10_000_000, max_txns=7)
    assert len(submission_times(cfg)) == 7


def test_fractional_rate_is_deterministic():
    cfg = client_cfg(rate=18.75, duration_us=1_000_000)
    times = submission_times(cfg)
    assert times == submission_times(cfg)
    assert times[0] == 0 and all(b > a for a, b in zip(times, times[1:]))


# --- client state machine, hand-fed --------------------------------------------

class Silent(Node):
    """Peer/orderer stand-in that swallows everything it receives."""

    def __init__(self, node_id, klass):
        super().__init__(node_id, klass)
        self.got = []

    def handle(self, msg):
        self.got.append((self.engine.now, msg))


def wire_client(n_peers=3, threshold=None, rate=10.0, duration_us=200_000,
                endorse_timeout_us=50_000, broadcast_timeout_us=80_000):
    cfg = client_cfg(rate, duration_us,
                     topology={"peers": n_peers, "orderers": 1},
                     policy={"threshold": threshold},
                     timeouts={"endorse_s": endorse_timeout_us / 1e6,
                               "broadcast_s": broadcast_timeout_us / 1e6})
    assert (cfg.endorse_timeout_us, cfg.broadcast_timeout_us) == \
        (endorse_timeout_us, broadcast_timeout_us)
    engine = Engine(LatencyModel(base_us={}, default_us=1000, per_byte_ns=0,
                                 jitter_fraction=0.0), seed=4)
    proposals = [Proposal(f"c0-{i:06d}", "client000",
                          SmallbankOp(OpKind.QUERY, (i,)))
                 for i in range(10)]
    client = ClientNode("client000", cfg, proposals)
    engine.add_node(client)
    for pid in cfg.peer_ids:
        engine.add_node(Silent(pid, NodeClass.PEER))
    orderer = Silent(cfg.orderer_ids[0], NodeClass.ORDERER)
    engine.add_node(orderer)
    return engine, client, orderer


def offer_endorsement(engine, client, txn_id, peer, payload=0, at=0):
    """Hand the client peer's reply arriving at `at`, its key's tie drawn
    now by peer, as a peer draws its reply's key."""
    e = Endorsement(txn_id=txn_id, peer=peer,
                    read_set=ReadSet([("k", (0, payload))]),
                    write_set=WriteSet())
    source = engine.nodes[peer]
    source._tie += 1
    client.offer((at, source._tie), e)


def submit_first(engine, client):
    """Arm the client and run its first submission (t=0); its txn id."""
    client.arm()
    engine.run_until_quiescent(time_limit_us=0)
    return client.proposals[0].txn_id


def envelopes(orderer):
    return [m for _, m in orderer.got if m.kind is MessageKind.ENVELOPE]


def test_proposals_fan_out_to_all_peers_at_schedule_times():
    engine, client, _ = wire_client(rate=10.0, duration_us=300_000)
    client.arm()
    engine.run_until_quiescent(time_limit_us=1)
    # first submission went out at t=0 to every peer
    assert traffic(client)["sent_msgs"] == 3
    engine.run_until_quiescent()
    assert [j.submit_us for j in client.journeys.values()] == [0, 100_000,
                                                               200_000]


def test_a_client_queues_one_submission_ahead():
    engine, client, _ = wire_client(rate=10.0, duration_us=300_000)
    client.arm()
    assert len(engine._heap) == 1
    engine.run_until_quiescent(time_limit_us=0)
    # submission 0 is done and submission 1 is queued, at its planned instant
    assert [e[0] for e in engine._heap if e[2] is client] == [100_000]


def test_endorse_timeout_drops_and_late_replies_are_ignored():
    engine, client, orderer = wire_client(endorse_timeout_us=50_000)
    txn = submit_first(engine, client)
    # two of three endorsements arrive in time, the last after the timeout
    offer_endorsement(engine, client, txn, "peer000", at=10_000)
    offer_endorsement(engine, client, txn, "peer001", at=20_000)
    offer_endorsement(engine, client, txn, "peer002", at=60_000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    assert journey.status is JourneyStatus.DROPPED_ENDORSEMENT
    assert journey.endorsed_us is None
    assert not envelopes(orderer)


def test_threshold_n_minus_one_tolerates_straggler():
    engine, client, orderer = wire_client(threshold=2,
                                          endorse_timeout_us=50_000)
    txn = submit_first(engine, client)
    offer_endorsement(engine, client, txn, "peer000", at=10_000)
    offer_endorsement(engine, client, txn, "peer001", at=20_000)
    offer_endorsement(engine, client, txn, "peer002", at=60_000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    # envelope produced the moment the policy turned satisfiable
    assert journey.endorsed_us == 20_000
    sent = envelopes(orderer)
    assert len(sent) == 1
    assert sent[0].body.endorsers == ("peer000", "peer001")
    assert sent[0].size_bytes == \
        client.cfg.sizes.proposal + 2 * client.cfg.sizes.endorsement


def test_a_reply_drawn_later_but_arriving_sooner_moves_the_event_earlier():
    engine, client, orderer = wire_client(threshold=2)
    txn = submit_first(engine, client)
    offer_endorsement(engine, client, txn, "peer000", at=10_000)
    offer_endorsement(engine, client, txn, "peer001", at=30_000)
    offer_endorsement(engine, client, txn, "peer002", at=20_000)
    engine.run_until_quiescent()
    # the event at 30,000 finds the txn endorsed at 20,000 and does nothing
    assert client.journeys[txn].endorsed_us == 20_000
    sent = envelopes(orderer)
    assert [m.body.endorsers for m in sent] == [("peer000", "peer002")]


def test_divergent_endorsements_never_satisfy_full_policy():
    engine, client, orderer = wire_client(endorse_timeout_us=50_000)
    txn = submit_first(engine, client)
    offer_endorsement(engine, client, txn, "peer000", payload=1, at=1000)
    offer_endorsement(engine, client, txn, "peer001", payload=1, at=2000)
    offer_endorsement(engine, client, txn, "peer002", payload=2, at=3000)
    engine.run_until_quiescent(time_limit_us=99_999)
    client.finish_open_journeys(99_999)
    assert client.journeys[txn].status is JourneyStatus.DROPPED_ENDORSEMENT


def test_duplicate_endorsements_from_same_peer_ignored():
    engine, client, orderer = wire_client(threshold=2)
    txn = submit_first(engine, client)
    offer_endorsement(engine, client, txn, "peer000", at=1000)
    offer_endorsement(engine, client, txn, "peer000", at=2000)
    engine.run_until_quiescent(time_limit_us=3000)
    # one peer twice is one endorsement: threshold 2 is not met yet
    journey = client.journeys[txn]
    assert journey.status is None and journey.endorsed_us is None
    assert not envelopes(orderer)


def test_a_peer_second_reply_does_not_replace_its_first():
    engine, client, orderer = wire_client(threshold=2)
    txn = submit_first(engine, client)
    offer_endorsement(engine, client, txn, "peer000", payload=1, at=1000)
    offer_endorsement(engine, client, txn, "peer000", payload=2, at=2000)
    offer_endorsement(engine, client, txn, "peer001", payload=1, at=3000)
    engine.run_until_quiescent(time_limit_us=99_999)
    assert client.journeys[txn].endorsed_us == 3000
    sent = envelopes(orderer)
    assert [m.body.endorsers for m in sent] == [("peer000", "peer001")]


def test_broadcast_timeout_drops_journey():
    engine, client, _ = wire_client(broadcast_timeout_us=30_000)
    txn = submit_first(engine, client)
    for peer in ("peer000", "peer001", "peer002"):
        offer_endorsement(engine, client, txn, peer, at=1000)
    # orderer is silent: no ack ever
    engine.run_until_quiescent(time_limit_us=99_999)
    client.finish_open_journeys(99_999)
    journey = client.journeys[txn]
    assert journey.status is JourneyStatus.DROPPED_BROADCAST
    assert journey.endorsed_us == 1000
    assert journey.bcast_ack_us is None


def commit_notice(committed_at, txn_id, flag):
    """A peer's commit notice for a one-txn block holding txn_id."""
    env = Envelope(txn_id=txn_id, endorsers=(), read_set=ReadSet(),
                   write_set=WriteSet(), client="client000")
    block = Block(height=1, prev_hash=GENESIS_PREV_HASH, txns=[env],
                  cut_reason=CutReason.COUNT_THRESHOLD, created_at=0,
                  flags=[flag])
    return Message(MessageKind.COMMIT_NOTICE, 64,
                   BlockCommitted(committed_at, block))


def broadcast_ack(txn_id):
    return Message(MessageKind.BROADCAST_ACK, 64, txn_id)


def test_ack_then_commit_notice_completes_journey():
    engine, client, _ = wire_client()
    txn = submit_first(engine, client)
    for peer in ("peer000", "peer001", "peer002"):
        offer_endorsement(engine, client, txn, peer, at=1000)
    engine.schedule(client.id, broadcast_ack(txn), 5000)
    engine.schedule(client.id, commit_notice(9000, txn, ValidationFlag.VALID),
                    12_000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    assert journey.status is JourneyStatus.COMMITTED
    assert journey.bcast_ack_us == 5000
    assert journey.commit_us == 9000  # the peer-side commit instant


def test_commit_notice_before_ack_is_stashed():
    engine, client, _ = wire_client()
    txn = submit_first(engine, client)
    for peer in ("peer000", "peer001", "peer002"):
        offer_endorsement(engine, client, txn, peer, at=1000)
    engine.schedule(client.id,
                    commit_notice(4000, txn, ValidationFlag.MVCC_CONFLICT),
                    5000)
    engine.schedule(client.id, broadcast_ack(txn), 8000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    assert journey.status is JourneyStatus.INVALID_COMMITTED
    assert journey.commit_us == 4000


# --- deadlines: a timeout is decided where its timer would have fired ----------

@pytest.mark.parametrize("at,status", [
    (50_000, JourneyStatus.DROPPED_ENDORSEMENT),
    (49_999, JourneyStatus.COMMITTED)])
def test_a_reply_at_the_endorse_deadline_drops_the_journey(at, status):
    # A timeout timer would be scheduled before any reply, so it would win
    # the tie: a reply landing at the deadline is too late.
    engine, client, orderer = wire_client(endorse_timeout_us=50_000)
    txn = submit_first(engine, client)
    for peer in ("peer000", "peer001", "peer002"):
        offer_endorsement(engine, client, txn, peer, at=at)
    engine.schedule(client.id, broadcast_ack(txn), 60_000)
    engine.schedule(client.id, commit_notice(61_000, txn,
                                             ValidationFlag.VALID), 62_000)
    engine.run_until_quiescent(time_limit_us=99_999)
    client.finish_open_journeys(99_999)
    assert client.journeys[txn].status is status
    assert len(envelopes(orderer)) == (status is JourneyStatus.COMMITTED)


@pytest.mark.parametrize("notice_first", [False, True])
@pytest.mark.parametrize("at,status", [
    (31_000, JourneyStatus.DROPPED_BROADCAST),
    (30_999, JourneyStatus.COMMITTED)])
def test_a_message_at_the_broadcast_deadline_drops_the_journey(
        at, status, notice_first):
    # endorsed at 1,000 with a 30,000 us broadcast timeout: the deadline is
    # 31,000, and the ack (or a commit notice ahead of it) decides there
    engine, client, _ = wire_client(broadcast_timeout_us=30_000)
    txn = submit_first(engine, client)
    for peer in ("peer000", "peer001", "peer002"):
        offer_endorsement(engine, client, txn, peer, at=1000)
    notice = commit_notice(20_000, txn, ValidationFlag.VALID)
    if notice_first:
        engine.schedule(client.id, notice, at)
        engine.schedule(client.id, broadcast_ack(txn), at)
    else:
        engine.schedule(client.id, broadcast_ack(txn), at)
        engine.schedule(client.id, notice, at + 1)
    engine.run_until_quiescent(time_limit_us=99_999)
    client.finish_open_journeys(99_999)
    journey = client.journeys[txn]
    assert journey.status is status
    assert journey.endorsed_us == 1000
    if status is JourneyStatus.DROPPED_BROADCAST:
        assert (journey.bcast_ack_us, journey.commit_us) == (None, None)


@pytest.mark.parametrize("limit,status", [
    (50_000, JourneyStatus.DROPPED_ENDORSEMENT),
    (49_999, JourneyStatus.IN_FLIGHT)])
def test_a_truncated_run_drops_at_an_endorse_deadline_up_to_its_limit(
        limit, status):
    engine, client, _ = wire_client(endorse_timeout_us=50_000)
    txn = submit_first(engine, client)
    offer_endorsement(engine, client, txn, "peer000", at=10_000)
    offer_endorsement(engine, client, txn, "peer001", at=60_000)
    offer_endorsement(engine, client, txn, "peer002", at=70_000)
    assert engine.run_until_quiescent(time_limit_us=limit).truncated
    client.finish_open_journeys(limit)
    assert client.journeys[txn].status is status


@pytest.mark.parametrize("limit,status", [
    (31_000, JourneyStatus.DROPPED_BROADCAST),
    (30_999, JourneyStatus.IN_FLIGHT)])
def test_a_truncated_run_drops_at_a_broadcast_deadline_up_to_its_limit(
        limit, status):
    engine, client, _ = wire_client(broadcast_timeout_us=30_000)
    txn = submit_first(engine, client)
    for peer in ("peer000", "peer001", "peer002"):
        offer_endorsement(engine, client, txn, peer, at=1000)
    engine.schedule(client.id, broadcast_ack(txn), 40_000)
    assert engine.run_until_quiescent(time_limit_us=limit).truncated
    client.finish_open_journeys(limit)
    journey = client.journeys[txn]
    assert journey.status is status
    assert (journey.endorsed_us, journey.bcast_ack_us) == (1000, None)


def test_a_deadline_past_the_end_marks_the_run_cut_even_when_closed():
    # a closed journey's timeout timer would still be queued past the end
    engine, client, _ = wire_client(endorse_timeout_us=50_000,
                                    broadcast_timeout_us=30_000)
    txn = submit_first(engine, client)
    for peer in ("peer000", "peer001", "peer002"):
        offer_endorsement(engine, client, txn, peer, at=1000)
    engine.schedule(client.id, broadcast_ack(txn), 5000)
    engine.schedule(client.id, commit_notice(9000, txn, ValidationFlag.VALID),
                    12_000)
    engine.run_until_quiescent(time_limit_us=40_000)
    assert client.journeys[txn].status is JourneyStatus.COMMITTED
    # endorse deadline 50,000; broadcast deadline 31,000
    assert client.finish_open_journeys(49_999)
    assert not client.finish_open_journeys(50_000)


# --- full simulations -----------------------------------------------------------

def test_journey_conservation_per_client_and_global():
    cfg = ExperimentConfig.from_dict({"duration_s": 4.0,
                                      "rate": {"total_tps": 80.0}})
    result = run_simulation(cfg)
    for client in result.sim.clients:
        statuses = [j.status for j in client.journeys.values()]
        assert None not in statuses
    report = result.report
    assert report.submitted == (report.committed + report.invalid_committed
                                + report.dropped_endorse
                                + report.dropped_broadcast + report.in_flight)
    # block txn total equals the validated flag totals (genesis excluded)
    block_txns = sum(len(b.txns)
                     for b in result.sim.endorsing[0].ledger.blocks[1:])
    assert block_txns == (report.valid_txns + report.policy_violations
                          + report.mvcc_conflicts)


def test_open_loop_submission_times_match_formula_under_load():
    cfg = ExperimentConfig.from_dict({"duration_s": 3.0,
                                      "rate": {"total_tps": 400.0},
                                      "topology": {"peers": 4, "clients": 2,
                                                   "brokers": 4}})
    result = run_simulation(cfg)
    rate = cfg.per_client_tps
    for client in result.sim.clients:
        for journey in client.journeys.values():
            assert journey.submit_us == round(journey.index * 1_000_000 / rate)


def test_truncated_run_leaves_in_flight_journeys():
    cfg = ExperimentConfig.from_dict({"duration_s": 1.0, "drain_limit_s": 0.0,
                                      "rate": {"total_tps": 50.0}})
    result = run_simulation(cfg)
    assert result.report.truncated
    assert result.report.in_flight > 0
    open_journeys = [j for j in result.journeys
                     if j.status is JourneyStatus.IN_FLIGHT]
    assert open_journeys and all(j.commit_us is None for j in open_journeys)


def test_contention_produces_invalid_committed_journeys():
    cfg = ExperimentConfig.from_dict({
        "duration_s": 5.0,
        "rate": {"total_tps": 100.0},
        "workload": {"n_accounts": 4,
                     "op_mix": {"send_payment": 0.6, "deposit_checking": 0.4},
                     "access": {"kind": "hotspot", "fraction_hot": 0.5,
                                "prob_hot": 0.9}},
    })
    result = run_simulation(cfg)
    assert result.report.invalid_committed > 0
    conflicted = [j for j in result.journeys
                  if j.status is JourneyStatus.INVALID_COMMITTED]
    assert conflicted and all(j.commit_us is not None for j in conflicted)
    # conflicted journeys still observed a commit: latency defined for them
    assert result.report.all_peers_agree


@pytest.mark.parametrize("threshold", [1, 2, 3, 4])
def test_every_chain_envelope_carries_threshold_endorsements(threshold):
    # Hot keys make endorsers on different chain tips disagree, and jitter
    # reorders their replies; the client still sends at the arrival that
    # brings one payload group up to the threshold, never later.
    cfg = ExperimentConfig.from_dict({
        "duration_s": 3.0,
        "rate": {"total_tps": 150.0},
        "topology": {"peers": 4, "non_endorsing": 2},
        "policy": {"threshold": threshold},
        "latency": {"jitter_fraction": 0.9},
        "workload": {"n_accounts": 20,
                     "access": {"kind": "hotspot", "fraction_hot": 0.1,
                                "prob_hot": 0.9}},
    })
    result = run_simulation(cfg)
    assert result.report.mvcc_conflicts > 0
    envelopes = [env for block in result.sim.non_endorsing[0].ledger.blocks[1:]
                 for env in block.txns]
    assert envelopes
    assert all(len(set(env.endorsers)) == len(env.endorsers) == threshold
               and set(env.endorsers) <= set(cfg.peer_ids)
               for env in envelopes)
    assert cfg.envelope_bytes == (cfg.sizes.proposal
                                  + threshold * cfg.sizes.endorsement)
    # a client sends one proposal per endorsing peer per txn, and one
    # envelope of envelope_bytes per endorsed txn
    for client in result.sim.clients:
        journeys = client.journeys.values()
        endorsed = sum(j.endorsed_us is not None for j in journeys)
        assert traffic(client)["sent_bytes"] == (
            len(journeys) * cfg.peers * cfg.sizes.proposal
            + endorsed * cfg.envelope_bytes)


def test_a_client_holds_no_replies_past_the_endorse_deadline(monkeypatch):
    # Without timeout timers, nothing fires to release a dead journey's
    # replies; each submission drops the txns past their endorse deadline,
    # so no submission leaves replies held for a txn older than the timeout.
    cfg = ExperimentConfig.from_dict({
        "duration_s": 2.0, "rate": {"total_tps": 400.0},
        "topology": {"peers": 4, "clients": 2},
        "policy": {"threshold": 2}, "timeouts": {"endorse_s": 0.0035},
        "latency": {"jitter_fraction": 0.5}})
    held_ages = []
    handle = ClientNode.handle

    def spy(self, msg):
        handle(self, msg)
        if msg.kind is MessageKind.TIMER_FIRE and msg.body.tag == "submit":
            held_ages.extend(self.engine.now - self.journeys[txn].submit_us
                             for txn in self._collected)

    monkeypatch.setattr(ClientNode, "handle", spy)
    result = run_simulation(cfg)
    assert result.report.dropped_endorse > 100
    assert held_ages and max(held_ages) <= cfg.endorse_timeout_us


def test_a_truncated_run_closes_each_journey_by_its_deadline():
    # Whatever the journey's phase at the limit, it is dropped if and only if
    # that phase's deadline is at most the limit.
    cfg = ExperimentConfig.from_dict({
        "duration_s": 1.0, "drain_limit_s": 0.0,
        "rate": {"total_tps": 500.0},
        "topology": {"orderers": 2, "brokers": 3},
        "timeouts": {"endorse_s": 0.006, "broadcast_s": 0.05},
        "latency": {"jitter_fraction": 0.5}})
    result = run_simulation(cfg)
    limit = cfg.duration_us
    assert result.report.truncated
    seen = set()
    for j in result.journeys:
        if j.endorsed_us is None:
            deadline = j.submit_us + cfg.endorse_timeout_us
            dropped = JourneyStatus.DROPPED_ENDORSEMENT
        elif j.bcast_ack_us is None:
            deadline = j.endorsed_us + cfg.broadcast_timeout_us
            dropped = JourneyStatus.DROPPED_BROADCAST
        else:
            continue
        expected = dropped if deadline <= limit else JourneyStatus.IN_FLIGHT
        assert j.status is expected, j
        seen.add(expected)
    assert seen == {JourneyStatus.DROPPED_ENDORSEMENT,
                    JourneyStatus.DROPPED_BROADCAST, JourneyStatus.IN_FLIGHT}
