import pytest

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


def feed_endorsement(engine, client, txn_id, peer, payload=0, delay=0):
    e = Endorsement(txn_id=txn_id, peer=peer,
                    read_set=ReadSet([("k", (0, payload))]),
                    write_set=WriteSet())
    engine.schedule(client.id, Message(MessageKind.ENDORSEMENT, 64, e), delay)


def test_proposals_fan_out_to_all_peers_at_schedule_times():
    engine, client, _ = wire_client(rate=10.0, duration_us=300_000)
    client.arm()
    engine.run_until_quiescent(time_limit_us=1)
    # first submission went out at t=0 to every peer
    assert client.sent_msgs == 3
    engine.run_until_quiescent()
    assert [j.submit_us for j in client.journeys.values()] == [0, 100_000,
                                                               200_000]


def test_endorse_timeout_drops_and_late_replies_are_ignored():
    engine, client, orderer = wire_client(endorse_timeout_us=50_000)
    client.arm()
    txn = client.proposals[0].txn_id
    # two of three endorsements arrive in time, the last after the timeout
    feed_endorsement(engine, client, txn, "peer000", delay=10_000)
    feed_endorsement(engine, client, txn, "peer001", delay=20_000)
    feed_endorsement(engine, client, txn, "peer002", delay=60_000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    assert journey.status is JourneyStatus.DROPPED_ENDORSEMENT
    assert journey.endorsed_us is None
    assert not [m for _, m in orderer.got if m.kind is MessageKind.ENVELOPE]


def test_threshold_n_minus_one_tolerates_straggler():
    engine, client, orderer = wire_client(threshold=2,
                                          endorse_timeout_us=50_000)
    client.arm()
    txn = client.proposals[0].txn_id
    feed_endorsement(engine, client, txn, "peer000", delay=10_000)
    feed_endorsement(engine, client, txn, "peer001", delay=20_000)
    feed_endorsement(engine, client, txn, "peer002", delay=60_000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    # envelope produced the moment the policy turned satisfiable
    assert journey.endorsed_us == 20_000
    envelopes = [m for _, m in orderer.got if m.kind is MessageKind.ENVELOPE]
    assert len(envelopes) == 1
    assert envelopes[0].body.endorsers == ("peer000", "peer001")
    assert envelopes[0].size_bytes == \
        client.cfg.sizes.proposal + 2 * client.cfg.sizes.endorsement


def test_divergent_endorsements_never_satisfy_full_policy():
    engine, client, orderer = wire_client(endorse_timeout_us=50_000)
    client.arm()
    txn = client.proposals[0].txn_id
    feed_endorsement(engine, client, txn, "peer000", payload=1, delay=1000)
    feed_endorsement(engine, client, txn, "peer001", payload=1, delay=2000)
    feed_endorsement(engine, client, txn, "peer002", payload=2, delay=3000)
    engine.run_until_quiescent()
    assert client.journeys[txn].status is JourneyStatus.DROPPED_ENDORSEMENT


def test_duplicate_endorsements_from_same_peer_ignored():
    engine, client, orderer = wire_client(threshold=2)
    client.arm()
    txn = client.proposals[0].txn_id
    feed_endorsement(engine, client, txn, "peer000", delay=1000)
    feed_endorsement(engine, client, txn, "peer000", delay=2000)
    engine.run_until_quiescent(time_limit_us=3000)
    # one peer twice is one endorsement: threshold 2 is not met yet
    journey = client.journeys[txn]
    assert journey.status is None and journey.endorsed_us is None
    assert not [m for _, m in orderer.got if m.kind is MessageKind.ENVELOPE]


def test_broadcast_timeout_drops_journey():
    engine, client, _ = wire_client(broadcast_timeout_us=30_000)
    client.arm()
    txn = client.proposals[0].txn_id
    for peer in ("peer000", "peer001", "peer002"):
        feed_endorsement(engine, client, txn, peer, delay=1000)
    engine.run_until_quiescent()  # orderer is silent: no ack ever
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


def test_ack_then_commit_notice_completes_journey():
    engine, client, _ = wire_client()
    client.arm()
    txn = client.proposals[0].txn_id
    for peer in ("peer000", "peer001", "peer002"):
        feed_endorsement(engine, client, txn, peer, delay=1000)
    engine.schedule(client.id, Message(MessageKind.BROADCAST_ACK, 64, txn),
                    5000)
    engine.schedule(client.id, commit_notice(9000, txn, ValidationFlag.VALID),
                    12_000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    assert journey.status is JourneyStatus.COMMITTED
    assert journey.bcast_ack_us == 5000
    assert journey.commit_us == 9000  # the peer-side commit instant


def test_commit_notice_before_ack_is_stashed():
    engine, client, _ = wire_client()
    client.arm()
    txn = client.proposals[0].txn_id
    for peer in ("peer000", "peer001", "peer002"):
        feed_endorsement(engine, client, txn, peer, delay=1000)
    engine.schedule(client.id,
                    commit_notice(4000, txn, ValidationFlag.MVCC_CONFLICT),
                    5000)
    engine.schedule(client.id, Message(MessageKind.BROADCAST_ACK, 64, txn),
                    8000)
    engine.run_until_quiescent()
    journey = client.journeys[txn]
    assert journey.status is JourneyStatus.INVALID_COMMITTED
    assert journey.commit_us == 4000


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
        assert client.sent_bytes == (
            len(journeys) * cfg.peers * cfg.sizes.proposal
            + endorsed * cfg.envelope_bytes)
