"""Benchmark client: fixed-rate, endorsement-aware submission loop.

The schedule is open loop: proposal i is sent to all endorsing peers at
round(i * 1e6 / rate) microseconds after start, never waiting for earlier
transactions. Endorsement replies, broadcast acks and commit notices are
handled asynchronously; a transaction whose endorsements or broadcast ack
miss their timeout is discarded (never retried) and counted.

A transaction's journey is its only state record: while status is None the
journey is open, and its phase is the first unset instant (endorsed_us,
then bcast_ack_us); a closed journey ignores every later reply and timer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .committer import BlockCommitted, ValidationFlag
from .config import ExperimentConfig
from .endorser import policy_satisfied
from .engine import Message, MessageKind, Node, NodeClass, Timer, timer
from .ordering import Envelope
from .smallbank import Proposal


class JourneyStatus(enum.Enum):
    COMMITTED = "Committed"
    INVALID_COMMITTED = "InvalidCommitted"
    DROPPED_ENDORSEMENT = "DroppedEndorsement"
    DROPPED_BROADCAST = "DroppedBroadcast"
    IN_FLIGHT = "InFlight"


def submission_times(cfg: ExperimentConfig) -> list[int]:
    """One client's submission instants in microseconds; depend only on
    (rate, index)."""
    cap = cfg.total_txns_per_client
    times = []
    while cap is None or len(times) < cap:
        t = round(len(times) * 1_000_000 / cfg.per_client_tps)
        if t >= cfg.duration_us:
            break
        times.append(t)
    return times


@dataclass(slots=True)
class TxnJourney:
    txn_id: str
    client: str
    index: int
    op_name: str
    submit_us: int
    endorsed_us: int | None = None
    bcast_ack_us: int | None = None
    commit_us: int | None = None
    status: JourneyStatus | None = None


class ClientNode(Node):
    def __init__(self, node_id: str, cfg: ExperimentConfig,
                 proposals: list[Proposal]):
        super().__init__(node_id, NodeClass.CLIENT)
        self.cfg = cfg
        self.proposals = proposals
        self.peers = cfg.peer_ids  # the endorsing peers
        self.orderers = cfg.orderer_ids
        self.journeys: dict[str, TxnJourney] = {}
        self._collected: dict[str, dict] = {}  # txn -> {peer: Endorsement}
        self._early_commits: dict[str, tuple[int, bool]] = {}

    def arm(self) -> None:
        """Schedule the whole open-loop submission plan; call at time 0."""
        for i, t in enumerate(submission_times(self.cfg)):
            self.engine.schedule(self.id, timer("submit", i), t)

    # -- events --------------------------------------------------------------

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.TIMER_FIRE:
            self._on_timer(msg.body)
        elif msg.kind is MessageKind.ENDORSEMENT:
            self._on_endorsement(msg.body)
        elif msg.kind is MessageKind.BROADCAST_ACK:
            self._on_broadcast_ack(msg.body)
        elif msg.kind is MessageKind.COMMIT_NOTICE:
            self._on_block_committed(msg.body)

    def _on_timer(self, t: Timer) -> None:
        if t.tag == "submit":
            self._submit(t.arg)
        elif t.tag == "endorse_to":
            journey = self.journeys[t.arg]
            if journey.status is None and journey.endorsed_us is None:
                self._close(journey, JourneyStatus.DROPPED_ENDORSEMENT)
        elif t.tag == "bcast_to":
            journey = self.journeys[t.arg]
            if journey.status is None and journey.bcast_ack_us is None:
                self._close(journey, JourneyStatus.DROPPED_BROADCAST)

    def _submit(self, index: int) -> None:
        proposal = self.proposals[index]
        journey = TxnJourney(txn_id=proposal.txn_id, client=self.id, index=index,
                             op_name=proposal.op.kind.value,
                             submit_us=self.engine.now)
        self.journeys[proposal.txn_id] = journey
        self._collected[proposal.txn_id] = {}
        msg = Message(MessageKind.PROPOSAL, self.cfg.sizes.proposal, proposal)
        for peer in self.peers:
            self.engine.send(self.id, peer, msg)
        self.engine.schedule(self.id, timer("endorse_to", proposal.txn_id),
                             self.cfg.endorse_timeout_us)

    def _on_endorsement(self, endorsement) -> None:
        txn_id = endorsement.txn_id
        journey = self.journeys[txn_id]
        if journey.status is not None or journey.endorsed_us is not None:
            return  # late or duplicate reply for an endorsed or closed txn
        collected = self._collected[txn_id]
        if endorsement.peer in collected:
            return
        collected[endorsement.peer] = endorsement
        if len(collected) < self.cfg.policy_threshold:
            return  # cannot possibly satisfy the policy yet
        ok, witness = policy_satisfied(self.cfg.policy_threshold,
                                       collected.values())
        if not ok:
            return
        journey.endorsed_us = self.engine.now
        # This arrival brought the witness up to exactly `threshold`.
        envelope = Envelope(txn_id=txn_id,
                            endorsers=tuple(e.peer for e in witness),
                            read_set=witness[0].read_set,
                            write_set=witness[0].write_set,
                            client=self.id)
        orderer = self.orderers[journey.index % len(self.orderers)]
        self.engine.send(self.id, orderer, Message(
            MessageKind.ENVELOPE, self.cfg.envelope_bytes, envelope))
        del self._collected[txn_id]
        self.engine.schedule(self.id, timer("bcast_to", txn_id),
                             self.cfg.broadcast_timeout_us)

    def _on_broadcast_ack(self, txn_id: str) -> None:
        journey = self.journeys[txn_id]
        if journey.status is not None or journey.bcast_ack_us is not None:
            return
        journey.bcast_ack_us = self.engine.now
        if txn_id in self._early_commits:
            committed_at, valid = self._early_commits.pop(txn_id)
            self._finalize(journey, committed_at, valid)

    def _on_block_committed(self, body: BlockCommitted) -> None:
        for env, flag in zip(body.block.txns, body.block.flags):
            txn_id = env.txn_id
            journey = self.journeys.get(txn_id)  # None: another client's txn
            if journey is None or journey.status is not None:
                continue
            valid = flag is ValidationFlag.VALID
            if journey.bcast_ack_us is not None:
                self._finalize(journey, body.committed_at, valid)
            else:
                # Commit observed before the broadcast ack made it back;
                # resolve once the ack lands (or the timeout drops it).
                self._early_commits[txn_id] = (body.committed_at, valid)

    def _finalize(self, journey: TxnJourney, committed_at: int,
                  valid: bool) -> None:
        journey.commit_us = committed_at
        status = JourneyStatus.COMMITTED if valid else JourneyStatus.INVALID_COMMITTED
        self._close(journey, status)

    def _close(self, journey: TxnJourney, status: JourneyStatus) -> None:
        journey.status = status
        self._collected.pop(journey.txn_id, None)
        self._early_commits.pop(journey.txn_id, None)

    def finish_open_journeys(self) -> None:
        """Mark journeys still open at run end; they count as in flight."""
        for journey in self.journeys.values():
            if journey.status is None:
                journey.status = JourneyStatus.IN_FLIGHT
