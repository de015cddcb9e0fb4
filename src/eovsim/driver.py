"""Benchmark client: fixed-rate, endorsement-aware submission loop.

The schedule is open loop: proposal i goes to all endorsing peers at
round(i * 1e6 / rate) us, never waiting for earlier transactions; each
submission schedules the next. Peers hand replies
over at their drawn keys (offer), and a transaction takes one event, at the
first key where a payload group reaches the threshold. A transaction past
its endorse or broadcast deadline (checked with >= when next touched, and
at the run's end) is dropped, never retried.

A transaction's journey is its only state record: while status is None the
journey is open, and its phase is the first unset instant (endorsed_us,
then bcast_ack_us); a closed journey ignores every later reply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .committer import BlockCommitted, ValidationFlag
from .config import ExperimentConfig
from .endorser import Endorsement, policy_satisfied
from .engine import Message, MessageKind, Node, NodeClass, timer
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
        # open, unendorsed txn -> [due key, {peer: (key, Endorsement)}]
        self._collected: dict[str, list] = {}
        self._early_commits: dict[str, tuple[int, bool]] = {}

    def arm(self) -> None:
        """Plan the submissions and schedule the first (time 0)."""
        self._plan = submission_times(self.cfg)
        self._queue_submission(0)

    def _queue_submission(self, index: int) -> None:
        if index < len(self._plan):
            self.engine.schedule(self.id, timer("submit", index),
                                 self._plan[index] - self.engine.now)

    # -- events --------------------------------------------------------------

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.TIMER_FIRE:
            tag, arg = msg.body
            (self._submit if tag == "submit" else self._on_endorsed)(arg)
        elif msg.kind is MessageKind.BROADCAST_ACK:
            self._on_broadcast_ack(msg.body)
        elif msg.kind is MessageKind.COMMIT_NOTICE:
            self._on_block_committed(msg.body)

    def _submit(self, index: int) -> None:
        now = self.engine.now
        # Drop txns past their endorse deadline (replies at now came first)
        for txn_id in list(self._collected):
            if not self._expired(self.journeys[txn_id], now):
                break
        proposal = self.proposals[index]
        journey = TxnJourney(txn_id=proposal.txn_id, client=self.id, index=index,
                             op_name=proposal.op.kind.value, submit_us=now)
        self.journeys[proposal.txn_id] = journey
        self._collected[proposal.txn_id] = [None, {}]
        msg = Message(MessageKind.PROPOSAL, self.cfg.sizes.proposal, proposal)
        for peer in self.peers:
            self.engine.send(self.id, peer, msg)
        self._queue_submission(index + 1)

    def offer(self, key: tuple[int, int], endorsement: Endorsement) -> None:
        """Take a peer's reply, arriving at key (Engine.draw)."""
        held = self._collected.get(endorsement.txn_id)
        if held is None or endorsement.peer in held[1]:
            return  # an endorsed or closed txn; a peer answers once
        offers = held[1]
        offers[endorsement.peer] = (key, endorsement)
        threshold = self.cfg.policy_threshold
        if len(offers) < threshold:
            return  # cannot possibly satisfy the policy yet
        groups: dict[tuple, list] = {}
        for k, e in offers.values():
            groups.setdefault(e.payload_key(), []).append(k)
        due = min((sorted(keys)[threshold - 1] for keys in groups.values()
                   if len(keys) >= threshold), default=None)
        if due is not None and (held[0] is None or due < held[0]):
            held[0] = due  # the event at the old due key will find held gone
            self.engine.queue_at(due, self, timer("endorsed", endorsement.txn_id))

    def _on_endorsed(self, txn_id: str) -> None:
        held = self._collected.pop(txn_id, None)
        journey = self.journeys[txn_id]
        if held is None or self._expired(journey, self.engine.now):
            return  # endorsed or closed at an earlier key, or too late
        due, offers = held
        _, witness = policy_satisfied(self.cfg.policy_threshold, (
            e for k, e in offers.values() if k <= due))
        journey.endorsed_us = self.engine.now
        envelope = Envelope(txn_id=txn_id,
                            endorsers=tuple(e.peer for e in witness),
                            read_set=witness[0].read_set,
                            write_set=witness[0].write_set,
                            client=self.id)
        orderer = self.orderers[journey.index % len(self.orderers)]
        self.engine.send(self.id, orderer, Message(
            MessageKind.ENVELOPE, self.cfg.envelope_bytes, envelope))

    def _on_broadcast_ack(self, txn_id: str) -> None:
        journey = self.journeys[txn_id]
        if (journey.status is not None or journey.bcast_ack_us is not None
                or self._expired(journey, self.engine.now)):
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
            elif not self._expired(journey, self.engine.now):
                # Commit observed before the broadcast ack made it back;
                # resolve once the ack lands (or its deadline passes).
                self._early_commits[txn_id] = (body.committed_at, valid)

    def _expired(self, journey: TxnJourney, end: int) -> bool:
        """Close the open journey if its phase's deadline is at most end."""
        if journey.endorsed_us is None:
            deadline = journey.submit_us + self.cfg.endorse_timeout_us
            status = JourneyStatus.DROPPED_ENDORSEMENT
        elif journey.bcast_ack_us is None:
            deadline = journey.endorsed_us + self.cfg.broadcast_timeout_us
            status = JourneyStatus.DROPPED_BROADCAST
        else:
            return False
        if deadline <= end:
            self._close(journey, status)
        return journey.status is not None

    def _finalize(self, journey: TxnJourney, committed_at: int,
                  valid: bool) -> None:
        journey.commit_us = committed_at
        status = JourneyStatus.COMMITTED if valid else JourneyStatus.INVALID_COMMITTED
        self._close(journey, status)

    def _close(self, journey: TxnJourney, status: JourneyStatus) -> None:
        journey.status = status
        self._collected.pop(journey.txn_id, None)
        self._early_commits.pop(journey.txn_id, None)

    def finish_open_journeys(self, end: int) -> bool:
        """Close the journeys open at end: dropped past their deadline, else
        in flight. True if a deadline this client set lies past end."""
        cfg, late = self.cfg, False
        for j in self.journeys.values():
            late |= j.submit_us + cfg.endorse_timeout_us > end or (
                j.endorsed_us is not None
                and j.endorsed_us + cfg.broadcast_timeout_us > end)
            if j.status is None and not self._expired(j, end):
                j.status = JourneyStatus.IN_FLIGHT
        return late
