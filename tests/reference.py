"""Test-only reference for the client: collection at the client and timeout
deadlines undone.

EventClient is the client as it was before replies were handed over at
their keys: each reply a peer offers becomes its own event, at the key the
peer drew for it, and is handled by the per-reply logic; each submission
schedules an endorse_to timer and each envelope a bcast_to timer, which fire
whether or not their txn has moved on; and the whole submission plan is
scheduled at time 0. Every event the production ClientNode leaves out would
sit at a key drawn where it is drawn today, so the two clients must agree
on every output except events_dispatched, dispatch_digest and end_time_us.
"""

from __future__ import annotations

import enum

from eovsim import simulation
from eovsim.committer import BlockCommitted, ValidationFlag
from eovsim.driver import JourneyStatus, TxnJourney, submission_times
from eovsim.endorser import policy_satisfied
from eovsim.engine import Message, MessageKind, Node, NodeClass, Timer, timer
from eovsim.ordering import Envelope

# Report fields that count or time the host's events, not the system's.
EVENT_FIELDS = ("events_dispatched", "dispatch_digest", "end_time_us")


class ReferenceKind(enum.Enum):
    """The message kind production no longer sends."""

    ENDORSEMENT = "Endorsement"


class EventClient(Node):
    def __init__(self, node_id, cfg, proposals):
        super().__init__(node_id, NodeClass.CLIENT)
        self.cfg = cfg
        self.proposals = proposals
        self.peers = cfg.peer_ids
        self.orderers = cfg.orderer_ids
        self.journeys: dict[str, TxnJourney] = {}
        self._collected: dict[str, dict] = {}  # txn -> {peer: Endorsement}
        self._early_commits: dict[str, tuple[int, bool]] = {}

    def arm(self) -> None:
        for i, t in enumerate(submission_times(self.cfg)):
            self.engine.schedule(self.id, timer("submit", i), t)

    def offer(self, key, endorsement) -> None:
        self.engine.queue_at(key, self, Message(
            ReferenceKind.ENDORSEMENT, self.cfg.sizes.endorsement,
            endorsement))

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.TIMER_FIRE:
            self._on_timer(msg.body)
        elif msg.kind is ReferenceKind.ENDORSEMENT:
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
        journey = TxnJourney(txn_id=proposal.txn_id, client=self.id,
                             index=index, op_name=proposal.op.kind.value,
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
            return
        collected = self._collected[txn_id]
        if endorsement.peer in collected:
            return
        collected[endorsement.peer] = endorsement
        if len(collected) < self.cfg.policy_threshold:
            return
        ok, witness = policy_satisfied(self.cfg.policy_threshold,
                                       collected.values())
        if not ok:
            return
        journey.endorsed_us = self.engine.now
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
            journey = self.journeys.get(env.txn_id)
            if journey is None or journey.status is not None:
                continue
            valid = flag is ValidationFlag.VALID
            if journey.bcast_ack_us is not None:
                self._finalize(journey, body.committed_at, valid)
            else:
                self._early_commits[env.txn_id] = (body.committed_at, valid)

    def _finalize(self, journey, committed_at, valid) -> None:
        journey.commit_us = committed_at
        self._close(journey, JourneyStatus.COMMITTED if valid
                    else JourneyStatus.INVALID_COMMITTED)

    def _close(self, journey, status) -> None:
        journey.status = status
        self._collected.pop(journey.txn_id, None)
        self._early_commits.pop(journey.txn_id, None)

    def finish_open_journeys(self, end) -> bool:
        """Every timer up to the run's end has fired: what is open is in
        flight. A timer past end is still queued, so the trace already
        counts the run as truncated."""
        for journey in self.journeys.values():
            if journey.status is None:
                journey.status = JourneyStatus.IN_FLIGHT
        return False


def run_reference(cfg):
    """simulation.run_simulation with every client an EventClient."""
    production = simulation.ClientNode
    simulation.ClientNode = EventClient
    try:
        return simulation.run_simulation(cfg)
    finally:
        simulation.ClientNode = production
