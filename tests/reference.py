"""Test-only reference pipeline: inline service, commit at append,
collection at the client and timeout deadlines undone.

Every node serves its messages as the engine did before nodes handled them
on arrival (Queued): a served message waits in the node's FIFO, and is
handled at a completion event scheduled when its service starts. So each
served message takes one more event, and handlers run later in host order;
under the tie rule every other event keeps its key. QueuedBroker also commits
each record at a "commit" timer at its commit instant, not at its append.

EventClient is the client as it was before replies were handed over at
their keys: each reply a peer offers becomes its own event, at the key the
peer drew for it, and is handled by the per-reply logic; each submission
schedules an endorse_to timer and each envelope a bcast_to timer, which fire
whether or not their txn has moved on; and the whole submission plan is
scheduled at time 0. A reply or ack that lands exactly at its deadline is
too late, as in production: the timer no longer outranks a peer's or an
orderer's message in the same us. Every event the production ClientNode
leaves out would sit at a key drawn where it is drawn today.

So production must agree with the Queued nodes on every output except
events_dispatched and dispatch_digest, and, in a run cut by its time limit,
per_node and end_time_us, since production counts a record's notices and
block on their links at its append; and with EventClient too except
end_time_us, since the timers fire past the last message production handles.
"""

from __future__ import annotations

import enum
from collections import deque

from eovsim import simulation
from eovsim.committer import BlockCommitted, Peer, ValidationFlag
from eovsim.driver import JourneyStatus, TxnJourney, submission_times
from eovsim.endorser import policy_satisfied
from eovsim.engine import Message, MessageKind, Node, NodeClass, Timer, timer
from eovsim.ordering import BrokerNode, Envelope, OrdererNode

# Report fields that count the host's events, not the system's.
EVENT_FIELDS = ("events_dispatched", "dispatch_digest")

# The one service-completion message a Queued node schedules to itself.
_SERVICE_DONE = timer("_done")


class Queued:
    """A node's service discipline as a FIFO work queue with a completion
    event per served message: each message waits for the node to be idle,
    occupies it for service_us(msg), and is handled when that service
    completes. Zero-service messages on an idle node are handled inline."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._work = deque()
        self._in_service = None

    def deliver(self, msg: Message) -> None:
        if msg is _SERVICE_DONE:
            done = self._in_service
            self._in_service = None
            self.handle(done)
        elif self.is_control(msg):
            self.handle(msg)
            return
        else:
            self._work.append(msg)
            if self._in_service is not None:
                return
        # The node is idle: serve queued work until a message needs service.
        work = self._work
        while work:
            msg = work.popleft()
            service = self.service_us(msg)
            if service > 0:
                self._in_service = msg
                self.engine.schedule(self.id, _SERVICE_DONE, service)
                return
            self.handle(msg)


class QueuedPeer(Queued, Peer):
    pass


class QueuedOrderer(Queued, OrdererNode):
    pass


class QueuedBroker(Queued, BrokerNode):
    """The leader as it was before it committed at append: a record's
    append schedules a "commit" control timer at its commit instant, where
    the record commits with its notices undelayed."""

    def _leader_append(self, env) -> None:
        self._last_commit_at = max(self._replicate(), self._last_commit_at)
        self.engine.schedule(self.id, timer("commit", env),
                             self._last_commit_at - self.engine.now)

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.TIMER_FIRE and msg.body.tag == "commit":
            self._commit(msg.body.arg, self.engine.now)
        else:
            super().handle(msg)


class ReferenceKind(enum.Enum):
    """The message kind production no longer sends."""

    ENDORSEMENT = "Endorsement"


class EventClient(Queued, Node):
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
        if (journey.status is not None or journey.endorsed_us is not None
                or self.engine.now >= journey.submit_us
                + self.cfg.endorse_timeout_us):
            return  # a reply at the deadline is too late, as in production
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
        if (journey.status is not None or journey.bcast_ack_us is not None
                or self.engine.now >= journey.endorsed_us
                + self.cfg.broadcast_timeout_us):
            return  # an ack at the deadline is too late, as in production
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


# simulation.build's node classes, each with its reference.
QUEUED = {"Peer": QueuedPeer, "OrdererNode": QueuedOrderer,
          "BrokerNode": QueuedBroker}
EVERY = QUEUED | {"ClientNode": EventClient}


def run_reference(cfg, nodes=EVERY, run=simulation.run_simulation):
    """run(cfg), simulation.run_simulation by default, with each node class
    named in nodes replaced by its reference."""
    production = {name: getattr(simulation, name) for name in nodes}
    for name, node_class in nodes.items():
        setattr(simulation, name, node_class)
    try:
        return run(cfg)
    finally:
        for name, node_class in production.items():
            setattr(simulation, name, node_class)
