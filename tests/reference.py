"""Test-only reference pipeline: inline service, the follower recursion,
collection at the client and timeout deadlines undone; and the serial
validation oracle and traffic helper the tests share.

Every node serves its messages as the engine did before nodes handled them
on arrival (Queued): a served message waits in the node's FIFO, and is
handled at a completion event scheduled when its service starts. So each
served message takes one more event, and handlers run later in host order;
under the tie rule every other event keeps its key.

QueuedBroker is the log leader as an event-driven log. It keeps its records
by offset, sends each follower a copy as a message at the append, takes the
followers' acks as control messages, and commits the in-sync prefix of its
log in offset order, each record's notices sent undelayed at its commit.
ReferenceFollower, a Queued node, serves copies in offset order: a copy that
arrives before the one ahead of it waits for it, as under a Kafka replica
fetch. run_reference puts one in place of every bare broker Node that
simulation.build makes.

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
per_node and end_time_us, since production counts a record's copies, acks,
notices and block on their links at its append; and with EventClient too
except end_time_us, since the timers fire past the last message production
handles.
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


class ReferenceKind(enum.Enum):
    """The message kinds production never sends."""

    ENDORSEMENT = "Endorsement"
    LOG_ACK = "LogAck"


class QueuedBroker(Queued, BrokerNode):
    """The leader with an explicit offset log: a record's offset is its
    index in records. At its append the leader sends each follower a copy,
    and a record is in sync once min_insync brokers hold it, the leader
    first; the in-sync prefix of the log commits in offset order."""

    def __init__(self, cfg, cutter):
        super().__init__(cfg, cutter)
        self.records = []
        self._holders = []  # offset -> brokers holding the record
        self._committed = 0  # the length of the committed prefix

    def _leader_append(self, env) -> None:
        self.records.append(env)
        self._holders.append(1)
        copy = Message(MessageKind.LOG_APPEND, self.cfg.envelope_bytes
                       + self.cfg.sizes.log_overhead, len(self.records) - 1)
        for follower in self.followers:
            self.engine.send(self.id, follower, copy)
        self._commit_in_sync()

    def is_control(self, msg: Message) -> bool:
        return msg.kind is ReferenceKind.LOG_ACK or super().is_control(msg)

    def handle(self, msg: Message) -> None:
        if msg.kind is ReferenceKind.LOG_ACK:
            self._holders[msg.body] += 1
            self._commit_in_sync()
        else:
            super().handle(msg)

    def _commit_in_sync(self) -> None:
        holders = self._holders
        while (self._committed < len(holders)
               and holders[self._committed] >= self.cfg.min_insync):
            self._commit(self.records[self._committed], self.engine.now)
            self._committed += 1


class ReferenceFollower(Queued, Node):
    """A follower: it serves each copy for broker_append, in offset order,
    then acks it to the leader. A copy that arrives before the one ahead of
    it is held until that one has arrived."""

    def __init__(self, node_id, cfg):
        super().__init__(node_id, NodeClass.BROKER)
        self.cfg = cfg
        self.served = []  # offsets, in service order
        self.held = 0  # copies that arrived before the one ahead of them
        self._early = {}  # offset -> its copy, not yet in the work queue
        self._next = 0  # the offset the work queue takes next

    def service_us(self, msg: Message) -> int:
        return self.cfg.service.broker_append

    def deliver(self, msg: Message) -> None:
        if msg.kind is not MessageKind.LOG_APPEND:  # a service completion
            super().deliver(msg)
            return
        early = self._early
        if msg.body > self._next:
            self.held += 1
        early[msg.body] = msg
        while self._next in early:
            super().deliver(early.pop(self._next))
            self._next += 1

    def handle(self, msg: Message) -> None:
        self.served.append(msg.body)
        self.engine.send(self.id, self.cfg.leader_id, Message(
            ReferenceKind.LOG_ACK, self.cfg.sizes.log_ack, msg.body))


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
    named in nodes replaced by its reference; with the leader's, every bare
    broker Node that simulation.build makes is a ReferenceFollower."""
    if "BrokerNode" in nodes:
        nodes = nodes | {"Node": lambda node_id, klass:
                         ReferenceFollower(node_id, cfg)}
    production = {name: getattr(simulation, name) for name in nodes}
    for name, node_class in nodes.items():
        setattr(simulation, name, node_class)
    try:
        return run(cfg)
    finally:
        for name, node_class in production.items():
            setattr(simulation, name, node_class)


def oracle_block(state, block, threshold):
    """The flags of a block validated serially against state, {key: (value,
    version)}, which takes each valid write set as it goes."""
    flags = []
    for idx, env in enumerate(block.txns):
        if len(set(env.endorsers)) < threshold:
            flags.append(ValidationFlag.POLICY_VIOLATION)
        elif all((state[k][1] if k in state else None) == version
                 for k, version in env.read_set.reads):
            for k, v in env.write_set.writes:
                state[k] = (v, (block.height, idx))
            flags.append(ValidationFlag.VALID)
        else:
            flags.append(ValidationFlag.MVCC_CONFLICT)
    return flags


def traffic(node):
    """node's sent and received messages and bytes, as its links count them."""
    return node.engine.traffic()[node.id]
