"""Ordering service: orderer front-ends, the log leader, and the block cutter.

Orderers are proxies: they forward client envelopes to the log leader and
ack the client once the record has committed (held by at least min_insync
brokers, the leader's own copy the first of them). The one static leader,
the only BrokerNode, commits each record at its append, in append order,
and runs the block cutter, so every node sees one block sequence; a
designated orderer per block (round-robin by height) fans it out to the
peers. The followers are a queue recursion at the leader (see BrokerNode),
and every other broker is a bare Node, a link endpoint.

A log record is the client's Envelope, a commit notice the txn id, and a
block one BLOCK_DELIVER message sized at the leader; a replica copy and its
ack are sized but never sent. Every envelope has the one size
cfg.envelope_bytes, which sizes each message that carries envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ExperimentConfig
from .engine import Message, MessageKind, Node, NodeClass, timer
from .ledger import Block, CutReason, ReadSet, WriteSet, hash_block


@dataclass(slots=True)
class Envelope:
    """Endorsed transaction: the one read/write set payload that a
    policy-satisfying set of endorsements agrees on, and the ids of the
    peers that endorsed it, as a Fabric envelope carries one proposal
    response payload and its endorsers' signatures."""

    txn_id: str
    endorsers: tuple
    read_set: ReadSet
    write_set: WriteSet
    client: str


class BlockCutter:
    """Batches committed envelopes into blocks.

    A block is cut when the pending count reaches cfg.cutter.max_txn_count,
    when the pending envelopes' bytes reach cfg.cutter.max_block_bytes (the
    count checked first), or at the batch's deadline, cfg.cutter.timeout_us
    after its first envelope; a stale timeout finds a later deadline.
    """

    def __init__(self, cfg: ExperimentConfig, next_height: int, prev_hash: str):
        self.cfg = cfg
        self.next_height = next_height
        self.prev_hash = prev_hash
        self._deadline = 0  # the pending batch's timeout instant
        self._pending: list = []

    def add(self, env, now: int) -> tuple[Block | None, bool]:
        """Append an envelope committed at now; returns (block or None, arm),
        arm True if it started a batch, whose deadline is now + timeout_us."""
        arm = not self._pending
        if arm:
            self._deadline = now + self.cfg.cutter.timeout_us
        self._pending.append(env)
        pending, cut = len(self._pending), self.cfg.cutter
        if pending >= cut.max_txn_count:
            return self._cut(CutReason.COUNT_THRESHOLD, now), False
        if pending * self.cfg.envelope_bytes >= cut.max_block_bytes:
            return self._cut(CutReason.SIZE_THRESHOLD, now), False
        return None, arm

    def on_timeout(self, now: int) -> Block | None:
        """Cut the pending batch at its deadline if now has reached it."""
        if not self._pending or now < self._deadline:
            return None
        return self._cut(CutReason.TIMEOUT, self._deadline)

    def _cut(self, reason: CutReason, now: int) -> Block:
        block = Block(height=self.next_height, prev_hash=self.prev_hash,
                      txns=self._pending, cut_reason=reason, created_at=now)
        self.prev_hash = hash_block(block)
        self.next_height += 1
        self._pending = []
        return block


class OrdererNode(Node):
    """Front-end proxy between clients and the replicated log.

    Each received envelope is an enqueue attempt, and the commit of one it
    forwarded an enqueue success; the window counters count only those
    handled before the window end, cfg.duration_us. A buffer of
    cfg.orderer_capacity envelopes forwarded but not yet committed refuses
    further envelopes when full, which a client sees as a broadcast timeout.
    """

    def __init__(self, node_id: str, cfg: ExperimentConfig):
        super().__init__(node_id, NodeClass.ORDERER)
        self.cfg = cfg
        self.leader = cfg.leader_id
        self.peers = cfg.peer_ids  # the endorsing peers a block goes to
        self.enqueue_attempts = 0
        self.enqueue_successes = 0
        self.window_attempts = 0
        self.window_successes = 0
        self.refusals = 0
        self._awaiting_ack: dict[str, str] = {}  # txn -> client

    def service_us(self, msg: Message) -> int:
        if msg.kind is MessageKind.ENVELOPE:
            return self.cfg.service.orderer_forward
        if msg.kind is MessageKind.COMMIT_NOTICE:
            return self.cfg.service.orderer_notice
        # Block fan-out costs no service time; its pacing is the per-peer
        # stagger. A block that finds the orderer busy still waits in its
        # FIFO behind envelopes and notices.
        return 0

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.ENVELOPE:
            env: Envelope = msg.body
            self.enqueue_attempts += 1
            if self.engine.now < self.cfg.duration_us:
                self.window_attempts += 1
            if len(self._awaiting_ack) >= self.cfg.orderer_capacity:
                self.refusals += 1
                return
            self._awaiting_ack[env.txn_id] = env.client
            record = Message(MessageKind.LOG_APPEND, self.cfg.envelope_bytes
                             + self.cfg.sizes.log_overhead, env)
            self.engine.send(self.id, self.leader, record)
        elif msg.kind is MessageKind.COMMIT_NOTICE:
            # Every orderer hears every commit; only the forwarder awaits it.
            client = self._awaiting_ack.pop(msg.body, None)
            if client is not None:
                self.enqueue_successes += 1
                if self.engine.now < self.cfg.duration_us:
                    self.window_successes += 1
                ack = Message(MessageKind.BROADCAST_ACK, self.cfg.sizes.notice,
                              msg.body)
                self.engine.send(self.id, client, ack)
        elif msg.kind is MessageKind.BLOCK_DELIVER:
            stagger = self.cfg.service.orderer_deliver_stagger
            for i, peer in enumerate(self.peers):
                self.engine.send(self.id, peer, msg, extra_delay_us=i * stagger)


class BrokerNode(Node):
    """The replicated log's static leader, the run's only BrokerNode.

    The leader keeps no log. A record commits once cfg.min_insync copies
    exist, the leader's own, held at append, the first of them, and never
    before the record ahead of it, since a partition's high watermark only
    moves forward. So at append the leader knows record k's commit instant,
    commit_k = max(quorum_k, commit_k-1), and commits the record then, each
    message delayed to its instant: it cuts a batch due by commit_k, so a
    commit exactly at a deadline starts the next batch, then notifies every
    orderer and feeds the cutter. A "cut" timer cuts a batch at its deadline
    if no record appended by then commits at or past it.

    The replication_factor - 1 followers are a queue recursion at the
    leader and receive no events: at append the leader computes, per
    follower, the copy's arrival, the follower's completion
    done_k = max(arrive_k, done_k-1) + broker_append (Lindley's recursion)
    and the ack's arrival, each link drawing its own jitter and counting the
    message through Engine.transit_us. quorum_k is the min_insync-th
    earliest copy, the leader's own included.

    Followers serve copies in offset order, as Kafka's replica fetch does,
    checked against tests/reference.py. A copy, its ack and the record's
    notices and block are counted at append, so a run cut by its time limit
    counts messages not yet sent by then.
    """

    def __init__(self, cfg: ExperimentConfig, cutter: BlockCutter):
        super().__init__(cfg.leader_id, NodeClass.BROKER)
        self.cfg = cfg
        self.followers = cfg.follower_ids
        self.orderers = cfg.orderer_ids
        self.cutter = cutter
        self._last_commit_at = 0  # when the latest appended record commits
        # follower -> when it finishes the last copy the leader sent it
        self._follower_free = dict.fromkeys(self.followers, 0)

    def service_us(self, msg: Message) -> int:
        if msg.kind is MessageKind.LOG_APPEND:
            return self.cfg.leader_demand_us
        return 0

    def is_control(self, msg: Message) -> bool:
        # The cut timer is handled like a real broker's timer thread: it
        # never waits behind queued produce work. So each record is handled
        # at a completion event (Node), and service completions never get
        # past deliver.
        return msg.kind is MessageKind.TIMER_FIRE

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.LOG_APPEND:
            self._leader_append(msg.body)
        else:  # the cut timer
            self._emit_block(self.cutter.on_timeout(self.engine.now))

    def _leader_append(self, env: Envelope) -> None:
        self._last_commit_at = max(self._replicate(), self._last_commit_at)
        self._commit(env, self._last_commit_at)

    def _replicate(self) -> int:
        """Copy the record just appended to every follower; return when the
        leader holds min_insync copies of it, its own, held now, among them."""
        now, transit, me = self.engine.now, self.engine.transit_us, self.id
        cfg = self.cfg
        copy_bytes = cfg.envelope_bytes + cfg.sizes.log_overhead
        ack_bytes, append = cfg.sizes.log_ack, cfg.service.broker_append
        free_at = self._follower_free
        copies = [now]
        for follower, free in free_at.items():
            done = max(now + transit(me, follower, copy_bytes), free) + append
            free_at[follower] = done
            copies.append(done + transit(follower, me, ack_bytes))
        return sorted(copies)[cfg.min_insync - 1]

    def _commit(self, env: Envelope, at: int) -> None:
        now = self.engine.now
        self._emit_block(self.cutter.on_timeout(at))
        notice = Message(MessageKind.COMMIT_NOTICE, self.cfg.sizes.notice,
                         env.txn_id)
        for orderer in self.orderers:
            self.engine.send(self.id, orderer, notice, extra_delay_us=at - now)
        block, arm = self.cutter.add(env, at)
        self._emit_block(block)
        if arm:
            self.engine.schedule(self.id, timer("cut"),
                                 at + self.cfg.cutter.timeout_us - now)

    def _emit_block(self, block: Block | None) -> None:
        if block is None:
            return
        designated = self.orderers[block.height % len(self.orderers)]
        size = (self.cfg.sizes.block_header
                + len(block.txns) * self.cfg.envelope_bytes)
        self.engine.send(self.id, designated,
                         Message(MessageKind.BLOCK_DELIVER, size, block),
                         extra_delay_us=block.created_at - self.engine.now)
