"""Ordering service: orderer front-ends, a replicated log, and the block cutter.

Orderers are proxies: they forward client envelopes to the log leader and
ack the client once the record has committed (held by at least min_insync
brokers, the leader counting as one copy). A single static leader assigns
gap-free offsets; remaining replica copies continue in the background
without blocking commit. The followers are a queue recursion at the leader,
not event-driven nodes (see BrokerNode). The block cutter runs on the leader
so every orderer and peer observes one authoritative block sequence; a
deterministic designated orderer per block (round-robin by height) performs
the peer fan-out.

A log record is the client's Envelope, a commit notice the txn id, and a
block one BLOCK_DELIVER message sized at the leader; a replica copy and its
ack are sized but never sent as messages.
Every envelope of a run has the one size cfg.envelope_bytes, so each message
that carries envelopes, and the cutter's size test, is sized from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ExperimentConfig
from .engine import Message, MessageKind, Node, NodeClass, timer
from .ledger import Block, CutReason, ReadSet, WriteSet, hash_block


@dataclass(slots=True)
class Envelope:
    """Endorsed transaction: the read/write sets a policy-satisfying
    endorsement set agrees on, plus that set."""

    txn_id: str
    endorsements: tuple
    read_set: ReadSet
    write_set: WriteSet
    client: str


class BlockCutter:
    """Batches committed envelopes into blocks.

    A block is cut when the pending count reaches cfg.cutter.max_txn_count,
    when the pending envelopes' bytes reach cfg.cutter.max_block_bytes, or
    when the oldest pending envelope has aged cfg.cutter.timeout_us; the
    count condition is checked before size, and size before timeout. Timer
    epochs make stale timeout fires harmless.
    """

    def __init__(self, cfg: ExperimentConfig, next_height: int, prev_hash: str):
        self.cfg = cfg
        self.next_height = next_height
        self.prev_hash = prev_hash
        self.epoch = 0
        self._pending: list = []

    def add(self, env, now: int) -> tuple[Block | None, bool]:
        """Append a committed envelope; returns (block or None, arm_timer).

        arm_timer is True when this envelope started a fresh batch: the
        caller must schedule a timeout for exactly now + timeout_us.
        """
        arm = not self._pending
        self._pending.append(env)
        pending, cut = len(self._pending), self.cfg.cutter
        if pending >= cut.max_txn_count:
            return self._cut(CutReason.COUNT_THRESHOLD, now), False
        if pending * self.cfg.envelope_bytes >= cut.max_block_bytes:
            return self._cut(CutReason.SIZE_THRESHOLD, now), False
        return None, arm

    def on_timeout(self, epoch: int, now: int) -> Block | None:
        if epoch != self.epoch or not self._pending:
            return None
        return self._cut(CutReason.TIMEOUT, now)

    def _cut(self, reason: CutReason, now: int) -> Block:
        block = Block(height=self.next_height, prev_hash=self.prev_hash,
                      txns=self._pending, cut_reason=reason, created_at=now)
        self.prev_hash = hash_block(block)
        self.next_height += 1
        self.epoch += 1
        self._pending = []
        return block


class OrdererNode(Node):
    """Front-end proxy between clients and the replicated log.

    Counts every received envelope as an enqueue attempt and the commit of
    one of its own forwarded envelopes as an enqueue success, so the
    attempt/success ratio can be read off directly; window_attempts and
    window_successes count only the envelopes and commit notices handled
    before the window end, cfg.duration_us. A bounded input buffer of
    cfg.orderer_capacity envelopes (forwarded but not yet committed)
    refuses further envelopes when full; the client only ever observes
    that as a broadcast timeout.
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
    """Replicated-log broker; exactly one instance acts as the static leader.

    The leader assigns offsets and commits a record once cfg.min_insync
    copies exist, its own counting as one, always in gap-free offset order
    (a later offset reaching quorum first waits for its predecessors). On
    commit it notifies every orderer and feeds the block cutter; cut blocks
    go to the designated orderer for that height.

    The replication_factor - 1 followers are a queue recursion at the
    leader and receive no events. A follower serves only the leader's
    copies, one at a time for broker_append each, so at append the leader
    computes, per follower, the copy's arrival, the follower's completion
    done_k = max(arrive_k, done_k-1) + broker_append (Lindley's recursion)
    and the ack's arrival, each link drawing its own jitter through
    Engine.transit_us, which also moves both nodes' message counters. It
    then schedules one control timer per record, at the (min_insync - 1)-th
    earliest ack, and none when min_insync is 1.

    A follower serves its copies in send order, as Kafka's replica fetch
    does: that is a model statement. It equals an event-driven FIFO follower
    whenever copies reach it in send order, which holds when the leader's
    gap between appends, at least leader_demand_us, is at least twice a
    copy's jitter spread, as in every shipped config. A follower's copy and
    ack are counted at append, so a run cut by its time limit counts acks
    that the follower would not yet have sent.
    """

    def __init__(self, node_id: str, cfg: ExperimentConfig,
                 cutter: BlockCutter | None):
        super().__init__(node_id, NodeClass.BROKER)
        self.cfg = cfg
        self.followers = cfg.follower_ids
        self.orderers = cfg.orderer_ids
        self.cutter = cutter  # the leader's; None on every other broker
        # leader log state: a record's offset is its index in records
        self.records: list[Envelope] = []
        self.in_sync: list[bool] = []  # offset -> has min_insync copies
        self.committed_count = 0
        # follower -> when it finishes the last copy the leader sent it
        self._follower_free = dict.fromkeys(self.followers, 0)

    def service_us(self, msg: Message) -> int:
        # Only the leader is sent log records.
        if msg.kind is MessageKind.LOG_APPEND:
            return self.cfg.leader_demand_us
        return 0

    def is_control(self, msg: Message) -> bool:
        # Quorum and cut timers are handled like the replication and timer
        # threads of a real broker: they never wait behind queued produce
        # work. Service completions never get past deliver.
        return msg.kind is MessageKind.TIMER_FIRE

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.LOG_APPEND:
            self._leader_append(msg.body)
        elif msg.kind is MessageKind.TIMER_FIRE:
            tag, arg = msg.body
            if tag == "quorum":
                self.in_sync[arg] = True
                self._advance_commit()
            else:
                block = self.cutter.on_timeout(arg, self.engine.now)
                if block is not None:
                    self._emit_block(block)

    # -- leader ------------------------------------------------------------

    def _leader_append(self, env: Envelope) -> None:
        offset = len(self.records)
        self.records.append(env)
        quorum_at = self._replicate()
        self.in_sync.append(quorum_at is None)
        if quorum_at is None:
            self._advance_commit()
        else:
            self.engine.schedule(self.id, timer("quorum", offset),
                                 quorum_at - self.engine.now)

    def _replicate(self) -> int | None:
        """Copy the record just appended to every follower; return when the
        leader holds its (min_insync - 1)-th follower ack, or None when it
        needs none."""
        now, transit, me = self.engine.now, self.engine.transit_us, self.id
        cfg = self.cfg
        copy_bytes = cfg.envelope_bytes + cfg.sizes.log_overhead
        ack_bytes, append = cfg.sizes.log_ack, cfg.service.broker_append
        free_at = self._follower_free
        acks = []
        for follower, free in free_at.items():
            done = max(now + transit(me, follower, copy_bytes), free) + append
            free_at[follower] = done
            acks.append(done + transit(follower, me, ack_bytes))
        if cfg.min_insync == 1:
            return None
        return sorted(acks)[cfg.min_insync - 2]

    def _advance_commit(self) -> None:
        while (self.committed_count < len(self.records)
               and self.in_sync[self.committed_count]):
            self.committed_count += 1
            self._commit(self.records[self.committed_count - 1])

    def _commit(self, env: Envelope) -> None:
        notice = Message(MessageKind.COMMIT_NOTICE, self.cfg.sizes.notice,
                         env.txn_id)
        for orderer in self.orderers:
            self.engine.send(self.id, orderer, notice)
        block, arm = self.cutter.add(env, self.engine.now)
        if block is not None:
            self._emit_block(block)
        elif arm:
            self.engine.schedule(self.id, timer("cut", self.cutter.epoch),
                                 self.cfg.cutter.timeout_us)

    def _emit_block(self, block: Block) -> None:
        designated = self.orderers[block.height % len(self.orderers)]
        size = (self.cfg.sizes.block_header
                + len(block.txns) * self.cfg.envelope_bytes)
        self.engine.send(self.id, designated,
                         Message(MessageKind.BLOCK_DELIVER, size, block))
