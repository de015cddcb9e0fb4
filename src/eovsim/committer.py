"""The peer: it endorses what it is sent, then runs the validation phase
(policy check, version conflict check, commit with rollback of invalid
transactions) and gossips blocks. The policy is a threshold of endorsements
that agree, re-checked by counting the distinct endorser ids an envelope
carries beside its one payload. A reply is no event: the peer hands its
endorsement to the client (ClientNode.offer) at the reply's drawn key.

A block's txns are processed in order; txn i's conflict check sees the
writes of valid txns 0..i-1 of the block (first writer wins), and only valid
write sets are applied, versioned (height, txn index). The block's flags are
the one record of the outcomes. A non-endorsing peer gets each block from
its endorsing anchor peer, as the BLOCK_DELIVER message the anchor received.

Every peer pays validate_per_txn per txn in simulated time. On the host,
every peer's ledger is a height on the run's one chain (ledger.Ledger): the
first to commit a block appends and validates it, writing the chain's state;
every later peer checks that the chain holds that very block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .config import ExperimentConfig
from .endorser import endorse
from .engine import Message, MessageKind, Node, NodeClass
from .ledger import Block, Ledger
from .smallbank import Proposal


class ValidationFlag(enum.Enum):
    VALID = "Valid"
    POLICY_VIOLATION = "PolicyViolation"
    MVCC_CONFLICT = "MVCCConflict"


def validate_block(block: Block, threshold: int,
                   ledger: Ledger) -> list[ValidationFlag]:
    """Flag every transaction in the block, in order, and write each valid
    write set into the ledger's state at version (height, txn index). The
    ledger has just appended the block (commit_block), so it is at the
    chain's tip and reads the newest state.

    A txn is Valid iff its envelope names at least `threshold` distinct
    endorsers of its one payload and every read version matches the running
    state: the committed state, which holds the writes of earlier valid txns
    in this block.
    """
    flags = []
    for idx, env in enumerate(block.txns):
        if len(set(env.endorsers)) < threshold:
            flags.append(ValidationFlag.POLICY_VIOLATION)
            continue
        if any((entry[1] if (entry := ledger.read_state(key)) is not None
                else None) != expected for key, expected in env.read_set.reads):
            flags.append(ValidationFlag.MVCC_CONFLICT)
            continue
        ledger.apply_write_set(env.write_set, (block.height, idx))
        flags.append(ValidationFlag.VALID)
    return flags


def commit_block(ledger: Ledger, block: Block, threshold: int) -> None:
    """Advance the ledger to the block. The first ledger to reach the
    block's height appends it to the chain and validates it, writing its
    valid write sets into the chain's one state; every later ledger only
    moves its height."""
    if ledger.append_block(block):
        block.flags = validate_block(block, threshold, ledger)


@dataclass(slots=True)
class BlockCommitted:
    """Peer -> client commit notice: the block, whose flags give each of
    its txns' outcome."""

    committed_at: int
    block: Block


class Peer(Node):
    """A peer endorses each proposal it is sent, and validates and commits
    blocks in height order.

    A block for a future height (designated orderers rotate, and gossip
    copies jitter) is buffered, at zero service cost. Once its predecessor
    commits, the peer re-delivers it to itself, and it pays its validation
    service like any block delivery. Duplicate heights are dropped. After a
    commit the peer notifies each home client and forwards the block to each
    gossip target; a non-endorsing peer has neither.
    """

    def __init__(self, node_id: str, cfg: ExperimentConfig, ledger: Ledger):
        super().__init__(node_id, NodeClass.PEER)
        self.cfg = cfg
        self.ledger = ledger
        self.home_clients: list[str] = []
        self.gossip_targets: list[str] = []
        self._buffered: dict[int, Message] = {}  # height -> block message

    def service_us(self, msg: Message) -> int:
        if msg.kind is MessageKind.PROPOSAL:
            return self.cfg.service.endorse
        if msg.kind is MessageKind.BLOCK_DELIVER:
            block = msg.body
            if block.height == self.ledger.height + 1:
                return len(block.txns) * self.cfg.service.validate_per_txn
        return 0

    def handle(self, msg: Message) -> None:
        if msg.kind is MessageKind.PROPOSAL:
            proposal: Proposal = msg.body
            key = self.engine.draw(self.id, proposal.client,
                                   self.cfg.sizes.endorsement)
            self.engine.nodes[proposal.client].offer(
                key, endorse(proposal, self.ledger, self.id))
        elif msg.kind is MessageKind.BLOCK_DELIVER:
            height = msg.body.height
            if height == self.ledger.height + 1:
                self._commit(msg)
            elif height > self.ledger.height:  # a lower height is a duplicate
                self._buffered.setdefault(height, msg)

    def _commit(self, msg: Message) -> None:
        block = msg.body
        commit_block(self.ledger, block, self.cfg.policy_threshold)
        if self.home_clients:
            sizes = self.cfg.sizes
            size = sizes.notice + sizes.block_txn_summary * len(block.txns)
            notice = Message(MessageKind.COMMIT_NOTICE, size,
                             BlockCommitted(self.engine.now, block))
            for client in self.home_clients:
                self.engine.send(self.id, client, notice)
        for target in self.gossip_targets:
            self.engine.send(self.id, target, msg)
        successor = self._buffered.pop(self.ledger.height + 1, None)
        if successor is not None:
            self.engine.schedule(self.id, successor, 0)
