"""Deterministic discrete-event engine and latency-modeled message fabric.

Simulated time is integer microseconds. A single heap-ordered event queue
drives every node state machine; ties on fire time are broken by a global
monotonically increasing sequence number, so a run is an exact function of
(configuration, seed). Jitter is drawn by the engine, never by a node, from
one stream per directed link (src, dst): a 64-bit linear congruential
generator seeded from fnv1a(f"{seed}:{src}:{dst}") and advanced only by that
link's sends. So a message's delay depends on the link's own send history
alone, and adding or removing traffic on one link re-times no other link.

A Message is delivered by reference and never mutated: its body is the object
it carries, a fan-out sends one Message to all, and a forward resends it.

A heap entry is the plain tuple (fire_time, seq, node, message). seq is
unique, so tuple comparison is decided by (fire_time, seq) and never reaches
the Node, which has no ordering. send draws a message's key and queues it;
draw and reserve only take keys, which queue_at queues at later, or never.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

US_PER_SECOND = 1_000_000

# FNV-1a constants, used for the stable dispatch digest (the builtin hash()
# is salted per process and would break cross-process reproducibility).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Knuth's MMIX multiplier and increment for the per-link jitter streams.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407


def fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class SimError(Exception):
    """Raised for engine misuse that indicates a simulation bug."""


class UnknownTargetError(SimError):
    """Scheduling, sending to or sending from a node id that is not in the
    topology."""


class MessageKind(enum.Enum):
    PROPOSAL = "Proposal"
    ENVELOPE = "Envelope"
    LOG_APPEND = "LogAppend"
    BLOCK_DELIVER = "BlockDeliver"
    COMMIT_NOTICE = "CommitNotice"
    BROADCAST_ACK = "BcastAck"
    TIMER_FIRE = "TimerFire"


@dataclass(slots=True)
class Message:
    kind: MessageKind
    size_bytes: int
    body: object

    def __post_init__(self):
        if self.kind is not MessageKind.TIMER_FIRE and self.size_bytes <= 0:
            raise SimError(f"{self.kind.value} message must have size_bytes > 0")
        if self.size_bytes < 0:
            raise SimError("size_bytes must be non-negative")


class Timer(NamedTuple):
    """Body payload for TIMER_FIRE messages; tag routes it inside the node."""

    tag: str
    arg: object = None


def timer(tag: str, arg: object = None) -> Message:
    return Message(MessageKind.TIMER_FIRE, 0, Timer(tag, arg))


_SVC_TAG = "_svc"
# The one service-completion message every node schedules to itself.
_SERVICE_DONE = timer(_SVC_TAG)


class NodeClass(enum.Enum):
    CLIENT = "client"
    PEER = "peer"
    ORDERER = "orderer"
    BROKER = "broker"


@dataclass
class LatencyModel:
    """Delivery delay = base(src class, dst class) + size * per_byte + jitter.

    base_us maps (src, dst) NodeClass pairs, both orders listed, to
    microseconds; pairs not listed fall back to default_us. With
    jitter_fraction == 0 the delay is a pure function of (classes, size).
    The values are checked by config.py.
    """

    base_us: dict[tuple[NodeClass, NodeClass], int]
    default_us: int
    per_byte_ns: int
    jitter_fraction: float

    def base_for(self, src: NodeClass, dst: NodeClass) -> int:
        return self.base_us.get((src, dst), self.default_us)


@dataclass(slots=True)
class TraceSummary:
    events_dispatched: int
    end_time_us: int
    dispatch_digest: str
    truncated: bool


class Node:
    """Base state machine: a single-server FIFO work queue.

    Each delivered message waits for the node to be idle, occupies it for
    service_us(msg), and is handled when that service completes; the node is
    busy exactly while a message is in service. Zero-service messages on an
    idle node are handled inline without a completion event.
    """

    def __init__(self, node_id: str, klass: NodeClass):
        self.id = node_id
        self.klass = klass
        self.id_fnv = fnv1a(node_id.encode())
        self.engine: Engine | None = None
        self.sent_msgs = 0
        self.sent_bytes = 0
        self.recv_msgs = 0
        self.recv_bytes = 0
        self._work: deque[Message] = deque()
        self._in_service: Message | None = None

    # -- service discipline ------------------------------------------------

    def service_us(self, msg: Message) -> int:
        return 0

    def is_control(self, msg: Message) -> bool:
        """Control messages bypass the work queue and are handled on arrival
        (out-of-band bookkeeping such as a broker's timers); they must not
        charge busy time."""
        return False

    def handle(self, msg: Message) -> None:
        raise NotImplementedError

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


class Engine:
    def __init__(self, latency: LatencyModel, seed: int | str = 0):
        self.latency = latency
        self._seed = seed
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self._heap: list[tuple[int, int, Node, Message]] = []
        self._seq = 0
        self._dispatch_seq = 0  # seq of the event now (or last) dispatched
        self._events_dispatched = 0
        self._digest = _FNV_OFFSET
        # (src id, dst id) -> [src node, dst node, base, jitter state]: base_us
        # is fixed for a run, while the per-byte and jitter terms are read on
        # every send; the state is the link's LCG value, one int per link.
        self._pairs: dict[tuple[str, str], list] = {}

    def add_node(self, node: Node) -> None:
        if node.id in self.nodes:
            raise SimError(f"duplicate node id {node.id!r}")
        node.engine = self
        self.nodes[node.id] = node

    def schedule(self, target: str, payload: Message, delay_us: int) -> None:
        """Enqueue payload for target at now + delay_us."""
        if delay_us < 0:
            raise SimError(f"negative delay {delay_us}")
        node = self.nodes.get(target)
        if node is None:
            raise UnknownTargetError(f"unknown target node {target!r}")
        self._seq += 1
        heappush(self._heap, (self.now + delay_us, self._seq, node, payload))

    def transit_us(self, src: str, dst: str, size_bytes: int,
                   extra_delay_us: int = 0) -> int:
        """The delay of a size_bytes message sent now from src to dst.

        Draws the link's jitter and counts the message as sent by src and
        received by dst, but schedules nothing: send schedules the message,
        and a node that models its receiver itself calls this alone. The
        network is lossless; drops only ever appear as timeouts at the
        application layer.
        """
        pair = self._pairs.get((src, dst))
        if pair is None:
            if src == dst:
                raise SimError(f"loopback send on {src!r}")
            src_node = self.nodes.get(src)
            if src_node is None:
                raise UnknownTargetError(f"unknown source node {src!r}")
            dst_node = self.nodes.get(dst)
            if dst_node is None:
                raise UnknownTargetError(f"unknown destination node {dst!r}")
            pair = self._pairs[src, dst] = [
                src_node, dst_node,
                self.latency.base_for(src_node.klass, dst_node.klass),
                fnv1a(f"{self._seed}:{src}:{dst}".encode())]
        src_node, dst_node, base, state = pair
        latency = self.latency
        delay = base + size_bytes * latency.per_byte_ns // 1000
        jitter = latency.jitter_fraction
        if jitter > 0.0:
            spread = int(delay * jitter)
            if spread > 0:
                # the high 32 bits of the next state, scaled onto
                # [-spread, spread]
                state = (state * _LCG_MUL + _LCG_INC) & _MASK64
                delay += ((state >> 32) * (2 * spread + 1) >> 32) - spread
        delay += extra_delay_us
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        pair[3] = state  # a refused send leaves the link's stream as it was
        src_node.sent_msgs += 1
        src_node.sent_bytes += size_bytes
        dst_node.recv_msgs += 1
        dst_node.recv_bytes += size_bytes
        return delay

    def send(self, src: str, dst: str, msg: Message,
             extra_delay_us: int = 0) -> None:
        """Deliver msg from src to dst after transit_us."""
        delay = self.transit_us(src, dst, msg.size_bytes, extra_delay_us)
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, self.nodes[dst], msg))

    def draw(self, src: str, dst: str, size_bytes: int) -> tuple[int, int]:
        """The key (fire_time, seq) send would give a size_bytes message from
        src to dst now, drawn as send draws it; nothing is queued."""
        delay = self.transit_us(src, dst, size_bytes)
        self._seq += 1
        return self.now + delay, self._seq

    def reserve(self, count: int) -> int:
        """Take the next count seqs for keys queued later; returns the first."""
        self._seq += count
        return self._seq - count + 1

    def queue_at(self, key: tuple, node: Node, payload: Message) -> None:
        """Enqueue payload for node at a key drawn earlier. A key at or
        before the event being dispatched, or one never drawn, is refused."""
        if key <= (self.now, self._dispatch_seq) or key[1] > self._seq:
            raise SimError(f"key {key} is undrawn or not after the current one")
        heappush(self._heap, (key[0], key[1], node, payload))

    def run_until_quiescent(self, time_limit_us: int | None = None) -> TraceSummary:
        """Dispatch events in (fire_time, seq) order until empty or the limit.

        Hitting the limit is not an error; the summary is flagged truncated
        and remaining events stay queued.
        """
        heap, pop, prime, mask = self._heap, heappop, _FNV_PRIME, _MASK64
        events = self._events_dispatched
        digest = self._digest
        truncated = False
        try:
            while heap:
                if time_limit_us is not None and heap[0][0] > time_limit_us:
                    truncated = True
                    break
                fire_time, seq, node, msg = pop(heap)
                self.now = fire_time
                self._dispatch_seq = seq
                events += 1
                # FNV-1a over (fire_time, seq, node id), each in [0, 2**64)
                digest = ((digest ^ fire_time) * prime) & mask
                digest = ((digest ^ seq) * prime) & mask
                digest = ((digest ^ node.id_fnv) * prime) & mask
                node.deliver(msg)
        finally:
            self._events_dispatched = events
            self._digest = digest
        return TraceSummary(
            events_dispatched=events,
            end_time_us=self.now,
            dispatch_digest=f"{digest:016x}",
            truncated=truncated,
        )
