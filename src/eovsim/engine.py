"""Deterministic discrete-event engine and latency-modeled message fabric.

Simulated time is integer microseconds. A single heap-ordered event queue
drives every node state machine, so a run is an exact function of
(configuration, seed). A key is (fire_time, tie), and same-instant ties are
broken by source: tie = (rank << 40) | count, where the source is the node
that drew the key (a message's sender, the node itself for schedule), rank
is its registration order and count numbers its own draws.
So on a tie the lower-ranked source goes first, one source's keys keep
their draw order, and no tie depends on which node ran first on the host.
A run holds fewer than 2**24 nodes, and a node draws fewer than 2**40 keys.
A served message is handled at the instant its service completes (Node).

Jitter is drawn by the engine, never by a node, from one stream per directed
link (src, dst): a 64-bit linear congruential generator seeded from
fnv1a(f"{seed}:{src}:{dst}") and advanced only by that link's sends. So a
message's delay depends on the link's own send history alone, and adding or
removing traffic on one link re-times no other link.

A Message is delivered by reference and never mutated: its body is the object
it carries, a fan-out sends one Message to all, and a forward resends it. A
heap entry is the tuple (fire_time, tie, node, message); tie is unique, so a
comparison never reaches the Node. send draws a message's key and queues it;
draw only takes one, which queue_at queues at later, or never.
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

# A key's tie is (source rank << _COUNT_BITS) | the source's draw count.
_COUNT_BITS, MAX_NODES, _NO_LIMIT = 40, 1 << 24, 1 << 63


def fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class SimError(Exception):
    """Raised for engine misuse that indicates a simulation bug."""


class UnknownTargetError(SimError):
    """Scheduling, sending to or sending from a node not in the topology."""


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


# A completion event's tag: timer(_SVC_TAG, msg) hands msg to its node.
_SVC_TAG = "_svc"
_TIMER_FIRE = MessageKind.TIMER_FIRE


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
    config.py checks the values."""

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

    A message is handled when its service completes, at done = max(arrival,
    previous done) + service_us(msg), known at arrival. So a node without
    control messages handles it on arrival, with engine.now set to done, and
    draws its keys as a completion event at done would. That event is kept
    for a node with control messages (its service_us must not read the
    messages ahead), and for a message done past the run's time limit;
    behind it the node holds every later message but a control one.
    """

    def __init__(self, node_id: str, klass: NodeClass):
        self.id = node_id
        self.klass = klass
        self.id_fnv = fnv1a(node_id.encode())
        self.engine: Engine | None = None
        self._tie = 0  # the tie of this node's latest draw; set by add_node
        self._inline = type(self).is_control is Node.is_control
        self._free_at = 0  # when the node finishes the last message it took
        self._queued = False  # a completion event is queued
        self._held: deque[Message] = deque()  # behind a completion event

    def service_us(self, msg: Message) -> int:
        return 0

    def is_control(self, msg: Message) -> bool:
        """Control messages bypass the work queue, handled on arrival and
        charging no busy time (out-of-band work such as a broker's timers)."""
        return False

    def handle(self, msg: Message) -> None:
        raise NotImplementedError

    def deliver(self, msg: Message) -> None:
        if self._queued:  # a completion, or a message behind one
            body = msg.body
            if (msg.kind is _TIMER_FIRE and body.__class__ is Timer
                    and body.tag is _SVC_TAG):
                self._queued = False
                self.handle(body.arg)
                held = self._held
                while held and not self._queued:
                    self.deliver(held.popleft())
                return
        if not self._inline and self.is_control(msg):
            self.handle(msg)
            return
        if self._queued:
            self._held.append(msg)
            return
        engine = self.engine
        now = engine.now
        free = self._free_at
        done = self._free_at = (free if free > now else now) + self.service_us(msg)
        if self._inline and done <= engine._limit:
            engine.now = done
            self.handle(msg)
            engine.now = now
            if done > engine._handled_until:
                engine._handled_until = done
        else:
            self._queued = True
            engine.schedule(self.id, timer(_SVC_TAG, msg), done - now)


class Engine:
    def __init__(self, latency: LatencyModel, seed: int | str = 0):
        self.latency = latency
        self._seed = seed
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self._ranked: list[Node] = []  # the nodes in registration order
        self._heap: list[tuple[int, int, Node, Message]] = []
        self._dispatched: tuple = (0, -1)  # the event now (or last) dispatched
        self._limit = _NO_LIMIT  # the time limit of the run in progress
        self._handled_until = 0  # the latest instant a node handled a message
        self._events_dispatched = 0
        self._digest = _FNV_OFFSET
        # (src id, dst id) -> [src node, dst node, base_us, LCG state, msgs,
        # bytes]: each link owns its jitter stream and traffic counts.
        self._pairs: dict[tuple[str, str], list] = {}

    def add_node(self, node: Node) -> None:
        """Register node; its rank is the number registered before it."""
        if node.id in self.nodes:
            raise SimError(f"duplicate node id {node.id!r}")
        if len(self._ranked) >= MAX_NODES:
            raise SimError(f"a run holds at most {MAX_NODES} nodes")
        node.engine = self
        node._tie = len(self._ranked) << _COUNT_BITS
        self.nodes[node.id] = node
        self._ranked.append(node)

    def schedule(self, target: str, payload: Message, delay_us: int) -> None:
        """Enqueue payload for target at now + delay_us; target draws the key."""
        if delay_us < 0:
            raise SimError(f"negative delay {delay_us}")
        node = self.nodes.get(target)
        if node is None:
            raise UnknownTargetError(f"unknown target node {target!r}")
        node._tie += 1
        heappush(self._heap, (self.now + delay_us, node._tie, node, payload))

    def transit_us(self, src: str, dst: str, size_bytes: int,
                   extra_delay_us: int = 0) -> int:
        """The delay of a size_bytes message sent now from src to dst; draws
        the link's jitter and counts the message on the link, but no key."""
        return self._transit(self._link(src, dst), size_bytes, extra_delay_us)

    def _link(self, src: str, dst: str) -> list:
        link = self._pairs.get((src, dst))
        if link is None:
            if src == dst:
                raise SimError(f"loopback send on {src!r}")
            src_node, dst_node = self.nodes.get(src), self.nodes.get(dst)
            if src_node is None or dst_node is None:
                raise UnknownTargetError(f"unknown node on link {src!r} -> {dst!r}")
            link = self._pairs[src, dst] = [
                src_node, dst_node,
                self.latency.base_for(src_node.klass, dst_node.klass),
                fnv1a(f"{self._seed}:{src}:{dst}".encode()), 0, 0]
        return link

    def _transit(self, link: list, size_bytes: int, extra_delay_us: int) -> int:
        base, state = link[2], link[3]
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
        link[3] = state  # a refused send leaves the link's stream as it was
        link[4] += 1
        link[5] += size_bytes
        return delay

    def send(self, src: str, dst: str, msg: Message,
             extra_delay_us: int = 0) -> None:
        """Deliver msg from src to dst after transit_us; src draws the key."""
        link = self._pairs.get((src, dst)) or self._link(src, dst)
        delay = self._transit(link, msg.size_bytes, extra_delay_us)
        src_node = link[0]
        src_node._tie += 1
        heappush(self._heap, (self.now + delay, src_node._tie, link[1], msg))

    def draw(self, src: str, dst: str, size_bytes: int) -> tuple[int, int]:
        """The key send would draw for a size_bytes message; queues nothing."""
        link = self._pairs.get((src, dst)) or self._link(src, dst)
        delay = self._transit(link, size_bytes, 0)
        src_node = link[0]
        src_node._tie += 1
        return self.now + delay, src_node._tie

    def queue_at(self, key: tuple, node: Node, payload: Message) -> None:
        """Enqueue payload for node at a key drawn earlier. Refused: a tie
        never drawn, a key before the instant being dispatched, or one at it
        that the dispatched event's source drew no later. A zero-delay key
        that a lower-ranked source draws now sorts first, and is taken."""
        time, tie = self._dispatched[:2]
        rank = key[1] >> _COUNT_BITS
        if (rank >= len(self._ranked) or key[1] > self._ranked[rank]._tie
                or key[0] < time or key[0] == time and key[1] <= tie
                and rank == tie >> _COUNT_BITS):
            raise SimError(f"key {key} is undrawn or not after the current one")
        heappush(self._heap, (key[0], key[1], node, payload))

    def traffic(self) -> dict[str, dict[str, int]]:
        """Every node's sent and received messages and bytes, from its links."""
        counts = {node_id: dict.fromkeys(("sent_msgs", "sent_bytes", "recv_msgs",
                                          "recv_bytes"), 0) for node_id in self.nodes}
        for (src, dst), link in self._pairs.items():
            for node_id, way in ((src, "sent"), (dst, "recv")):
                counts[node_id][way + "_msgs"] += link[4]
                counts[node_id][way + "_bytes"] += link[5]
        return counts

    def run_until_quiescent(self, time_limit_us: int | None = None) -> TraceSummary:
        """Dispatch events in (fire_time, tie) order until empty or the limit;
        at the limit the summary is flagged truncated and the rest stay queued.
        """
        heap, pop, prime, mask = self._heap, heappop, _FNV_PRIME, _MASK64
        events = self._events_dispatched
        digest = self._digest
        truncated = False
        limit = self._limit = (_NO_LIMIT if time_limit_us is None
                               else time_limit_us)
        try:
            while heap:
                if heap[0][0] > limit:
                    truncated = True
                    break
                fire_time, tie, node, msg = entry = pop(heap)
                self.now = fire_time
                self._dispatched = entry
                events += 1
                # FNV-1a over (fire_time, tie, node id), each in [0, 2**64)
                digest = ((digest ^ fire_time) * prime) & mask
                digest = ((digest ^ tie) * prime) & mask
                digest = ((digest ^ node.id_fnv) * prime) & mask
                node.deliver(msg)
        finally:
            self._events_dispatched = events
            self._digest = digest
        return TraceSummary(
            events_dispatched=events,
            end_time_us=max(self.now, self._handled_until),
            dispatch_digest=f"{digest:016x}",
            truncated=truncated,
        )
