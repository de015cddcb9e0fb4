import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import traffic

from eovsim import engine as engine_mod
from eovsim.engine import (Engine, LatencyModel, Message, MessageKind, Node,
                           NodeClass, SimError, UnknownTargetError, fnv1a,
                           timer)


class Recorder(Node):
    """Collects (time, body) for every handled message."""

    def __init__(self, node_id, klass=NodeClass.CLIENT, service=0):
        super().__init__(node_id, klass)
        self.service = service
        self.seen = []

    def service_us(self, msg):
        return self.service

    def handle(self, msg):
        self.seen.append((self.engine.now, msg.body))


class Rescheduler(Node):
    def __init__(self, node_id):
        super().__init__(node_id, NodeClass.CLIENT)
        self.fired = 0

    def handle(self, msg):
        self.fired += 1
        self.engine.schedule(self.id, timer("tick"), 1)


def flat_latency(base=1000, per_byte_ns=0, jitter=0.0):
    return LatencyModel(base_us={}, default_us=base, per_byte_ns=per_byte_ns,
                        jitter_fraction=jitter)


def make_engine(**kwargs):
    engine = Engine(flat_latency(**kwargs), seed=7)
    a = Recorder("a", NodeClass.CLIENT)
    b = Recorder("b", NodeClass.PEER)
    engine.add_node(a)
    engine.add_node(b)
    return engine, a, b


def test_schedule_zero_delay_fires_before_later_events():
    engine, a, _ = make_engine()
    engine.schedule("a", timer("first"), 0)
    engine.schedule("a", timer("second"), 5)
    engine.run_until_quiescent()
    assert [body.tag for _, body in a.seen] == ["first", "second"]


def test_schedule_two_second_timer():
    engine, a, _ = make_engine()
    engine.schedule("a", timer("block-timeout"), 2_000_000)
    engine.run_until_quiescent()
    assert a.seen == [(2_000_000, timer("block-timeout").body)]


def test_identical_fire_times_dispatch_in_schedule_order():
    engine, a, _ = make_engine()
    for i in range(10):
        engine.schedule("a", timer("t", i), 1234)
    engine.run_until_quiescent()
    assert [body.arg for _, body in a.seen] == list(range(10))


def test_schedule_unknown_target():
    engine, _, _ = make_engine()
    with pytest.raises(UnknownTargetError):
        engine.schedule("nobody", timer("x"), 0)


def test_send_from_unknown_source():
    engine, _, _ = make_engine()
    with pytest.raises(UnknownTargetError, match="ghost"):
        engine.send("ghost", "a", Message(MessageKind.PROPOSAL, 100, None))


def test_schedule_negative_delay():
    engine, _, _ = make_engine()
    with pytest.raises(SimError):
        engine.schedule("a", timer("x"), -1)


def test_send_base_latency_only():
    engine, _, b = make_engine(base=1000, per_byte_ns=0, jitter=0.0)
    engine.send("a", "b", Message(MessageKind.PROPOSAL, 100, "hi"))
    engine.run_until_quiescent()
    assert b.seen == [(1000, "hi")]


def test_send_per_byte_cost():
    # 1 us/byte on a 500-byte message on top of 1 ms base
    engine, _, b = make_engine(base=1000, per_byte_ns=1000, jitter=0.0)
    engine.send("a", "b", Message(MessageKind.ENVELOPE, 500, "env"))
    engine.run_until_quiescent()
    assert b.seen == [(1500, "env")]


def test_send_rejects_loopback_by_default():
    engine, _, _ = make_engine()
    with pytest.raises(SimError):
        engine.send("a", "a", Message(MessageKind.PROPOSAL, 10, "x"))


def test_send_updates_traffic_counters():
    engine, a, b = make_engine()
    engine.send("a", "b", Message(MessageKind.PROPOSAL, 77, "x"))
    assert (traffic(a)["sent_msgs"], traffic(a)["sent_bytes"]) == (1, 77)
    assert (traffic(b)["recv_msgs"], traffic(b)["recv_bytes"]) == (1, 77)


def test_jittered_delivery_is_deterministic_per_seed():
    def deliveries(seed):
        engine = Engine(flat_latency(base=1000, jitter=0.3), seed=seed)
        engine.add_node(Recorder("a", NodeClass.CLIENT))
        b = Recorder("b", NodeClass.PEER)
        engine.add_node(b)
        for i in range(50):
            engine.send("a", "b", Message(MessageKind.PROPOSAL, 10, i))
        engine.run_until_quiescent()
        return b.seen

    assert deliveries(1) == deliveries(1)
    assert deliveries(1) != deliveries(2)


def test_jitter_never_negative():
    model = flat_latency(base=100, jitter=0.99)
    engine = Engine(model, seed=3)
    engine.add_node(Recorder("a", NodeClass.CLIENT))
    b = Recorder("b", NodeClass.PEER)
    engine.add_node(b)
    for i in range(500):
        engine.send("a", "b", Message(MessageKind.PROPOSAL, 1, i))
    engine.run_until_quiescent()
    # every send left at time 0 with a delay of 100 +- 99 us
    assert len(b.seen) == 500
    assert all(1 <= t <= 199 for t, _ in b.seen)


def test_class_pair_latency_lookup():
    client, peer, broker = NodeClass.CLIENT, NodeClass.PEER, NodeClass.BROKER
    model = LatencyModel(base_us={(client, peer): 250, (peer, client): 250,
                                  (broker, broker): 10},
                         default_us=1000, per_byte_ns=0, jitter_fraction=0.0)
    assert model.base_for(NodeClass.CLIENT, NodeClass.PEER) == 250
    assert model.base_for(NodeClass.PEER, NodeClass.CLIENT) == 250
    assert model.base_for(NodeClass.BROKER, NodeClass.BROKER) == 10
    assert model.base_for(NodeClass.CLIENT, NodeClass.BROKER) == 1000


def test_run_empty_queue():
    engine, _, _ = make_engine()
    summary = engine.run_until_quiescent()
    assert summary.events_dispatched == 0
    assert summary.end_time_us == 0
    assert not summary.truncated


def test_self_rescheduling_timer_respects_limit():
    engine = Engine(flat_latency(), seed=0)
    node = Rescheduler("n")
    engine.add_node(node)
    engine.schedule("n", timer("tick"), 1)
    summary = engine.run_until_quiescent(time_limit_us=10)
    assert node.fired == 10
    assert summary.truncated
    assert summary.end_time_us == 10


def test_dispatch_digest_reproducible():
    def digest(seed):
        engine = Engine(flat_latency(jitter=0.2), seed=seed)
        engine.add_node(Recorder("a", NodeClass.CLIENT))
        engine.add_node(Recorder("b", NodeClass.PEER))
        for i in range(40):
            engine.send("a", "b", Message(MessageKind.PROPOSAL, 10 + i, i))
        return engine.run_until_quiescent().dispatch_digest

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_fifo_service_queue():
    engine = Engine(flat_latency(), seed=0)
    worker = Recorder("w", NodeClass.PEER, service=10)
    engine.add_node(worker)
    for i in range(3):
        engine.schedule("w", Message(MessageKind.PROPOSAL, 1, i), 0)
    engine.run_until_quiescent()
    # each message occupies the node for 10 us, handled at completion
    assert worker.seen == [(10, 0), (20, 1), (30, 2)]


def test_control_message_handled_on_arrival_while_busy():
    class AckBypass(Recorder):
        def is_control(self, msg):
            return msg.kind is MessageKind.BROADCAST_ACK

    engine = Engine(flat_latency(), seed=0)
    worker = AckBypass("w", NodeClass.BROKER, service=100)
    engine.add_node(worker)
    engine.schedule("w", Message(MessageKind.LOG_APPEND, 1, "first"), 0)
    engine.schedule("w", Message(MessageKind.LOG_APPEND, 1, "queued"), 10)
    engine.schedule("w", Message(MessageKind.BROADCAST_ACK, 1, "ack"), 30)
    summary = engine.run_until_quiescent()
    # the ack neither waits for nor delays the work in service
    assert worker.seen == [(30, "ack"), (100, "first"), (200, "queued")]
    assert summary.events_dispatched == 5  # three arrivals, two completions


def test_a_node_holds_its_backlog_behind_one_completion_event():
    class Counting(Recorder):
        """At each handle, records how many completion events it has queued
        and how many messages it holds behind them."""

        def is_control(self, msg):
            return msg.kind is MessageKind.BROADCAST_ACK

        def handle(self, msg):
            super().handle(msg)
            self.queued.append((sum(
                entry[2] is self and entry[3].kind is MessageKind.TIMER_FIRE
                for entry in self.engine._heap), len(self._held)))

    engine = Engine(flat_latency(), seed=0)
    worker = Counting("w", NodeClass.BROKER, service=100)
    worker.queued = []
    engine.add_node(worker)
    for i in range(20):
        engine.schedule("w", Message(MessageKind.LOG_APPEND, 1, i), 0)
    engine.schedule("w", Message(MessageKind.BROADCAST_ACK, 1, "ack"), 30)
    summary = engine.run_until_quiescent()
    # the backlog waits in the node, not the heap: at the ack, one record is
    # in service and the other 19 are held; each completion schedules the next
    assert worker.seen == [(30, "ack")] + [(100 * (i + 1), i)
                                           for i in range(20)]
    assert worker.queued == [(1, 19)] + [(0, 19 - i) for i in range(20)]
    assert summary.events_dispatched == 20 + 1 + 20


def test_zero_service_message_adds_no_completion_event():
    class Costed(Recorder):
        def service_us(self, msg):
            return msg.body[1]

    engine = Engine(flat_latency(), seed=0)
    worker = Costed("w", NodeClass.PEER)
    engine.add_node(worker)
    engine.schedule("w", Message(MessageKind.PROPOSAL, 1, ("idle", 0)), 5)
    engine.schedule("w", Message(MessageKind.PROPOSAL, 1, ("paid", 10)), 6)
    engine.schedule("w", Message(MessageKind.PROPOSAL, 1, ("behind", 0)), 7)
    summary = engine.run_until_quiescent()
    # zero-service work is handled on arrival when idle, and at the
    # completion of the work it queued behind otherwise
    assert worker.seen == [(5, ("idle", 0)), (16, ("paid", 10)),
                           (16, ("behind", 0))]
    assert summary.events_dispatched == 3  # three arrivals, no completion


def test_message_requires_positive_size():
    with pytest.raises(SimError):
        Message(MessageKind.PROPOSAL, 0, "x")
    Message(MessageKind.TIMER_FIRE, 0, "ok")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.sampled_from(["a", "b"])),
                min_size=1, max_size=60))
def test_dispatch_order_is_total(plan):
    engine, a, b = make_engine()
    order = []

    class Tracker(Recorder):
        def handle(self, msg):
            order.append((self.engine.now, msg.body))

    engine = Engine(flat_latency(), seed=0)
    engine.add_node(Tracker("a", NodeClass.CLIENT))
    engine.add_node(Tracker("b", NodeClass.PEER))
    for i, (delay, target) in enumerate(plan):
        engine.schedule(target, Message(MessageKind.TIMER_FIRE, 0, i), delay)
    engine.run_until_quiescent()
    times = [t for t, _ in order]
    assert times == sorted(times)
    # a schedule's source is its target: at equal times a (registered first)
    # goes before b, and each node's events keep their schedule order
    rank = {"a": 0, "b": 1}
    by_time = {}
    for t, body in order:
        by_time.setdefault(t, []).append((rank[plan[body][1]], body))
    for bodies in by_time.values():
        assert bodies == sorted(bodies)


class Sender(Node):
    """On each timer, sends its arg's (body, extra delay) to "t"."""

    def handle(self, msg):
        body, extra = msg.body.arg
        self.engine.send(self.id, "t", Message(MessageKind.PROPOSAL, 10, body),
                         extra_delay_us=extra)


def test_a_tie_at_a_third_node_does_not_depend_on_host_order():
    # p and q each send to t, arriving in the same us; either may run first
    # on the host. The lower-ranked source goes first either way.
    def arrivals(q_first):
        engine = Engine(flat_latency(base=100), seed=0)
        for node in (Sender("p", NodeClass.PEER), Sender("q", NodeClass.PEER),
                     Recorder("t", NodeClass.CLIENT)):
            engine.add_node(node)
        early, late = ("q", "p") if q_first else ("p", "q")
        engine.schedule(early, timer("go", (early, 50)), 0)
        engine.schedule(late, timer("go", (late, 0)), 50)
        engine.run_until_quiescent()
        return engine.nodes["t"].seen

    assert arrivals(q_first=False) == arrivals(q_first=True) == \
        [(150, "p"), (150, "q")]


def test_add_node_refuses_a_node_past_the_rank_bound(monkeypatch):
    monkeypatch.setattr(engine_mod, "MAX_NODES", 2)
    engine, _, _ = make_engine()  # two nodes, ranks 0 and 1
    with pytest.raises(SimError, match="at most 2 nodes"):
        engine.add_node(Recorder("c"))
    assert list(engine.nodes) == ["a", "b"]


class SendOnTimer(Node):
    def __init__(self, node_id):
        super().__init__(node_id, NodeClass.CLIENT)

    def handle(self, msg):
        # the body is the send instant, so the receiver can compare
        self.engine.send(self.id, "b",
                         Message(MessageKind.PROPOSAL, 10, self.engine.now))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5000), min_size=1, max_size=40),
       st.integers(0, 2**30))
def test_causality_delivery_never_precedes_send(delays, seed):
    engine = Engine(flat_latency(base=100, jitter=0.5), seed=seed)
    engine.add_node(SendOnTimer("a"))
    b = Recorder("b", NodeClass.PEER)
    engine.add_node(b)
    for d in delays:
        engine.schedule("a", timer("go", d), d)
    engine.run_until_quiescent()
    assert len(b.seen) == len(delays)
    assert all(delivered >= sent for delivered, sent in b.seen)


def link_stream(seed, src, dst):
    """Reference for one link's jitter: the LCG seeded from the link's key,
    mapped onto [-spread, spread] by its high 32 bits."""
    state = fnv1a(f"{seed}:{src}:{dst}".encode())

    def draw(spread):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 32) * (2 * spread + 1) // 2**32 - spread
    return draw


def test_each_link_draws_its_own_stream_in_its_send_order():
    client, peer, broker = NodeClass.CLIENT, NodeClass.PEER, NodeClass.BROKER
    # client -> orderer falls back to default_us: its small spreads are where
    # a draw of the wrong width most often differs
    model = LatencyModel(base_us={(client, peer): 300, (client, broker): 5000},
                         default_us=5, per_byte_ns=250, jitter_fraction=0.4)
    seed = 5
    engine = Engine(model, seed=seed)
    senders = {"a": Recorder("a", client), "e": Recorder("e", client)}
    receivers = {"b": Recorder("b", peer), "c": Recorder("c", broker),
                 "d": Recorder("d", NodeClass.ORDERER)}
    for node in (senders | receivers).values():
        engine.add_node(node)
    sizes = [1, 40, 333, 1000, 4096]
    plan = [("ae"[i % 7 % 2], "bcd"[i % 3], sizes[i % len(sizes)])
            for i in range(300)]
    for i, (src, dst, size) in enumerate(plan):
        engine.send(src, dst, Message(MessageKind.PROPOSAL, size, i))
    engine.run_until_quiescent()

    streams = {}
    expected = {}
    for i, (src, dst, size) in enumerate(plan):
        draw = streams.setdefault((src, dst), link_stream(seed, src, dst))
        delay = model.base_for(client, receivers[dst].klass) + size * 250 // 1000
        expected[i] = delay + draw(int(delay * 0.4))
    assert len(streams) == 6
    got = {body: t for node in receivers.values() for t, body in node.seen}
    assert got == expected, \
        "a link's delays no longer follow its own stream in its send order"


def test_an_extra_send_on_one_link_retimes_no_other_link():
    def arrivals(extra):
        engine = Engine(flat_latency(base=1000, per_byte_ns=100, jitter=0.3),
                        seed=3)
        for node_id in "abcd":
            engine.add_node(Recorder(node_id))
        links = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("d", "a")]
        for i in range(120):
            src, dst = links[i % len(links)]
            engine.send(src, dst, Message(MessageKind.PROPOSAL, 10 + i,
                                          (src, dst, i)))
            if i == extra:
                engine.send("a", "c", Message(MessageKind.PROPOSAL, 77,
                                              ("a", "c", "extra")))
        engine.run_until_quiescent()
        return {body: t for node in engine.nodes.values()
                for t, body in node.seen}

    plain, with_extra = arrivals(None), arrivals(40)
    assert len(with_extra) == len(plain) + 1
    changed = {body[:2] for body in plain if plain[body] != with_extra[body]}
    # later sends on a -> c draw later values of its stream; nothing else moves
    assert changed == {("a", "c")}


class Relay(Recorder):
    """Busy for 7 us per message, then passes it on until its hops run out."""

    def __init__(self, node_id, peer):
        super().__init__(node_id, NodeClass.PEER, service=7)
        self.peer = peer

    def handle(self, msg):
        super().handle(msg)
        if msg.body > 0:
            self.engine.send(self.id, self.peer,
                             Message(MessageKind.PROPOSAL, 50, msg.body - 1))


def relay_engine():
    engine = Engine(flat_latency(base=100, per_byte_ns=20, jitter=0.5), seed=9)
    engine.add_node(Relay("a", "b"))
    engine.add_node(Relay("b", "a"))
    for i in range(30):
        engine.send("a", "b", Message(MessageKind.PROPOSAL, 10 + i, 10),
                    extra_delay_us=13 * i)
    return engine


def test_run_split_by_time_limit_equals_one_run(monkeypatch):
    whole_engine = relay_engine()
    whole = whole_engine.run_until_quiescent()
    assert not whole.truncated and whole.events_dispatched > 300

    completions = []  # a message in service across a limit completes later
    schedule = Engine.schedule

    def spy(self, target, payload, delay_us):
        if payload.kind is MessageKind.TIMER_FIRE:
            completions.append(payload)
        schedule(self, target, payload, delay_us)
    monkeypatch.setattr(Engine, "schedule", spy)
    engine = relay_engine()
    for limit in (0, 150, 400, whole.end_time_us // 2):
        assert engine.run_until_quiescent(time_limit_us=limit).truncated
    rest = engine.run_until_quiescent()
    assert not rest.truncated and completions
    # every message is handled at the same instant, in the same order
    for node_id in "ab":
        assert engine.nodes[node_id].seen == whole_engine.nodes[node_id].seen
    assert rest.end_time_us == whole.end_time_us
    assert rest.events_dispatched == whole.events_dispatched + len(completions)


def test_send_with_negative_total_delay_changes_nothing():
    for jitter in (0.0, 0.3):
        engine, a, b = make_engine(base=1000, jitter=jitter)
        with pytest.raises(SimError):
            engine.send("a", "b", Message(MessageKind.PROPOSAL, 10, "x"),
                        extra_delay_us=-10**9)
        for node in (a, b):
            assert set(traffic(node).values()) == {0}
        assert engine.run_until_quiescent().events_dispatched == 0
        # nor does the refused send advance the link's jitter stream
        fresh, _, _ = make_engine(base=1000, jitter=jitter)
        assert (engine.transit_us("a", "b", 10)
                == fresh.transit_us("a", "b", 10))



# --- keys drawn ahead: draw and queue_at ---------------------------------------

def test_draw_moves_the_link_and_counters_exactly_as_send():
    # Engine x draws keys and queues each later; a fresh engine y sends at
    # once. The keys, the link's jitter stream and both nodes' counters agree.
    def engine_pair():
        engine, a, b = make_engine(base=1000, per_byte_ns=1000, jitter=0.5)
        engine.add_node(Recorder("c", NodeClass.PEER))
        return engine, a, b

    x, xa, xb = engine_pair()
    y, ya, yb = engine_pair()
    keys = [x.draw("a", "b", 10 + i) for i in range(20)]
    for i in range(20):
        y.send("a", "b", Message(MessageKind.PROPOSAL, 10 + i, i))
    for engine in (x, y):  # the link a->c is a stream of its own
        engine.send("a", "c", Message(MessageKind.PROPOSAL, 5, "other"))
    for i in reversed(range(20)):  # queued in any host order
        x.queue_at(keys[i], xb, Message(MessageKind.PROPOSAL, 10 + i, i))
    for engine in (x, y):  # and the a->b stream goes on where it was
        engine.send("a", "b", Message(MessageKind.PROPOSAL, 1, "next"))
    assert x.run_until_quiescent() == y.run_until_quiescent()
    assert xb.seen == yb.seen and len(xb.seen) == 21
    for p, q in ((xa, ya), (xb, yb)):
        assert traffic(p) == traffic(q)
    assert (traffic(xa)["sent_msgs"], traffic(xb)["recv_msgs"]) == (22, 21)


def take_ties(engine, node_id, count):
    """Draw node_id's next count ties without queueing a key; the first."""
    node = engine.nodes[node_id]
    node._tie += count
    return node._tie - count + 1


class KeyProbe(Node):
    """At its "probe" event, tries to queue an event at each of its keys."""

    def __init__(self, node_id, keys):
        super().__init__(node_id, NodeClass.CLIENT)
        self.keys = keys
        self.refused = []

    def handle(self, msg):
        if msg.body.tag == "probe":
            for key in self.keys:
                try:
                    self.engine.queue_at(key, self, timer("late", key))
                except SimError:
                    self.refused.append(key)


def probe_run(make_keys):
    """A run whose probe event has key (50, s + 1), s being a tie drawn
    before it; make_keys(s) gives the keys the probe tries."""
    engine = Engine(flat_latency(), seed=0)
    probe = KeyProbe("p", [])
    engine.add_node(probe)
    probe.keys = make_keys(take_ties(engine, "p", 1))
    engine.schedule("p", timer("probe"), 50)
    engine.schedule("p", timer("after"), 60)
    return engine.run_until_quiescent(), probe.refused


def test_queue_at_refuses_a_key_before_the_event_being_dispatched():
    plain, refused = probe_run(lambda s: [])
    assert refused == []
    summary, refused = probe_run(lambda s: [
        (49, s + 1),    # an earlier instant
        (50, s),        # this instant, a lower seq
        (50, s + 1),    # the event being dispatched
        (55, s + 9),    # a seq never drawn
    ])
    # every key is refused, and the run is as if none had been tried
    assert len(refused) == 4
    assert summary == plain


def test_queue_at_takes_a_key_a_lower_ranked_source_draws_at_this_instant():
    # With zero delay, a's key sorts before the event b is dispatching.
    engine = Engine(flat_latency(base=0), seed=0)
    a = Recorder("a")

    class Offer(Node):
        def handle(self, msg):
            engine.queue_at(engine.draw("a", "b", 1), a, timer("zero-delay"))
    engine.add_node(a)
    engine.add_node(Offer("b", NodeClass.PEER))
    engine.schedule("b", timer("go"), 50)
    engine.run_until_quiescent()
    assert a.seen == [(50, timer("zero-delay").body)]


def test_queue_at_between_runs_takes_only_keys_after_the_last_event():
    engine, a, _ = make_engine()
    first = take_ties(engine, "a", 2)
    engine.queue_at((0, first + 1), a, timer("second"))
    engine.queue_at((0, first), a, timer("first"))
    engine.run_until_quiescent()
    assert [body.tag for _, body in a.seen] == ["first", "second"]
    with pytest.raises(SimError):  # (0, first) has been dispatched
        engine.queue_at((0, first), a, timer("again"))
    engine.queue_at((0, take_ties(engine, "a", 1)), a, timer("third"))
    engine.run_until_quiescent()
    assert [body.tag for _, body in a.seen] == ["first", "second", "third"]
