"""Unit tests for link serialization, delay and loss."""

import pytest

from repro.chaos.impairments import Impairment
from repro.errors import ConfigurationError
from repro.net.link import Link, LinkStats, batching_disabled
from repro.net.packet import Packet, PacketType
from repro.net.queue import DropTailQueue, QueueStats, REDQueue
from repro.sim.scheduler import tiebreak_permutation
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder


class Sink:
    """Destination stub recording arrival times."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_link(sim, sink, rate=1000.0, delay=0.5, **kwargs):
    return Link(sim, "test", sink, rate=rate, delay=delay, **kwargs)


def packet(size=1000, flow_id=1):
    return Packet(src="a", dst="b", flow_id=flow_id, kind=PacketType.DATA,
                  size=size)


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1000.0, delay=0.5)
    link.send(packet(size=1000))  # 1s serialization + 0.5s propagation
    sim.run()
    assert len(sink.arrivals) == 1
    assert sink.arrivals[0][0] == pytest.approx(1.5)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1000.0, delay=0.0)
    link.send(packet(1000))
    link.send(packet(1000))
    sim.run()
    times = [t for t, _ in sink.arrivals]
    assert times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_pipelining_overlaps_propagation():
    # Second packet's serialization overlaps the first's propagation.
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1000.0, delay=10.0)
    link.send(packet(1000))
    link.send(packet(1000))
    sim.run()
    times = [t for t, _ in sink.arrivals]
    assert times == [pytest.approx(11.0), pytest.approx(12.0)]


def test_queue_overflow_drops_and_notes_flow():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1e9,
                     queue=DropTailQueue(1000))
    for _ in range(5):
        link.send(packet(1000, flow_id=9))
    sim.run()
    # One serializing immediately + one queued; rest dropped.
    assert link.queue.stats.dropped >= 2
    assert sim.flow_drops.get(9, 0) == link.queue.stats.dropped


def test_random_loss_drops_in_flight():
    sim = Simulator(seed=5)
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1e9, delay=0.001, loss_rate=0.5)
    for _ in range(200):
        link.send(packet(100))
    sim.run()
    lost = link.stats.packets_lost_inflight
    assert 50 < lost < 150  # ~binomial(200, 0.5)
    assert len(sink.arrivals) == 200 - lost
    assert sim.flow_drops.get(1, 0) == lost


def test_set_loss_installs_and_clears():
    sim = Simulator(seed=1)
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1e9)
    link.set_loss(0.9)
    for _ in range(50):
        link.send(packet(100))
    sim.run()
    assert link.stats.packets_lost_inflight > 20
    link.set_loss(0.0)
    before = len(sink.arrivals)
    for _ in range(50):
        link.send(packet(100))
    sim.run()
    assert len(sink.arrivals) == before + 50


def test_stats_count_bytes():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1e6, delay=0.0)
    link.send(packet(700))
    sim.run()
    assert link.stats.bytes_sent == 700
    assert link.stats.bytes_delivered == 700


def test_invalid_parameters_rejected():
    sim = Simulator()
    sink = Sink(sim)
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", sink, rate=0.0, delay=0.1)
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", sink, rate=1.0, delay=-0.1)
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", sink, rate=1.0, delay=0.1, loss_rate=1.0)


def test_transmission_time():
    sim = Simulator()
    link = make_link(sim, Sink(sim), rate=2000.0)
    assert link.transmission_time(packet(1000)) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# The datapath selector: one cached predicate, one dispatch site
# ----------------------------------------------------------------------

def _plain_link():
    sim = Simulator()
    return sim, make_link(sim, Sink(sim))


def _tracing():
    sim, link = _plain_link()
    sim.trace = TraceRecorder(enabled=True)
    return link, lambda: setattr(sim, "trace", TraceRecorder(enabled=False))


def _impairment():
    __, link = _plain_link()
    impairment = Impairment()
    link.attach_impairment(impairment)
    return link, lambda: link.detach_impairment(impairment)


def _link_monitored():
    __, link = _plain_link()
    link.mark_monitored()
    return link, None


def _queue_monitored():
    __, link = _plain_link()
    link.queue.mark_monitored()
    return link, None


def _red_queue():
    __, link = _plain_link()
    drop_tail = link.queue
    link.queue = REDQueue(10_000)
    return link, lambda: setattr(link, "queue", drop_tail)


def _tiebreak_salt():
    with tiebreak_permutation(1):
        __, link = _plain_link()
    return link, None


def _batching_off():
    with batching_disabled():
        __, link = _plain_link()
    # The switch is back on here; links cache it until refreshed.
    return link, link.refresh_fast_path


@pytest.mark.parametrize("condition", [
    _tracing, _impairment, _link_monitored, _queue_monitored, _red_queue,
    _tiebreak_salt, _batching_off,
], ids=lambda condition: condition.__name__.strip("_"))
def test_each_condition_alone_forces_the_per_packet_path(condition):
    __, plain = _plain_link()
    assert plain._fast
    assert "send" not in vars(plain)
    link, undo = condition()
    assert not link._fast
    assert "send" not in vars(link)
    if undo is not None:
        undo()
        assert link._fast
        assert "send" not in vars(link)


# ----------------------------------------------------------------------
# Mid-run predicate flips: the serializer is handed over, never shared
# ----------------------------------------------------------------------

def _monitor_mid_train(sim, link):
    for _ in range(3):
        link.send(packet(1000))

    def flip():
        link.mark_monitored()
        link.send(packet(1000))
    sim.schedule(0.5, flip)


def _detach_mid_serialization(sim, link):
    impairment = Impairment()  # a no-op: only forces the per-packet path
    link.attach_impairment(impairment)
    link.send(packet(1000))

    def flip():
        link.detach_impairment(impairment)
        link.send(packet(1000))
    sim.schedule(0.5, flip)


def _monitor_with_planned_packets_queued(sim, link):
    # 3000-byte buffer.  Packets 2 and 3 are train-planned at t=1; at
    # the flip packet 3 has not started serializing, so it still
    # occupies the buffer until t=2 and no longer at t=2.5.
    for _ in range(4):
        link.send(packet(1000))  # the fourth overflows
    sim.schedule(1.5, link.mark_monitored)

    def refill():
        for _ in range(3):
            link.send(packet(1000))
    sim.schedule(2.5, refill)


def _flip_back_before_the_serializer_frees(sim, link):
    impairment = Impairment()
    for _ in range(2):
        link.send(packet(1000))  # train path; restart pending at t=1
    sim.schedule(0.3, link.attach_impairment, impairment)

    def back():
        link.detach_impairment(impairment)
        link.send(packet(1000))
    sim.schedule(0.6, back)


def _flip_run(scenario):
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, rate=1000.0, delay=0.1,
                     queue=DropTailQueue(3000))
    scenario(sim, link)
    sim.run()
    return {
        "arrivals": [t for t, _ in sink.arrivals],
        "link": [getattr(link.stats, s) for s in LinkStats.__slots__],
        "queue": [getattr(link.queue.stats, s) for s in QueueStats.__slots__],
        "events": sim.events_run + sim.events_absorbed,
    }


@pytest.mark.parametrize("scenario, arrivals", [
    pytest.param(_monitor_mid_train, [1.1, 2.1, 3.1, 4.1],
                 id="monitor-mid-train"),
    pytest.param(_detach_mid_serialization, [1.1, 2.1],
                 id="detach-mid-serialization"),
    pytest.param(_monitor_with_planned_packets_queued,
                 [1.1, 2.1, 3.1, 4.1, 5.1, 6.1],
                 id="monitor-with-planned-packets-queued"),
    pytest.param(_flip_back_before_the_serializer_frees, [1.1, 2.1, 3.1],
                 id="flip-back-before-the-serializer-frees"),
])
def test_mid_run_flip_matches_the_per_packet_reference(scenario, arrivals):
    flipped = _flip_run(scenario)
    with batching_disabled():
        reference = _flip_run(scenario)
    assert flipped["arrivals"] == pytest.approx(arrivals)
    assert flipped == reference
