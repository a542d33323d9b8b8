"""Link / mesh serialization and latency tests."""

import pytest

from repro.common import EventQueue, LinkConfig
from repro.memsim import DuplexLink, Link, Mesh


def test_single_packet_latency():
    q = EventQueue()
    link = Link(q, LinkConfig(latency=150, cycles_per_packet=2))
    arrivals = []
    link.send("ats", lambda p: arrivals.append((q.now, p)))
    q.run()
    assert arrivals == [(150, "ats")]


def test_back_to_back_packets_serialize():
    """Packets sent the same cycle queue behind each other."""
    q = EventQueue()
    link = Link(q, LinkConfig(latency=100, cycles_per_packet=10))
    times = []
    for i in range(3):
        link.send(i, lambda p: times.append(q.now))
    q.run()
    assert times == [100, 110, 120]


def test_oracle_link_ignores_bandwidth():
    q = EventQueue()
    link = Link(q, LinkConfig(latency=100, cycles_per_packet=10), oracle=True)
    times = []
    for i in range(3):
        link.send(i, lambda p: times.append(q.now))
    q.run()
    assert times == [100, 100, 100]


def test_link_idle_gap_resets_serialization():
    q = EventQueue()
    link = Link(q, LinkConfig(latency=5, cycles_per_packet=10))
    times = []
    link.send("a", lambda p: times.append(q.now))
    q.schedule(50, lambda: link.send("b", lambda p: times.append(q.now)))
    q.run()
    assert times == [5, 55]  # second packet sees an idle link


def test_duplex_directions_independent():
    q = EventQueue()
    duplex = DuplexLink(q, LinkConfig(latency=10, cycles_per_packet=10))
    times = []
    duplex.up.send("u", lambda p: times.append(("u", q.now)))
    duplex.down.send("d", lambda p: times.append(("d", q.now)))
    q.run()
    assert sorted(times) == [("d", 10), ("u", 10)]
    assert duplex.packets_sent == 2


def test_mesh_routes_between_chiplets():
    q = EventQueue()
    mesh = Mesh(q, LinkConfig(latency=32, cycles_per_packet=1), num_chiplets=4)
    got = []
    mesh.send(0, 3, "probe", lambda p: got.append((q.now, p)))
    q.run()
    assert got == [(32, "probe")]
    assert mesh.packets_sent == 1


def test_mesh_rejects_self_send():
    q = EventQueue()
    mesh = Mesh(q, LinkConfig(latency=32), num_chiplets=2)
    with pytest.raises(ValueError):
        mesh.send(1, 1, "x", lambda p: None)


def test_mesh_pairs_have_independent_bandwidth():
    q = EventQueue()
    mesh = Mesh(q, LinkConfig(latency=10, cycles_per_packet=100), num_chiplets=3)
    times = []
    mesh.send(0, 1, "a", lambda p: times.append(q.now))
    mesh.send(0, 2, "b", lambda p: times.append(q.now))
    mesh.send(0, 1, "c", lambda p: times.append(q.now))
    q.run()
    assert sorted(times) == [10, 10, 110]  # only the repeated pair queues


class FormulaLink(Link):
    """``Link.send`` spelled as the plain formula: ``max`` for departure,
    ``stats.observe``/``bump`` for the counts, ``schedule_at`` for arrival."""

    def send(self, payload, deliver, packets=1):
        now = self.queue.now
        if self.oracle:
            depart = now
        else:
            depart = max(now, self._next_free)
            self._next_free = depart + self.config.cycles_per_packet * packets
            self.stats.observe("queueing", depart - now)
        arrival = depart + self.config.latency
        self.stats.bump("packets", packets)
        self.queue.schedule_at(arrival, lambda: deliver(payload))
        return arrival


#: (cycle, op, amount): a "send" of ``amount`` packets or an ``occupy``
#: of ``amount`` cycles — same-cycle bursts, idle gaps, multi-packet sends
#: and bulk transfers between sends.
LINK_SCRIPT = [(0, "send", 1), (0, "send", 8), (0, "send", 2),
               (4, "occupy", 50), (5, "send", 3), (5, "send", 1),
               (200, "send", 6), (201, "occupy", 0), (202, "occupy", 7),
               (202, "send", 1), (400, "send", 1)]


def drive(link_cls, oracle):
    """Play LINK_SCRIPT on a fresh link; return it, send results and log."""
    queue = EventQueue()
    link = link_cls(queue, LinkConfig(latency=32, cycles_per_packet=3),
                    oracle=oracle)
    returned, log = [], []
    for cycle, op, amount in LINK_SCRIPT:
        def act(op=op, amount=amount):
            if op == "occupy":
                link.occupy(amount)
            else:
                returned.append(link.send(
                    amount, lambda p: log.append((queue.now, p)),
                    packets=amount))
            log.append(("next_free", link._next_free))
        queue.schedule_at(cycle, act)
    queue.run()
    return link, returned, log


@pytest.mark.parametrize("oracle", [False, True])
def test_send_matches_the_plain_formula(oracle):
    """Arrivals, link state and stats equal the formula's, send by send."""
    fast, fast_returned, fast_log = drive(Link, oracle)
    ref, ref_returned, ref_log = drive(FormulaLink, oracle)
    assert fast_returned == ref_returned
    assert fast_log == ref_log
    assert fast._next_free == ref._next_free
    assert fast.stats.as_dict() == ref.stats.as_dict()
    assert fast.stats.mean("queueing") == ref.stats.mean("queueing")
    assert fast.stats.samples("queueing") == ref.stats.samples("queueing")
    assert fast.packets_sent == ref.packets_sent == 23
    if not oracle:
        assert fast.stats.mean("queueing") > 0  # the script does queue
