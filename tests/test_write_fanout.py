"""The write fan-out's late-ack rule.

An ack a replica sends after its write is finished (client acked or timed
out) decides nothing, so it is sent with ``deliver=None``: billed, timed
and partition-checked like any message, then accounted by the coordinator
at its arrival time ``now + delay`` instead of being delivered as an event.
These tests pin what that must preserve: the propagation notification fires
once, at the latest ack arrival, bit for bit, with every counted delay.
"""

from __future__ import annotations

import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.replication import NetworkTopologyStrategy, make_placement
from repro.cluster.store import StoreConfig
from repro.net.latency import LogNormalLatency
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.simcore.simulator import Simulator
from tests.conftest import sim_store


@pytest.fixture
def rf5():
    """RF=5 as {4 in DC 0, 1 in DC 1} over random LAN and WAN delays."""
    sim = Simulator()
    topo = Topology(
        [Datacenter("west", "r-west"), Datacenter("south", "r-south")],
        [4, 2],
        latency={
            LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.0002, 0.3),
            LinkClass.INTER_REGION: LogNormalLatency.from_mean_cv(0.010, 0.5),
        },
    )
    store = sim_store(
        sim, topo, strategy=NetworkTopologyStrategy({0: 4, 1: 1}),
        config=StoreConfig(seed=4, read_repair_chance=0.0),
    )
    return store


class Propagations:
    """Listener recording every propagation notification and its time."""

    def __init__(self, store):
        self.store = store
        self.seen = []

    def on_op_complete(self, result):
        pass

    def on_write_propagated(self, result):
        self.seen.append((self.store.sim.now, result, list(result.ack_delays)))


def record_sends(store):
    """Wrap the transport's send, recording
    ``(src, dst, nbytes, deliver, args, arrival, sent_at)``.

    ``arrival`` is ``now + delay`` as ``Network.send`` pushes it (``None``
    when the message was dropped).
    """
    sends = []
    network_send = store.network.send

    def send(src, dst, nbytes, deliver, *args):
        delay = network_send(src, dst, nbytes, deliver, *args)
        arrival = None if delay is None else store.sim.now + delay
        sends.append((src, dst, nbytes, deliver, args, arrival, store.sim.now))
        return delay

    store.transport.send = send
    return sends


def acks(store, sends, home):
    return [s for s in sends if s[1] == home and s[2] == store.sizes.ack]


def write(store, key, level, coordinator):
    results = []
    store.sim.schedule_at(0.0, store.write, key, level, results.append, None, coordinator)
    return results


def local_coordinator(store, key):
    return next(r for r in store.replica_sets(key)[0] if store.topology.dc_of(r) == 0)


def test_late_acks_notify_once_at_the_last_arrival(rf5):
    store, key = rf5, "k"
    home = local_coordinator(store, key)
    listener = Propagations(store)
    store.add_listener(listener)
    sends = record_sends(store)
    results = write(store, key, ConsistencyLevel.ONE, home)
    store.sim.run()

    (result,) = results
    assert result.ok and result.replicas_contacted == 5
    ack_sends = acks(store, sends, home)
    late = [s for s in ack_sends if s[3] is None]
    assert len(ack_sends) == 5 and len(late) >= 2
    assert all(s[6] > result.t_end for s in late)  # sent after the client ack
    (at, notified, delays) = listener.seen[0]
    assert len(listener.seen) == 1 and notified is result
    assert len(delays) == result.replicas_contacted
    # bit for bit: the arrival floats the heap would have fired at
    arrivals = [s[5] for s in ack_sends]
    assert at == max(arrivals)
    assert sorted(delays) == sorted(a - result.t_start for a in arrivals)


def test_a_dropped_late_ack_is_never_counted(rf5):
    store, key = rf5, "k"
    home = local_coordinator(store, key)
    remote = next(r for r in store.replica_sets(key)[0] if store.topology.dc_of(r) == 1)
    listener = Propagations(store)
    store.add_listener(listener)
    sends = record_sends(store)
    results = write(store, key, ConsistencyLevel.ONE, home)
    # the mutation is already on the wire; its ack will meet the cut
    store.sim.schedule_at(0.002, store.network.partition_dcs, 0, 1)
    store.sim.run()

    assert results[0].ok
    assert store.network.dropped == 1
    (dropped,) = [s for s in acks(store, sends, home) if s[5] is None]
    assert dropped[0] == remote and dropped[3] is None
    assert listener.seen == []
    assert len(results[0].ack_delays) == 4


def test_a_timed_out_writes_later_acks_are_counted(rf5):
    store, key = rf5, "k"
    home = local_coordinator(store, key)
    store.write_timeout = 0.003  # well under one WAN round trip
    listener = Propagations(store)
    store.add_listener(listener)
    sends = record_sends(store)
    results = write(store, key, ConsistencyLevel.ALL, home)
    store.sim.run()

    (result,) = results
    assert result.error == "timeout" and result.t_end == 0.003
    ack_sends = acks(store, sends, home)
    assert [s for s in ack_sends if s[3] is None]  # the WAN ack came late
    (at, _, delays) = listener.seen[0]
    assert len(listener.seen) == 1 and len(delays) == 5
    assert at == max(s[5] for s in ack_sends)


def test_migration_extra_acks_after_the_client_ack_post_nothing(rf5):
    store, key = rf5, "k"
    west = [n for n in range(6) if store.topology.dc_of(n) == 0]
    # a pending migration: DC 0 stays authoritative, a DC-1 node is incoming
    store._placement_cache[key] = make_placement(west[:3], (4,), store.topology)
    store.write_timeout = 0.003  # the incoming owner's ack comes after it
    sends = record_sends(store)
    results = write(store, key, 1, west[0])
    store.sim.run()

    assert results[0].error == "timeout"
    (extra,) = [s for s in acks(store, sends, west[0]) if s[0] == 4]
    assert extra[3] is None and extra[5] is not None  # billed, not delivered
    op = extra[4][0]
    assert op.extra_needed == 1 and op.extra_acks == 0
    assert store.sim.pending() == 0
