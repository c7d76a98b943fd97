"""Transport-conformance suite: one contract, every backend.

Each test in :class:`TestTransportContract` runs twice -- once over
:class:`~repro.runtime.sim.SimTransport` (discrete-event virtual time)
and once over :class:`~repro.runtime.aio.AsyncioTransport` (real asyncio
timers and a JSON wire codec) -- through one harness: ``setup(transport)``,
then ``transport.run(until)``. The protocol-visible behaviour asserted
here is what :class:`~repro.runtime.interface.Transport` promises both
engines honour:

- the driver pair: ``stop()`` from a callback ends ``run`` early, and
  ``run(until)`` leaves later timers pending for the next ``run``, also
  when a blocked loop wakes after they are due;

- per-link FIFO delivery under the (default) constant-latency models;
- partitions drop at send time (``send`` returns ``None``) and heal, and
  the extra delay slows every non-local link: both set on
  ``transport.network``, the one ``Network`` of both engines;
- ``send(..., None)`` bills and times a message but queues nothing;
- cancelled timers never fire, and cancelling twice is harmless;
- ``set_timer_at`` never fires early on the protocol clock;
- registered handlers receive *equal* argument values (and, on the
  asyncio backend, *fresh* objects -- the wire codec forbids shared
  references);
- ``transport.traffic`` counts the same messages per link class.

:class:`TestStoreOnBothEngines` runs the real
:class:`~repro.cluster.store.ReplicatedStore` on each backend the same way:
reads and writes at ONE, QUORUM and ALL, a crashed replica set that makes
reads unavailable until recovery, hinted handoff replayed on recovery,
read repair converging the replicas, a bootstrapped node taking writes,
and a platform store running a YCSB-A workload with no failed operation.

Because the test body is identical per backend, a divergence pinpoints an
engine bug rather than a protocol bug -- this suite is the safety net for
the "same store and protocol classes on both backends" claim.
"""

import asyncio
import time
from dataclasses import replace

import pytest

from repro.common.errors import ConfigError
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.replication import SimpleStrategy
from repro.cluster.store import ReplicatedStore, StoreConfig
from repro.cluster.versions import Version
from repro.elastic import StreamingRebalancer
from repro.experiments.platforms import single_dc_platform
from repro.net.latency import FixedLatency, LogNormalLatency
from repro.net.topology import Datacenter, Topology, LinkClass
from repro.policy import StaticPolicy
from repro.runtime.aio import AsyncioTransport
from repro.runtime.deadlines import DeadlineQueue
from repro.runtime.sim import SimTransport
from repro.workload.client import WorkloadRunner
from repro.workload.workloads import WORKLOADS


def two_dc_topology() -> Topology:
    """3+3 nodes across two regions: intra-DC, and true WAN links."""
    return Topology(
        [Datacenter("east", "us-east"), Datacenter("west", "eu-west")], [3, 3]
    )


class Harness:
    """One conformance driver over either backend."""

    #: wall seconds per protocol second on asyncio; keeps each test well
    #: under 1s of wall time while protocol timers still span a
    #: meaningful range.
    TIME_SCALE = 0.05

    def __init__(self, backend, topology, seed=7):
        self.backend = backend
        self.topology = topology
        if backend == "sim":
            self.transport = SimTransport(topology, rng=seed)
        else:
            self.transport = AsyncioTransport(
                topology, rng=seed, time_scale=self.TIME_SCALE
            )

    def run(self, setup, until):
        """Call ``setup(transport)`` at t=0, then run to ``until``."""
        setup(self.transport)
        self.transport.run(until=until)

    def queued(self):
        """Entries waiting in the engine."""
        t = self.transport
        if self.backend == "sim":
            return t.sim.pending()
        return len(t._heap) + (t._armed is not None)  # heap + armed loop timer


@pytest.fixture(params=["sim", "asyncio"])
def harness(request):
    """Factory for a fresh backend harness; ``harness.backend`` names it."""
    made = []

    def make(topology=None, seed=7):
        topo = topology if topology is not None else two_dc_topology()
        made.append(Harness(request.param, topo, seed=seed))
        return made[-1]

    make.backend = request.param
    yield make
    for h in made:
        if h.backend == "asyncio":
            h.transport.close()


class TestTransportContract:
    def test_stop_from_a_callback_ends_run_early(self, harness):
        h = harness()
        fired = []

        def setup(t):
            def halt():
                fired.append("halt")
                t.stop()

            t.set_timer_at(0.2, halt)
            t.post_at(1.0, fired.append, "late")

        h.run(setup, until=2.0)
        assert fired == ["halt"]
        assert h.transport.now < 1.0

    def test_run_until_leaves_later_timers_pending(self, harness):
        h = harness()
        fired = []

        def setup(t):
            t.post_at(0.2, fired.append, "early")
            t.set_timer_at(1.0, fired.append, "later")

        h.run(setup, until=0.5)
        assert fired == ["early"]
        assert h.transport.now >= 0.5 - 1e-9
        h.transport.run(until=1.5)
        assert fired == ["early", "later"]

    @pytest.mark.parametrize("schedule", ["post_at", "set_timer_at"])
    def test_run_until_holds_back_what_a_late_loop_finds_due(self, harness, schedule):
        # A callback at t=0.2 blocks the loop for 80 ms of wall time (1.6
        # protocol seconds on asyncio), so when the loop wakes the ``until``
        # guard and the t=1.0 call are due in the same pass.
        h = harness()
        fired = []

        def setup(t):
            def block():
                fired.append("block")
                time.sleep(0.08)

            t.post_at(0.2, block)
            getattr(t, schedule)(1.0, fired.append, "later")

        h.run(setup, until=0.5)
        assert fired == ["block"]
        h.transport.run(until=3.0)
        assert fired == ["block", "later"]

    def test_a_timer_held_back_past_until_still_cancels(self, harness):
        h = harness()
        fired = []
        timers = []

        def setup(t):
            t.post_at(0.2, time.sleep, 0.08)
            timers.append(t.set_timer_at(1.0, fired.append, "later"))

        h.run(setup, until=0.5)
        timers[0].cancel()
        h.transport.run(until=3.0)
        assert fired == []

    def test_traffic_counts_the_same_messages(self, harness):
        # Delivered, undelivered (deliver=None) and cut sends, counted
        # alike on both engines: the cut one never reaches the matrix.
        h = harness()

        def setup(t):
            t.send(0, 3, 500, lambda: None)
            t.send(0, 4, 300, None)
            t.send(0, 1, 100, lambda: None)
            t.network.partition_dcs(0, 1)
            t.send(1, 5, 700, lambda: None)

        h.run(setup, until=1.0)
        traffic = h.transport.traffic
        assert traffic.messages[LinkClass.INTER_REGION] == 2
        assert traffic.messages[LinkClass.INTRA_DC] == 1
        assert traffic.bytes[LinkClass.INTER_REGION] == 800
        assert traffic.total_bytes() == 900

    def test_per_link_delivery_is_fifo(self, harness):
        # 25 frames down one WAN link, registered so the asyncio side
        # genuinely crosses the codec: arrival order == send order.
        h = harness()
        got = []

        def setup(t):
            def sink(i):
                got.append(i)

            t.register("sink", sink)
            for i in range(25):
                t.send(0, 3, 64 + i, sink, i)

        h.run(setup, until=1.0)
        assert got == list(range(25))

    def test_send_returns_sampled_delay(self, harness):
        h = harness()
        delays = {}

        def setup(t):
            delays["wan"] = t.send(0, 3, 64, lambda: None)
            delays["lan"] = t.send(0, 1, 64, lambda: None)

        h.run(setup, until=1.0)
        # Default models are constant per link class: 40 ms WAN, 0.25 ms LAN.
        assert delays["wan"] == pytest.approx(0.040)
        assert delays["lan"] == pytest.approx(0.00025)

    def test_partition_drops_at_send_time_then_heals(self, harness):
        h = harness()
        got = []
        sent = {}

        def setup(t):
            def sink(tag):
                got.append(tag)

            t.register("sink", sink)
            t.network.partition_dcs(0, 1)
            sent["cut"] = t.send(0, 3, 64, sink, "cut")  # cross-DC: dropped
            sent["lan"] = t.send(0, 1, 64, sink, "lan")  # intra-DC: unaffected
            sent["was_partitioned"] = t.network.dcs_partitioned(0, 1)

            def heal_and_resend():
                t.network.heal_partition(0, 1)
                sent["healed"] = t.send(0, 3, 64, sink, "healed")
                sent["still_partitioned"] = t.network.dcs_partitioned(0, 1)

            t.set_timer_at(t.now + 0.5, heal_and_resend)

        h.run(setup, until=2.0)
        assert sent["cut"] is None
        assert sent["lan"] is not None
        assert sent["was_partitioned"]
        assert sent["healed"] is not None
        assert not sent["still_partitioned"]
        assert got == ["lan", "healed"]

    def test_send_without_deliver_bills_and_times_only(self, harness):
        h = harness()
        seen = {}

        def setup(t):
            seen["delay"] = t.send(0, 3, 500, None)
            seen["queued"] = h.queued()
            t.network.partition_dcs(0, 1)
            seen["cut"] = t.send(0, 3, 500, None)

        h.run(setup, until=1.0)
        dropped = h.transport.network.dropped
        assert seen["delay"] == pytest.approx(0.040)
        assert seen["queued"] == 0 and h.queued() == 0
        assert seen["cut"] is None and dropped == 1
        assert h.transport.traffic.bytes[LinkClass.INTER_REGION] == 500
        assert h.transport.traffic.messages[LinkClass.INTER_REGION] == 1

    def test_heal_all_clears_every_partition(self, harness):
        topo = Topology(
            [
                Datacenter("a", "r-a"),
                Datacenter("b", "r-b"),
                Datacenter("c", "r-c"),
            ],
            [1, 1, 1],
        )
        net = harness(topo).transport.network
        net.partition_dcs(0, 1)
        net.partition_dcs(2, 1)  # either argument order cuts the pair
        assert net.dcs_partitioned(1, 0) and net.dcs_partitioned(1, 2)
        net.heal_all()
        assert not net.dcs_partitioned(0, 1)
        assert not net.dcs_partitioned(1, 2)

    def test_cancelled_timer_never_fires(self, harness):
        h = harness()
        fired = []

        def setup(t):
            doomed = t.set_timer_at(t.now + 0.2, fired.append, "cancelled")
            doomed.cancel()
            doomed.cancel()  # idempotent per the TimerHandle contract
            t.set_timer_at(t.now + 0.4, fired.append, "kept")

        h.run(setup, until=1.0)
        assert fired == ["kept"]

    def test_timer_at_never_fires_early(self, harness):
        h = harness()
        seen = {}

        def setup(t):
            seen["t0"] = t.now
            t.set_timer_at(seen["t0"] + 0.5, lambda: seen.update(fire=t.now))

        h.run(setup, until=2.0)
        assert seen["fire"] >= seen["t0"] + 0.5 - 1e-9

    def test_post_at_fires_once_at_its_time_without_a_handle(self, harness):
        h = harness()
        seen = {}

        def setup(t):
            seen["handle"] = t.post_at(0.5, lambda: seen.setdefault("fire", []).append(t.now))

        h.run(setup, until=2.0)
        assert seen["handle"] is None
        assert len(seen["fire"]) == 1 and seen["fire"][0] >= 0.5 - 1e-9
        if h.backend == "sim":
            assert seen["fire"] == [0.5]

    def test_deadline_queue_expires_open_ops_in_order(self, harness):
        # One armed timer for a FIFO of same-timeout ops: done ops never
        # expire, open ones expire in order and never early, an op added
        # from inside an expiry is still watched, and nothing stays armed.
        h = harness()
        expired = []

        class Op:
            def __init__(self, tag):
                self.tag = tag
                self.finished = False

        ops = [Op(i) for i in range(5)]
        late = Op("late")

        def setup(t):
            def expire(op):
                op.finished = True
                expired.append((op.tag, t.now))
                if op.tag == 1:
                    queue.add(t.now + 0.5, late)

            queue = DeadlineQueue(t, expire)
            h.queue = queue

            def start(op):
                queue.add(t.now + 0.5, op)

            def finish(op):
                op.finished = True
                queue.settle()

            for i, op in enumerate(ops):
                t.set_timer_at(0.1 * i, start, op)
            t.set_timer_at(0.15, finish, ops[0])  # the head: its timer goes stale
            t.set_timer_at(0.45, finish, ops[3])  # done behind open heads
            t.set_timer_at(0.35, finish, ops[2])

        h.run(setup, until=2.0)
        assert [tag for tag, _ in expired] == [1, 4, "late"]
        for (tag, at), deadline in zip(expired, (0.6, 0.9, 1.1)):
            assert at >= deadline - 1e-9
            if h.backend == "sim":
                assert at == pytest.approx(deadline, abs=1e-12)
        assert len(h.queue) == 0 and h.queue._timer is None

    def test_unregistered_callable_delivers_locally(self, harness):
        # Client-side completion closures are not protocol traffic: they
        # deliver without a codec round-trip, payload passed through as-is.
        h = harness()
        got = []
        payload = {"k": 1, "nested": [1, 2]}

        def setup(t):
            t.send(1, 2, 64, got.append, payload)

        h.run(setup, until=1.0)
        assert got == [payload]
        assert got[0] is payload

    def test_registered_handler_preserves_values_crossing_the_wire(self, harness):
        # Prepare-style payload: a {key: Version} map. Values must arrive
        # equal on both backends; the asyncio codec additionally forbids
        # shared references (fresh objects at the receiver).
        h = harness()
        got = []
        writes = {"row1": Version(1.5, 3, 64), "row2": Version(2.0, 7, 128)}

        def setup(t):
            def on_prepare(txn_id, wmap):
                got.append((txn_id, wmap))

            t.register("p3.on_prepare", on_prepare)
            t.send(0, 3, 256, on_prepare, 42, writes)

        h.run(setup, until=1.0)
        assert len(got) == 1
        txn_id, wmap = got[0]
        assert txn_id == 42
        assert wmap == writes
        assert isinstance(wmap["row1"], Version)
        if h.backend == "asyncio":
            assert wmap is not writes
            assert wmap["row1"] is not writes["row1"]

    def test_traffic_is_accounted_per_link_class(self, harness):
        h = harness()

        def setup(t):
            t.send(0, 3, 500, lambda: None)  # inter-region
            t.send(0, 1, 100, lambda: None)  # intra-DC

        h.run(setup, until=1.0)
        traffic = h.transport.traffic
        assert traffic.bytes[LinkClass.INTER_REGION] == 500
        assert traffic.bytes[LinkClass.INTRA_DC] == 100

    def test_extra_delay_slows_every_non_local_link(self, harness):
        # The network's congestion step: a non-local send's delay grows by
        # exactly the extra delay, a node-local one does not.
        t = harness().transport
        links = [(0, 3), (0, 1), (0, 0)]  # WAN, intra-DC, node-local
        before = [t.send(src, dst, 64, None) for src, dst in links]
        t.network.set_extra_delay(0.015)
        after = [t.send(src, dst, 64, None) for src, dst in links]
        assert after == [before[0] + 0.015, before[1] + 0.015, before[2]]


def _store(h, rf=3, **config):
    """The real store on ``h``'s transport and topology."""
    return ReplicatedStore(
        h.transport, h.topology, SimpleStrategy(rf=rf), StoreConfig(seed=3, **config)
    )


class TestStoreOnBothEngines:
    """The replicated store itself, run identically on each backend."""

    @pytest.mark.parametrize(
        "level", [ConsistencyLevel.ONE, ConsistencyLevel.QUORUM, ConsistencyLevel.ALL]
    )
    def test_write_then_read_at_each_level(self, harness, level):
        h = harness()
        state = {}

        def setup(t):
            store = state["store"] = _store(h, read_repair_chance=0.0)
            store.preload(["k"])

            def read_back(written):
                state["write"] = written
                store.read("k", level, lambda r: state.setdefault("read", r))

            store.write("k", level, read_back)

        h.run(setup, until=2.0)
        store, written, read = state["store"], state["write"], state["read"]
        need = {"ONE": 1, "QUORUM": 2, "ALL": 3}[level.name]
        assert written.ok and read.ok
        assert written.level_label == read.level_label == level.name
        assert read.replicas_contacted == need
        assert written.replicas_contacted == 3  # a write goes to every replica
        if need > 1:  # R + W > N: the read sees the write
            assert read.version.write_id == store.write_seq and not read.stale
        # the write reached every replica, whatever its level
        assert {store.nodes[r].data["k"].write_id for r in store.all_replicas("k")} == {
            store.write_seq
        }
        assert store.failures == {}

    def test_crashed_replicas_silence_reads_until_recovery(self, harness):
        # Crashing the whole replica set of a key must fail reads at once;
        # recovery must restore them.
        h = harness()
        results = []
        state = {}

        def setup(t):
            store = state["store"] = _store(h, rf=2, read_repair_chance=0.0)
            store.preload(["key1"])
            replicas, _ = store.replica_sets("key1")
            for r in replicas:
                store.on_node_crash(r)
            store.read("key1", 1, results.append)

            def recover_and_read():
                for r in replicas:
                    store.on_node_recover(r)
                store.read("key1", 1, results.append)

            t.set_timer_at(t.now + 0.5, recover_and_read)

        h.run(setup, until=2.0)
        assert len(results) == 2
        assert not results[0].ok
        assert results[0].error == "unavailable"
        assert results[1].ok
        assert state["store"].failures == {"read_unavailable": 1}
        assert state["store"].ops_completed() == 1

    def test_hints_replay_to_a_recovered_replica(self, harness):
        h = harness()
        state = {}

        def setup(t):
            store = state["store"] = _store(h, read_repair_chance=0.0)
            store.preload(["k"])
            down = state["down"] = store.all_replicas("k")[0]
            store.on_node_crash(down)
            store.write("k", ConsistencyLevel.ONE, lambda r: state.setdefault("write", r))
            t.set_timer_at(t.now + 0.5, store.on_node_recover, down)

        h.run(setup, until=2.0)
        store, down = state["store"], state["down"]
        assert state["write"].ok and state["write"].replicas_contacted == 2
        assert store.hints.pending_for(down) == 0
        assert store.nodes[down].data["k"].write_id == store.write_seq

    def test_read_repair_converges_the_replicas(self, harness):
        # A replica misses a write (down, its hint lost); a read after its
        # recovery repairs it, although the read itself asks only one.
        h = harness()
        state = {}

        def setup(t):
            store = state["store"] = _store(h, read_repair_chance=1.0)
            store.preload(["k"])
            lagging = state["lagging"] = store.all_replicas("k")[0]
            store.on_node_crash(lagging)
            store.write("k", ConsistencyLevel.QUORUM)

            def recover_and_read():
                store.hints.drain(lagging)
                store.on_node_recover(lagging)
                assert store.nodes[lagging].data["k"].write_id < store.write_seq
                store.read("k", ConsistencyLevel.ONE, lambda r: state.setdefault("read", r))

            t.set_timer_at(t.now + 0.5, recover_and_read)

        h.run(setup, until=2.0)
        store = state["store"]
        assert state["read"].ok and state["read"].replicas_contacted == 1
        assert store.repairs_issued >= 1
        assert {store.nodes[r].data["k"].write_id for r in store.all_replicas("k")} == {
            store.write_seq
        }

    def test_bootstrapped_node_is_reachable(self, harness):
        # bootstrap_node grows the topology and clears the network's route
        # memo; the new node then takes a write at ALL like any other.
        h = harness()
        state = {}

        def setup(t):
            store = state["store"] = _store(h, read_repair_chance=0.0)
            StreamingRebalancer(store)
            new = state["new"] = store.bootstrap_node(1)
            state["delay"] = t.send(0, new, 64, None)
            keys = (f"user{i}" for i in range(500))
            key = next(k for k in keys if new in store.all_replicas(k))
            store.write(key, ConsistencyLevel.ALL, lambda r: state.update(write=r))

        h.run(setup, until=2.0)
        assert state["new"] == 6 and state["delay"] == pytest.approx(0.040)
        assert state["write"].ok and state["write"].replicas_contacted == 3

    @pytest.mark.parametrize("level", [ConsistencyLevel.ONE, ConsistencyLevel.QUORUM])
    def test_platform_store_runs_ycsb_a_without_failures(self, harness, level):
        platform = single_dc_platform()
        h = harness(platform.topology_factory())
        store = ReplicatedStore(
            h.transport,
            h.topology,
            platform.strategy_factory(),
            replace(platform.store_config, seed=11),
        )
        report = WorkloadRunner(
            store,
            WORKLOADS["A"].scaled(1_000),
            policy=StaticPolicy(level, level),
            n_clients=16,
            ops_total=1_000,
            seed=11,
        ).run()
        assert report.ops_completed == 1_000
        assert report.failures == {}
        assert set(report.read_levels) == {level.name}
        assert store.sim.events_processed > 0
        assert store.network.traffic.total_bytes() > 0


class TestAsyncioTransportSpecifics:
    """Contract points only the asyncio backend can violate."""

    def test_time_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            AsyncioTransport(two_dc_topology(), time_scale=0.0)

    def test_double_registration_is_rejected(self):
        t = AsyncioTransport(two_dc_topology())
        t.register("h", lambda: None)
        with pytest.raises(ConfigError):
            t.register("h", lambda: None)
        t.close()

    def test_the_transport_owns_its_loop_from_construction(self):
        # Timers and sends work before the first run; close() closes the loop.
        t = AsyncioTransport(two_dc_topology(), time_scale=0.01)
        got = []
        t.register("sink", got.append)
        t.send(0, 3, 64, got.append, "frame")
        t.set_timer_at(0.5, got.append, "timer")
        t.run(until=1.0)
        t.close()
        assert got == ["frame", "timer"]
        assert t._loop.is_closed()
        assert t.send(0, 1, 10, got.append, "after close") is None

    def test_a_failing_callback_propagates_out_of_run(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.01)
        fired = []

        def boom():
            raise RuntimeError("handler bug")

        t.post_at(0.1, boom)
        t.post_at(5.0, fired.append, "later")
        try:
            with pytest.raises(RuntimeError, match="handler bug"):
                t.run(until=10.0)
        finally:
            t.close()
        assert fired == []

    def test_past_timer_fires_at_once(self):
        # A deadline read off the wall clock is already past when it is set:
        # asyncio fires it on the next loop pass (the sim rejects the past).
        t = AsyncioTransport(two_dc_topology(), time_scale=0.01)
        got = []

        async def body(loop):
            t.set_timer_at(t.now - 0.1, got.append, "timer")
            t.post_at(t.now - 0.1, got.append, "post")
            await asyncio.sleep(0.01)

        run_on_loop(t, body)
        assert got == ["timer", "post"]

    def test_timer_at_is_one_call_at_without_a_clock_read(self):
        # ``when`` maps straight onto loop time from the construction
        # instant; the loop clock is never read per timer.
        class Loop:
            def __init__(self):
                self.clock_reads = 0
                self.calls = []

            def time(self):
                self.clock_reads += 1
                return 100.0

            def call_at(self, when, fn, *args):
                self.calls.append(when)
                return object()

        loop = Loop()
        t = AsyncioTransport(two_dc_topology(), time_scale=0.5)
        t._loop.close()
        t._loop, t._t0 = loop, 100.0
        t.set_timer_at(3.0, lambda: None)
        t.post_at(0.25, lambda: None)
        assert loop.calls == [100.0 + 3.0 * 0.5, 100.0 + 0.25 * 0.5]
        assert loop.clock_reads == 0

    def test_self_partition_is_rejected(self):
        t = AsyncioTransport(two_dc_topology())
        with pytest.raises(ConfigError):
            t.network.partition_dcs(1, 1)
        t.close()

    def test_closed_transport_swallows_inflight_callbacks(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.01)
        got = []

        async def body(loop):
            t.register("sink", got.append)
            t.send(0, 3, 64, got.append, "late")
            t.set_timer_at(t.now + 0.5, got.append, "timer")
            t.close()
            await asyncio.sleep(0.1)

        run_on_loop(t, body)
        assert got == []


def run_on_loop(transport, body):
    """Run ``await body(loop)`` on ``transport``'s own loop, then close it."""
    loop = transport._loop
    try:
        return loop.run_until_complete(body(loop))
    finally:
        transport.close()


def pending_handles(loop, transport):
    """Live loop timers whose callback is a method of ``transport``."""
    return [
        h
        for h in loop._scheduled
        if not h.cancelled() and getattr(h._callback, "__self__", None) is transport
    ]


class TestAsyncioDelivery:
    """The delivery heap behind the one armed loop timer."""

    def test_random_delays_keep_link_fifo(self):
        # 1000 frames down one link whose delay spreads over ~3-20 ms wall:
        # the per-link floor plus the heap's sequence tie-break keep order.
        topo = Topology(
            [Datacenter("east", "us-east"), Datacenter("west", "eu-west")],
            [3, 3],
            latency={LinkClass.INTER_REGION: LogNormalLatency.from_mean_cv(0.1, cv=0.5)},
        )
        t = AsyncioTransport(topo, rng=3, time_scale=0.05)
        got = []

        async def body(loop):
            t.register("sink", got.append)
            for batch in range(10):
                for i in range(100):
                    assert t.send(0, 3, 64, got.append, 100 * batch + i) is not None
                await asyncio.sleep(0.001)  # sends span many pump passes
            await asyncio.sleep(0.1)

        run_on_loop(t, body)
        assert got == list(range(1000))

    def test_earlier_arrival_rearms_the_timer(self):
        # The timer is armed for a frame 1 s out; a LAN frame sent afterwards
        # is due first and must not wait behind it.
        topo = Topology(
            [Datacenter("east", "us-east"), Datacenter("west", "eu-west")],
            [3, 3],
            latency={LinkClass.INTER_REGION: FixedLatency(1.0)},
        )
        t = AsyncioTransport(topo, time_scale=1.0)
        got = {}

        async def body(loop):
            t.send(0, 3, 64, lambda: got.setdefault("wan", loop.time()))
            armed_for_wan = t._armed
            got["lan_due"] = loop.time() + t.send(
                0, 1, 64, lambda: got.setdefault("lan", loop.time())
            )
            assert armed_for_wan.cancelled() and not t._armed.cancelled()
            assert len(pending_handles(loop, t)) == 1  # re-armed, not a second timer
            await asyncio.sleep(0.1)

        run_on_loop(t, body)
        assert "wan" not in got
        # Late by loop jitter, not by the WAN frame's second.
        assert 0.0 <= got["lan"] - got["lan_due"] < 0.05

    def test_undelivered_frame_takes_no_fifo_slot(self):
        # send(..., None) returns the sampled delay and leaves the link's
        # FIFO floor alone: a faster frame sent next is not held behind it.
        model = FixedLatency(1.0)
        topo = Topology(
            [Datacenter("east", "us-east"), Datacenter("west", "eu-west")],
            [3, 3],
            latency={LinkClass.INTER_REGION: model},
        )
        t = AsyncioTransport(topo, time_scale=1.0)
        got = {}

        async def body(loop):
            assert t.send(0, 3, 64, None) == 1.0
            model.delay = 0.001
            def arrived():
                got["at"] = loop.time()

            got["due"] = loop.time() + t.send(0, 3, 64, arrived)
            await asyncio.sleep(0.1)

        run_on_loop(t, body)
        assert 0.0 <= got["at"] - got["due"] < 0.05

    def test_reply_waits_for_the_next_pass(self):
        # Zero-delay (node-local) replies sent by handlers are due at once,
        # yet whatever the loop had ready runs before the pump's next pass.
        t = AsyncioTransport(two_dc_topology())
        order = []

        async def body(loop):
            def ping(i):
                order.append(("ping", i))
                t.send(0, 0, 8, pong, i)
                loop.call_soon(order.append, ("loop", i))

            def pong(i):
                order.append(("pong", i))

            t.register("ping", ping)
            t.register("pong", pong)
            for i in range(3):
                t.send(0, 0, 8, ping, i)
            await asyncio.sleep(0.05)

        run_on_loop(t, body)
        assert order == [(kind, i) for kind in ("ping", "loop", "pong") for i in range(3)]

    def test_partition_drops_at_send_time_not_at_delivery(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.05)
        got = []

        async def body(loop):
            t.register("sink", got.append)
            t.send(0, 3, 64, got.append, "in flight")  # queued before the cut
            t.network.partition_dcs(1, 0)
            queued = len(t._heap)
            assert t.send(0, 3, 64, got.append, "cut") is None
            assert t.send(3, 0, 64, got.append, "cut") is None  # symmetric
            assert len(t._heap) == queued and t.network.dropped == 2
            await asyncio.sleep(0.05)

        run_on_loop(t, body)
        assert got == ["in flight"]

    def test_cancelled_timer_never_fires_while_messages_flow(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.1)
        fired = []
        hops = []  # protocol time of every hop

        async def body(loop):
            doomed = t.set_timer_at(t.now + 0.5, fired.append, "cancelled")
            t.set_timer_at(t.now + 0.6, fired.append, "kept")

            def bounce(n):
                hops.append(t.now)
                if n == 20:
                    doomed.cancel()
                t.send(n % 3, (n + 1) % 3, 16, bounce, n + 1)

            t.register("bounce", bounce)
            bounce(0)
            await asyncio.sleep(1.0 * 0.1 + 0.05)

        run_on_loop(t, body)
        assert fired == ["kept"]
        # 0.25 ms LAN hops kept flowing on both sides of both deadlines
        assert min(hops) < 0.5 and max(hops) > 0.6

    def test_close_mid_flight_stops_everything(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.05)
        got = []

        async def body(loop):
            t.register("sink", got.append)
            for i in range(50):
                t.send(0, 3, 64, got.append, i)  # wire frames, 2 ms out
                t.send(0, 1, 64, lambda: got.append("closure"))
            assert len(pending_handles(loop, t)) == 1
            t.close()
            assert not t._heap and pending_handles(loop, t) == []
            assert t.send(0, 1, 64, got.append, "after close") is None
            assert not t._heap and pending_handles(loop, t) == []
            await asyncio.sleep(0.05)

        run_on_loop(t, body)
        assert got == []

    def test_handler_closing_the_transport_ends_the_pass(self):
        t = AsyncioTransport(two_dc_topology())
        got = []

        async def body(loop):
            def stop(i):
                got.append(i)
                t.close()

            for i in range(5):
                t.send(0, 0, 8, stop, i)  # all due in one pass
            await asyncio.sleep(0.02)
            assert pending_handles(loop, t) == []

        run_on_loop(t, body)
        assert got == [0]

    def test_failing_handler_does_not_stall_delivery(self):
        # The loop reports the exception; the frames behind it still arrive.
        t = AsyncioTransport(two_dc_topology())
        got = []
        errors = []

        async def body(loop):
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx["exception"]))

            def boom():
                raise RuntimeError("handler bug")

            t.send(0, 0, 8, boom)
            t.send(0, 0, 8, got.append, "behind")
            await asyncio.sleep(0.02)

        run_on_loop(t, body)
        assert got == ["behind"]
        assert [type(e) for e in errors] == [RuntimeError]
