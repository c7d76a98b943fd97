"""Transport-conformance suite: one contract, every backend.

Each test in :class:`TestTransportContract` runs twice -- once over
:class:`~repro.runtime.sim.SimTransport` (discrete-event virtual time)
and once over :class:`~repro.runtime.aio.AsyncioTransport` (real asyncio
timers and a JSON wire codec) -- through a tiny harness that hides *only*
how time advances. The protocol-visible behaviour asserted here is what
:class:`~repro.runtime.interface.Transport` promises both engines honour:

- per-link FIFO delivery under the (default) constant-latency models;
- partitions drop at send time (``send`` returns ``None``) and heal;
- ``send(..., None)`` bills and times a message but queues nothing;
- cancelled timers never fire, and cancelling twice is harmless;
- ``set_timer_at`` never fires early on the protocol clock;
- registered handlers receive *equal* argument values (and, on the
  asyncio backend, *fresh* objects -- the wire codec forbids shared
  references);
- a crashed :class:`~repro.runtime.localhost.LocalhostStore` replica set
  makes reads unavailable until recovery, on either transport.

Because the test body is identical per backend, a divergence pinpoints an
engine bug rather than a protocol bug -- this suite is the safety net for
the "same protocol classes on both backends" claim.
"""

import asyncio

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.cluster.versions import Version
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.topology import Datacenter, Topology, LinkClass
from repro.net.transport import Network
from repro.runtime.aio import AsyncioTransport
from repro.runtime.localhost import LocalhostStore
from repro.runtime.deadlines import DeadlineQueue
from repro.runtime.sim import SimTransport
from repro.simcore.simulator import Simulator


def two_dc_topology() -> Topology:
    """3+3 nodes across two regions: intra-DC, and true WAN links."""
    return Topology(
        [Datacenter("east", "us-east"), Datacenter("west", "eu-west")], [3, 3]
    )


class SimHarness:
    """Conformance driver over the discrete-event backend."""

    backend = "sim"

    def __init__(self, topology, seed=7):
        self.topology = topology
        self.sim = Simulator()
        self.network = Network(self.sim, topology, rng=seed)
        self.transport = SimTransport(self.sim, self.network)

    def run(self, setup, until):
        """Call ``setup(transport)`` at t=0, then advance to ``until``."""
        setup(self.transport)
        self.sim.run(until=until)

    def queued(self):
        """Entries waiting in the engine (simulator heap)."""
        return self.sim.pending()


class AioHarness:
    """Conformance driver over the asyncio backend (scaled wall clock)."""

    backend = "asyncio"
    #: wall seconds per protocol second; keeps each test well under 1s of
    #: wall time while protocol timers still span a meaningful range.
    TIME_SCALE = 0.05

    def __init__(self, topology, seed=7):
        self.topology = topology
        self.transport = AsyncioTransport(
            topology, rng=seed, time_scale=self.TIME_SCALE
        )

    def run(self, setup, until):
        async def main():
            self.transport.start(asyncio.get_running_loop())
            setup(self.transport)
            # Margin over the scaled horizon absorbs call_later jitter.
            await asyncio.sleep(until * self.TIME_SCALE + 0.1)

        asyncio.run(main())
        self.transport.close()

    def queued(self):
        """Entries waiting in the engine (delivery heap + armed loop timer)."""
        t = self.transport
        return len(t._heap) + (t._armed is not None)


@pytest.fixture(params=["sim", "asyncio"])
def harness(request):
    """Factory for a fresh backend harness; ``harness.backend`` names it."""

    def make(topology=None, seed=7):
        topo = topology if topology is not None else two_dc_topology()
        cls = SimHarness if request.param == "sim" else AioHarness
        return cls(topo, seed=seed)

    make.backend = request.param
    return make


class TestTransportContract:
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
            t.partition_dcs(0, 1)
            sent["cut"] = t.send(0, 3, 64, sink, "cut")  # cross-DC: dropped
            sent["lan"] = t.send(0, 1, 64, sink, "lan")  # intra-DC: unaffected
            sent["was_partitioned"] = t.is_partitioned(0, 1)

            def heal_and_resend():
                t.heal_partition(0, 1)
                sent["healed"] = t.send(0, 3, 64, sink, "healed")
                sent["still_partitioned"] = t.is_partitioned(0, 1)

            t.set_timer(0.5, heal_and_resend)

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
            t.partition_dcs(0, 1)
            seen["cut"] = t.send(0, 3, 500, None)

        h.run(setup, until=1.0)
        src = h.network if h.backend == "sim" else h.transport
        assert seen["delay"] == pytest.approx(0.040)
        assert seen["queued"] == 0 and h.queued() == 0
        assert seen["cut"] is None and src.dropped == 1
        assert src.traffic.bytes[LinkClass.INTER_REGION] == 500
        assert src.traffic.messages[LinkClass.INTER_REGION] == 1

    def test_heal_all_clears_every_partition(self, harness):
        topo = Topology(
            [
                Datacenter("a", "r-a"),
                Datacenter("b", "r-b"),
                Datacenter("c", "r-c"),
            ],
            [1, 1, 1],
        )
        t = harness(topo).transport
        t.partition_dcs(0, 1)
        t.partition_dcs(2, 1)  # either argument order cuts the pair
        assert t.is_partitioned(1, 0) and t.is_partitioned(1, 2)
        t.heal_all()
        assert not t.is_partitioned(0, 1)
        assert not t.is_partitioned(1, 2)

    def test_cancelled_timer_never_fires(self, harness):
        h = harness()
        fired = []

        def setup(t):
            doomed = t.set_timer(0.2, fired.append, "cancelled")
            doomed.cancel()
            doomed.cancel()  # idempotent per the TimerHandle contract
            t.set_timer(0.4, fired.append, "kept")

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
                t.set_timer(0.1 * i, start, op)
            t.set_timer(0.15, finish, ops[0])  # the head: its timer goes stale
            t.set_timer(0.45, finish, ops[3])  # done behind open heads
            t.set_timer(0.35, finish, ops[2])

        h.run(setup, until=2.0)
        assert [tag for tag, _ in expired] == [1, 4, "late"]
        for (tag, at), deadline in zip(expired, (0.6, 0.9, 1.1)):
            assert at >= deadline - 1e-9
            if h.backend == "sim":
                assert at == pytest.approx(deadline, abs=1e-12)
        assert len(h.queue) == 0 and h.queue._timer is None

    def test_sample_delay_matches_link_class(self, harness):
        t = harness().transport
        assert t.sample_delay(0, 1) == pytest.approx(0.00025)  # intra-DC
        assert t.sample_delay(0, 3) == pytest.approx(0.040)  # inter-region

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
        traffic = (
            h.network.traffic if h.backend == "sim" else h.transport.traffic
        )
        assert traffic.bytes[LinkClass.INTER_REGION] == 500
        assert traffic.bytes[LinkClass.INTRA_DC] == 100

    def test_crashed_replicas_silence_reads_until_recovery(self, harness):
        # The LocalhostStore facade runs over either transport (that is
        # how repro.runtime.xval compares backends); crashing the whole
        # replica set of a key must fail reads, recovery must restore them.
        h = harness()
        results = []
        state = {}

        def setup(t):
            store = LocalhostStore(
                h.topology, t, replication_factor=2, seed=3
            )
            state["store"] = store
            replicas, _ = store.replica_sets("key1")
            for r in replicas:
                store.crash_node(r)
            store.read("key1", None, results.append)

            def recover_and_read():
                for r in replicas:
                    store.recover_node(r)
                store.read("key1", None, results.append)

            t.set_timer(0.5, recover_and_read)

        h.run(setup, until=2.0)
        assert len(results) == 2
        assert not results[0].ok
        assert results[0].error == "unavailable"
        assert results[1].ok
        assert state["store"].read_failures == 1
        assert state["store"].reads_ok == 1


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

    def test_send_before_start_is_an_error(self):
        t = AsyncioTransport(two_dc_topology())
        with pytest.raises(SimulationError):
            t.send(0, 1, 10, lambda: None)
        with pytest.raises(SimulationError):
            t.set_timer(0.1, lambda: None)

    def test_negative_timer_is_rejected(self):
        t = AsyncioTransport(two_dc_topology())
        with pytest.raises(SimulationError):
            t.set_timer(-0.1, lambda: None)

    def test_self_partition_is_rejected(self):
        t = AsyncioTransport(two_dc_topology())
        with pytest.raises(ConfigError):
            t.partition_dcs(1, 1)

    def test_closed_transport_swallows_inflight_callbacks(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.01)
        got = []

        async def main():
            t.start(asyncio.get_running_loop())
            t.register("sink", got.append)
            t.send(0, 3, 64, got.append, "late")
            t.set_timer(0.5, got.append, "timer")
            t.close()
            await asyncio.sleep(0.1)

        asyncio.run(main())
        assert got == []


def run_on_loop(transport, body):
    """Start ``transport`` on a fresh loop and run ``await body(loop)`` on it."""

    async def main():
        loop = asyncio.get_running_loop()
        transport.start(loop)
        try:
            return await body(loop)
        finally:
            transport.close()

    return asyncio.run(main())


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
        # 1000 frames down one link whose delay is anything in 0-10 ms wall:
        # the per-link floor plus the heap's sequence tie-break keep order.
        topo = Topology(
            [Datacenter("east", "us-east"), Datacenter("west", "eu-west")],
            [3, 3],
            latency={LinkClass.INTER_REGION: UniformLatency(0.0, 0.2)},
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
            t.partition_dcs(1, 0)
            queued = len(t._heap)
            assert t.send(0, 3, 64, got.append, "cut") is None
            assert t.send(3, 0, 64, got.append, "cut") is None  # symmetric
            assert len(t._heap) == queued and t.dropped == 2
            await asyncio.sleep(0.05)

        run_on_loop(t, body)
        assert got == ["in flight"]

    def test_cancelled_timer_never_fires_while_messages_flow(self):
        t = AsyncioTransport(two_dc_topology(), time_scale=0.05)
        fired = []
        hops = []

        async def body(loop):
            doomed = t.set_timer(0.5, fired.append, "cancelled")
            t.set_timer(0.6, fired.append, "kept")

            def bounce(n):
                hops.append(n)
                if n == 20:
                    doomed.cancel()
                t.send(n % 3, (n + 1) % 3, 16, bounce, n + 1)

            t.register("bounce", bounce)
            bounce(0)
            await asyncio.sleep(1.0 * 0.05 + 0.05)

        run_on_loop(t, body)
        assert fired == ["kept"]
        assert len(hops) > 100  # 0.25 ms LAN hops kept flowing past both deadlines

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
