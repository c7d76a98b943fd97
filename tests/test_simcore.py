"""Tests for the discrete-event engine: events, simulator, resources."""

import heapq
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, SimulationError
from repro.simcore import simulator as simulator_module
from repro.simcore.events import Event
from repro.simcore.resources import Resource
from repro.simcore.simulator import Simulator


class TestEvent:
    def test_cancel_drops_references(self):
        payload = [1, 2, 3]
        ev = Event(1.0, 1, print, (payload,))
        ev.cancel()
        assert ev.cancelled
        assert ev.fn is None
        assert ev.args == ()


class TestSimulator:
    def test_fires_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fire_in_schedule_order(self, sim):
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancelled_event_skipped(self, sim):
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_run_until_advances_clock(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_leaves_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.pending() == 1
        sim.run()
        assert fired == ["early", "late"]

    def test_events_scheduled_during_run(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_max_events(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_run_max_events_one_is_a_single_step(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.post_at(2.0, fired.append, 2)
        sim.run(max_events=0)
        assert fired == [] and sim.now == 0.0
        sim.run(max_events=1)
        assert fired == [1] and sim.now == 1.0
        sim.run(max_events=1)
        assert fired == [1, 2] and sim.now == 2.0
        sim.run(max_events=1)  # empty queue: nothing fires, the clock stays
        assert fired == [1, 2] and sim.now == 2.0 and sim.events_processed == 2

    def test_stop_from_callback(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=100.0)
        assert fired == [1]
        assert sim.now == 2.0  # stop prevents clock advance to `until`

    def test_pending_counter_tracks_cancel_and_fire(self, sim):
        events = [sim.schedule(float(i), lambda: None) for i in range(4)]
        assert sim.pending() == 4
        events[1].cancel()
        assert sim.pending() == 3
        events[1].cancel()  # double-cancel must not double-decrement
        assert sim.pending() == 3
        sim.run()
        assert sim.pending() == 0
        events[2].cancel()  # cancel after firing is a no-op
        assert sim.pending() == 0

    def test_pending_counter_during_run(self, sim):
        seen = []
        later = sim.schedule(5.0, lambda: None)
        sim.schedule(1.0, lambda: seen.append(sim.pending()))
        sim.schedule(2.0, later.cancel)
        sim.schedule(3.0, lambda: seen.append(sim.pending()))
        sim.run()
        # at t=1: the t=2, t=3 and t=5 events remain; at t=3: none.
        assert seen == [3, 0]

    def test_not_reentrant(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.0, nested)
        sim.run()

    def test_post_and_schedule_share_one_order(self, sim):
        # handle-free and cancellable entries interleave by call order at
        # equal times: one sequence counter serves both heap-entry shapes
        fired = []
        sim.post_at(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.post_at(1.0, fired.append, "c")
        sim.schedule_at(1.0, fired.append, "d")
        sim.post_at(0.5, fired.append, "first")
        sim.run()
        assert fired == ["first", "a", "b", "c", "d"]
        assert sim.events_processed == 5

    def test_post_returns_no_handle_and_rejects_the_past(self, sim):
        assert sim.post_at(0.0, lambda: None) is None
        with pytest.raises(SimulationError):
            sim.post_at(-1e-9, lambda: None)
        assert sim.pending() == 1  # the rejected post left nothing behind

    def test_introspection_over_mixed_entries(self, sim):
        fired = []
        sim.post_at(2.0, fired.append, "p2")
        early = sim.schedule(1.0, fired.append, "s1")
        sim.post_at(3.0, fired.append, "p3")
        late = sim.schedule(4.0, fired.append, "s4")
        assert sim.pending() == 4
        early.cancel()
        assert sim.pending() == 3
        sim.run(max_events=1)  # skips the cancelled head, fires the post
        assert fired == ["p2"] and sim.now == 2.0
        sim.run(until=3.5)
        assert fired == ["p2", "p3"] and sim.now == 3.5
        assert sim.pending() == 1
        sim.run(max_events=1)
        assert fired[-1] == "s4" and sim.now == 4.0
        assert not late.live and sim.pending() == 0

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_clock(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


#: bit-equal instants shared by absolute ``*_abs`` entries, so that ties
#: across the queue's tiers come up often (2.5 / 3.0: the storm's shape)
_INSTANTS = st.sampled_from([0.5, 1.0, 2.5, 3.0, 4.0, 40.0])

_OPS = st.one_of(
    st.tuples(
        st.sampled_from(["post_at", "schedule", "schedule_at"]), st.floats(0.0, 5.0)
    ),
    st.tuples(st.just("post_at"), st.floats(0.0, 60.0)),  # far-tier entries
    st.tuples(st.sampled_from(["post_at_abs", "schedule_at_abs"]), _INSTANTS),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("run_until"), st.floats(0.0, 3.0)),
    st.tuples(st.just("run_max"), st.integers(0, 4)),
    st.tuples(st.sampled_from(["step", "run"]), st.just(0)),
)


class TestEngineContract:
    """The engine against a one-heap reference model.

    ``pending()``, ``events_processed`` and the fired sequence must match a
    single ``(time, seq)`` heap that holds every entry, whatever the
    far-tier horizon ``_FAR`` is. ``step`` is ``run(max_events=1)``.
    """

    @pytest.mark.parametrize("far", [0.0, 1.0, float("inf")], ids=["far0", "far1", "farinf"])
    @given(ops=st.lists(_OPS, max_size=60))
    @settings(max_examples=150, deadline=None)
    # a cancelled head popped by each of step / run(until) / run(max) / run()
    @example(ops=[("schedule", 1.0), ("post_at", 2.0), ("cancel", 0), ("step", 0)])
    @example(ops=[("schedule", 1.0), ("cancel", 0), ("run_until", 2.0)])
    @example(ops=[("schedule", 1.0), ("post_at", 2.0), ("cancel", 0), ("run_max", 1)])
    @example(ops=[("schedule", 1.0), ("cancel", 0), ("run", 0)])
    # the crash storm's ties: recover@2.5 before crash@2.5, a crash far behind
    # the gate, and a timer armed at 2.5 for 3.0 beside a recover@3.0
    @example(ops=[
        ("post_at_abs", 1.0), ("post_at_abs", 2.5), ("post_at_abs", 2.5),
        ("post_at_abs", 40.0), ("post_at_abs", 3.0), ("post_at_abs", 4.0),
        ("run_until", 2.5), ("schedule", 0.5), ("post_at_abs", 3.0), ("run", 0),
    ])
    # a far entry due before the armed gate, and one tied with it
    @example(ops=[("post_at", 50.0), ("post_at", 20.0), ("post_at", 50.0), ("run", 0)])
    # a side entry admitted after a younger hot entry at its instant: it
    # must keep its own (older) key and still fire first
    @example(ops=[
        ("post_at_abs", 2.5), ("post_at_abs", 3.0), ("schedule_at_abs", 3.0), ("run", 0),
    ])
    def test_pending_matches_live_entries_over_any_interleaving(self, far, ops):
        with mock.patch.object(simulator_module, "_FAR", far):
            self._check_against_one_heap(ops)

    @staticmethod
    def _check_against_one_heap(ops):
        sim = Simulator()
        live = {}  # id -> firing time, for every entry neither fired nor cancelled
        handles = []  # (id, Event), kept after firing/cancel
        fired = []
        ref = []  # the one-heap reference: (time, seq, id) of every entry
        ref_seq = [0]

        def push(n, t):
            live[n] = t
            ref_seq[0] += 1
            heapq.heappush(ref, (t, ref_seq[0], n))

        def ref_head():
            while ref and ref[0][2] not in live:
                heapq.heappop(ref)  # fired or cancelled
            return ref[0] if ref else None

        def fire(i):
            t, _, expected = ref_head()
            assert (sim.now, i) == (t, expected)  # the one-heap order, ties too
            assert sim.now == live.pop(i)
            assert not fired or fired[-1][1] <= sim.now
            fired.append((i, sim.now))

        for n, (op, x) in enumerate(ops):
            if op == "post_at":
                push(n, sim.now + x)
                sim.post_at(sim.now + x, fire, n)
            elif op == "schedule":
                push(n, sim.now + x)
                handles.append((n, sim.schedule(x, fire, n)))
            elif op == "schedule_at":
                push(n, sim.now + x)
                handles.append((n, sim.schedule_at(sim.now + x, fire, n)))
            elif op == "post_at_abs" and x >= sim.now:
                push(n, x)
                sim.post_at(x, fire, n)
            elif op == "schedule_at_abs" and x >= sim.now:
                push(n, x)
                handles.append((n, sim.schedule_at(x, fire, n)))
            elif op == "cancel" and handles:
                i, handle = handles[x % len(handles)]
                handle.cancel()  # also after firing, or twice
                live.pop(i, None)
            elif op == "step":
                before, had_live = len(fired), bool(live)
                sim.run(max_events=1)
                assert len(fired) - before == had_live
            elif op == "run_until":
                until = sim.now + x
                sim.run(until=until)
                assert all(t > until for t in live.values()) and sim.now == until
            elif op == "run_max":
                before, n_live = len(fired), len(live)
                sim.run(max_events=x)
                assert len(fired) - before == min(x, n_live)
            elif op == "run":
                sim.run()
                assert not live
            queued = sim._heap + sim._far
            brute = sum(1 for e in queued if e[2] is not None or not e[3].cancelled)
            assert sim.pending() == len(live) == brute
            assert sim.events_processed == len(fired)

    @pytest.mark.parametrize(
        "bounds", [{}, {"until": 10.0}, {"max_events": 10}], ids=["unbounded", "until", "max"]
    )
    def test_events_processed_exact_after_stop_and_raise(self, bounds):
        sim = Simulator()
        fired = []

        def boom():
            fired.append("boom")
            raise RuntimeError("callback bug")

        sim.post_at(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.post_at(3.0, boom)
        sim.schedule(4.0, fired.append, 4)
        sim.schedule(4.5, fired.append, "cancelled").cancel()
        sim.run(**bounds)
        assert sim.events_processed == 2 and sim.now == 2.0
        with pytest.raises(RuntimeError):
            sim.run(**bounds)
        assert sim.events_processed == 3 and fired == [1, "boom"]
        assert sim.pending() == 1
        sim.run(**bounds)  # not left marked running
        assert sim.events_processed == 4 and fired == [1, "boom", 4]
        assert sim.pending() == 0 and sim._heap == []

    def test_inline_pushes_interleave_with_post_in_seq_order(self):
        # The tie rule: entries due at one bit-equal instant fire in the order
        # they were pushed onto the engine, whoever pushed them -- post_at (a
        # far-tier entry admitted later keeps its original key), schedule_at,
        # SimTransport.set_timer_at, a DeadlineQueue's timer (placed when
        # armed), and the inline pushes of Network.send and Resource.
        from types import SimpleNamespace

        from repro.net.latency import FixedLatency
        from repro.net.topology import Datacenter, LinkClass, Topology
        from repro.runtime.deadlines import DeadlineQueue
        from repro.runtime.sim import SimTransport

        sim = Simulator()
        topo = Topology(
            [Datacenter("a", "r")], [2], latency={LinkClass.INTRA_DC: FixedLatency(2.0)}
        )
        tr = SimTransport(topo, sim=sim)
        net = tr.network
        res = Resource(sim, servers=1)
        log = []

        def expire(op):
            op.finished = True
            log.append("deadline")

        deadlines = DeadlineQueue(tr, expire)
        sim.post_at(1.5, log.append, "gate")  # far: armed as the gate
        sim.post_at(2.0, log.append, "far")  # far: side heap, admitted at 1.5
        net.send(0, 1, 8, log.append, "send")
        res.submit(2.0, log.append, "start")  # idle server: pushed by submit
        res.submit(0.5, log.append, "queued")  # pushed by _finish at t=2.0
        tr.set_timer_at(2.0, log.append, "set_timer_at")
        deadlines.add(2.0, SimpleNamespace(finished=False))  # arms its timer
        tr.post_at(2.0, log.append, "far-2")
        sim.schedule_at(2.0, log.append, "schedule_at")
        net.send(0, 1, 8, log.append, "send-2")
        sim.post_at(2.5, log.append, "far-2.5")  # older than the queued start
        sim.run()
        assert log == [
            "gate", "far", "send", "start", "set_timer_at", "deadline", "far-2",
            "schedule_at", "send-2", "far-2.5", "queued",
        ]
        assert sim.pending() == 0 and sim.events_processed == 11 and not deadlines


class TestResource:
    def test_validation(self, sim):
        with pytest.raises(ConfigError):
            Resource(sim, servers=0)
        r = Resource(sim)
        with pytest.raises(ConfigError):
            r.submit(-1.0, lambda: None)

    def test_single_server_serializes(self, sim):
        r = Resource(sim, servers=1)
        done = []
        r.submit(1.0, lambda: done.append(sim.now))
        r.submit(1.0, lambda: done.append(sim.now))
        r.submit(1.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 2.0, 3.0]
        assert r.completed == 3

    def test_parallel_servers(self, sim):
        r = Resource(sim, servers=3)
        done = []
        for _ in range(3):
            r.submit(1.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 1.0, 1.0]

    def test_queue_wait_shows_in_completion_times(self, sim):
        r = Resource(sim, servers=1)
        done = {}
        r.submit(2.0, lambda: done.setdefault("idle", sim.now))
        r.submit(1.0, lambda: done.setdefault("queued", sim.now))
        sim.run()
        # the idle-server start waits 0.0s; the second request waits 2.0s
        assert done["idle"] == pytest.approx(2.0)
        assert done["queued"] - 1.0 == pytest.approx(2.0)

    def test_busy_and_queued_counters(self, sim):
        r = Resource(sim, servers=1)
        r.submit(1.0, lambda: None)
        r.submit(1.0, lambda: None)
        assert r.busy == 1
        assert r.queued == 1
        sim.run()
        assert r.busy == 0 and r.queued == 0

    def test_fifo_order(self, sim):
        r = Resource(sim, servers=1)
        order = []
        for tag in "abc":
            r.submit(0.5, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    @given(st.integers(1, 4), st.lists(st.floats(0.01, 2.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_property_conservation(self, servers, services):
        sim = Simulator()
        r = Resource(sim, servers=servers)
        done = []
        for s in services:
            r.submit(s, done.append, s)
        sim.run()
        assert sorted(done) == sorted(services)  # nothing lost or duplicated
        assert r.completed == len(services)
        # makespan bounds: at least max service, at most serial sum
        assert sim.now >= max(services) - 1e-9
        assert sim.now <= sum(services) + 1e-9
