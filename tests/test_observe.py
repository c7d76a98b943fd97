"""The store's observer channels: one registration, ``store.observe(obj)``."""

from __future__ import annotations

from repro.cluster.failures import FailureInjector
from repro.cluster.store import CHANNELS
from repro.elastic.rebalance import StreamingRebalancer
from repro.txn.api import TransactionalStore


def recorder(name, channels, log):
    """An observer defining exactly ``channels``; each call logs ``(name, channel)``."""

    def hook(channel):
        return lambda self, payload: log.append((name, channel))

    return type(name, (), {channel: hook(channel) for channel in channels})()


class TestObserve:
    def test_each_observer_hears_exactly_its_channels_in_order(self, simple_store):
        store, log = simple_store, []
        a = recorder("a", ("on_op_complete", "on_node_crash", "on_fault"), log)
        b = recorder(
            "b", ("on_write_propagated", "on_node_recover", "on_op_complete"), log
        )
        store.observe(a)
        store.observe(b)
        tstore = TransactionalStore(store)
        # registered after the transactional layer: still hears its verdicts
        c = recorder(
            "c", ("on_txn_complete", "on_elastic_event", "on_op_complete"), log
        )
        store.observe(c)
        assert store.observers == [a, b, tstore, c]

        elastic = StreamingRebalancer(store)
        FailureInjector(store).crash_node(4, at=0.1, duration=0.1)

        def commit():
            txn = tstore.begin(coordinator=1)
            txn.write("t", 100)
            txn.commit()

        sim = store.sim
        sim.schedule_at(0.0, store.write, "k", 3)
        sim.schedule_at(0.0, store.read, "k", 1)
        sim.schedule_at(0.5, commit)
        sim.schedule_at(1.0, elastic.bootstrap_node, 0)
        sim.run(until=5.0)

        heard = {name: {ch for n, ch in log if n == name} for name in "abc"}
        assert heard == {
            "a": {"on_op_complete", "on_node_crash", "on_fault"},
            "b": {"on_write_propagated", "on_node_recover", "on_op_complete"},
            "c": {"on_txn_complete", "on_elastic_event", "on_op_complete"},
        }
        ops = [n for n, ch in log if ch == "on_op_complete"]
        assert ops == ["a", "b", "c"] * 2
        assert [n for n, ch in log if ch == "on_fault"] == ["a", "a"]  # crash, recover
        assert [n for n, ch in log if ch == "on_txn_complete"] == ["c"]

    def test_hooks_are_bound_once_at_registration(self, simple_store):
        store, log = simple_store, []
        tstore = TransactionalStore(store)
        obs = recorder("x", ("on_op_complete",), log)
        store.observe(obs)
        assert [h.__self__ for h in store.hooks["on_node_crash"]] == [tstore]
        assert [h.__self__ for h in store.hooks["on_op_complete"]] == [obs]
        assert set(store.hooks) == set(CHANNELS)
        # a hook added after registration is not probed for at fire time
        type(obs).on_fault = lambda self, event: log.append(("x", "late"))
        FailureInjector(store).crash_node(2, at=0.1)
        store.sim.run(until=1.0)
        assert log == []
