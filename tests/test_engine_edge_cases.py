"""Edge cases for the RPC engines beyond the happy path."""

import pytest

from repro.common.errors import NoEntry
from repro.kv import HashStore
from repro.sim import Cluster, CostModel, DirectEngine, EventEngine, Parallel, Rpc, Sleep
from repro.sim.rpc import LocalCharge


class Handler:
    def __init__(self):
        self.store = None

    def attach_meter(self, meter):
        self.store = HashStore(meter=meter)

    def op_ok(self, x=None):
        return x

    def op_fail(self):
        raise NoEntry("nope")

    def op_charge(self, us):
        self.store.meter.charge_us(us)
        return us

    def op_crash(self):
        raise RuntimeError("not an FSError: a server bug")


def build(n=3, **kw):
    cost = CostModel(**kw)
    cluster = Cluster(cost)
    for i in range(n):
        cluster.add(f"s{i}", Handler())
    return cluster, cost


@pytest.fixture(params=["direct", "event"])
def engine(request):
    cluster, cost = build(rtt_us=100.0, server_overhead_us=0.0, conn_switch_us=0.0)
    if request.param == "direct":
        return DirectEngine(cluster, cost)
    return EventEngine(cluster, cost)


class TestParallelEdgeCases:
    def test_empty_parallel_resolves_immediately(self, engine):
        def g():
            results = yield Parallel([])
            return results

        assert engine.run(g()) == []

    def test_parallel_error_surfaces_after_all_complete(self, engine):
        def g():
            try:
                yield Parallel([Rpc("s0", "ok", (1,)), Rpc("s1", "fail"),
                                Rpc("s2", "ok", (3,))])
            except NoEntry:
                return "caught"
            return "missed"

        assert engine.run(g()) == "caught"

    def test_parallel_multiple_errors_first_wins(self, engine):
        def g():
            try:
                yield Parallel([Rpc("s0", "fail"), Rpc("s1", "fail")])
            except NoEntry as e:
                return "caught"

        assert engine.run(g()) == "caught"

    def test_parallel_to_same_server_serializes_service(self, engine):
        def g():
            yield Parallel([Rpc("s0", "charge", (100.0,)),
                            Rpc("s0", "charge", (100.0,))])

        engine.run(g())
        # one RTT overlapped, but the single server works 200us sequentially
        assert engine.now == pytest.approx(300.0)

    def test_parallel_results_keep_order(self, engine):
        def g():
            return (yield Parallel([Rpc("s2", "ok", ("c",)), Rpc("s0", "ok", ("a",)),
                                    Rpc("s1", "ok", ("b",))]))

        assert engine.run(g()) == ["c", "a", "b"]


class TestGeneratorShapes:
    def test_nested_yield_from(self, engine):
        def inner():
            v = yield Rpc("s0", "ok", (21,))
            return v * 2

        def outer():
            v = yield from inner()
            yield Sleep(10.0)
            return v

        assert engine.run(outer()) == 42

    def test_generator_with_no_commands(self, engine):
        def g():
            return "instant"
            yield  # pragma: no cover

        assert engine.run(g()) == "instant"
        assert engine.now == pytest.approx(0.0)

    def test_local_charge(self, engine):
        def g():
            yield LocalCharge(77.0)

        engine.run(g())
        assert engine.now == pytest.approx(77.0)

    def test_unknown_command_rejected(self, engine):
        def g():
            yield "not a command"

        with pytest.raises(TypeError):
            engine.run(g())

    def test_server_bug_propagates(self, engine):
        def g():
            yield Rpc("s0", "crash")

        with pytest.raises(RuntimeError):
            engine.run(g())


class TestEventEngineSpecifics:
    def test_spawn_many_interleaved(self):
        cluster, cost = build(n=1, rtt_us=10.0, server_overhead_us=0.0)
        eng = EventEngine(cluster, cost)
        done = []

        def client(i):
            yield Rpc("s0", "charge", (5.0,))
            yield Sleep(1.0)
            yield Rpc("s0", "charge", (5.0,))
            done.append(i)

        for i in range(20):
            eng.spawn(client(i), client=eng.new_client())
        eng.sim.run()
        assert sorted(done) == list(range(20))

    def test_on_done_receives_exception(self):
        cluster, cost = build(n=1)
        eng = EventEngine(cluster, cost)
        box = {}

        def g():
            yield Rpc("s0", "fail")

        eng.spawn(g(), lambda v, e: box.update(v=v, e=e))
        eng.sim.run()
        assert isinstance(box["e"], NoEntry)

    def test_uplink_serializes_parallel_sends(self):
        cluster, cost = build(n=2, rtt_us=0.0, server_overhead_us=0.0,
                              bandwidth_bpus=1.0)
        eng = EventEngine(cluster, cost)

        def g():
            yield Parallel([Rpc("s0", "ok", (1,), send_bytes=100),
                            Rpc("s1", "ok", (2,), send_bytes=100)])

        eng.run(g())
        # both payloads must cross the client's single uplink: >= 200us
        assert eng.now >= 200.0

    def test_direct_engine_downlink_serializes_receives(self):
        cluster, cost = build(n=2, rtt_us=0.0, server_overhead_us=0.0,
                              bandwidth_bpus=1.0)
        eng = DirectEngine(cluster, cost)

        def g():
            yield Parallel([Rpc("s0", "ok", (1,), recv_bytes=100),
                            Rpc("s1", "ok", (2,), recv_bytes=100)])

        eng.run(g())
        assert eng.now >= 200.0
