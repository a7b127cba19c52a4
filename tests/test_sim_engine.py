"""Tests for the RPC engines: latency accounting, queueing, errors."""

import pytest

from repro.common.errors import FSError, NoEntry
from repro.kv import HashStore
from repro.sim import (
    Cluster,
    CostModel,
    DirectEngine,
    EventEngine,
    FaultSchedule,
    LocalCharge,
    Parallel,
    Rpc,
    Sleep,
)
from repro.sim.rpc import Batch, Quorum


class EchoHandler:
    """Toy server: op_echo returns its argument; op_kv_* hit a metered store."""

    def __init__(self):
        self.store = None
        self.calls = 0

    def attach_meter(self, meter):
        self.store = HashStore(meter=meter)

    def op_echo(self, x):
        self.calls += 1
        return x

    def op_put(self, k, v):
        self.store.put(k, v)

    def op_get(self, k):
        v = self.store.get(k)
        if v is None:
            raise NoEntry(k.decode())
        return v

    def op_charge(self, us):
        self.store.meter.charge_us(us)
        return "charged"


def make_cluster(n=2, **cost_kw):
    cost = CostModel(**cost_kw)
    cluster = Cluster(cost)
    handlers = [EchoHandler() for _ in range(n)]
    for i, h in enumerate(handlers):
        cluster.add(f"s{i}", h)
    return cluster, cost, handlers


def g_single(server="s0", x=42):
    result = yield Rpc(server, "echo", (x,))
    return result


def g_two_calls():
    a = yield Rpc("s0", "echo", (1,))
    b = yield Rpc("s1", "echo", (2,))
    return a + b


def g_parallel():
    results = yield Parallel([Rpc("s0", "charge", (100,)), Rpc("s1", "charge", (300,))])
    return results


def g_catch_error():
    try:
        yield Rpc("s0", "get", (b"missing",))
    except NoEntry:
        return "caught"
    return "not caught"


@pytest.fixture(params=["direct", "event"])
def engine_factory(request):
    def make(**cost_kw):
        cluster, cost, handlers = make_cluster(**cost_kw)
        if request.param == "direct":
            return DirectEngine(cluster, cost), handlers
        return EventEngine(cluster, cost), handlers

    return make


class TestBothEngines:
    def test_returns_generator_value(self, engine_factory):
        eng, handlers = engine_factory()
        assert eng.run(g_single()) == 42
        assert handlers[0].calls == 1

    def test_rpc_charges_rtt_and_service(self, engine_factory):
        eng, _ = engine_factory(rtt_us=100.0, server_overhead_us=2.0)
        eng.run(g_single())
        # one RPC: full RTT + server overhead (echo does no KV work)
        assert eng.now == pytest.approx(102.0)

    def test_connection_switch_cost(self, engine_factory):
        eng, _ = engine_factory(rtt_us=100.0, server_overhead_us=0.0, conn_switch_us=50.0)
        eng.run(g_two_calls())
        # two RPCs to different servers: second one pays the switch cost
        assert eng.now == pytest.approx(100 + 50 + 100)

    def test_no_switch_cost_same_server(self, engine_factory):
        eng, _ = engine_factory(rtt_us=100.0, server_overhead_us=0.0, conn_switch_us=50.0)

        def g():
            yield Rpc("s0", "echo", (1,))
            yield Rpc("s0", "echo", (2,))

        eng.run(g())
        assert eng.now == pytest.approx(200.0)

    def test_sleep_advances_clock(self, engine_factory):
        eng, _ = engine_factory()

        def g():
            yield Sleep(500.0)

        eng.run(g())
        assert eng.now == pytest.approx(500.0)

    def test_parallel_latency_is_slowest_branch(self, engine_factory):
        eng, _ = engine_factory(rtt_us=100.0, server_overhead_us=0.0)
        results = eng.run(g_parallel())
        assert results == ["charged", "charged"]
        # slowest branch: 100us RTT + 300us service
        assert eng.now == pytest.approx(400.0)

    def test_fs_errors_propagate_into_generator(self, engine_factory):
        eng, _ = engine_factory()
        assert eng.run(g_catch_error()) == "caught"

    def test_uncaught_fs_error_raises(self, engine_factory):
        eng, _ = engine_factory()

        def g():
            yield Rpc("s0", "get", (b"missing",))

        with pytest.raises(NoEntry):
            eng.run(g())

    def test_metered_service_time(self, engine_factory):
        eng, _ = engine_factory(rtt_us=0.0, server_overhead_us=0.0)

        def g():
            yield Rpc("s0", "charge", (123.0,))

        eng.run(g())
        assert eng.now == pytest.approx(123.0)

    def test_payload_transfer_time(self, engine_factory):
        eng, _ = engine_factory(rtt_us=0.0, server_overhead_us=0.0, bandwidth_bpus=1.0)

        def g():
            yield Rpc("s0", "echo", (1,), send_bytes=500, recv_bytes=300)

        eng.run(g())
        assert eng.now == pytest.approx(800.0)


class TestEventEngineQueueing:
    def test_fifo_contention_serializes_service(self):
        cluster, cost, handlers = make_cluster(rtt_us=0.0, server_overhead_us=0.0)
        eng = EventEngine(cluster, cost)
        done_times = []

        def client():
            yield Rpc("s0", "charge", (100.0,))

        for _ in range(3):
            eng.spawn(client(), lambda v, e: done_times.append(eng.now))
        eng.sim.run()
        # all three arrive together; the single server processes them FIFO
        assert done_times == [pytest.approx(100.0), pytest.approx(200.0), pytest.approx(300.0)]

    def test_two_servers_process_in_parallel(self):
        cluster, cost, handlers = make_cluster(n=2, rtt_us=0.0, server_overhead_us=0.0)
        eng = EventEngine(cluster, cost)
        done = []

        def client(server):
            yield Rpc(server, "charge", (100.0,))

        eng.spawn(client("s0"), lambda v, e: done.append(("s0", eng.now)))
        eng.spawn(client("s1"), lambda v, e: done.append(("s1", eng.now)))
        eng.sim.run()
        assert [t for _, t in done] == [pytest.approx(100.0), pytest.approx(100.0)]

    def test_closed_loop_throughput_saturates_at_service_rate(self):
        # 10 clients hammer one server with 10us ops and zero network: the
        # server is the bottleneck, so ~1 op per 10us completes.
        cluster, cost, _ = make_cluster(rtt_us=0.0, server_overhead_us=0.0, conn_switch_us=0.0)
        eng = EventEngine(cluster, cost)
        completed = [0]
        horizon = 100_000.0

        def client_loop():
            while eng.now < horizon:
                yield Rpc("s0", "charge", (10.0,))
                completed[0] += 1

        for _ in range(10):
            eng.spawn(client_loop())
        eng.sim.run(until=horizon * 1.2)
        rate_per_us = completed[0] / horizon
        assert rate_per_us == pytest.approx(0.1, rel=0.05)

    def test_server_utilization_accounting(self):
        cluster, cost, _ = make_cluster(rtt_us=0.0, server_overhead_us=0.0)
        eng = EventEngine(cluster, cost)
        eng.run(iter(g_single()))
        node = cluster["s0"]
        assert node.requests_served == 1

    def test_run_reraises_errors(self):
        cluster, cost, _ = make_cluster()
        eng = EventEngine(cluster, cost)

        def g():
            yield Rpc("s0", "get", (b"nope",))

        with pytest.raises(NoEntry):
            eng.run(g())


def _charge(server="s0", us=3.7, send=0, recv=0):
    return Rpc(server, "charge", (us,), send_bytes=send, recv_bytes=recv)


def _votes(**payload):
    return [_charge(f"s{i}", us, **payload)
            for i, us in enumerate((15.3, 25.1, 90.7))]


#: response payload on a plain Rpc: DirectEngine adds the transfer time and
#: then the half-RTT, EventEngine the half-RTT and then the transfer time
#: (same terms, other association), so the clocks part by one ulp.  The
#: recv_bytes-only case runs the same code and agrees only by rounding luck.
_RESPONSE_ORDER = "response transfer and half-RTT are summed in the other order"

#: one engine command (or the shortest sequence that reaches a code path)
#: per case, as a factory: commands are built anew for every repetition
_SINGLE_CLIENT_CASES = [
    pytest.param(lambda: [_charge()], id="rpc"),
    pytest.param(lambda: [_charge(send=5000)], id="rpc-send_bytes"),
    pytest.param(lambda: [_charge(recv=7001)], id="rpc-recv_bytes"),
    pytest.param(
        lambda: [_charge(send=5000, recv=7001)], id="rpc-send+recv_bytes",
        marks=pytest.mark.xfail(strict=True, reason=(
            f"{_RESPONSE_ORDER}: direct - event = 5.7e-14 us at 282.27 us"))),
    pytest.param(
        lambda: [Rpc("s0", "echo", (b"x" * 3333,))], id="rpc-bytes-result",
        marks=pytest.mark.xfail(strict=True, reason=(
            f"{_RESPONSE_ORDER}: direct - event = 2.8e-14 us at 204.49 us"))),
    pytest.param(lambda: [_charge(), _charge("s1", send=100)],
                 id="rpc-conn-switch"),
    pytest.param(lambda: [_charge("sw", recv=64)], id="rpc-switch-node"),
    pytest.param(lambda: [Rpc("s0", "get", (b"missing",))], id="rpc-error"),
    pytest.param(
        lambda: [Parallel([_charge(f"s{i}", 1.1 * (i + 1)) for i in range(3)])],
        id="parallel"),
    pytest.param(
        lambda: [Parallel([_charge("s0", send=4097, recv=911),
                           _charge("s1", 9.3, send=13, recv=20011),
                           _charge("s0", 0.9, send=777)])],
        id="parallel-payloads"),
    pytest.param(lambda: [Batch("s0", [_charge(), _charge(us=2.2)])],
                 id="batch"),
    pytest.param(
        lambda: [Batch("s1", [_charge("s1", send=301, recv=17),
                              _charge("s1", 2.2, send=4099),
                              Rpc("s1", "echo", (b"y" * 555,))])],
        id="batch-payloads"),
    pytest.param(lambda: [Sleep(12.3)], id="sleep"),
    pytest.param(lambda: [LocalCharge(40.1)], id="local-charge"),
    pytest.param(lambda: [Quorum(_votes(), 2)], id="quorum"),
    pytest.param(lambda: [Quorum(_votes(send=2049, recv=33), 2)],
                 id="quorum-payloads"),
]


class TestSingleClientEngineIdentity:
    """One client never queues behind anyone, so the two engines must put
    the clock at the *same double* after every command — the go/no-go
    input for making DirectEngine a driver over the event core (ROADMAP
    item 2).  A case that cannot hold ``==`` is a strict xfail carrying
    the measured delta, never a tolerance."""

    @staticmethod
    def _clocks(kind, commands, faults):
        cluster, cost, _ = make_cluster(3)
        cluster.add("sw", EchoHandler())
        eng = (DirectEngine if kind == "direct" else EventEngine)(cluster, cost)
        eng.register_switch_node("sw", cost.switch_rtt_us)
        if faults:
            eng.attach_faults(FaultSchedule())

        def client():
            clocks = []
            # twice: the second pass starts from a non-round clock, a busy
            # downlink and an established connection.  The clock is read
            # inside the generator because the event engine keeps draining
            # a Quorum's late branches after the client has resumed.
            for _ in range(2):
                for cmd in commands():
                    try:
                        yield cmd
                    except FSError:
                        pass
                    clocks.append(eng.now)
            return clocks

        return eng.run(client())

    @pytest.mark.parametrize("faults", [False, True],
                             ids=["no-faults", "empty-schedule"])
    @pytest.mark.parametrize("commands", _SINGLE_CLIENT_CASES)
    def test_clock_is_bit_identical(self, commands, faults):
        direct = self._clocks("direct", commands, faults)
        event = self._clocks("event", commands, faults)
        assert direct == event
        assert direct[-1] > 0.0


class TestClusterRegistry:
    def test_duplicate_name_rejected(self):
        cluster, _, _ = make_cluster()
        with pytest.raises(ValueError):
            cluster.add("s0", EchoHandler())

    def test_unknown_op_raises(self):
        cluster, cost, _ = make_cluster()
        eng = DirectEngine(cluster, cost)

        def g():
            yield Rpc("s0", "nonexistent", ())

        with pytest.raises(AttributeError):
            eng.run(g())

    def test_names_and_contains(self):
        cluster, _, _ = make_cluster(n=3)
        assert cluster.names() == ["s0", "s1", "s2"]
        assert "s1" in cluster
        assert "zz" not in cluster
