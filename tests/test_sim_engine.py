"""Tests for the RPC engines: latency accounting, queueing, errors."""

import cProfile
import math
import pstats

import pytest

from repro.common.errors import Exists, FSError, NoEntry
from repro.kv import HashStore
from repro.obs import MetricsRegistry, TelemetrySink, Tracer
from repro.sim import (
    Cluster,
    CostModel,
    DirectEngine,
    EventEngine,
    FaultSchedule,
    LocalCharge,
    Parallel,
    RetryPolicy,
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

    def op_fail(self, us, error):
        self.store.meter.charge_us(us)
        raise error(f"failed after {us} us")


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


class TestDelayValidation:
    """``Sleep`` / ``LocalCharge`` refuse a delay that would move a clock
    backwards (or poison the event heap with NaN) when built, so both
    engines only ever see delays ``>= 0``."""

    @pytest.mark.parametrize("command", [Sleep, LocalCharge])
    @pytest.mark.parametrize("us", [-4.0, -1e-300, -math.inf, math.nan])
    def test_negative_or_nan_delay_is_refused(self, command, us):
        with pytest.raises(ValueError, match="negative or NaN delay"):
            command(us)

    @pytest.mark.parametrize("command", [Sleep, LocalCharge])
    def test_zero_and_positive_delays_are_kept(self, command):
        assert [command(us).us for us in (0.0, -0.0, 2.5, math.inf)] == \
            [0.0, 0.0, 2.5, math.inf]

    def test_clock_never_moves_backwards(self, engine_factory):
        eng, _ = engine_factory()

        def g():
            yield Sleep(10.0)
            yield Sleep(-4.0)

        with pytest.raises(ValueError, match="negative or NaN delay"):
            eng.run(g())
        assert eng.now == 10.0


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


def _fail(server, us, error):
    return Rpc(server, "fail", (us, error))


def _votes(**payload):
    return [_charge(f"s{i}", us, **payload)
            for i, us in enumerate((15.3, 25.1, 90.7))]


#: one engine command (or the shortest sequence that reaches a code path)
#: per case, as a factory: commands are built anew for every repetition
_SINGLE_CLIENT_CASES = [
    pytest.param(lambda: [_charge()], id="rpc"),
    pytest.param(lambda: [_charge(send=5000)], id="rpc-send_bytes"),
    pytest.param(lambda: [_charge(recv=7001)], id="rpc-recv_bytes"),
    pytest.param(lambda: [_charge(send=5000, recv=7001)],
                 id="rpc-send+recv_bytes"),
    pytest.param(lambda: [Rpc("s0", "echo", (b"x" * 3333,))],
                 id="rpc-bytes-result"),
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
    pytest.param(
        # two failing branches, branch 2's service done long before branch
        # 0's: with no faults the serialized downlink makes both respond
        # at one instant and the index breaks the tie; under a schedule
        # Event sees branch 2 respond first
        lambda: [Parallel([_fail("s0", 40.0, Exists), _charge("s1"),
                           _fail("s2", 1.5, NoEntry)])],
        id="parallel-errors-out-of-order"),
    pytest.param(lambda: [_charge(), Parallel([])], id="parallel-empty"),
    pytest.param(
        lambda: [_charge("s2"),
                 Parallel([_charge("sw", recv=64), _charge("s1", 2.0, send=300),
                           _charge("s0", 1.0)])],
        id="parallel-switch-node"),
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


#: the fault axis, as factories (a schedule is consumed by its run), all
#: under ``RetryPolicy(max_retries=2)``; the crash hits s0 before the first
#: request can arrive and the restart (with the 500 us ``restart_fixed_us``
#: below) lands inside the retry budget.
_FAULT_SCHEDULES = {
    "no-faults": None,
    "empty-schedule": FaultSchedule,
    "crash-restart": lambda: FaultSchedule(seed=7).crash_restart("s0", 50.0, 1500.0),
    "drop-1.0": lambda: FaultSchedule(seed=7, drop_prob=1.0),
    "drop-0.5": lambda: FaultSchedule(seed=7, drop_prob=0.5),
    "delay-0.7": lambda: FaultSchedule(seed=7, delay_prob=0.7),
}

class TestSingleClientEngineIdentity:
    """One client never queues behind anyone, so the two drivers of the
    shared dispatch core must put the clock at the *same double* after
    every command, surface the same errors, count the same attempts and
    record the same span tree.  A case that cannot hold ``==`` is a strict
    xfail carrying the measured pair, never a tolerance."""

    @staticmethod
    def _run(kind, commands, faults="no-faults", tracer=None, metrics=None):
        cluster, cost, _ = make_cluster(3, restart_fixed_us=500.0)
        cluster.add("sw", EchoHandler())
        eng = (DirectEngine if kind == "direct" else EventEngine)(cluster, cost)
        # only a case that reaches the switch node registers it: Direct
        # hands any Parallel of an engine with one to the event driver
        servers = {getattr(c, "server", None) for c in commands()}
        servers.update(r.server for c in commands() for r in getattr(c, "rpcs", ()))
        if "sw" in servers:
            eng.register_switch_node("sw", cost.switch_rtt_us)
        eng.attach_observability(tracer=tracer, metrics=metrics)
        schedule = _FAULT_SCHEDULES[faults]
        if schedule is not None:
            eng.attach_faults(schedule(), RetryPolicy(max_retries=2))
        state = eng._client if kind == "direct" else eng._default_client

        def client():
            probes = []
            # twice: the second pass starts from a non-round clock, a busy
            # downlink and an established connection.  The clock is read
            # inside the generator because the event engine keeps draining
            # a Quorum's late branches after the client has resumed.
            for _ in range(2):
                for cmd in commands():
                    error = None
                    try:
                        yield cmd
                    except FSError as e:
                        error = type(e).__name__
                    probes.append((eng.now, error))
            return probes

        return eng.run(client()), state.rpcs_issued

    @pytest.mark.parametrize("faults", _FAULT_SCHEDULES)
    @pytest.mark.parametrize("commands", _SINGLE_CLIENT_CASES)
    def test_clock_is_bit_identical(self, commands, faults):
        direct = self._run("direct", commands, faults)
        event = self._run("event", commands, faults)
        assert direct == event
        probes, _ = direct
        assert probes[-1][0] > 0.0

    @pytest.mark.parametrize("commands", _SINGLE_CLIENT_CASES)
    def test_span_tree_is_identical(self, commands):
        """Both drivers open the rpc span at the issue instant (before the
        connection switch) and close it at ``respond_at``, so ``repro
        analyze --engine direct`` attributes wire time like ``--engine
        event`` does."""
        spans = {}
        for kind in ("direct", "event"):
            tracer = Tracer()
            self._run(kind, commands, tracer=tracer)
            spans[kind] = sorted((s.name, s.cat, s.start_us, s.end_us)
                                 for s in tracer.spans)
        assert spans["direct"] == spans["event"]

    @pytest.mark.parametrize("commands", _SINGLE_CLIENT_CASES)
    def test_direct_fast_path_is_the_path_it_bypasses(self, commands):
        """With no schedule, ``DirectEngine.run`` serves a lone
        ``Rpc``/``Batch`` and a ``Parallel`` itself; an attached *empty*
        ``FaultSchedule`` hands every command to the event driver
        (``_issue`` / ``_serve`` / ``_FanOut``).  Same clock doubles,
        error classes, ``rpcs_issued``, span tree (ids, parents and args
        included) and registry: the driver samples no queues Direct does
        not."""
        runs = []
        for faults in ("no-faults", "empty-schedule"):
            tracer, metrics = Tracer(), MetricsRegistry()
            probes, issued = self._run("direct", commands, faults, tracer=tracer,
                                       metrics=metrics)
            spans = [(s.span_id, s.name, s.cat, s.start_us, s.end_us, s.track,
                      s.parent_id, s.args) for s in tracer.spans]
            runs.append((probes, issued, spans, metrics.snapshot()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("commands", _SINGLE_CLIENT_CASES + [
        # the late votes still hold the client downlink when the lone
        # request's response comes back: its respond_at is the clamp
        pytest.param(lambda: [Quorum(_votes(recv=20000), 1), _charge("s1")],
                     id="rpc-behind-late-quorum-votes")])
    def test_event_fast_path_is_the_path_it_bypasses(self, commands):
        """With no schedule, tracer or registry, ``EventEngine._step``
        sends a lone ``Rpc``/``Batch`` itself; an attached *empty*
        ``FaultSchedule`` sends the same commands through ``_issue``.
        Both arrive at ``_serve``.  Same clock doubles, error classes and
        ``rpcs_issued``."""
        assert self._run("event", commands) == \
            self._run("event", commands, "empty-schedule")

    @pytest.mark.parametrize("kind", ["direct", "event"])
    def test_parallel_error_ties_go_to_the_lower_index(self, kind):
        """Branch 2 fails first at its server, but the client downlink is
        held by branch 0's response, so both respond at one instant: the
        first error by ``(respond_at, index)`` is branch 0's."""

        def commands():
            return [Parallel([_fail("s0", 40.0, Exists), _charge("s1"),
                              _fail("s2", 1.5, NoEntry)])]

        probes, issued = self._run(kind, commands)
        assert [error for _, error in probes] == ["Exists", "Exists"]
        assert issued == 6

    def test_switch_branch_behind_a_slower_branch(self):
        """A switch-node branch behind a slower branch arrives first and
        takes the client downlink first: Direct hands a switch-node
        ``Parallel`` to the event driver, which serves in arrival order."""

        def commands():
            return [_charge("s2"),
                    Parallel([_charge("s1", 2.0, send=300), _charge("sw", recv=64),
                              _charge("s0", 1.0)])]

        assert self._run("direct", commands) == self._run("event", commands)

    @pytest.mark.xfail(strict=True, reason=(
        "the client downlink is reserved in request-*delivery* order, so "
        "the slow first vote holds it until 266.7 us and both engines "
        "resume there with all three results (ROADMAP 1(c))"))
    @pytest.mark.parametrize("kind", ["direct", "event"])
    def test_quorum_resumes_at_kth_success_when_votes_finish_out_of_order(self, kind):
        """Documented Quorum semantics: resume at the k-th *successful
        completion*; branches still in flight then report ``None``."""
        cluster, cost, _ = make_cluster(3)
        eng = (DirectEngine if kind == "direct" else EventEngine)(cluster, cost)

        def client():
            votes = [_charge(f"s{i}", us) for i, us in enumerate((90.7, 25.1, 15.3))]
            results = yield Quorum(votes, 2)
            return results, eng.now

        results, resumed_at = eng.run(client())
        # half RTT out + service + overhead + half RTT back: 191.3 us for
        # s2's vote, 201.1 us for s1's, 266.7 us for s0's
        assert resumed_at == pytest.approx(174.0 + 25.1 + 2.0)
        assert results == [None, "charged", "charged"]


def _warm_call_count(commands):
    """Calls one warm ``DirectEngine.run`` of ``commands`` makes under
    cProfile, the profiler's own ``disable`` included."""
    cluster, cost, _ = make_cluster(4)
    eng = DirectEngine(cluster, cost)

    def client():
        for cmd in commands:
            yield cmd

    eng.run(client())  # warm: meter keys, the established connection
    prof = cProfile.Profile()
    prof.runcall(eng.run, client())
    return pstats.Stats(prof).total_calls


@pytest.mark.usefixtures("quiet_gc")
class TestLeanDirectDriver:
    """The no-fault DirectEngine pays for ``_serve`` and nothing else per
    request: exact, machine-independent call counts."""

    def test_warm_lone_rpc_exact_call_count(self):
        """CPython 3.11.7 counts 12: ``run``, two generator resumes and
        their ``send`` calls, ``_serve`` with its ``isinstance``, the
        handler's four calls and the profiler's ``disable``."""
        assert _warm_call_count([_charge()]) <= 12

    def test_warm_four_branch_parallel_exact_call_count(self):
        """CPython 3.11.7 counts 34: ``run``, two generator resumes,
        their ``send`` calls and ``disable`` (six), then per branch
        ``_serve``, ``isinstance``, the handler's four calls and one
        ``append``."""
        assert _warm_call_count(
            [Parallel([_charge(f"s{i}") for i in range(4)])]) <= 34


#: a blended LocoFS-A mix: deferred creates, coalescing setattrs,
#: annihilating unlinks, renames and mkdirs, plus reads that force
#: dependent flushes and hit the lookup-cache switch node
_BLENDED = {"create": 0.20, "chmod": 0.15, "chown": 0.05, "unlink": 0.10,
            "rename": 0.05, "mkdir": 0.05, "stat": 0.25, "access": 0.10,
            "open": 0.05}


def _contended_run(monkeypatch, workload, faults, sink):
    """One closed-loop run on the event engine, optionally under an empty
    ``FaultSchedule``: its clock, every node's load and meter, and the
    sink's aggregates."""
    from repro.harness import runner

    build = runner.make_system
    systems = []

    def make_system(*args, **kwargs):
        system = build(*args, **kwargs)
        if faults:
            system.engine.attach_faults(FaultSchedule())
        systems.append(system)
        return system

    monkeypatch.setattr(runner, "make_system", make_system)
    if workload == "touch":
        result = runner.run_throughput("locofs-c", 8, op="touch",
                                       items_per_client=12, client_scale=0.2,
                                       telemetry=sink)
    else:
        result = runner.run_mixed_throughput(
            "locofs-a", 4, mix=_BLENDED, num_clients=16, items_per_client=30,
            pool=8, zipf_s=1.0, seed=5, telemetry=sink)
    monkeypatch.setattr(runner, "make_system", build)
    (system,) = systems
    nodes = {name: (node.requests_served, node.busy_us,
                    dict(node.meter.op_counts), node.meter.total_us)
             for name, node in system.cluster._nodes.items()}
    return (result.elapsed_us, result.total_ops, nodes,
            sink.snapshot() if sink is not None else None)


@pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "sink"])
@pytest.mark.parametrize("workload", ["touch", "blended"])
def test_event_fast_path_under_contention_is_the_path_it_bypasses(
        monkeypatch, workload, telemetry):
    """Many clients queueing at shared servers: the no-fault event path
    (a ``TelemetrySink`` may ride along) gives the same clock, per-node
    ``requests_served`` / ``busy_us``, meter op counts and totals, and
    sink aggregates as the general path an empty schedule selects.  The
    ``locofs-a`` mix covers ``Batch`` flushes and the lookup-cache switch
    node."""
    runs = [_contended_run(monkeypatch, workload, faults,
                           TelemetrySink() if telemetry else None)
            for faults in (False, True)]
    assert runs[0] == runs[1]
    elapsed, ops, nodes, _ = runs[0]
    assert elapsed > 0.0 and ops > 0
    if workload == "blended":
        assert nodes["cache0"][0] > 0
        assert any(node[2].get("batch_record") for node in nodes.values())


def _warm_event_stats(commands, schedule=None):
    """cProfile stats of one warm ``EventEngine.run`` of ``commands``,
    under ``schedule`` when one is given."""
    cluster, cost, _ = make_cluster(4)
    eng = EventEngine(cluster, cost)
    if schedule is not None:
        eng.attach_faults(schedule)

    def client():
        for cmd in commands:
            yield cmd

    eng.run(client())  # warm: meter keys, the established connection
    prof = cProfile.Profile()
    prof.runcall(eng.run, client())
    return pstats.Stats(prof)


def _engine_calls(stats):
    """Calls per ``sim/engine.py`` function name."""
    return {key[2]: row[1] for key, row in stats.stats.items()
            if key[0].replace("\\", "/").endswith("sim/engine.py")}


@pytest.mark.usefixtures("quiet_gc")
class TestLeanEventDriver:
    """The no-fault EventEngine pays one ``_step`` resume and one
    ``_serve`` arrival callback per request beyond the handler: exact,
    machine-independent call counts."""

    def test_lone_rpcs_and_a_batch_cost_one_resume_and_one_arrival_each(self):
        commands = [_charge(), _charge("s1"), _charge("s2", send=300),
                    Batch("s3", [_charge("s3"), _charge("s3", 2.2)])]
        stats = _warm_event_stats(commands)
        # the spawn's first resume, then one resume and one arrival per
        # request: no _issue frame, and _serve schedules the resume itself
        # (an _issue → _deliver → _serve chain made 16 more engine calls
        # here, 82 calls in all)
        assert _engine_calls(stats) == {
            "run": 1, "done": 1, "spawn": 1, "__init__": 1,
            "_step": 5, "_serve": 4, "_exec_batch": 1}
        assert stats.total_calls <= 74

    def test_warm_lone_rpc_exact_call_count(self):
        """CPython 3.11.7 counts 26: ``run``, its ``done`` and three
        ``dict.get``, ``spawn`` with ``_Proc.__init__``, ``Simulator.run``
        with two ``heappop`` and one ``popleft``, two ``_step`` resumes
        with their ``send`` calls and generator resumes, two
        ``heappush``, ``_serve`` with its ``isinstance``, the handler's
        three calls, one ``deque.append`` and the profiler's ``disable``.
        An ``_issue`` and a ``_deliver`` → ``_serve`` pair per request
        made it 28."""
        assert _warm_event_stats([_charge()]).total_calls <= 26

    def test_warm_lone_rpc_under_an_empty_schedule(self):
        """An attached schedule sends the request through ``_issue``, and
        ``_serve`` is still its one arrival callback: one ``_issue``, one
        ``_serve`` and the two ``_step`` resumes.  CPython 3.11.7 counts
        31 calls; a ``_deliver`` hop between arrival and ``_serve`` made
        it 32."""
        stats = _warm_event_stats([_charge()], FaultSchedule())
        calls = _engine_calls(stats)
        assert {name: calls.get(name) for name in ("_issue", "_serve", "_step")} \
            == {"_issue": 1, "_serve": 1, "_step": 2}
        assert stats.total_calls <= 31


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
