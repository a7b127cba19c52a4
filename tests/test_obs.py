"""Tests for the observability subsystem (repro.obs): tracer, metrics, export."""

import json
import math
import random

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import NoEntry
from repro.common.stats import _percentile
from repro.core.fs import LocoFS
from repro.kv import HashStore
from repro.obs import (
    Histogram,
    LogSketch,
    MetricsRegistry,
    TimeSeries,
    Tracer,
    get_default_registry,
    set_default_registry,
)
from repro.obs.export import chrome_trace_events, metrics_dump, write_chrome_trace
from repro.sim import (
    Cluster,
    CostModel,
    DirectEngine,
    EventEngine,
    Mark,
    Parallel,
    Rpc,
    SpanBegin,
    SpanEnd,
)


# ---------------------------------------------------------------------------
# toy cluster (mirrors test_sim_engine's EchoHandler)
# ---------------------------------------------------------------------------

class EchoHandler:
    def __init__(self):
        self.store = None

    def attach_meter(self, meter):
        self.store = HashStore(meter=meter)

    def op_echo(self, x):
        return x

    def op_put(self, k, v):
        self.store.put(k, v)

    def op_charge(self, us):
        self.store.meter.charge_us(us)
        return "charged"

    def op_fail(self):
        raise NoEntry("nope")


def make_cluster(n=2):
    cost = CostModel()
    cluster = Cluster(cost)
    for i in range(n):
        cluster.add(f"s{i}", EchoHandler())
    return cluster, cost


def g_op(rpcs):
    """A traced pseudo-op wrapping ``rpcs`` like fsbase's _g_traced does."""
    yield SpanBegin("client.op", "op", {"path": "/x"})
    try:
        for rpc in rpcs:
            yield rpc
    finally:
        yield SpanEnd()


def _descends(span, ancestor) -> bool:
    """Whether ``ancestor`` is on ``span``'s parent chain."""
    node = span.parent
    while node is not None and node is not ancestor:
        node = node.parent
    return node is not None


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------

def test_span_nesting_direct_engine():
    cluster, cost = make_cluster()
    engine = DirectEngine(cluster, cost)
    tracer = Tracer()
    engine.attach_observability(tracer=tracer)
    engine.run(g_op([Rpc("s0", "put", (b"k", b"v"))]))

    ops = tracer.find("client.op")
    assert len(ops) == 1
    op = ops[0]
    assert op.end_us is not None and op.args == {"path": "/x"}
    rpcs = tracer.find("rpc.put")
    assert len(rpcs) == 1 and rpcs[0].parent is op
    serve = tracer.find("serve.put")
    assert len(serve) == 1 and serve[0].parent is rpcs[0]
    kv = tracer.find("kv.")
    assert kv and all(_descends(s, op) for s in kv)
    # kv spans lie inside the serve window, laid end to end
    assert all(s.start_us >= serve[0].start_us - 1e-9 for s in kv)
    assert all(s.end_us <= serve[0].end_us + 1e-9 for s in kv)
    # the rpc span covers the serve span plus wire time on the client track
    assert rpcs[0].start_us <= serve[0].start_us
    assert rpcs[0].end_us >= serve[0].end_us
    assert rpcs[0].track != serve[0].track


def test_span_closed_on_error():
    cluster, cost = make_cluster()
    engine = DirectEngine(cluster, cost)
    tracer = Tracer()
    engine.attach_observability(tracer=tracer)
    with pytest.raises(NoEntry):
        engine.run(g_op([Rpc("s0", "fail", ())]))
    op = tracer.find("client.op")[0]
    assert op.end_us is not None  # the finally-yielded SpanEnd closed it


def test_parallel_children_share_parent():
    cluster, cost = make_cluster()
    engine = DirectEngine(cluster, cost)
    tracer = Tracer()
    engine.attach_observability(tracer=tracer)

    def g():
        yield SpanBegin("client.op", "op")
        yield Parallel([Rpc("s0", "charge", (100,)), Rpc("s1", "charge", (300,))])
        yield SpanEnd()

    engine.run(g())
    op = tracer.find("client.op")[0]
    branches = tracer.find("rpc.charge")
    assert len(branches) == 2
    assert all(b.parent is op for b in branches)
    assert {b.args["server"] for b in branches} == {"s0", "s1"}
    assert all(op.start_us <= b.start_us and b.end_us <= op.end_us
               for b in branches)


def test_event_engine_queue_delay_attributed():
    """Two clients hit one server back to back: the second's wait is a
    distinct 'queue' span on the server track, child of its rpc span."""
    cluster, cost = make_cluster(n=1)
    engine = EventEngine(cluster, cost)
    tracer = Tracer()
    metrics = MetricsRegistry()
    engine.attach_observability(tracer=tracer, metrics=metrics)
    for _ in range(2):
        engine.spawn(g_op([Rpc("s0", "charge", (500,))]))
    engine.sim.run()

    queues = tracer.find("queue", cat="queue")
    assert len(queues) == 1  # only the second arrival waited
    q = queues[0]
    assert q.track == "s0" and q.duration_us > 0
    assert q.parent is not None and q.parent.name == "rpc.charge"
    serve = [s for s in tracer.find("serve.charge") if s.parent is q.parent]
    assert len(serve) == 1 and serve[0].start_us == pytest.approx(q.end_us)
    # the wait also landed in the queue_wait histogram
    h = metrics.histograms["s0.queue_wait_us"]
    assert h.count == 2 and h.maximum == pytest.approx(q.duration_us)


def test_event_engine_distinct_client_tracks():
    cluster, cost = make_cluster(n=1)
    engine = EventEngine(cluster, cost)
    tracer = Tracer()
    engine.attach_observability(tracer=tracer)
    for _ in range(2):
        engine.spawn(g_op([Rpc("s0", "echo", (1,))]))
    engine.sim.run()
    tracks = {s.track for s in tracer.find("client.op")}
    assert len(tracks) == 2  # one trace track per spawned client process


def test_tracing_does_not_change_virtual_time():
    """Zero-cost requirement: attaching a tracer must not move the clock."""
    def run_once(attach):
        cluster, cost = make_cluster()
        engine = DirectEngine(cluster, cost)
        if attach:
            engine.attach_observability(tracer=Tracer(), metrics=MetricsRegistry())
        for i in range(5):
            engine.run(g_op([Rpc("s0", "put", (b"k%d" % i, b"v"))]))
        return engine.now

    assert run_once(False) == run_once(True)


def test_trace_is_deterministic():
    def trace_once():
        cluster, cost = make_cluster()
        engine = DirectEngine(cluster, cost)
        tracer = Tracer()
        engine.attach_observability(tracer=tracer)
        engine.run(g_op([Rpc("s0", "put", (b"k", b"v")), Rpc("s1", "echo", (7,))]))
        return chrome_trace_events(tracer)

    assert trace_once() == trace_once()


# ---------------------------------------------------------------------------
# full-system spans: LocoFS create shows client op -> rpc -> kv nesting
# ---------------------------------------------------------------------------

def test_locofs_create_span_tree():
    fs = LocoFS(ClusterConfig(num_metadata_servers=2))
    tracer = Tracer()
    metrics = MetricsRegistry()
    fs.attach_observability(tracer=tracer, metrics=metrics)
    c = fs.client()
    c.mkdir("/d")
    c.create("/d/f")

    creates = tracer.find("client.create")
    assert len(creates) == 1
    op = creates[0]
    rpcs = [s for s in tracer.find("rpc.") if s.parent is op]
    assert rpcs, "create should issue at least one RPC under the op span"
    kv = [s for s in tracer.find("kv.") if _descends(s, op)]
    assert kv, "the create RPC should charge KV work"
    # acceptance: >= 3 nested levels (client op -> rpc -> kv)
    deepest = max(kv, key=lambda s: s.start_us)
    depth = 0
    node = deepest
    while node is not None:
        depth += 1
        node = node.parent
    assert depth >= 3
    # metrics namespacing came along for the ride
    assert metrics.counters["client.create"].value == 1
    assert any(n.startswith("fms") and n.endswith(".files.created")
               for n in metrics.counters)
    assert metrics.histograms["client.create_us"].count == 1


def test_cache_hit_miss_marks_and_counters():
    fs = LocoFS(ClusterConfig(num_metadata_servers=1))
    tracer = Tracer()
    metrics = MetricsRegistry()
    fs.attach_observability(tracer=tracer, metrics=metrics)
    c = fs.client()
    c.mkdir("/d")          # mkdir pre-caches /d for this client
    cold = fs.client()     # a second client starts with an empty cache
    cold.create("/d/a")    # miss on /d ...
    cold.create("/d/b")    # ... then a hit once cached
    names = [i.name for i in tracer.instants]
    assert "client.cache.miss" in names and "client.cache.hit" in names
    assert metrics.counters["client.cache.hit"].value >= 1
    assert metrics.counters["client.cache.miss"].value >= 1


# ---------------------------------------------------------------------------
# metrics: histogram bucket math, time series, registry
# ---------------------------------------------------------------------------

def test_histogram_quantiles_vs_exact():
    rng = random.Random(7)
    values = [rng.lognormvariate(3.0, 1.2) for _ in range(5000)]
    h = MetricsRegistry().histogram("t")
    sketch = LogSketch()
    for v in values:
        h.record(v)
        sketch.record(v)
    # one layout: a registry histogram is the telemetry sketch, named
    assert h.name == "t" and h.counts == sketch.counts
    values.sort()
    for q in (0.5, 0.95, 0.99):
        exact = _percentile(values, q)
        est = h.quantile(q)
        assert est == sketch.quantile(q)
        # one bucket spans 10**(1/8) ≈ 1.33x; allow one bucket of error
        assert est == pytest.approx(exact, rel=0.34)
    assert h.count == 5000
    assert h.mean == pytest.approx(sum(values) / len(values))
    assert h.quantile(0.0) >= h.minimum
    assert h.quantile(1.0) <= h.maximum


def test_histogram_bounds_and_edge_cases():
    h = Histogram("t")
    assert math.isnan(h.quantile(0.5))
    h.record(0.001)   # underflow: below 0.1 µs
    h.record(5e9)     # overflow: at or above 1e9 µs
    h.record(50.0)
    assert h.count == 3
    assert h.counts[0] == 1 and h.counts[-1] == 1
    assert h.minimum == 0.001 and h.maximum == 5e9
    assert h.quantile(0.0) >= 0.0
    assert h.quantile(1.0) <= 5e9
    snap = h.snapshot()
    assert snap["count"] == 3 and snap["max"] == 5e9
    assert set(snap) == {"count", "mean", "min", "max",
                         "p50", "p95", "p99", "p999"}


def test_histogram_single_value():
    h = Histogram("t")
    for _ in range(10):
        h.record(42.0)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == pytest.approx(42.0)


def test_timeseries_decimates_but_keeps_exact_aggregates():
    ts = TimeSeries("t", maxlen=64)
    n = 10_000
    for i in range(n):
        ts.sample(float(i), float(i % 10))
    assert len(ts.samples) < 64
    assert ts.count == n
    assert ts.maximum == 9.0
    assert ts.mean == pytest.approx(4.5)
    times = [t for t, _ in ts.samples]
    assert times == sorted(times)
    assert times[-1] > 0.9 * n  # decimation still covers the whole run


def test_timeseries_exact_at_maxlen_boundary():
    # up to maxlen-1 samples nothing is dropped; the maxlen-th sample
    # triggers the first halving, which keeps the newest sample
    ts = TimeSeries("t", maxlen=8)
    for i in range(7):
        ts.sample(float(i), float(i))
    assert len(ts.samples) == 7  # lossless below the cap
    assert ts.samples == [(float(i), float(i)) for i in range(7)]
    ts.sample(7.0, 7.0)  # crosses the boundary: halve, stride doubles
    assert len(ts.samples) == 4
    assert ts.samples[-1] == (7.0, 7.0)  # tail survives the halving
    times = [t for t, _ in ts.samples]
    assert times == sorted(times)
    # aggregates stay exact through the decimation
    assert ts.count == 8
    assert ts.maximum == 7.0
    assert ts.mean == pytest.approx(3.5)
    assert ts.last == (7.0, 7.0)


def test_registry_snapshot_shapes():
    reg = MetricsRegistry()
    reg.counter("a.b").inc(3)
    reg.gauge("g").set(0.5)
    reg.histogram("h").record(10.0)
    reg.timeseries("t").sample(1.0, 2.0)
    snap = reg.snapshot()
    assert snap["counters"] == {"a.b": 3}
    assert snap["gauges"] == {"g": 0.5}
    assert snap["histograms"]["h"]["count"] == 1
    assert snap["timeseries"]["t"]["count"] == 1
    assert reg.counter("a.b") is reg.counters["a.b"]  # created once


def test_default_registry_roundtrip():
    reg = MetricsRegistry()
    prev = set_default_registry(reg)
    try:
        assert get_default_registry() is reg
    finally:
        set_default_registry(prev)
    assert get_default_registry() is prev


# ---------------------------------------------------------------------------
# satellite: exact-percentile interpolation in common.stats
# ---------------------------------------------------------------------------

def test_percentile_linear_interpolation():
    vals = [10.0, 20.0, 30.0, 40.0]
    assert _percentile(vals, 0.0) == 10.0
    assert _percentile(vals, 1.0) == 40.0
    assert _percentile(vals, 0.5) == pytest.approx(25.0)   # between 20 and 30
    assert _percentile(vals, 0.25) == pytest.approx(17.5)
    assert _percentile([5.0], 0.99) == 5.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_chrome_trace_export_roundtrip(tmp_path):
    fs = LocoFS(ClusterConfig(num_metadata_servers=2))
    tracer = Tracer()
    fs.attach_observability(tracer=tracer)
    c = fs.client()
    c.mkdir("/d")
    for i in range(3):
        c.create(f"/d/f{i}")
    c.stat_file("/d/f0")

    out = tmp_path / "trace.json"
    n = write_chrome_trace(tracer, str(out))
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert len(events) == n > 0

    xs = [e for e in events if e["ph"] == "X"]
    assert xs, "expected complete events"
    for e in xs:
        assert e["dur"] >= 0 and e["ts"] >= 0
        assert "span_id" in e["args"]
    # timed events are sorted by ts
    ts = [e["ts"] for e in events if e["ph"] in ("X", "i")]
    assert ts == sorted(ts)
    # metadata names both process groups and every track
    meta = [e for e in events if e["ph"] == "M"]
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "clients") in names
    assert ("process_name", "servers") in names
    thread_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert "client" in thread_names and "dms" in thread_names
    # client and server events live in different pid groups
    pid_of = {e["args"]["span_id"]: e["pid"] for e in xs}
    client_ops = [e for e in xs if e["name"].startswith("client.")]
    serves = [e for e in xs if e["name"].startswith("serve.")]
    assert {e["pid"] for e in client_ops} != {e["pid"] for e in serves}
    # every parent_id refers to an exported span
    for e in xs:
        parent = e["args"].get("parent_id")
        assert parent is None or parent in pid_of


def test_metrics_dump_json_ready(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.timeseries("q").sample(1.0, 3.0)
    doc = metrics_dump(reg, include_samples=True)
    text = json.dumps(doc)  # must be JSON-serializable
    back = json.loads(text)
    assert back["samples"]["q"] == [[1.0, 3.0]]


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------

def test_throughput_metrics_queue_depth_and_utilization():
    from repro.harness import run_throughput

    metrics = MetricsRegistry()
    r = run_throughput("locofs-c", 2, op="touch", items_per_client=5,
                       client_scale=0.15, metrics=metrics)
    assert r.total_ops > 0
    depth_series = [n for n in metrics.series if n.endswith(".queue_depth")]
    util_series = [n for n in metrics.series if n.endswith(".utilization")]
    assert depth_series and util_series
    for name in depth_series:
        assert metrics.series[name].count > 0
    # final utilization gauges match the runner's own accounting
    for server, u in r.server_utilization.items():
        assert metrics.gauges[f"{server}.utilization"].value == pytest.approx(u)
    assert metrics.counters["harness.locofs-c.measured_ops"].value == r.total_ops


def test_latency_runner_traces_and_mirrors_histograms():
    from repro.harness import run_latency

    tracer = Tracer()
    metrics = MetricsRegistry()
    rec = run_latency("locofs-c", 2, n_items=4, ops=("mkdir", "touch"),
                      tracer=tracer, metrics=metrics)
    assert rec.count("mkdir") == 4 and rec.count("touch") == 4
    assert metrics.histograms["client.op.locofs-c.touch"].count == 4
    assert len(tracer.find("client.create")) == 4
    # exact recorder and bounded histogram agree on the mean
    s = rec.summary("touch")
    assert metrics.histograms["client.op.locofs-c.touch"].mean == pytest.approx(s.mean)


def test_throughput_unaffected_without_observability():
    from repro.harness import run_throughput

    kw = dict(op="touch", items_per_client=5, client_scale=0.15)
    plain = run_throughput("locofs-c", 2, **kw)
    observed = run_throughput("locofs-c", 2, metrics=MetricsRegistry(),
                              tracer=Tracer(), **kw)
    assert plain.iops == pytest.approx(observed.iops)
    assert plain.elapsed_us == pytest.approx(observed.elapsed_us)
