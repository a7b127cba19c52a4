"""Streaming telemetry: sketches, windows, bounded memory, engine feeds."""

import json
import math

import pytest

from repro.harness import FS_SYSTEM_NAMES, make_system
from repro.harness.runner import run_throughput
from repro.obs.telemetry import (
    DEFAULT_MAX_WINDOWS,
    INGEST_BUFFER,
    SKETCH_BUCKETS,
    LogSketch,
    TelemetrySink,
)


def _percentile(sorted_values, q):
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


# ---------------------------------------------------------------------------
# LogSketch
# ---------------------------------------------------------------------------

def test_sketch_quantiles_vs_exact():
    import random
    rng = random.Random(11)
    values = [rng.lognormvariate(4.0, 1.0) for _ in range(5000)]
    sk = LogSketch()
    for v in values:
        sk.record(v)
    values.sort()
    for q in (0.5, 0.95, 0.99):
        # one bucket spans 10**(1/8) ≈ 1.33x; allow about one bucket
        assert sk.quantile(q) == pytest.approx(_percentile(values, q), rel=0.35)
    assert sk.count == 5000
    assert sk.minimum == values[0] and sk.maximum == values[-1]
    assert sk.quantile(0.0) >= 0.0
    assert sk.quantile(1.0) <= values[-1]


def test_sketch_merge_equals_union():
    import random
    rng = random.Random(5)
    a_vals = [rng.expovariate(0.01) for _ in range(800)]
    b_vals = [rng.expovariate(0.001) for _ in range(800)]
    a, b, u = LogSketch(), LogSketch(), LogSketch()
    for v in a_vals:
        a.record(v)
        u.record(v)
    for v in b_vals:
        b.record(v)
        u.record(v)
    a.merge(b)
    assert a.counts == u.counts
    assert a.count == u.count
    assert a.total == pytest.approx(u.total)
    assert a.minimum == u.minimum and a.maximum == u.maximum
    for q in (0.5, 0.99):
        assert a.quantile(q) == u.quantile(q)


def test_sketch_count_above():
    sk = LogSketch()
    for v in (10.0,) * 90 + (1000.0,) * 10:
        sk.record(v)
    assert sk.count_above(100.0) == pytest.approx(10.0, abs=1.0)
    assert sk.count_above(5000.0) == 0.0
    assert sk.count_above(1.0) == 100.0


def test_sketch_under_and_overflow_buckets():
    sk = LogSketch()
    sk.record(0.0)     # underflow
    sk.record(1e12)    # overflow
    assert sk.counts[0] == 1
    assert sk.counts[SKETCH_BUCKETS - 1] == 1
    assert sk.quantile(0.0) >= 0.0
    assert math.isfinite(sk.quantile(0.5))


def test_sketch_sparse_roundtrip():
    sk = LogSketch()
    for v in (3.0, 50.0, 50.0, 8000.0):
        sk.record(v)
    back = LogSketch.from_sparse(sk.to_sparse(), minimum=sk.minimum,
                                 maximum=sk.maximum, total=sk.total)
    assert back.counts == sk.counts
    assert back.count == sk.count
    assert back.quantile(0.5) == sk.quantile(0.5)


# ---------------------------------------------------------------------------
# TelemetrySink windowing and ring bounds
# ---------------------------------------------------------------------------

def test_ops_land_in_their_windows():
    sink = TelemetrySink(window_us=100.0, max_windows=64)
    sink.op_complete("client.create", 10.0, 50.0)
    sink.op_complete("client.create", 120.0, 150.0)
    sink.op_complete("client.stat", 120.0, 160.0)
    assert sink.count_ops("client.create") == 2
    assert sink.count_ops("client.create", 0.0, 100.0) == 1
    assert sink.count_ops("client.create", 100.0, 200.0) == 1
    assert sink.op_names() == ["client.create", "client.stat"]
    assert sink.total_ops == 3


def test_errors_counted_separately():
    sink = TelemetrySink(window_us=100.0)
    sink.op_complete("client.create", 0.0, 10.0)
    sink.op_complete("client.create", 0.0, 20.0, error="FSError")
    assert sink.count_ops("client.create") == 1
    assert sink.count_ops("client.create", errors=True) == 1
    assert sink.total_ops == 1 and sink.total_errors == 1
    # errors do not pollute the latency sketch
    assert sink.merged_sketch("client.create").count == 1


def test_ring_halves_and_conserves_counts():
    sink = TelemetrySink(window_us=10.0, max_windows=8)
    n = 200
    for i in range(n):
        t = float(i * 10)  # one op per initial window, 200 windows' worth
        sink.op_complete("client.create", t, t + 1.0)
    assert sink.n_windows <= 8
    assert sink.window_us > 10.0  # doubled at least once
    assert sink.window_us == 10.0 * 2 ** round(math.log2(sink.window_us / 10.0))
    assert sink.count_ops("client.create") == n  # nothing lost in merges
    assert sink.merged_sketch("client.create").count == n


def test_window_cache_survives_halving():
    # regression: the window-lookup cache must be invalidated when the
    # ring halves, or samples land in a merged-away window
    sink = TelemetrySink(window_us=10.0, max_windows=4)
    for i in range(100):
        t = float(i * 10)
        sink.op_complete("client.create", t, t + 0.5)
        sink.rpc_complete("dms0", t, t, 0.5)
    assert sink.count_ops("client.create") == 100
    total_requests = sum(
        w.servers["dms0"].requests for w in sink._windows if "dms0" in w.servers)
    assert total_requests == 100


def test_rpc_complete_splits_busy_across_windows():
    sink = TelemetrySink(window_us=100.0)
    # service interval [50, 250) spans three 100µs windows: 50 + 100 + 50
    sink.rpc_complete("dms0", 50.0, 50.0, 200.0)
    sink._drain()
    busy = [w.servers["dms0"].busy_us if "dms0" in w.servers else 0.0
            for w in sink._windows]
    assert busy[0] == pytest.approx(50.0)
    assert busy[1] == pytest.approx(100.0)
    assert busy[2] == pytest.approx(50.0)
    assert sum(busy) == pytest.approx(200.0)


def test_rpc_complete_folds_queue_depth():
    sink = TelemetrySink(window_us=100.0)
    sink.rpc_complete("dms0", 10.0, 12.0, 5.0, depth=3)
    sink.rpc_complete("dms0", 20.0, 25.0, 5.0, depth=7)
    sink._drain()
    cell = sink._windows[0].servers["dms0"]
    assert cell.depth_sum == 10 and cell.depth_n == 2 and cell.depth_max == 7
    assert cell.queue_wait_us == pytest.approx((12.0 - 10.0) + (25.0 - 20.0))


def test_batch_occupancy_recorded():
    sink = TelemetrySink(window_us=100.0)
    sink.rpc_complete("fms0", 10.0, 10.0, 30.0, n_ops=8, batch=True)
    sink._drain()
    cell = sink._windows[0].servers["fms0"]
    assert cell.batches == 1 and cell.batched_ops == 8


def test_marks_counted():
    sink = TelemetrySink(window_us=100.0)
    sink.mark("client.retry", 10.0)
    sink.mark("client.retry", 150.0)
    sink.mark("client.gaveup", 160.0)
    assert sink.mark_total("client.retry") == 2
    assert sink.mark_total("client.gaveup") == 1
    assert sink.mark_total("client.retry", 100.0, 200.0) == 1


def test_heat_timelines_shape():
    sink = TelemetrySink(window_us=100.0)
    sink.rpc_complete("dms0", 10.0, 10.0, 50.0, depth=2)
    sink.rpc_complete("fms0", 110.0, 110.0, 80.0, depth=1)
    heat = sink.heat_timelines()
    assert heat["window_us"] == 100.0
    assert set(heat["servers"]) == {"dms0", "fms0"}
    lanes = heat["servers"]["dms0"]
    n = sink.n_windows
    assert len(lanes["busy"]) == n and len(lanes["queue_depth"]) == n
    assert lanes["busy"][0] == pytest.approx(0.5)
    assert heat["servers"]["fms0"]["busy"][1] == pytest.approx(0.8)
    assert all(0.0 <= b <= 1.0 for lane in heat["servers"].values()
               for b in lane["busy"])


# ---------------------------------------------------------------------------
# buffered ingest
# ---------------------------------------------------------------------------

def test_buffered_ingest_drains_on_query_and_on_cap():
    sink = TelemetrySink(window_us=100.0)
    for i in range(10):
        sink.op_complete("client.create", float(i), float(i) + 1.0)
    assert len(sink._buf) == 10       # nothing folded yet
    assert sink.count_ops("client.create") == 10  # query drains
    assert len(sink._buf) == 0
    # the cap forces a fold even with no queries at all
    for i in range(INGEST_BUFFER + 5):
        sink.mark("m", float(i % 50))
    assert len(sink._buf) < INGEST_BUFFER
    assert sink.mark_total("m") == INGEST_BUFFER + 5 + 0


def test_buffered_ingest_equals_eager_order():
    # interleaved hook calls must fold to the same state as eager calls
    a, b = TelemetrySink(window_us=50.0), TelemetrySink(window_us=50.0)
    events = [(12.0, "client.create"), (61.0, "client.stat"),
              (62.0, "client.create"), (130.0, "client.create")]
    for t, op in events:
        a.op_complete(op, t - 10.0, t)
        a.rpc_complete("dms0", t, t, 3.0, depth=1)
        a.mark("client.retry", t)
    for t, op in events:  # b folds eagerly, one event at a time
        b.op_complete(op, t - 10.0, t)
        b._drain()
        b.rpc_complete("dms0", t, t, 3.0, depth=1)
        b._drain()
        b.mark("client.retry", t)
        b._drain()
    assert a.snapshot() == b.snapshot()


def test_clear_resets_everything():
    sink = TelemetrySink(window_us=100.0)
    sink.op_complete("client.create", 0.0, 10.0)
    sink.mark("m", 5.0)
    sink.clear()
    assert sink.total_ops == 0 and sink.total_errors == 0
    assert sink.n_windows == 0
    assert sink.snapshot()["windows"] == []


# ---------------------------------------------------------------------------
# bounded memory
# ---------------------------------------------------------------------------

def test_snapshot_is_o_windows_not_o_ops():
    """A 1M-op ingest keeps the ring bounded and the snapshot under 1 MB."""
    sink = TelemetrySink(window_us=64.0, max_windows=DEFAULT_MAX_WINDOWS)
    n = 1_000_000
    for i in range(n):
        t = i * 2.0
        sink.op_complete("client.create", t - 40.0, t)
        if i % 64 == 0:
            sink.rpc_complete("dms%d" % (i % 4), t, t + 1.0, 10.0,
                              depth=i % 7)
    assert sink.total_ops == n
    assert sink.n_windows <= DEFAULT_MAX_WINDOWS
    assert len(sink._buf) < INGEST_BUFFER
    blob = json.dumps(sink.snapshot())
    assert len(blob) < 1_000_000, f"snapshot {len(blob)} bytes"
    assert sink.count_ops("client.create") == n


# ---------------------------------------------------------------------------
# engine feeds
# ---------------------------------------------------------------------------

def test_event_engine_feeds_telemetry():
    sink = TelemetrySink()
    r = run_throughput("locofs-c", 4, op="touch", items_per_client=6,
                       client_scale=0.2, telemetry=sink)
    assert sink.count_ops("client.create") == r.total_ops
    sk = sink.merged_sketch("client.create")
    assert sk.count == r.total_ops
    assert sk.quantile(0.5) > 0.0
    assert len(sink.server_names()) >= 2  # dms + fms fleet visible
    snap = sink.snapshot()
    assert snap["totals"]["ops"]["client.create"] == r.total_ops
    assert snap["heat"]["servers"]


def test_direct_engine_feeds_telemetry():
    from repro.harness.mdtest import run_latency

    sink = TelemetrySink()
    rec = run_latency("locofs-c", 4, n_items=8, telemetry=sink,
                      ops=("file-stat",))
    assert rec.count("file-stat") == 8
    assert sink.count_ops("client.stat_file") >= 8
    assert sink.count_ops("client.create") >= 8  # setup creates flow too
    assert sink.merged_sketch("client.stat_file").count >= 8


def test_telemetry_attached_clock_identical():
    """The sink observes; it must never perturb virtual time."""
    plain = run_throughput("locofs-c", 4, op="touch", items_per_client=6,
                           client_scale=0.2)
    attached = run_throughput("locofs-c", 4, op="touch", items_per_client=6,
                              client_scale=0.2, telemetry=TelemetrySink())
    assert attached.elapsed_us == plain.elapsed_us  # bit-identical clock
    assert attached.total_ops == plain.total_ops
    assert attached.iops == plain.iops


@pytest.mark.parametrize("engine_kind", ["direct", "event"])
@pytest.mark.parametrize("name", FS_SYSTEM_NAMES)
def test_public_api_ops_all_reach_a_lone_sink(name, engine_kind):
    """Every op of the public synchronous API is bracketed for a sink attached
    alone, on every file-system row (a write-behind create fast path whose
    guard knew only the tracer and the registry once skipped the bracket)."""
    system = make_system(name, 2, engine_kind=engine_kind)
    sink = TelemetrySink()
    system.engine.attach_observability(telemetry=sink)
    c = system.client()
    c.mkdir("/d")
    for n in range(5):
        c.create(f"/d/f{n}")
    for n in range(5):
        c.stat_file(f"/d/f{n}")
    for n in range(5):
        c.unlink(f"/d/f{n}")
    if hasattr(c, "flush"):
        c.flush()
    assert {op: sink.count_ops(op) for op in sink.op_names()} == {
        "client.mkdir": 1, "client.create": 5,
        "client.stat_file": 5, "client.unlink": 5}


def test_attached_sink_call_count_budget():
    """The sink's cost contract (ROADMAP item 4) as a work count: the Python
    calls an attached sink adds per op, under cProfile, which repeat exactly
    where the wall-clock ratio of the same two runs reads 1.10-1.31 on one
    container (``python3 -m bench --trace 1`` reports it as
    ``obs.telemetry_overhead_x``; nothing gates on it).

    The budget is the difference, not the ratio: the sink's per-op cost is
    what it is, so a leaner unattached path would shrink a ratio's
    denominator and fail it with the sink unchanged.  CPython 3.11.7: 72.81
    calls per op unattached, 87.68 attached, +14.87 (+14.95 when the
    unattached path took 97.77).  The telemetry-only fast paths
    (``op_bracket``, ``_g_telemetry``, the engines' folded
    ``rpc_complete``) exist to hold this; the ceiling leaves room for
    interpreters that count builtins differently and for no further call
    per attached op.
    """
    import cProfile

    def calls_per_op(telemetry):
        prof = cProfile.Profile()
        r = prof.runcall(run_throughput, "locofs-c", 8, op="touch",
                         items_per_client=60, telemetry=telemetry)
        return sum(e.callcount for e in prof.getstats()) / r.total_ops, r

    # same process state for both counts: the first run of a workload shape
    # pays the imports and fills the process-wide memos (ring points, path
    # splits), which neither counted run should see
    run_throughput("locofs-c", 8, op="touch", items_per_client=60)
    plain_calls, plain = calls_per_op(None)
    attached_calls, attached = calls_per_op(TelemetrySink())
    assert attached.total_ops == plain.total_ops == 7800
    assert attached.elapsed_us == plain.elapsed_us  # the sink only observes
    assert attached_calls - plain_calls <= 15.5, (plain_calls, attached_calls)
