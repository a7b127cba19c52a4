"""Tests for the latency-attribution layer (repro.obs.analyze) and the
batch-aware span links feeding it."""

import json

import pytest

from repro.common.config import BatchConfig, ClusterConfig
from repro.core.fs import LocoFS
from repro.harness import run_latency, run_throughput
from repro.obs import MetricsRegistry, NullTracer, Tracer
from repro.obs.analyze import (
    LINK_BATCH_FLUSH,
    PHASES,
    analyze_ops,
    attribution_report,
    compare_attribution,
    format_attribution,
    heat_timelines,
    link_summary,
)
from repro.obs.export import chrome_trace_events, metrics_dump, write_chrome_trace


def batched_fs(max_ops=4, servers=2, engine_kind="direct", **kw):
    return LocoFS(
        ClusterConfig(num_metadata_servers=servers,
                      batch=BatchConfig(enabled=True, max_ops=max_ops, **kw)),
        engine_kind=engine_kind,
    )


def traced_batched_run(n_creates=8, max_ops=4):
    """A locofs-b direct run with tracer+metrics attached; returns both."""
    fs = batched_fs(max_ops=max_ops)
    tracer, registry = Tracer(), MetricsRegistry()
    fs.engine.attach_observability(tracer=tracer, metrics=registry)
    client = fs.client()
    client.mkdir("/d")
    for i in range(n_creates):
        client.create(f"/d/f{i}")
    client.flush()
    return tracer, registry


# ---------------------------------------------------------------------------
# span links
# ---------------------------------------------------------------------------

class TestSpanLinks:
    def test_every_deferred_create_links_to_exactly_one_flush(self):
        tracer, _ = traced_batched_run(n_creates=8, max_ops=4)
        creates = [s for s in tracer.spans if s.name == "client.create"]
        assert len(creates) == 8
        for op in creates:
            flushes = [d for d, k in op.links if k == LINK_BATCH_FLUSH]
            assert len(flushes) == 1
            assert flushes[0].name.startswith("rpc.batch[")
            assert flushes[0].end_us is not None

    def test_flush_span_carries_the_batch_size(self):
        tracer, _ = traced_batched_run(n_creates=4, max_ops=4)
        batches = [s for s in tracer.spans if s.name.startswith("rpc.batch[")]
        assert batches and batches[0].name == "rpc.batch[1]"
        summary = link_summary(tracer)
        assert summary["count"] == summary["resolved"] == 4
        assert summary["by_kind"] == {LINK_BATCH_FLUSH: 4}
        assert summary["deferred_ops"] == 4
        assert summary["multi_link_ops"] == 0

    def test_event_engine_links_too(self):
        tracer = Tracer()
        run_throughput("locofs-b", 2, op="touch", items_per_client=6,
                       client_scale=0.1, tracer=tracer)
        summary = link_summary(tracer)
        assert summary["deferred_ops"] > 0
        assert summary["resolved"] == summary["count"]
        assert summary["multi_link_ops"] == 0

    def test_no_links_without_batching(self):
        tracer = Tracer()
        run_latency("locofs-c", 2, n_items=4, tracer=tracer)
        assert link_summary(tracer)["count"] == 0

    def test_null_tracer_link_is_noop(self):
        nt = NullTracer()
        a = nt.begin("a", "op", 0.0, "c")
        b = nt.begin("b", "rpc", 0.0, "c")
        nt.link(a, b, LINK_BATCH_FLUSH)
        assert a.links == []


# ---------------------------------------------------------------------------
# per-record batch spans (satellite: no more holes in locofs-b traces)
# ---------------------------------------------------------------------------

class TestBatchRecordSpans:
    def test_batch_gets_record_children_under_its_rpc_span(self):
        tracer, _ = traced_batched_run(n_creates=4, max_ops=4)
        records = [s for s in tracer.spans if s.cat == "record"]
        assert records, "batch execution produced no record spans"
        for rec in records:
            assert rec.name == "batch.apply_batch"
            assert rec.parent is not None and rec.parent.name.startswith("rpc.batch[")
            assert rec.end_us is not None and rec.duration_us > 0
        # the KV breakdown nests under the record, not the raw batch span
        kv_kids = [s for s in tracer.spans
                   if s.cat == "kv" and s.parent in records]
        assert kv_kids

    def test_record_spans_on_event_engine(self):
        tracer = Tracer()
        run_throughput("locofs-b", 2, op="touch", items_per_client=6,
                       client_scale=0.1, tracer=tracer)
        assert any(s.cat == "record" for s in tracer.spans)

    def test_records_land_in_server_pid_group(self, tmp_path):
        tracer, _ = traced_batched_run(n_creates=4, max_ops=4)
        events = chrome_trace_events(tracer)
        recs = [e for e in events if e.get("cat") == "record"]
        assert recs and all(e["pid"] == 2 for e in recs)


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------

class TestAttribution:
    def test_deferred_creates_report_nonzero_client_queue(self):
        tracer, _ = traced_batched_run(n_creates=8, max_ops=4)
        ops = analyze_ops(tracer)
        create = ops["client.create"]
        assert create["count"] == 8
        assert create["deferred"] == 8
        assert create["phases_us"]["client_queue"]["mean"] > 0
        # enqueue-to-durable latency dwarfs the op span itself
        assert create["latency_us"]["p50"] > 0

    def test_sync_ops_have_zero_client_queue(self):
        tracer = Tracer()
        run_latency("locofs-c", 2, n_items=6, tracer=tracer)
        ops = analyze_ops(tracer)
        for row in ops.values():
            assert row["deferred"] == 0
            assert row["phases_us"]["client_queue"]["mean"] == 0.0

    def test_phase_shares_sum_to_one(self):
        tracer = Tracer()
        run_latency("locofs-c", 2, n_items=6, tracer=tracer)
        for name, row in analyze_ops(tracer).items():
            total = sum(row["phase_share"][p] for p in PHASES)
            if sum(row["phases_us"][p]["mean"] for p in PHASES) > 0:
                assert total == pytest.approx(1.0), name

    def test_sync_phase_sum_matches_latency(self):
        """For synchronous ops the decomposition is exact, not amortized."""
        tracer = Tracer()
        run_latency("locofs-c", 2, n_items=5, tracer=tracer, ops=("mkdir",))
        row = analyze_ops(tracer)["client.mkdir"]
        phase_mean = sum(row["phases_us"][p]["mean"] for p in PHASES)
        assert phase_mean == pytest.approx(row["latency_us"]["mean"], rel=1e-9)

    def test_batching_shifts_share_from_network_to_client_queue(self):
        base = Tracer()
        run_throughput("locofs-c", 2, op="touch", items_per_client=8,
                       client_scale=0.1, tracer=base)
        batched = Tracer()
        run_throughput("locofs-b", 2, op="touch", items_per_client=8,
                       client_scale=0.1, tracer=batched)
        c0 = analyze_ops(base)["client.create"]
        c1 = analyze_ops(batched)["client.create"]
        assert c0["phase_share"]["client_queue"] == 0.0
        assert c1["phase_share"]["client_queue"] > 0.2
        assert c1["phase_share"]["network"] < c0["phase_share"]["network"]

    def test_empty_trace(self):
        report = attribution_report(Tracer())
        assert report["ops"] == {}
        assert report["links"]["count"] == 0
        assert report["heat"]["servers"] == {}
        assert "latency attribution" in format_attribution(report)

    def test_single_span_trace(self):
        tracer = Tracer()
        s = tracer.begin("client.solo", "op", 0.0, "client0")
        tracer.end(s, 10.0)
        ops = analyze_ops(tracer)
        assert ops["client.solo"]["latency_us"]["p99"] == 10.0
        assert ops["client.solo"]["phase_share"]["client"] == 1.0


# ---------------------------------------------------------------------------
# heat timelines
# ---------------------------------------------------------------------------

class TestHeatTimelines:
    def test_bounds_and_shape(self):
        tracer = Tracer()
        run_throughput("locofs-c", 2, op="touch", items_per_client=8,
                       client_scale=0.1, tracer=tracer)
        heat = heat_timelines(tracer)
        assert heat["window_us"] > 0
        assert set(heat["servers"]) == {"dms", "fms0", "fms1"}
        for series in heat["servers"].values():
            assert all(0.0 <= v <= 1.0 for v in series["busy"])
            assert all(v >= 0.0 for v in series["queue_depth"])
            assert len(series["busy"]) == len(series["queue_depth"])

    def test_busy_conservation(self):
        """Summed busy time in the windows equals summed serve-span time."""
        tracer = Tracer()
        run_latency("locofs-c", 2, n_items=5, tracer=tracer, ops=("mkdir",))
        heat = heat_timelines(tracer, window_us=50.0)
        serve_us = sum(s.duration_us for s in tracer.spans
                       if s.cat == "serve" and s.track == "dms")
        windowed = sum(heat["servers"]["dms"]["busy"]) * 50.0
        assert windowed == pytest.approx(serve_us, rel=1e-9)

    def test_explicit_window(self):
        tracer = Tracer()
        run_latency("locofs-c", 2, n_items=4, tracer=tracer, ops=("mkdir",))
        heat = heat_timelines(tracer, window_us=25.0)
        assert heat["window_us"] == 25.0

    def test_fixed_windows_export_as_counters(self, tmp_path):
        tracer, _ = traced_batched_run(n_creates=4)
        heat = heat_timelines(tracer)
        path = tmp_path / "t.json"
        write_chrome_trace(tracer, str(path), counters=heat)
        events = json.loads(path.read_text())["traceEvents"]
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters
        assert all(e["name"].endswith(".heat") for e in counters)


# ---------------------------------------------------------------------------
# exporters on a locofs-b run (satellite 3)
# ---------------------------------------------------------------------------

class TestExportersOnBatchedRun:
    def test_perfetto_json_validates(self, tmp_path):
        tracer, _ = traced_batched_run(n_creates=8, max_ops=4)
        path = tmp_path / "b.json"
        write_chrome_trace(tracer, str(path))
        events = json.loads(path.read_text())["traceEvents"]
        xs = [e for e in events if e.get("ph") == "X"]
        ids = {e["args"]["span_id"] for e in xs}
        # no dangling parent ids
        for e in xs:
            parent = e["args"].get("parent_id")
            assert parent is None or parent in ids
        # links resolve to exported spans, and flows pair up
        for e in xs:
            for link in e["args"].get("links", ()):
                assert link["to"] in ids
        starts = {e["id"] for e in events if e.get("ph") == "s"}
        finishes = {e["id"] for e in events if e.get("ph") == "f"}
        assert starts and starts == finishes

    def test_metrics_json_round_trips(self, tmp_path):
        _, registry = traced_batched_run(n_creates=8, max_ops=4)
        doc = json.loads(json.dumps(metrics_dump(registry, include_samples=True)))
        assert doc["counters"]["client.batch.flush"] >= 2
        assert any(k.endswith("wal.group_commit") for k in doc["counters"])
        assert any(k.endswith("batch.records") for k in doc["counters"])

    def test_trace_of_empty_tracer_exports(self, tmp_path):
        path = tmp_path / "empty.json"
        n = write_chrome_trace(Tracer(), str(path))
        assert n == 0
        assert json.loads(path.read_text())["traceEvents"] == []


# ---------------------------------------------------------------------------
# fsync / batch-record counters (satellite 2)
# ---------------------------------------------------------------------------

class TestBatchCounters:
    def test_wal_fsync_amortization_is_auditable(self, tmp_path):
        fs = LocoFS(
            ClusterConfig(num_metadata_servers=1,
                          batch=BatchConfig(enabled=True, max_ops=8)),
            data_dir=str(tmp_path),
        )
        registry = MetricsRegistry()
        fs.engine.attach_observability(metrics=registry)
        client = fs.client()
        client.mkdir("/d")
        for i in range(16):
            client.create(f"/d/f{i}")
        client.flush()
        counters = registry.snapshot()["counters"]
        assert counters["fms0.batch.records"] == 16
        # 16 records flushed in 2 batches -> 2 group commits, 2 durable
        # commit boundaries (one fsync each in sync mode): the amortization
        assert counters["fms0.wal.group_commit"] == 2
        assert counters["fms0.wal.fsync"] == 2
        assert counters["fms0.kv.wal_commit"] == 2

    def test_wal_counts_physical_commits(self, tmp_path):
        from repro.kv.wal import WriteAheadLog

        wal = WriteAheadLog(str(tmp_path / "x.wal"))
        wal.append_put(b"a", b"1")
        assert wal.commits == 1 and wal.syncs == 0
        wal.begin_group()
        wal.append_put(b"b", b"2")
        wal.append_put(b"c", b"3")
        wal.end_group()
        assert wal.commits == 2
        wal.begin_group()
        wal.end_group()  # empty group: no commit boundary
        assert wal.commits == 2
        wal.close()

    def test_sync_mode_counts_fsyncs(self, tmp_path):
        from repro.kv.wal import WriteAheadLog

        wal = WriteAheadLog(str(tmp_path / "s.wal"), sync=True)
        wal.append_put(b"a", b"1")
        wal.begin_group()
        wal.append_put(b"b", b"2")
        wal.end_group()
        assert wal.commits == 2 and wal.syncs == 2
        wal.close()

    def test_no_wal_no_fsync_counters(self):
        _, registry = traced_batched_run(n_creates=8, max_ops=4)
        counters = registry.snapshot()["counters"]
        group = [v for k, v in counters.items() if k.endswith("wal.group_commit")]
        assert group and sum(group) >= 1
        assert not any(k.endswith("wal.fsync") for k in counters)


# ---------------------------------------------------------------------------
# drift comparison (the CI gate)
# ---------------------------------------------------------------------------

class TestCompareAttribution:
    def _report(self, shares):
        return {"ops": {"client.create": {
            "phase_share": dict(zip(PHASES, shares)),
        }}}

    def test_identical_reports_have_no_findings(self):
        r = self._report([0.1, 0.3, 0.4, 0.1, 0.05, 0.05])
        assert compare_attribution(r, r, 0.05) == []

    def test_drift_beyond_threshold_is_flagged(self):
        base = self._report([0.1, 0.3, 0.4, 0.1, 0.05, 0.05])
        cur = self._report([0.1, 0.1, 0.6, 0.1, 0.05, 0.05])
        findings = compare_attribution(base, cur, 0.10)
        assert {f["phase"] for f in findings} == {"client_queue", "network"}
        assert all(f["kind"] == "share-drift" for f in findings)

    def test_added_and_removed_ops(self):
        base = {"ops": {"client.mkdir": {"phase_share": {}}}}
        cur = {"ops": {"client.create": {"phase_share": {}}}}
        kinds = {(f["op"], f["kind"]) for f in compare_attribution(base, cur)}
        assert kinds == {("client.mkdir", "removed"), ("client.create", "added")}

    def test_checked_in_baseline_matches_a_fresh_run(self):
        """The committed CI baseline must reproduce bit-for-bit."""
        from pathlib import Path

        baseline_path = Path(__file__).parent.parent / "results" / \
            "attribution_baseline.json"
        base = json.loads(baseline_path.read_text())
        for system in ("locofs-c", "locofs-b"):
            tracer = Tracer()
            run_throughput(system, 4, op="touch", items_per_client=10,
                           client_scale=0.15, tracer=tracer)
            report = attribution_report(
                tracer, meta=base["systems"][system]["meta"])
            assert compare_attribution(base["systems"][system], report,
                                       max_drift=0.10) == []


# ---------------------------------------------------------------------------
# determinism: analysis infrastructure must not perturb virtual time
# ---------------------------------------------------------------------------

class TestZeroCost:
    def test_batched_run_virtual_time_unchanged_by_observability(self):
        def run(observed):
            fs = batched_fs(max_ops=4)
            if observed:
                fs.engine.attach_observability(tracer=Tracer(),
                                               metrics=MetricsRegistry())
            client = fs.client()
            client.mkdir("/d")
            for i in range(10):
                client.create(f"/d/f{i}")
            client.flush()
            client.stat("/d/f3")
            return fs.engine.now

        assert run(False) == run(True)

    def test_event_engine_batched_zero_cost(self):
        def run(observed):
            tracer = Tracer() if observed else None
            r = run_throughput("locofs-b", 2, op="touch", items_per_client=6,
                               client_scale=0.1, tracer=tracer)
            return r.elapsed_us

        assert run(False) == run(True)
