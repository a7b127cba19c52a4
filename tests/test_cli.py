"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out and "locofs-c" in out and "table1" in out


def test_run_single_experiment(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "12/12" in out


def test_run_quick_fig14(capsys):
    assert main(["run", "fig14", "--quick"]) == 0
    assert "d-rename" in capsys.readouterr().out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_latency_command(capsys):
    assert main(["latency", "locofs-c", "-n", "2", "--items", "8"]) == 0
    out = capsys.readouterr().out
    assert "touch" in out and "µs" in out


def test_throughput_command(capsys):
    assert main(["throughput", "locofs-c", "-n", "2", "--op", "mkdir",
                 "--items", "8", "--client-scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "IOPS" in out and "utilization" in out


def test_trace_command(capsys, tmp_path):
    out_file = tmp_path / "trace.json"
    assert main(["trace", "locofs", "--out", str(out_file), "--items", "3"]) == 0
    out = capsys.readouterr().out
    assert "trace events written" in out and "perfetto" in out.lower()
    import json

    events = json.loads(out_file.read_text())["traceEvents"]
    # acceptance: a create op span with rpc and kv descendants
    xs = [e for e in events if e["ph"] == "X"]
    creates = [e for e in xs if e["name"] == "client.create"]
    assert creates
    sid = creates[0]["args"]["span_id"]
    kids = [e for e in xs if e["args"].get("parent_id") == sid]
    assert any(e["name"].startswith("rpc.") for e in kids)
    kid_ids = {e["args"]["span_id"] for e in kids}
    grandkids = [e for e in xs if e["args"].get("parent_id") in kid_ids]
    assert any(e["name"].startswith("kv.") for e in grandkids)


def test_trace_event_engine(capsys, tmp_path):
    out_file = tmp_path / "trace.json"
    assert main(["trace", "locofs-nc", "--out", str(out_file),
                 "--engine", "event", "--items", "2", "-n", "2"]) == 0
    assert "event engine" in capsys.readouterr().out
    import json

    assert json.loads(out_file.read_text())["traceEvents"]


def test_trace_unknown_system(capsys, tmp_path):
    assert main(["trace", "nope", "--out", str(tmp_path / "t.json")]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_throughput_unknown_system(capsys):
    assert main(["throughput", "nope"]) == 2  # was a ValueError traceback
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown system" in err


def test_metrics_flags(capsys, tmp_path):
    mpath = tmp_path / "metrics.json"
    assert main(["latency", "locofs", "-n", "2", "--items", "4",
                 "--metrics", "--metrics-out", str(mpath)]) == 0
    out = capsys.readouterr().out
    assert "== metrics" in out and "dms.requests" in out
    import json

    doc = json.loads(mpath.read_text())
    assert doc["counters"]["client.mkdir"] >= 4
    assert "client.op.locofs-c.touch" in doc["histograms"]


def test_throughput_metrics_flag(capsys):
    assert main(["throughput", "locofs-c", "-n", "2", "--op", "touch",
                 "--items", "5", "--client-scale", "0.1", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "queue_depth" in out and ".utilization" in out


def test_trace_locofs_b_batching_spans(capsys, tmp_path):
    """`repro trace --system locofs-b` exports batch flush spans, per-record
    children, and flow links from deferred op spans to their flush."""
    out_file = tmp_path / "trace.json"
    assert main(["trace", "locofs-b", "--out", str(out_file),
                 "--engine", "event", "--items", "4", "-n", "2"]) == 0
    import json

    events = json.loads(out_file.read_text())["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    batches = [e for e in xs if e["name"].startswith("rpc.batch[")]
    assert batches
    records = [e for e in xs if e.get("cat") == "record"]
    assert records
    batch_ids = {e["args"]["span_id"] for e in batches}
    assert all(e["args"]["parent_id"] in batch_ids for e in records)
    # deferred creates carry link args and emit matched flow-event pairs
    creates = [e for e in xs if e["name"] == "client.create"]
    linked = [e for e in creates if e["args"].get("links")]
    assert linked
    assert all(link["kind"] == "batch-flush"
               for e in linked for link in e["args"]["links"])
    starts = {e["id"] for e in events if e["ph"] == "s"}
    finishes = {e["id"] for e in events if e["ph"] == "f"}
    assert starts and starts == finishes


def test_trace_locofs_b_composes_with_metrics(capsys, tmp_path):
    mpath = tmp_path / "metrics.json"
    assert main(["trace", "locofs-b", "--out", str(tmp_path / "t.json"),
                 "--items", "4", "-n", "2",
                 "--metrics", "--metrics-out", str(mpath)]) == 0
    out = capsys.readouterr().out
    assert "trace events written" in out and "== metrics" in out
    import json

    counters = json.loads(mpath.read_text())["counters"]
    assert counters["client.batch.flush"] >= 1
    assert any(k.endswith("batch.records") for k in counters)
    assert any(k.endswith(".batches") for k in counters)


def test_analyze_command_table(capsys):
    assert main(["analyze", "locofs-c", "locofs-b", "-n", "2",
                 "--items", "4"]) == 0
    out = capsys.readouterr().out
    assert "latency attribution: locofs-c" in out
    assert "latency attribution: locofs-b" in out
    assert "c-queue" in out and "p99(µs)" in out
    assert "deferred (write-behind)" in out
    assert "32 resolved, 32 deferred ops" in out  # locofs-b section


def test_analyze_json_and_trace_out(capsys, tmp_path):
    jpath = tmp_path / "report.json"
    tpath = tmp_path / "trace.json"
    assert main(["analyze", "locofs-b", "-n", "2", "--items", "4",
                 "--json", str(jpath), "--trace-out", str(tpath)]) == 0
    import json

    doc = json.loads(jpath.read_text())
    assert doc["schema"] == 1
    create = doc["systems"]["locofs-b"]["ops"]["client.create"]
    assert create["deferred"] == create["count"]
    assert create["phases_us"]["client_queue"]["mean"] > 0
    links = doc["systems"]["locofs-b"]["links"]
    assert links["count"] == links["resolved"] == links["deferred_ops"]
    # exported trace includes the heat counter track
    events = json.loads(tpath.read_text())["traceEvents"]
    assert any(e.get("ph") == "C" for e in events)


def test_analyze_baseline_gate(capsys, tmp_path):
    import json

    jpath = tmp_path / "report.json"
    assert main(["analyze", "locofs-c", "-n", "2", "--items", "4",
                 "--json", str(jpath)]) == 0
    capsys.readouterr()
    # same run vs itself: no drift
    assert main(["analyze", "locofs-c", "-n", "2", "--items", "4",
                 "--baseline", str(jpath)]) == 0
    assert "matches" in capsys.readouterr().out
    # corrupt the baseline shares: gate fails hard, soft-fail downgrades
    doc = json.loads(jpath.read_text())
    shares = doc["systems"]["locofs-c"]["ops"]["client.create"]["phase_share"]
    shares["network"], shares["kv"] = shares["kv"], shares["network"]
    jpath.write_text(json.dumps(doc))
    assert main(["analyze", "locofs-c", "-n", "2", "--items", "4",
                 "--baseline", str(jpath), "--max-drift", "5"]) == 1
    assert "drift" in capsys.readouterr().out
    assert main(["analyze", "locofs-c", "-n", "2", "--items", "4",
                 "--baseline", str(jpath), "--max-drift", "5",
                 "--soft-fail"]) == 0


def test_analyze_direct_engine(capsys):
    assert main(["analyze", "locofs-c", "--engine", "direct", "-n", "2",
                 "--items", "4"]) == 0
    out = capsys.readouterr().out
    assert "client.mkdir" in out and "client.stat" in out


def test_analyze_unknown_system(capsys):
    assert main(["analyze", "nope"]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_fsck_demo(capsys):
    assert main(["fsck-demo"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "error" in out


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# shared observability flags — one parent parser, exercised on every verb
# ---------------------------------------------------------------------------

def _read_telemetry(path):
    import json

    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert doc["n_windows"] <= doc["max_windows"]
    return doc


def test_obs_flags_on_latency(capsys, tmp_path):
    tpath = tmp_path / "tele.json"
    assert main(["latency", "locofs", "-n", "2", "--items", "4",
                 "--telemetry-out", str(tpath), "--slo"]) == 0
    out = capsys.readouterr().out
    assert "telemetry snapshot written" in out
    assert "client.create:availability" in out and "PASS" in out
    doc = _read_telemetry(tpath)
    assert doc["totals"]["ops"]["client.create"] == 4


def test_obs_flags_on_throughput(capsys, tmp_path):
    tpath = tmp_path / "tele.json"
    assert main(["throughput", "locofs-c", "-n", "2", "--op", "touch",
                 "--items", "5", "--client-scale", "0.1",
                 "--telemetry-out", str(tpath), "--telemetry-window", "64"]) == 0
    doc = _read_telemetry(tpath)
    assert doc["initial_window_us"] == 64.0
    assert doc["totals"]["ops"]["client.create"] >= 5


def test_obs_flags_on_availability(capsys, tmp_path):
    tpath = tmp_path / "tele.json"
    assert main(["availability", "locofs-c", "-n", "2", "--clients", "2",
                 "--items", "6", "--telemetry-out", str(tpath), "--slo"]) == 0
    assert "client.create:availability" in capsys.readouterr().out
    doc = _read_telemetry(tpath)
    # the crash scenario leaves its fingerprints in marks and errors
    assert doc["totals"]["marks"]["server.crash"] == 1
    assert doc["totals"]["marks"]["client.retry"] > 0
    assert doc["totals"]["errors"].get("client.create", 0) > 0


def test_obs_flags_on_trace(capsys, tmp_path):
    tpath = tmp_path / "tele.json"
    assert main(["trace", "locofs", "--out", str(tmp_path / "tr.json"),
                 "--items", "3", "--telemetry-out", str(tpath)]) == 0
    doc = _read_telemetry(tpath)
    assert doc["totals"]["ops"]["client.create"] == 3


def test_obs_flags_on_analyze(capsys, tmp_path):
    tpath = tmp_path / "tele.json"
    assert main(["analyze", "locofs-c", "-n", "2", "--items", "4",
                 "--telemetry-out", str(tpath)]) == 0
    assert "telemetry snapshot written" in capsys.readouterr().out
    doc = _read_telemetry(tpath)
    assert doc["totals"]["ops"]["client.create"] > 0


def test_obs_flags_on_run(capsys, tmp_path):
    # `run` installs the sink as the process-wide default for the harnesses
    tpath = tmp_path / "tele.json"
    assert main(["run", "fig6", "--quick", "--telemetry-out", str(tpath)]) == 0
    doc = _read_telemetry(tpath)
    assert doc["totals"]["ops"]["client.create"] > 0


@pytest.mark.parametrize("fig", ["fig16", "fig19"])
def test_obs_flags_on_run_availability_figures(capsys, tmp_path, fig):
    """The availability harness honours the default sinks too, and its
    table does not depend on them: retries and gaveups are the faulted
    run's own counts, not totals of a sink every row shares."""
    import json

    mpath, tpath = tmp_path / "m.json", tmp_path / "t.json"
    assert main(["run", fig, "--quick"]) == 0
    bare = capsys.readouterr().out
    assert main(["run", fig, "--quick", "--metrics-out", str(mpath),
                 "--telemetry-out", str(tpath)]) == 0
    assert capsys.readouterr().out.startswith(bare)
    assert len(json.loads(mpath.read_text())["counters"]) >= 1
    assert len(_read_telemetry(tpath)["windows"]) >= 1


# ---------------------------------------------------------------------------
# slo and dashboard verbs
# ---------------------------------------------------------------------------

def test_slo_check_passes_on_locofs_c(capsys, tmp_path):
    import json

    jpath = tmp_path / "report.json"
    assert main(["slo", "locofs-c", "--check", "--clients", "4",
                 "--items", "20", "--json", str(jpath)]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out and "PASS" in out
    report = json.loads(jpath.read_text())
    assert report["ok"]


def test_slo_check_fails_on_locofs_nc(capsys):
    assert main(["slo", "locofs-nc", "--check", "--clients", "4",
                 "--items", "20"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "error budget exhausted" in captured.err


def test_slo_unknown_system(capsys):
    assert main(["slo", "nope"]) == 2
    assert "unknown system" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json", "[]", '{"name": "x"}'],
                         ids=["missing", "malformed", "not-an-object",
                              "no-objectives"])
def test_slo_bad_spec_file_is_one_line(capsys, tmp_path, content):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_text(content)
    assert main(["slo", "locofs-c", "--slo", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the run
    assert captured.err.count("\n") == 1 and str(spec) in captured.err


def test_dashboard_writes_self_contained_html(capsys, tmp_path):
    import re

    out_file = tmp_path / "dash.html"
    assert main(["dashboard", "locofs-nc", "--out", str(out_file),
                 "--clients", "4", "--items", "10"]) == 0
    assert "self-contained" in capsys.readouterr().out
    html = out_file.read_text()
    assert "<html" in html and "client.create:availability" in html
    # fully offline: no external scripts, stylesheets, or fetches
    assert not re.search(r'(?:src|href)\s*=\s*["\']https?://', html)
    assert "fetch(" not in html and "XMLHttpRequest" not in html


def test_dashboard_throughput_scenario(capsys, tmp_path):
    out_file = tmp_path / "dash.html"
    assert main(["dashboard", "locofs-c", "--out", str(out_file),
                 "--scenario", "throughput", "--items", "5",
                 "--client-scale", "0.1"]) == 0
    assert "IOPS" in capsys.readouterr().out
    assert "<html" in out_file.read_text()


# ---------------------------------------------------------------------------
# capacity verb and the slo churn scenario (ISSUE 9)
# ---------------------------------------------------------------------------

def test_capacity_sweep_json_table_and_dashboard(capsys, tmp_path):
    import json

    jpath = tmp_path / "capacity.json"
    hpath = tmp_path / "capacity.html"
    assert main(["capacity", "locofs-c", "--loads", "10000,40000",
                 "--horizon-us", "20000", "-n", "2", "--no-attribution",
                 "--json", str(jpath), "--dashboard-out", str(hpath)]) == 0
    out = capsys.readouterr().out
    assert "capacity sweep" in out and "knee" in out
    doc = json.loads(jpath.read_text())
    assert doc["schema"] == 1
    pts = doc["systems"]["locofs-c"]["points"]
    assert [pt["load"] for pt in pts] == [10_000.0, 40_000.0]
    assert all(pt["conservation_ok"] for pt in pts)
    html = hpath.read_text()
    assert "cap-goodput" in html and "cap-latency" in html


def test_capacity_check_gate_orders_knees(capsys):
    assert main(["capacity", "locofs-b", "locofs-nc", "--loads",
                 "20000,80000,240000", "--horizon-us", "30000", "-n", "2",
                 "--no-attribution", "--check"]) == 0
    out = capsys.readouterr().out
    assert "check OK" in out
    assert "knee(locofs-b) > knee(locofs-nc)" in out


def test_capacity_unknown_system(capsys):
    assert main(["capacity", "nope"]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_slo_churn_scenario_pass_and_fail(capsys):
    assert main(["slo", "locofs-a", "--scenario", "churn", "--check",
                 "--rate", "60000", "--horizon-us", "80000"]) == 0
    out = capsys.readouterr().out
    assert "throughput_floor" in out and "PASS" in out
    assert main(["slo", "locofs-nc", "--scenario", "churn", "--check",
                 "--rate", "60000", "--horizon-us", "80000"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out


# ---------------------------------------------------------------------------
# rawkv is a registry row but not a file system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["latency", "rawkv"],
    ["trace", "rawkv", "--out", "unused.json"],
    ["availability", "rawkv"],
    ["slo", "rawkv"],
    ["dashboard", "rawkv", "--out", "unused.html"],
    ["capacity", "rawkv"],
], ids=lambda argv: argv[0])
def test_namespace_verbs_refuse_rawkv_in_one_line(capsys, argv):
    assert main(argv) == 2  # used to die in an AttributeError traceback
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "rawkv" in err and "'throughput'" in err and "'analyze'" in err


@pytest.mark.parametrize("argv, expect", [
    (["throughput", "rawkv", "-n", "2", "--items", "5", "--client-scale", "0.1"],
     "IOPS"),
    (["analyze", "rawkv", "-n", "2", "--items", "4"], "latency attribution: rawkv"),
], ids=["throughput", "analyze"])
def test_put_driving_verbs_still_accept_rawkv(capsys, argv, expect):
    assert main(argv) == 0
    assert expect in capsys.readouterr().out
