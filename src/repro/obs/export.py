"""Exporters: Chrome trace-event JSON and flat metrics dumps.

``write_chrome_trace`` emits the Trace Event Format understood by
Perfetto (https://ui.perfetto.dev) and chrome://tracing: every finished
span becomes a complete ``"X"`` event, every instant a thread-scoped
``"i"`` event, and every span *link* (see ``Tracer.link``) a flow-event
pair (``"s"``/``"f"``) drawn as an arrow — e.g. from a deferred create to
the batch flush that carried it.  Client processes and servers render as
two process groups so queueing at a server lines up under the client op
that caused it.  Optional ``counters`` (the per-server heat timelines of
:func:`repro.obs.analyze.heat_timelines`) become ``"C"`` counter tracks.
Timestamps are the tracer's virtual microseconds, so the exported file is
identical across runs of the same workload.

``metrics_dump`` flattens a :class:`~repro.obs.metrics.MetricsRegistry`
into a JSON-ready dict, optionally including the raw (decimated)
time-series samples for queue-depth/utilization plots.
"""

from __future__ import annotations

import json

from .metrics import MetricsRegistry
from .tracer import Tracer

#: span categories recorded on server tracks (everything else is a client)
_SERVER_CATS = frozenset({"queue", "serve", "kv", "record"})

_CLIENT_PID = 1
_SERVER_PID = 2


def _track_map(tracer: Tracer) -> dict[str, tuple[int, int]]:
    """Assign each track a stable (pid, tid), clients first."""
    server_tracks = {s.track for s in tracer.spans if s.cat in _SERVER_CATS}
    server_tracks.update(i.track for i in tracer.instants if i.track in server_tracks)
    tracks = sorted({s.track for s in tracer.spans}
                    | {i.track for i in tracer.instants})
    out: dict[str, tuple[int, int]] = {}
    next_tid = {_CLIENT_PID: 1, _SERVER_PID: 1}
    for track in tracks:
        pid = _SERVER_PID if track in server_tracks else _CLIENT_PID
        out[track] = (pid, next_tid[pid])
        next_tid[pid] += 1
    return out


def chrome_trace_events(tracer: Tracer,
                        counters: dict | None = None) -> list[dict]:
    """The ``traceEvents`` list: metadata, then spans/instants by ``ts``."""
    tracks = _track_map(tracer)
    events: list[dict] = []
    for pid, name in ((_CLIENT_PID, "clients"), (_SERVER_PID, "servers")):
        if any(p == pid for p, _ in tracks.values()):
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": name}})
    for track, (pid, tid) in tracks.items():
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": track}})
    timed: list[dict] = []
    flow_id = 0
    for span in tracer.finished_spans():
        pid, tid = tracks[span.track]
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent is not None:
            args["parent_id"] = span.parent.span_id
        if span.links:
            args["links"] = [{"to": dst.span_id, "kind": kind}
                             for dst, kind in span.links]
        timed.append({
            "ph": "X", "name": span.name, "cat": span.cat,
            "ts": span.start_us, "dur": span.duration_us,
            "pid": pid, "tid": tid, "args": args,
        })
        # one flow arrow per link: starts inside the source span, binds to
        # the enclosing slice at the target's start
        for dst, kind in span.links:
            if dst.end_us is None or dst.track not in tracks:
                continue
            flow_id += 1
            dpid, dtid = tracks[dst.track]
            timed.append({"ph": "s", "id": flow_id, "name": kind, "cat": "link",
                          "ts": span.start_us, "pid": pid, "tid": tid,
                          "args": {"span_id": span.span_id}})
            timed.append({"ph": "f", "bp": "e", "id": flow_id, "name": kind,
                          "cat": "link", "ts": dst.start_us, "pid": dpid,
                          "tid": dtid, "args": {"span_id": dst.span_id}})
    for inst in tracer.instants:
        pid, tid = tracks[inst.track]
        args = dict(inst.args)
        if inst.parent is not None:
            args["parent_id"] = inst.parent.span_id
        timed.append({
            "ph": "i", "name": inst.name, "cat": "mark", "s": "t",
            "ts": inst.ts_us, "pid": pid, "tid": tid, "args": args,
        })
    if counters:
        window = counters.get("window_us", 0.0)
        for server, series in sorted(counters.get("servers", {}).items()):
            if server not in tracks:
                continue
            pid, _ = tracks[server]
            busy = series.get("busy", [])
            depth = series.get("queue_depth", [])
            for i in range(max(len(busy), len(depth))):
                args = {}
                if i < len(busy):
                    args["busy"] = busy[i]
                if i < len(depth):
                    args["queue_depth"] = depth[i]
                timed.append({"ph": "C", "name": f"{server}.heat", "pid": pid,
                              "tid": 0, "ts": i * window, "args": args})
    timed.sort(key=lambda e: (e["ts"], e["args"].get("span_id", 0)))
    return events + timed


def write_chrome_trace(tracer: Tracer, path: str,
                       counters: dict | None = None) -> int:
    """Write ``{"traceEvents": [...]}`` to ``path``; returns the event count."""
    events = chrome_trace_events(tracer, counters)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=None, separators=(",", ":"))
    return len(events)


def metrics_dump(registry: MetricsRegistry, include_samples: bool = False) -> dict:
    """JSON-ready dump of every metric; samples are opt-in (they are bulky)."""
    doc = registry.snapshot()
    if include_samples:
        doc["samples"] = {
            name: [[ts, v] for ts, v in series.samples]
            for name, series in sorted(registry.series.items())
        }
    return doc


def write_metrics(registry: MetricsRegistry, path: str,
                  include_samples: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(metrics_dump(registry, include_samples), f, indent=2)


def write_telemetry(sink, path: str, include_sketches: bool = True) -> None:
    """Write a :class:`~repro.obs.telemetry.TelemetrySink` snapshot as JSON.

    The snapshot is O(windows) regardless of run length; NaN aggregates
    (empty windows) are emitted as ``null`` so any JSON parser reads it.
    """
    def clean(v):
        if isinstance(v, float):
            return v if v == v and v not in (float("inf"), float("-inf")) else None
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, list):
            return [clean(x) for x in v]
        return v

    with open(path, "w", encoding="utf-8") as f:
        json.dump(clean(sink.snapshot(include_sketches=include_sketches)),
                  f, indent=1)
