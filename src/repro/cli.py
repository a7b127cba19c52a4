"""Command-line interface: run experiments and inspect deployments.

Usage::

    python -m repro list                      # experiments and systems
    python -m repro run fig9                  # one experiment, report to stdout
    python -m repro run all --quick           # everything, scaled down
    python -m repro latency locofs-c -n 4     # ad-hoc latency run
    python -m repro throughput cephfs --op touch -n 8
    python -m repro availability locofs-b --crash fms0 --check
    python -m repro slo locofs-c --check      # SLO gate on the crash scenario
    python -m repro dashboard locofs-nc --out dash.html   # telemetry HTML
    python -m repro trace locofs --out trace.json   # Perfetto trace of a run
    python -m repro analyze locofs-c locofs-b       # latency attribution
    python -m repro capacity --sweep --json cap.json  # open-loop knee sweep
    python -m repro slo locofs-a --scenario churn --check  # throughput floor
    python -m repro fsck-demo                 # build, corrupt, detect

Every workload verb shares one observability flag group (declared once,
inherited via an argparse parent parser): ``--metrics`` prints a flat
metrics dump (per-server request counts, queue-wait/service histograms,
queue depth and utilization) and ``--metrics-out FILE`` writes it as
JSON; ``--telemetry-out FILE`` attaches a streaming
:class:`~repro.obs.telemetry.TelemetrySink` and writes its windowed
snapshot; ``--slo [SPEC]`` additionally evaluates SLO objectives over
the telemetry ('default' or a spec JSON path) and prints the verdict
table.  ``repro slo --check`` gates on that verdict with a nonzero
exit, and ``repro dashboard --out FILE`` renders the telemetry + SLO
state as a self-contained HTML page.

``analyze`` runs one traced workload per system and prints the per-op
phase attribution table (see :mod:`repro.obs.analyze`); ``--json``
writes the machine-readable report, ``--baseline``/``--max-drift`` gate
phase-share drift against a checked-in report (CI's latency-shape
canary), and ``--trace-out`` additionally exports the Perfetto trace
with heat-timeline counter tracks.
"""

from __future__ import annotations

import argparse
import sys

#: convenience spelling: the paper system without the cache-variant suffix
_SYSTEM_ALIASES = {"locofs": "locofs-c"}


def _refused(systems, rows) -> bool:
    """One stderr line, and True, if a name is not among the accepted ``rows``."""
    bad = [s for s in systems if s not in rows]
    if bad:
        print("rawkv has no namespace ops: only 'throughput' and 'analyze' accept it"
              if bad == ["rawkv"] else
              f"unknown system(s): {', '.join(bad)}; try 'list'", file=sys.stderr)
    return bool(bad)


def _obs_parent() -> argparse.ArgumentParser:
    """The shared observability flag group, declared exactly once.

    Every workload verb inherits it via ``parents=[...]`` so the flags
    spell and behave identically everywhere (they used to be re-declared
    per verb and drifted)."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("observability")
    g.add_argument("--metrics", action="store_true",
                   help="print a metrics dump after the run")
    g.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="write the metrics snapshot as JSON")
    g.add_argument("--telemetry-out", metavar="FILE", default=None,
                   help="attach a streaming telemetry sink and write its "
                        "windowed snapshot as JSON")
    g.add_argument("--telemetry-window", type=float, default=None,
                   metavar="US",
                   help="initial telemetry window width in virtual µs "
                        "(doubles as needed to stay bounded)")
    g.add_argument("--slo", nargs="?", const="default", default=None,
                   metavar="SPEC",
                   help="evaluate SLO objectives over the run's telemetry "
                        "('default', 'openloop', 'replicated', or a spec "
                        "JSON file)")
    return p


def _metrics_registry(args):
    """A fresh registry when ``--metrics``/``--metrics-out`` was requested."""
    if getattr(args, "metrics", False) or getattr(args, "metrics_out", None):
        from repro.obs import MetricsRegistry

        return MetricsRegistry()
    return None


def _telemetry_sink(args, force: bool = False):
    """A fresh sink when telemetry output or SLO evaluation was requested."""
    if force or getattr(args, "telemetry_out", None) or getattr(args, "slo", None):
        from repro.obs import TelemetrySink

        return TelemetrySink(window_us=getattr(args, "telemetry_window", None))
    return None


def _load_spec(name: str | None):
    from repro.obs.slo import (SLOSpec, default_spec, openloop_spec,
                               replicated_spec)

    if name is None or name == "default":
        return default_spec()
    if name == "openloop":
        return openloop_spec()
    if name == "replicated":
        return replicated_spec()
    return SLOSpec.from_file(name)


def _emit_metrics(args, registry) -> None:
    if registry is None:
        return
    if args.metrics:
        from repro.harness import format_metrics

        print()
        print(format_metrics(registry))
    if args.metrics_out:
        from repro.obs.export import write_metrics

        write_metrics(registry, args.metrics_out)
        print(f"metrics JSON written to {args.metrics_out}")


def _emit_telemetry(args, sink, out: str | None = None) -> dict | None:
    """Write the snapshot / print the SLO table; returns the SLO report."""
    if sink is None:
        return None
    out = out if out is not None else args.telemetry_out
    if out:
        from repro.obs.export import write_telemetry

        write_telemetry(sink, out)
        print(f"telemetry snapshot written to {out}")
    if args.slo:
        from repro.obs.slo import evaluate_slo, format_slo

        report = evaluate_slo(_load_spec(args.slo), sink)
        print()
        print(format_slo(report))
        return report
    return None


def _cmd_list(args) -> int:
    from repro.experiments import REGISTRY
    from repro.harness import LABELS, SYSTEM_NAMES

    print("experiments:")
    for name, mod in REGISTRY.items():
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<8} {doc}")
    print("\nsystems:")
    for name in SYSTEM_NAMES:
        print(f"  {name:<12} {LABELS[name]}")
    return 0


def _show(result) -> None:
    if isinstance(result, dict):
        for sub in result.values():
            print(sub.report())
            print()
    else:
        print(result.report())
        print()


def _cmd_run(args) -> int:
    from repro.experiments import REGISTRY

    if args.experiment == "all":
        names = list(REGISTRY)
    else:
        if args.experiment not in REGISTRY:
            print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
            return 2
        names = [args.experiment]
    registry = _metrics_registry(args)
    sink = _telemetry_sink(args)
    if registry is not None:
        from repro.obs import set_default_registry

        previous = set_default_registry(registry)
    if sink is not None:
        from repro.obs import set_default_telemetry

        prev_sink = set_default_telemetry(sink)
    try:
        for name in names:
            mod = REGISTRY[name]
            kwargs = {}
            if args.quick:
                # every module accepts these where meaningful
                import inspect

                params = inspect.signature(mod.run).parameters
                if "items_per_client" in params:
                    kwargs["items_per_client"] = 8
                if "client_scale" in params:
                    kwargs["client_scale"] = 0.15
                if "n_items" in params:
                    kwargs["n_items"] = 15
                if "n_files" in params:
                    kwargs["n_files"] = 5
                if "base_dirs" in params:
                    kwargs["base_dirs"] = 2000
                if "group_sizes" in params:
                    kwargs["group_sizes"] = (200, 500)
                if "quick" in params:
                    kwargs["quick"] = True
            _show(mod.run(**kwargs))
    finally:
        if registry is not None:
            set_default_registry(previous)
        if sink is not None:
            set_default_telemetry(prev_sink)
    _emit_metrics(args, registry)
    _emit_telemetry(args, sink)
    return 0


def _cmd_latency(args) -> int:
    from repro.harness import FS_SYSTEM_NAMES, run_latency

    system = _SYSTEM_ALIASES.get(args.system, args.system)
    if _refused([system], FS_SYSTEM_NAMES):
        return 2
    registry = _metrics_registry(args)
    sink = _telemetry_sink(args)
    rec = run_latency(system, args.num_servers, n_items=args.items,
                      depth=args.depth, metrics=registry, telemetry=sink,
                      zipf_s=args.zipf_s)
    skew = f", zipf s={args.zipf_s}" if args.zipf_s else ""
    print(f"latency of {system} at {args.num_servers} server(s), "
          f"{args.items} items, depth {args.depth}{skew}:")
    for op in rec.ops():
        s = rec.summary(op)
        print(f"  {op:<10} mean {s.mean:9.1f} µs   p99 {s.p99:9.1f} µs")
    _emit_metrics(args, registry)
    _emit_telemetry(args, sink)
    return 0


def _cmd_throughput(args) -> int:
    from repro.harness import run_throughput

    system = _SYSTEM_ALIASES.get(args.system, args.system)
    registry = _metrics_registry(args)
    sink = _telemetry_sink(args)
    r = run_throughput(system, args.num_servers, op=args.op,
                       items_per_client=args.items, client_scale=args.client_scale,
                       metrics=registry, telemetry=sink)
    print(f"{system} {args.op} @ {args.num_servers} server(s): "
          f"{r.iops:,.0f} IOPS ({r.num_clients} clients, {r.total_ops} ops, "
          f"{r.elapsed_us/1e6:.3f} virtual s)")
    busiest = max(r.server_utilization.items(), key=lambda kv: kv[1])
    print(f"busiest server: {busiest[0]} at {busiest[1]:.0%} utilization")
    _emit_metrics(args, registry)
    _emit_telemetry(args, sink)
    return 0


def _cmd_availability(args) -> int:
    from repro.harness import FS_SYSTEM_NAMES, run_availability
    from repro.obs import MetricsRegistry

    system = _SYSTEM_ALIASES.get(args.system, args.system)
    if _refused([system], FS_SYSTEM_NAMES):
        return 2
    registry = _metrics_registry(args) or MetricsRegistry()
    sink = _telemetry_sink(args)
    r = run_availability(
        system, num_servers=args.num_servers, crash_server=args.crash,
        num_clients=args.clients, items_per_client=args.items,
        crash_at_frac=args.crash_at, down_frac=args.down,
        torn_tail_bytes=args.torn_tail, seed=args.seed, metrics=registry,
        telemetry=sink)
    print(f"{system} with {r.crash_server} crashed mid-run "
          f"({r.num_clients} clients, {r.num_servers} server(s)):")
    print(f"  goodput   {r.goodput_iops:,.0f} IOPS "
          f"(baseline {r.baseline_iops:,.0f} IOPS)")
    print(f"  acked {r.acked_ops} ops, failed {r.failed_ops}, "
          f"retries {r.retries}, gaveups {r.gaveups}")
    print(f"  widest unavailability window: {r.unavailability_us / 1e3:,.1f} ms")
    print(f"  lost acked creates after recovery: {r.lost_acked}")
    _emit_metrics(args, registry)
    _emit_telemetry(args, sink)
    if args.check and r.lost_acked:
        print("FAIL: acked creates were lost across the crash", file=sys.stderr)
        return 1
    return 0


def _cmd_slo(args) -> int:
    """Run a crash or open-loop churn scenario under telemetry, judge SLOs."""
    import json

    from repro.harness import FS_SYSTEM_NAMES, run_availability
    from repro.obs.slo import evaluate_slo, format_slo

    system = _SYSTEM_ALIASES.get(args.system, args.system)
    if _refused([system], FS_SYSTEM_NAMES):
        return 2
    registry = _metrics_registry(args)
    sink = _telemetry_sink(args, force=True)
    if args.scenario == "churn":
        from repro.harness import run_openloop

        r = run_openloop(system, args.num_servers, pack="container-churn",
                         rate=args.rate, horizon_us=args.horizon_us,
                         seed=args.seed, metrics=registry, telemetry=sink)
        print(f"{system} container-churn at {args.rate:,.0f} offered ops/s: "
              f"goodput {r.goodput_iops:,.0f} IOPS "
              f"(offered {r.offered_iops:,.0f}), shed {r.shed}, "
              f"abandoned {r.abandoned}, errors {r.errors}")
        if args.slo is None:
            args.slo = "openloop"   # open-loop runs judge the floor spec
    else:
        r = run_availability(
            system, num_servers=args.num_servers, crash_server=args.crash,
            num_clients=args.clients, items_per_client=args.items,
            crash_at_frac=args.crash_at, down_frac=args.down, seed=args.seed,
            metrics=registry, telemetry=sink)
        print(f"{system} with {r.crash_server} crashed mid-run: "
              f"goodput {r.goodput_iops:,.0f} IOPS "
              f"(baseline {r.baseline_iops:,.0f}), "
              f"retries {r.retries}, gaveups {r.gaveups}")
    spec = _load_spec(args.slo)
    report = evaluate_slo(spec, sink)
    print(format_slo(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
        print(f"SLO report written to {args.json}")
    _emit_metrics(args, registry)
    if args.telemetry_out:
        from repro.obs.export import write_telemetry

        write_telemetry(sink, args.telemetry_out)
        print(f"telemetry snapshot written to {args.telemetry_out}")
    if args.check and not report["ok"]:
        print("FAIL: SLO error budget exhausted", file=sys.stderr)
        return 1
    return 0


def _cmd_dashboard(args) -> int:
    """Run a scenario under telemetry and render the self-contained HTML."""
    from repro.harness import (
        FS_SYSTEM_NAMES,
        MIX_READ_MOSTLY,
        MIX_UPDATE_HEAVY,
        run_availability,
        run_mixed_throughput,
        run_throughput,
    )
    from repro.obs.dashboard import write_dashboard
    from repro.obs.slo import evaluate_slo

    system = _SYSTEM_ALIASES.get(args.system, args.system)
    if _refused([system], FS_SYSTEM_NAMES):
        return 2
    registry = _metrics_registry(args)
    sink = _telemetry_sink(args, force=True)
    meta = {"system": system, "scenario": args.scenario,
            "servers": args.num_servers}
    cache_stats = None
    if args.scenario == "mixed":
        mix = MIX_READ_MOSTLY if args.zipf_s else MIX_UPDATE_HEAVY
        r = run_mixed_throughput(system, args.num_servers, mix=mix,
                                 num_clients=args.clients,
                                 items_per_client=args.items,
                                 zipf_s=args.zipf_s,
                                 metrics=registry, telemetry=sink)
        cache_stats = r.cache_stats or None
        if args.zipf_s:
            meta["zipf_s"] = args.zipf_s
        hr = (f", cache hit rate {r.cache_hit_rate * 100:.1f}%"
              if r.cache_hit_rate is not None else "")
        print(f"{system} mixed ops: {r.iops:,.0f} IOPS "
              f"({r.num_clients} clients{hr})")
    elif args.scenario == "crash":
        r = run_availability(
            system, num_servers=args.num_servers, crash_server=args.crash,
            num_clients=args.clients, items_per_client=args.items,
            crash_at_frac=args.crash_at, down_frac=args.down, seed=args.seed,
            metrics=registry, telemetry=sink)
        meta["crash"] = args.crash
        print(f"{system} crash scenario: goodput {r.goodput_iops:,.0f} IOPS "
              f"(baseline {r.baseline_iops:,.0f})")
    else:
        r = run_throughput(system, args.num_servers, op=args.op,
                           items_per_client=args.items,
                           client_scale=args.client_scale,
                           metrics=registry, telemetry=sink)
        meta["op"] = args.op
        print(f"{system} {args.op}: {r.iops:,.0f} IOPS "
              f"({r.num_clients} clients)")
    spec = _load_spec(args.slo)
    report = evaluate_slo(spec, sink)
    write_dashboard(args.out, sink, report, spec, meta=meta,
                    cache_stats=cache_stats)
    print(f"dashboard written to {args.out} (self-contained HTML, "
          f"open with any browser — no network needed)")
    _emit_metrics(args, registry)
    if args.telemetry_out:
        from repro.obs.export import write_telemetry

        write_telemetry(sink, args.telemetry_out)
        print(f"telemetry snapshot written to {args.telemetry_out}")
    return 0


def _cmd_trace(args) -> int:
    from repro.harness import FS_SYSTEM_NAMES, run_latency, run_throughput
    from repro.obs import MetricsRegistry, Tracer
    from repro.obs.export import write_chrome_trace

    system = _SYSTEM_ALIASES.get(args.system, args.system)
    if _refused([system], FS_SYSTEM_NAMES):
        return 2
    tracer = Tracer()
    registry = _metrics_registry(args) or MetricsRegistry()
    sink = _telemetry_sink(args)
    if args.engine == "event":
        r = run_throughput(system, args.num_servers, op=args.op,
                           items_per_client=args.items, client_scale=0.15,
                           tracer=tracer, metrics=registry, telemetry=sink)
        print(f"traced {r.total_ops} measured {args.op} ops on the event engine "
              f"({r.num_clients} clients, {r.elapsed_us/1e6:.3f} virtual s)")
    else:
        rec = run_latency(system, args.num_servers, n_items=args.items,
                          depth=args.depth, tracer=tracer, metrics=registry,
                          telemetry=sink)
        total = sum(rec.count(op) for op in rec.ops())
        print(f"traced {total} ops across {len(rec.ops())} mdtest phases "
              f"on the direct engine")
    n = write_chrome_trace(tracer, args.out)
    print(f"{n} trace events written to {args.out}")
    print("open in https://ui.perfetto.dev (or chrome://tracing) to inspect")
    _emit_metrics(args, registry)
    _emit_telemetry(args, sink)
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.harness import SYSTEM_NAMES, run_latency, run_throughput
    from repro.obs import MetricsRegistry, Tracer
    from repro.obs.analyze import (
        attribution_report,
        compare_attribution,
        format_attribution,
    )
    from repro.obs.export import write_chrome_trace

    systems = [_SYSTEM_ALIASES.get(s, s) for s in args.systems]
    if _refused(systems, SYSTEM_NAMES):
        return 2
    reports: dict[str, dict] = {}
    for system in systems:
        tracer = Tracer()
        registry = MetricsRegistry()
        # one fresh sink per system, so telemetry never mixes systems;
        # with a sink attached the report's heat section is telemetry-backed
        sink = _telemetry_sink(args)
        meta = {"system": system, "engine": args.engine,
                "servers": args.num_servers, "items": args.items}
        if args.engine == "event":
            meta["op"] = args.op
            r = run_throughput(system, args.num_servers, op=args.op,
                               items_per_client=args.items,
                               client_scale=args.client_scale,
                               tracer=tracer, metrics=registry, telemetry=sink)
            print(f"analyzed {r.total_ops} measured {args.op} ops on {system} "
                  f"({r.num_clients} clients, {r.elapsed_us / 1e6:.3f} virtual s)")
        else:
            rec = run_latency(system, args.num_servers, n_items=args.items,
                              depth=args.depth, tracer=tracer, metrics=registry,
                              telemetry=sink)
            total = sum(rec.count(op) for op in rec.ops())
            print(f"analyzed {total} mdtest ops on {system} (direct engine)")
        report = attribution_report(tracer, meta=meta, window_us=args.window_us,
                                    telemetry=sink)
        reports[system] = report
        if sink is not None:
            out = args.telemetry_out
            if out and len(systems) > 1:
                stem, dot, ext = out.rpartition(".")
                out = f"{stem}.{system}.{ext}" if dot else f"{out}.{system}"
            _emit_telemetry(args, sink, out=out)
        print(format_attribution(report))
        print()
        if args.trace_out:
            if len(systems) == 1:
                path = args.trace_out
            else:
                stem, dot, ext = args.trace_out.rpartition(".")
                path = f"{stem}.{system}.{ext}" if dot else f"{args.trace_out}.{system}"
            n = write_chrome_trace(tracer, path, counters=report["heat"])
            print(f"{n} trace events written to {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"schema": 1, "systems": reports}, f, indent=1)
        print(f"attribution JSON written to {args.json}")
    status = 0
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            base = json.load(f)
        max_drift = args.max_drift / 100.0
        findings: list[dict] = []
        for system, report in reports.items():
            ref = base.get("systems", {}).get(system)
            if ref is None:
                print(f"baseline has no entry for {system}; skipping")
                continue
            for fnd in compare_attribution(ref, report, max_drift):
                findings.append({"system": system, **fnd})
        if findings:
            print(f"phase-share drift vs {args.baseline} "
                  f"(threshold {args.max_drift:.1f} share points):")
            for fnd in findings:
                if fnd["kind"] == "share-drift":
                    print(f"  {fnd['system']} {fnd['op']} {fnd['phase']}: "
                          f"{fnd['baseline'] * 100:.1f}% -> "
                          f"{fnd['current'] * 100:.1f}% "
                          f"({fnd['delta'] * 100:+.1f} pp)")
                else:
                    print(f"  {fnd['system']} {fnd['op']}: {fnd['kind']}")
            status = 0 if args.soft_fail else 1
            if args.soft_fail:
                print("(soft-fail: drift reported but not fatal)")
        else:
            print(f"attribution shape matches {args.baseline} "
                  f"(threshold {args.max_drift:.1f} share points)")
    return status


def _cmd_capacity(args) -> int:
    """Sweep offered load per system; report knees and phase attribution."""
    from repro.harness import FS_SYSTEM_NAMES
    from repro.obs.capacity import (
        capacity_json,
        format_capacity,
        knee_ordering_ok,
        sweep_capacity,
    )

    systems = tuple(_SYSTEM_ALIASES.get(s, s) for s in args.systems)
    if _refused(systems, FS_SYSTEM_NAMES):
        return 2
    loads = tuple(float(x) for x in args.loads.split(","))
    report = sweep_capacity(
        systems=systems, pack=args.pack, loads=loads,
        num_servers=args.num_servers, horizon_us=args.horizon_us,
        seed=args.seed, attribution=not args.no_attribution)
    print(format_capacity(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(capacity_json(report))
        print(f"capacity report written to {args.json}")
    if args.dashboard_out:
        from repro.obs.dashboard import write_dashboard
        from repro.obs.telemetry import TelemetrySink

        write_dashboard(args.dashboard_out, TelemetrySink(),
                        meta={"pack": args.pack, "servers": args.num_servers},
                        capacity=report)
        print(f"capacity dashboard written to {args.dashboard_out}")
    status = 0
    if args.check:
        slower, _, faster = args.check_pair.partition(":")
        slower = _SYSTEM_ALIASES.get(slower, slower)
        faster = _SYSTEM_ALIASES.get(faster, faster)
        missing = [s for s in (slower, faster) if s not in report["systems"]]
        if missing:
            print(f"--check: {', '.join(missing)} not in the sweep",
                  file=sys.stderr)
            return 2
        bad_points = [
            (system, pt["load"])
            for system, entry in report["systems"].items()
            for pt in entry["points"] if not pt["conservation_ok"]
        ]
        if bad_points:
            print(f"FAIL: conservation violated at {bad_points}",
                  file=sys.stderr)
            status = 1
        if knee_ordering_ok(report, slower, faster):
            print(f"check OK: knee({faster}) > knee({slower})")
        else:
            print(f"FAIL: knee({faster}) is not beyond knee({slower})",
                  file=sys.stderr)
            status = 1
    return status


def _cmd_fsck_demo(args) -> int:
    from repro.common.config import ClusterConfig
    from repro.core.fs import LocoFS
    from repro.core.fsck import check

    fs = LocoFS(ClusterConfig(num_metadata_servers=2))
    c = fs.client()
    c.mkdir("/demo")
    for i in range(5):
        c.create(f"/demo/f{i}")
    print("clean namespace:", check(fs))
    fs.dms.store.delete(b"I:/demo")
    del fs.dms._meta["/demo"]
    report = check(fs)
    print("after corrupting the DMS:", report)
    for e in report.errors[:5]:
        print("  -", e)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="LocoFS (SC'17) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and systems")

    obs = _obs_parent()

    p = sub.add_parser("run", help="run an experiment (or 'all')", parents=[obs])
    p.add_argument("experiment")
    p.add_argument("--quick", action="store_true", help="tiny scales for a smoke pass")

    p = sub.add_parser("latency", help="single-client latency of one system",
                       parents=[obs])
    p.add_argument("system")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--items", type=int, default=50)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--zipf-s", type=float, default=None, metavar="S",
                   help="Zipf exponent for hot-entry skew in the read "
                        "phases (0/omitted = sequential)")

    p = sub.add_parser("throughput", help="closed-loop throughput of one system",
                       parents=[obs])
    p.add_argument("system")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--op", default="touch")
    p.add_argument("--items", type=int, default=30)
    p.add_argument("--client-scale", type=float, default=0.5)

    p = sub.add_parser(
        "availability", help="crash/recover one server mid-run, report goodput",
        parents=[obs])
    p.add_argument("system", help="system name ('locofs' = locofs-c)")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--crash", default="fms0", metavar="SERVER",
                   help="server to crash (e.g. fms0, dms)")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--items", type=int, default=40)
    p.add_argument("--crash-at", type=float, default=0.3, metavar="FRAC",
                   help="crash at this fraction of the measured wave")
    p.add_argument("--down", type=float, default=0.2, metavar="FRAC",
                   help="stay down for this fraction of the wave")
    p.add_argument("--torn-tail", type=int, default=0, metavar="BYTES",
                   help="tear this many bytes off the victim's WAL at crash")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="exit 1 if any acked create is lost (CI smoke)")

    p = sub.add_parser("slo", help="run a crash or churn scenario, judge SLO objectives",
                       parents=[obs])
    p.add_argument("system", help="system name ('locofs' = locofs-c)")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--scenario", choices=("crash", "churn"), default="crash",
                   help="crash = fig16-style faulted run (default); "
                        "churn = open-loop container-churn pack judged "
                        "against the throughput-floor spec")
    p.add_argument("--rate", type=float, default=60_000.0, metavar="OPS",
                   help="offered ops/s for --scenario churn")
    p.add_argument("--horizon-us", type=float, default=150_000.0, metavar="US",
                   help="open-loop horizon for --scenario churn")
    p.add_argument("--crash", default="dms", metavar="SERVER",
                   help="server to crash (default: dms, the fig16 worst case)")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--items", type=int, default=40)
    p.add_argument("--crash-at", type=float, default=0.3, metavar="FRAC")
    p.add_argument("--down", type=float, default=0.2, metavar="FRAC")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write the SLO report as JSON")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when any error budget is exhausted (CI gate)")

    p = sub.add_parser(
        "dashboard", help="run a scenario, write a self-contained HTML dashboard",
        parents=[obs])
    p.add_argument("system", help="system name ('locofs' = locofs-c)")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="path for the HTML dashboard")
    p.add_argument("--scenario", choices=("crash", "throughput", "mixed"),
                   default="crash",
                   help="crash = fig16-style faulted run (default); "
                        "throughput = clean closed-loop run; "
                        "mixed = fig17-style mixed-op run (adds the "
                        "lookup-cache panel on cache-tier systems)")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--items", type=int, default=40)
    p.add_argument("--op", default="touch", help="measured op for --scenario throughput")
    p.add_argument("--zipf-s", type=float, default=None, metavar="S",
                   help="for --scenario mixed: hot-entry Zipf skew "
                        "(switches to the read-mostly mix)")
    p.add_argument("--client-scale", type=float, default=0.5)
    p.add_argument("--crash", default="dms", metavar="SERVER")
    p.add_argument("--crash-at", type=float, default=0.3, metavar="FRAC")
    p.add_argument("--down", type=float, default=0.2, metavar="FRAC")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("trace", help="trace a run, export Chrome/Perfetto JSON",
                       parents=[obs])
    p.add_argument("system", help="system name ('locofs' = locofs-c)")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="path for the trace-event JSON")
    p.add_argument("--engine", choices=("direct", "event"), default="direct",
                   help="direct = mdtest latency phases; event = contended throughput")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--items", type=int, default=10)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--op", default="touch", help="measured op for --engine event")

    p = sub.add_parser(
        "analyze", help="per-phase latency attribution of traced runs",
        parents=[obs])
    p.add_argument("systems", nargs="+",
                   help="system name(s) from the registry ('locofs' = locofs-c)")
    p.add_argument("--engine", choices=("direct", "event"), default="event",
                   help="event = contended fig8-style run (default); "
                        "direct = mdtest latency phases")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--items", type=int, default=10)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--op", default="touch", help="measured op for --engine event")
    p.add_argument("--client-scale", type=float, default=0.15,
                   help="Table-3 client-count scale for --engine event")
    p.add_argument("--window-us", type=float, default=None,
                   help="heat-timeline window (default: horizon/120)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write the attribution report as JSON")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="also export the Perfetto trace (with heat counters)")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="compare phase shares against a checked-in report")
    p.add_argument("--max-drift", type=float, default=10.0, metavar="PP",
                   help="fail on per-phase share drift beyond this many "
                        "share points (default 10.0)")
    p.add_argument("--soft-fail", action="store_true",
                   help="report drift but exit 0 (CI burn-in mode)")

    p = sub.add_parser(
        "capacity",
        help="open-loop offered-load sweep: goodput curves, knees, attribution")
    p.add_argument("systems", nargs="*",
                   default=["locofs-c", "locofs-b", "locofs-nc"],
                   help="systems to sweep (default: locofs-c locofs-b "
                        "locofs-nc)")
    p.add_argument("--sweep", action="store_true",
                   help="run the sweep (the default action; flag kept for "
                        "spelling symmetry with --check)")
    p.add_argument("--pack", choices=("dl-pipeline", "container-churn",
                                      "checkpoint-stampede"),
                   default="dl-pipeline",
                   help="scenario pack (default: dl-pipeline)")
    p.add_argument("--loads", default="20000,40000,80000,160000,320000",
                   metavar="OPS,...",
                   help="comma-separated offered loads in ops/s")
    p.add_argument("-n", "--num-servers", type=int, default=4)
    p.add_argument("--horizon-us", type=float, default=200_000.0, metavar="US",
                   help="open-loop injection horizon per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-attribution", action="store_true",
                   help="skip the traced pre-knee/at-knee re-runs")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write the capacity report as canonical JSON "
                        "(byte-stable for a fixed seed)")
    p.add_argument("--dashboard-out", metavar="FILE", default=None,
                   help="render the offered-vs-goodput / latency-vs-load "
                        "panels as a self-contained HTML page")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless conservation holds at every point "
                        "and the knee ordering of --check-pair holds")
    p.add_argument("--check-pair", default="locofs-nc:locofs-b",
                   metavar="SLOWER:FASTER",
                   help="knee ordering to assert with --check "
                        "(default locofs-nc:locofs-b)")

    sub.add_parser("fsck-demo", help="build a namespace, corrupt it, detect it")

    args = parser.parse_args(argv)
    return {
        "list": _cmd_list,
        "run": _cmd_run,
        "latency": _cmd_latency,
        "throughput": _cmd_throughput,
        "availability": _cmd_availability,
        "slo": _cmd_slo,
        "dashboard": _cmd_dashboard,
        "trace": _cmd_trace,
        "analyze": _cmd_analyze,
        "capacity": _cmd_capacity,
        "fsck-demo": _cmd_fsck_demo,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
