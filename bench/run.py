"""One workload, one process: the untraced run and the traced run.

``Run.untraced`` produces every end-to-end metric, ``Run.traced`` every
per-layer metric; both return one result document (see ``bench/README.md``
for its shape).  Host-time numbers are medians over repeated instances;
virtual-time numbers and counts come from one instance and are checked to
be identical in every other instance and under every attached observer.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from time import perf_counter

from repro.obs import MetricsRegistry, TelemetrySink, Tracer
from repro.obs.analyze import PHASES, attribution_report

from . import ROOT, claims
from .calibrate import Calibration
from .capture import OpTap
from .ladder import run_ladder
from .layers import LAYERS, LayerProfile
from .spec import SCALES, load_spec, percentile, quartiles
from .workloads import (
    MDTEST_PHASES,
    WORKLOADS,
    Instance,
    check_namespace,
    fingerprint,
    run_instance,
    work_counts,
)

OUT_DIR = ROOT / "bench" / "out"


class GcWatch:
    """Collector pauses inside the measured wave (a measured-wave hook)."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self._t0 = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.pause_s += perf_counter() - self._t0

    def hook(self, active: bool) -> None:
        if active:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)


def _virt_shares(tracer: Tracer, since_us: float) -> tuple[dict, dict]:
    """Phase shares of the measured wave's ops, from ``attribution_report``.

    The report has no time filter, so it runs on a tracer holding only the
    spans that start in the measured wave (children start after their op).
    """
    measured = Tracer()
    measured.spans = [s for s in tracer.spans if s.start_us >= since_us]
    ops = attribution_report(measured)["ops"]
    totals = {phase: sum(o["count"] * o["phases_us"][phase]["mean"]
                         for o in ops.values()) for phase in PHASES}
    whole = sum(totals.values())
    return ({phase: (t / whole if whole else 0.0)
             for phase, t in totals.items()}, ops)


class Run:
    """One run of one workload: its fixed context, its checks, its passes."""

    def __init__(self, name: str, seed: int, seconds: float, scale_name: str):
        self.t_start = perf_counter()
        self.name, self.seed, self.seconds = name, seed, seconds
        self.scale_name = scale_name
        self.spec = load_spec()
        self.scale = SCALES[scale_name]
        self.workload = WORKLOADS[name]
        self.p = self.scale[name]
        self.calibration = Calibration(self.scale["calibration_iterations"])
        #: named pass/fail facts; one failure makes the run incorrect
        self.checks: list[dict] = []

    # -- checks -------------------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_same_plane(self, name: str, inst: Instance, want: str) -> None:
        got = fingerprint(inst)
        self.check(name, got == want and inst.failed == 0,
                   f"fingerprint {got} (untraced {want}), "
                   f"virt_iops {inst.virt_iops!r}")

    # -- passes -------------------------------------------------------------
    def instance(self, p: dict | None = None, **kwargs) -> Instance:
        return run_instance(self.workload, p or self.p, self.seed,
                            self.calibration, **kwargs)

    def timed(self, seconds: float, min_repeats: int,
              measured_hook=None) -> list[Instance]:
        """Repeat untraced instances for ``seconds`` (and at least
        ``min_repeats`` times).  Only the last keeps its deployment; the
        others are reduced to numbers so memory stays flat."""
        deadline = perf_counter() + seconds
        instances: list[Instance] = []
        prints = set()
        while len(instances) < min_repeats or perf_counter() < deadline:
            inst = self.instance(measured_hook=measured_hook,
                                 after=instances[-1] if instances else None)
            prints.add(fingerprint(inst))
            if instances:
                instances[-1].release()
            instances.append(inst)
        self.check("virtual.repeats", len(prints) == 1,
                   f"{len(instances)} instances, {len(prints)} distinct "
                   "virtual-plane fingerprints")
        return instances

    def latencies(self, inst: Instance, want: str) -> tuple[list[float], int]:
        """(sorted per-op virtual latencies, batched requests served).

        Load workloads repeat the instance with the exact-latency telemetry
        tap attached; ``paper_claims`` reads its direct-engine latency cell.
        """
        if self.name == "paper_claims":
            cell = next(d for d in inst.deployments
                        if d.kind == "direct" and d.name == "locofs-c")
            return sorted(cell.latencies()), 0
        tap = OpTap()
        tapped = self.instance(telemetry=tap)
        self.check_same_plane("tap.virtual_identical", tapped, want)
        since = tapped.primary.before.virt_us
        latencies = tap.latencies_since(since)
        failed = sum(1 for start in tap.failed if start >= since)
        self.check("tap.op_count", len(latencies) + failed == tapped.ops
                   and failed == tapped.failed,
                   f"tap saw {len(latencies)} ok + {failed} failed ops, "
                   f"harness total_ops {tapped.ops}, errors {tapped.failed}")
        return sorted(latencies), tap.batches_since(since)

    def profiled(self, name: str, want: str) -> tuple[Instance, dict]:
        """The instance under the layer profiler: (instance, folded profile)."""
        profile = LayerProfile()
        inst = self.instance(measured_hook=profile.hook)
        self.check_same_plane(name, inst, want)
        return inst, profile.fold(inst.ops)

    def document(self, trace: int, instances: list[Instance], metrics: dict,
                 want: str) -> dict:
        attempted = sum(i.ops for i in instances)
        failed = sum(i.failed for i in instances)
        self.check("ops.none_failed", failed == 0,
                   f"{failed} of {attempted} measured ops failed")
        return {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "scale": self.scale_name, "trace": trace,
            "correct": all(c["ok"] for c in self.checks),
            "attempted": attempted, "failed": failed, "checks": self.checks,
            "metrics": metrics, "fingerprint": want,
            "wall_s": perf_counter() - self.t_start,
        }

    # -- the untraced run: end-to-end metrics ---------------------------------
    def untraced(self) -> dict:
        instances = self.timed(self.seconds, self.scale["min_repeats"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = instances[-1]
        want = fingerprint(last)
        for check in check_namespace(self.workload, self.p, last):
            self.check(*check)

        latencies, _ = self.latencies(last, want)
        beyond_p99 = len(latencies) - len(latencies) * 99 // 100
        self.check("latency.samples",
                   beyond_p99 >= 10 or self.scale_name != "full",
                   f"{len(latencies)} samples, {beyond_p99} beyond p99")

        counted, folded = self.profiled("count_pass.virtual_identical", want)

        if self.name == "paper_claims":
            claim_values = last.claims
        else:
            claim_values, _ = claims.run_cells(self.scale["paper_claims"])

        # host time is drift-corrected (calibrate.py); raw medians ride along
        q1, rate, q3 = quartiles(i.host_ops_per_s for i in instances)
        s1, setup, s3 = quartiles(i.setup_s for i in instances)
        n = len(instances)
        failed = sum(i.failed for i in instances)
        attempted = sum(i.ops for i in instances)
        values = {
            "host_ops_per_s": dict(
                value=rate, q1=q1, q3=q3, n=n,
                raw=statistics.median(i.ops / i.raw_host_s for i in instances),
                drift=statistics.median(i.drift for i in instances)),
            "py_calls_per_op": dict(value=folded["calls_per_op"], n=1),
            "peak_rss_mb": dict(value=peak_rss_mb, n=1),
            "setup_s": dict(
                value=setup, q1=s1, q3=s3, n=n,
                raw=statistics.median(i.raw_setup_s for i in instances)),
            "virt_iops": dict(value=last.virt_iops, n=1),
            "virt_mean_us": dict(value=sum(latencies) / len(latencies),
                                 n=len(latencies)),
            "virt_p99_us": dict(value=percentile(latencies, 0.99),
                                n=len(latencies)),
            "ok_ratio": dict(value=1.0 - failed / attempted, n=attempted),
        }
        for err_name, err in claims.errors(claim_values).items():
            values[err_name] = dict(value=err, n=1)
        metrics = {m: {"unit": metric.unit, **values[m]}
                   for m, metric in self.spec.end_to_end.items()}
        return self.document(0, instances, metrics, want)

    # -- the traced run: per-layer metrics --------------------------------------
    def traced(self) -> dict:
        scale, name = self.scale, self.name
        # a layer a workload does not reach reads 0
        values = dict.fromkeys(self.spec.per_layer, 0.0)
        detail: dict = {}

        # 1. untraced reference: what "attached" passes must reproduce and
        #    are timed against; also the exact work counts and GC pauses
        watch = GcWatch()
        refs = self.timed(self.seconds / 3.0, scale["ref_repeats"], watch.hook)
        ref, want = refs[-1], fingerprint(refs[-1])
        ref_host_s = statistics.median(i.host_s for i in refs)
        _, batches = self.latencies(ref, want)
        values.update(work_counts(ref, batches))
        values["gc.pause_share"] = (watch.pause_s
                                    / sum(i.raw_host_s for i in refs))

        # 2. profile pass: host self time and calls by layer
        profiled, folded = self.profiled("profile_pass.virtual_identical", want)
        for layer in LAYERS:
            values[f"{layer}.self_share"] = folded["layers"][layer]["self_share"]
            values[f"{layer}.calls_per_op"] = folded["layers"][layer]["calls_per_op"]
        values["obs.profile_overhead_x"] = profiled.host_s / ref_host_s
        obs_share = folded["layers"]["obs"]["self_share"]
        self.check("obs.detached", obs_share < 0.01,
                   f"obs.self_share {obs_share:.4f} with nothing attached")
        detail["profile"] = folded

        if name != "paper_claims":
            # 3. obs passes through the harness's own sinks
            sunk = [self.instance(telemetry=TelemetrySink())
                    for _ in range(scale["ref_repeats"])]
            self.check_same_plane("telemetry_pass.virtual_identical",
                                  sunk[-1], want)
            values["obs.telemetry_overhead_x"] = statistics.median(
                i.host_s for i in sunk) / ref_host_s

            # the Tracer keeps every span, so it gets a smaller instance —
            # and that instance's own untraced twin to be compared with
            small = dict(self.p)
            size = self.workload.size_key
            small[size] = max(2, int(small[size] * scale["trace_fraction"]))
            bare = self.instance(small)
            tracer = Tracer()
            traced = self.instance(small, tracer=tracer,
                                   metrics=MetricsRegistry())
            self.check_same_plane("tracer_pass.virtual_identical", traced,
                                  fingerprint(bare))
            values["obs.tracer_overhead_x"] = traced.host_s / bare.host_s
            shares, ops = _virt_shares(tracer, traced.primary.before.virt_us)
            for phase, share in shares.items():
                values[f"virt.share.{phase}"] = share
            detail["attribution"] = {"spans": len(tracer.spans), "ops": ops,
                                     "instance": small}

        if name == "mdtest_direct":
            for op in MDTEST_PHASES:
                count = ref.result.count(op)
                values[f"phase.{op}.host_us_per_op"] = statistics.median(
                    i.phase_host_s(op) for i in refs) / count * 1e6
                values[f"phase.{op}.virt_us"] = ref.result.summary(op).mean

        if name == "create_storm":
            # 4. the ladder rides with the workload whose cost it explains
            rungs, rounds = run_ladder(self.calibration, seconds=self.seconds,
                                       **scale["ladder"])
            values.update(rungs)
            detail["ladder"] = {"rounds": rounds, **scale["ladder"]}

        if name == "paper_claims":
            for claim, value in ref.claims.items():
                values[f"claim.{claim}"] = value
            values["claim.rename_btree_x"] = claims.rename_btree_x(self.p)

        unnamed = set(values) - set(self.spec.per_layer)
        self.check("metrics.named", not unnamed,
                   f"not in BENCHMARK.json: {sorted(unnamed)}")
        metrics = {m: {"unit": metric.unit, "value": values[m]}
                   for m, metric in self.spec.per_layer.items()}

        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.trace.json").write_text(json.dumps({
            "workload": name, "seed": self.seed, "scale": self.scale_name,
            "reference_host_s": ref_host_s, "fingerprint": want,
            "per_layer": {m: v["value"] for m, v in metrics.items()},
            **detail,
        }, indent=1, sort_keys=True) + "\n")
        return self.document(1, refs, metrics, want)
