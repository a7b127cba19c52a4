"""Self-tests of the benchmark, at ``--smoke`` scale (about 10 s).

Run with ``python3 -m pytest bench/tests`` from the repository root; the
tier-1 suite (``testpaths = ["tests"]``) does not collect them.  They test
the benchmark's plumbing and its exactness claims, not performance.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

from bench import ROOT, require_program
from bench.compare import compare, verdict
from bench.spec import EXACT, load_spec

require_program()
from bench.run import Run  # noqa: E402

SPEC = load_spec()
SECONDS = 0.05


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {w: Run(w, 1, SECONDS, "smoke").untraced() for w in SPEC.workloads}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: Run(w, 1, SECONDS, "smoke").traced() for w in SPEC.workloads}


def _exact(doc: dict) -> dict:
    return {m: doc["metrics"][m]["value"] for m in EXACT} | {
        "fingerprint": doc["fingerprint"]}


def test_benchmark_json_names_five_workloads_and_setup_s():
    assert len(SPEC.workloads) == 5
    assert SPEC.end_to_end["setup_s"].unit == "s"
    assert max(m.bound for m in SPEC.end_to_end.values()) == \
        SPEC.end_to_end["setup_s"].bound
    assert EXACT <= set(SPEC.end_to_end)


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced, workload):
    doc = untraced[workload]
    assert doc["correct"], [c for c in doc["checks"] if not c["ok"]]
    assert list(doc["metrics"]) == list(SPEC.end_to_end)
    for name, m in doc["metrics"].items():
        assert m["unit"] == SPEC.end_to_end[name].unit
        assert m["value"] != 0, name       # the contract: never 0
    assert doc["attempted"] >= 1 and doc["failed"] == 0


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_every_per_layer_metric_is_emitted_with_its_unit(traced, workload):
    doc = traced[workload]
    assert doc["correct"], [c for c in doc["checks"] if not c["ok"]]
    assert list(doc["metrics"]) == list(SPEC.per_layer)
    for name, m in doc["metrics"].items():
        assert m["unit"] == SPEC.per_layer[name].unit
    assert (ROOT / "bench" / "out" / f"{workload}.trace.json").exists()


def test_layers_are_reached_only_by_the_workloads_that_should(traced):
    value = lambda w, m: traced[w]["metrics"][m]["value"]  # noqa: E731
    assert value("async_mixed", "core.asyncclient.calls_per_op") > 0
    for w in ("create_storm", "read_mostly", "mdtest_direct"):
        assert value(w, "core.asyncclient.calls_per_op") == 0
    assert value("mdtest_direct", "sim.simulator.events_per_op") == 0
    assert value("create_storm", "sim.simulator.events_per_op") > 0
    assert value("paper_claims", "baselines.calls_per_op") > 0
    assert value("create_storm", "harness.create_ns") > 0
    assert value("mdtest_direct", "phase.rmdir.host_us_per_op") > 0
    assert value("paper_claims", "claim.rename_btree_x") > 0
    for w in SPEC.workloads:
        assert value(w, "obs.self_share") < 0.01


def test_traced_and_untraced_runs_share_one_virtual_plane(untraced, traced):
    for w in SPEC.workloads:
        assert untraced[w]["fingerprint"] == traced[w]["fingerprint"]


def test_seed_changes_the_random_streams_and_only_those(untraced):
    for w, moves in (("read_mostly", True), ("async_mixed", True),
                     ("create_storm", False)):
        other = Run(w, 2, SECONDS, "smoke").untraced()
        assert other["correct"]
        assert (other["fingerprint"] != untraced[w]["fingerprint"]) is moves, w


def _all_workloads_in_children(tmp_path, hashseed: str) -> subprocess.Popen:
    out = tmp_path / f"hashseed{hashseed}.json"
    return subprocess.Popen(
        [sys.executable, "-m", "bench", "--smoke", "--seconds", str(SECONDS),
         "--json", str(out)],
        cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": hashseed},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def test_exact_metrics_repeat_across_runs_and_hash_seeds(untraced, tmp_path):
    children = {h: _all_workloads_in_children(tmp_path, h) for h in ("1", "2")}
    for h, child in children.items():
        output, _ = child.communicate(timeout=120)
        assert child.returncode == 0, output
    for h in children:
        doc = json.loads((tmp_path / f"hashseed{h}.json").read_text())
        assert doc["provenance"]["scale"] == "smoke"
        assert set(doc["provenance"]) >= {"commit", "python", "nproc", "cpu",
                                          "seed", "scale", "wall_s"}
        for w in SPEC.workloads:
            assert _exact(doc["workloads"][w]["untraced"]) == \
                _exact(untraced[w]), (w, h)


def test_one_workload_prints_the_contract_line_last():
    child = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "mdtest_direct",
         "--seed", "7", "--seconds", str(SECONDS), "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    line = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(SPEC.end_to_end)
    for m in line["metrics"].values():
        assert set(m) == {"value", "unit"}


def _steady(doc: dict) -> dict:
    """A copy whose noisy metrics have tight quartiles (smoke runs do not)."""
    doc = copy.deepcopy(doc)
    for m in doc["metrics"].values():
        if "q1" in m:
            m["q1"], m["q3"] = m["value"] * 0.995, m["value"] * 1.005
    return doc


def test_compare_flags_a_slowdown_and_an_off_by_one_count(untraced):
    a = {"create_storm": _steady(untraced["create_storm"])}
    lines, quiet = compare(a, copy.deepcopy(a))
    assert quiet, lines

    slow = copy.deepcopy(a)
    rate = slow["create_storm"]["metrics"]["host_ops_per_s"]
    factor = 1.0 - (SPEC.end_to_end["host_ops_per_s"].bound + 0.05)
    for key in ("value", "q1", "q3"):
        rate[key] *= factor
    lines, quiet = compare(a, slow)
    assert not quiet
    assert any("host_ops_per_s" in ln and ln.endswith("regressed") for ln in lines)

    off_by_one = copy.deepcopy(a)
    calls = off_by_one["create_storm"]["metrics"]["py_calls_per_op"]
    calls["value"] += 1.0 / 600        # one call more in the 600-op instance
    lines, quiet = compare(a, off_by_one)
    assert not quiet
    assert any("py_calls_per_op" in ln and ln.endswith("changed") for ln in lines)


def test_compare_says_unresolved_when_runs_are_noisier_than_the_bound():
    metric = SPEC.end_to_end["host_ops_per_s"]
    wide = {"value": 100.0, "q1": 100.0 * (1 - metric.bound),
            "q3": 100.0 * (1 + metric.bound), "n": 11}
    tight = {"value": 70.0, "q1": 69.9, "q3": 70.1, "n": 11}
    assert verdict(metric, wide, tight) == "unresolved"
    assert verdict(metric, {**wide, "q1": 99.9, "q3": 100.1}, tight) == "regressed"
