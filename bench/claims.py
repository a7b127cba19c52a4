"""The model-plane accuracy reference: PAPER.md's headline ratios, measured.

A simulator that got twice as fast while drifting from the paper has not
improved, so every run quotes the model's error beside its speed.  The
four headline claims (PAPER.md §1) and how each is measured here:

========================  =====  ==========================================
claim                     paper  measured as
========================  =====  ==========================================
``rawkv_pct_1srv``         38 %  LocoFS-C touch IOPS at 1 server ÷ raw-KV put
``rawkv_pct_16srv``       100 %  same at 16 servers
``indexfs_iops_x``         8.5×  max over 1/8/16 servers of LocoFS-C ÷ IndexFS
``indexfs_lat_frac``       0.25  LocoFS-C ÷ IndexFS mean touch latency, 16 srv
========================  =====  ==========================================

All of it is virtual time at Fig. 9 scale (40 items per client, Table-3
client counts × 0.4) and repeats bit-exactly.  ``err.*`` is
``|measured − paper| ÷ paper``.  ``indexfs_lat_frac`` is far off (≈ 1.6):
EXPERIMENTS.md's known divergence 2 — one client-side cost constant for
every system compresses latency ratios — stated as a number.
"""

from __future__ import annotations

from repro.experiments import fig14_rename
from repro.harness import clients_for, run_latency, run_throughput

PAPER = {
    "rawkv_pct_1srv": 38.0,
    "rawkv_pct_16srv": 100.0,
    "indexfs_iops_x": 8.5,
    "indexfs_lat_frac": 0.25,
}

SERVER_COUNTS = (1, 8, 16)


def run_cells(p: dict) -> tuple[dict, list]:
    """One pass over the claim cells: (claim values, harness results).

    The harness results come back so the caller can count simulated ops;
    the deployments themselves are seen by the caller's ``Capture``.
    """
    items, scale = p["items"], p["client_scale"]
    kv = run_throughput("rawkv", 1, op="put", items_per_client=items,
                        num_clients=clients_for("rawkv", 1, scale) * 2)
    results = [kv]
    iops: dict[str, dict[int, float]] = {"locofs-c": {}, "indexfs": {}}
    for name in iops:
        for k in SERVER_COUNTS:
            r = run_throughput(name, k, op="touch", items_per_client=items,
                               client_scale=scale)
            results.append(r)
            iops[name][k] = r.iops
    latency = {}
    for name in iops:
        rec = run_latency(name, 16, n_items=p["latency_items"], ops=("touch",))
        results.append(rec)
        latency[name] = rec.summary("touch").mean
    claims = {
        "rawkv_iops": kv.iops,
        "rawkv_pct_1srv": 100.0 * iops["locofs-c"][1] / kv.iops,
        "rawkv_pct_16srv": 100.0 * iops["locofs-c"][16] / kv.iops,
        "indexfs_iops_x": max(iops["locofs-c"][k] / iops["indexfs"][k]
                              for k in SERVER_COUNTS),
        "indexfs_lat_frac": latency["locofs-c"] / latency["indexfs"],
    }
    return claims, results


def errors(claims: dict) -> dict[str, float]:
    """``err.<claim>`` = |measured − paper| ÷ paper for the four headlines."""
    return {f"err.{name}": abs(claims[name] - paper) / paper
            for name, paper in PAPER.items()}


def rename_btree_x(p: dict) -> float:
    """Fig. 14: d-rename of ``rename_group`` directories in a namespace of
    ``rename_base`` more — hash-mode ÷ B+-tree-mode virtual time on the HDD
    device model.  The repo's own experiment; the renames really execute."""
    group = p["rename_group"]
    rows = fig14_rename.run(group_sizes=(group,),
                            base_dirs=p["rename_base"]).rows
    return rows["hash-hdd"][group] / rows["btree-hdd"][group]
