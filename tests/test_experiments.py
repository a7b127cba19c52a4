"""The experiment registry and result objects.

Each experiment's shape claims, at benchmark and at miniature scale, are
rows of the claims table (``claims.py``, evaluated by
``test_claims.py``); the row-id prefix names the figure, e.g. ``fig09``
and ``fig09-tiny``.
"""

from claims import point
from repro.common.types import ROOT_CRED
from repro.experiments import REGISTRY, fig14_rename, table1_access_matrix
from repro.experiments.common import ExperimentResult
from repro.sim.costmodel import SSD


def test_registry_covers_every_figure_and_table():
    assert set(REGISTRY) == {
        "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        "table1", "table3",
    }
    for mod in REGISTRY.values():
        assert hasattr(mod, "run")


def test_experiment_result_report_and_normalize():
    res = ExperimentResult(
        experiment="X", title="t", col_header="s", columns=[1, 2],
        rows={"a": {1: 2.0, 2: 4.0}, "b": {1: 1.0, 2: 1.0}},
    )
    assert "X: t" in res.report()


def test_fig14_deterministic_and_wall_optin():
    a = fig14_rename.run(group_sizes=(100,), base_dirs=800)
    b = fig14_rename.run(group_sizes=(100,), base_dirs=800)
    assert a.rows == b.rows  # modeled seconds are bit-identical run to run
    # virtual-time rows are the primary series; wall clock is opt-in only
    assert "wall_seconds" not in a.extras
    c = fig14_rename.run(group_sizes=(100,), base_dirs=800, measure_wall=True)
    assert c.extras["wall_seconds"]["hash-hdd"][100] >= 0


def test_fig14_renames_preserve_contents():
    """The timing numbers are only meaningful if the rename really executed."""
    dms = fig14_rename._build_dms("btree", SSD, (300,), base_dirs=100)
    assert dms.op_rename("/grp300", "/x", ROOT_CRED) == 300
    assert dms.op_exists("/x/d0000150")
    assert not dms.op_exists("/grp300/d0000150")


# -- the miniature runs' result form (their shape claims are claims-table rows) --


def _form(table: dict) -> dict:
    """Each row label of ``table`` and its column keys, in order."""
    return {label: list(cols) for label, cols in table.items()}


def test_fig01_smoke():
    cells = point("fig01-tiny")
    assert _form({k: v for k, v in cells.items() if k != "kv"}) == {
        "Lustre D1": [1, 2], "KyotoCabinet (1 node)": [1, 2]}


def test_fig06_smoke():
    assert {op: _form(t) for op, t in point("fig06-tiny").items()} == {
        op: {"LocoFS-C": [1], "CephFS": [1]} for op in ("touch", "mkdir")}


def test_fig07_smoke():
    ops = ["readdir", "rmdir", "rm", "dir-stat", "file-stat"]
    assert _form(point("fig07-tiny")) == {"LocoFS-C": ops, "Gluster": ops}


def test_fig08_smoke():
    assert {op: _form(t) for op, t in point("fig08-tiny").items()} == {
        "touch": {"LocoFS-C": [1], "CephFS": [1]}}


def test_fig09_smoke():
    assert _form(point("fig09-tiny")) == {"LocoFS-C": [1]}


def test_fig10_smoke():
    ops = ["mkdir", "touch", "rm", "rmdir"]
    assert _form(point("fig10-tiny")) == {"LocoFS-C": ops, "IndexFS": ops}


def test_fig11_smoke():
    ops = ["chmod", "chown", "access", "truncate"]
    assert _form(point("fig11-tiny")) == {"LocoFS-DF": ops, "LocoFS-CF": ops}


def test_fig12_smoke():
    assert {io: _form(t) for io, t in point("fig12-tiny").items()} == {
        io: {"LocoFS-C": [512, 65536]} for io in ("write", "read")}


def test_fig13_smoke():
    assert _form(point("fig13-tiny")) == {"LocoFS-NC (2 srv)": [1, 16]}


def test_fig14_smoke():
    assert _form(point("fig14-tiny")) == {
        f"{b}-{d}": [100, 300] for b in ("btree", "hash") for d in ("hdd", "ssd")}


def test_fig15_smoke():
    assert _form(point("fig15-tiny")) == {"LocoFS-C": [32], "LocoFS-B (b=8)": [32]}


def test_table1_full_match():
    assert list(point("table1")) == list(table1_access_matrix.PAPER_MATRIX)


def test_fig18_smoke():
    cells = point("fig18-tiny")
    assert _form(cells["goodput"]) == {
        s: [20_000.0, 80_000.0] for s in ("LocoFS-C", "LocoFS-NC")}
    assert cells["saturating_phase"]["locofs-nc"] is not None
