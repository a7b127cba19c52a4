"""The directory metadata server's lean request path.

``DirectoryMetadataServer._acl_walk`` finds a path's ancestors in place and
the hot handlers read their d-inode inline; these tests hold both to what
the long way — a walk over ``pathutil.ancestors`` — would charge, raise and
count, and bound the Python calls one warm handler makes."""

import cProfile
import pstats

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import pathutil
from repro.common.errors import FSError, NoEntry, PermissionDenied
from repro.common.types import Credentials
from repro.core.dms import DirectoryMetadataServer
from repro.kv.meter import Meter
from repro.metadata.acl import X_OK, may_access
from repro.metadata.layout import DIR_INODE
from repro.sim.costmodel import CostModel, KVCostPolicy

ROOT = Credentials(0, 0)

_NAMES = ("a", "bc", "déf")
#: search granted to owner / group / other in every combination that matters
_MODES = (0o755, 0o711, 0o701, 0o700, 0o070, 0o007, 0o000, 0o644, 0o750, 0o705)
_OWNERS = ((0, 0), (1000, 100), (1001, 101))
_CREDS = (ROOT, Credentials(1000, 100), Credentials(1001, 101), Credentials(1002, 100))

_PATH = st.lists(st.sampled_from(_NAMES), max_size=6).map(lambda p: "/" + "/".join(p))
_TREE = st.lists(st.tuples(_PATH, st.sampled_from(_MODES), st.sampled_from(_OWNERS)),
                 max_size=12)
_QUERIES = st.lists(st.tuples(_PATH, st.sampled_from(_CREDS)), min_size=1, max_size=12)


class _Charges:
    """A meter trace hook that just records each charge."""

    def __init__(self):
        self.log = []

    def kv(self, op, nbytes, cost_us):
        self.log.append((op, nbytes, cost_us.hex()))


def _metered_dms(tree) -> DirectoryMetadataServer:
    """A metered DMS holding ``tree``: each entry's path and its missing
    ancestors made by root, then given the entry's mode and owner (``/``
    included); the meter and counters start clean."""
    dms = DirectoryMetadataServer()
    dms.attach_meter(Meter(KVCostPolicy(CostModel())))
    for path, mode, (uid, gid) in tree:
        for p in pathutil.ancestors(path)[1:] + ([path] if path != "/" else []):
            if p not in dms._meta:
                dms.op_mkdir(p, 0o755, ROOT, 0.0)
        dms.op_setattr(path, ROOT, 1.0, mode=mode)
        dms.op_setattr(path, ROOT, 2.0, uid=uid, gid=gid)
    dms.meter.reset()
    dms.counters.clear()
    dms.meter.trace = _Charges()
    return dms


def _reference_walk(dms, path, cred):
    """The ancestor walk the long way: ``pathutil.ancestors``, one store
    get and one ``may_access`` per level, root included."""
    ancestors = pathutil.ancestors(path)
    dms.counters.inc("acl.walk_levels", len(ancestors))
    for anc in ancestors:
        buf = dms.store.get(b"I:" + anc.encode("utf-8"))
        if buf is None:
            raise NoEntry(anc)
        if not may_access(*DIR_INODE.perm(buf), cred, X_OK):
            raise PermissionDenied(anc)


def _outcome(walk, dms, path, cred):
    log = dms.meter.trace.log
    start = len(log)
    try:
        walk(dms, path, cred)
        err = None
    except FSError as e:
        err = (type(e), e.args, e.path)
    dms.meter.settle()  # KV charges reach the trace sink when priced
    return err, log[start:]


class TestAclWalk:
    @settings(max_examples=60, deadline=None)
    @given(tree=_TREE, queries=_QUERIES)
    def test_differential_vs_ancestors_reference(self, tree, queries):
        lean, ref = _metered_dms(tree), _metered_dms(tree)
        for path, cred in queries:
            got = _outcome(DirectoryMetadataServer._acl_walk, lean, path, cred)
            want = _outcome(_reference_walk, ref, path, cred)
            # same verdict naming the same ancestor, and the same charges:
            # one get per level read, none past the failing one
            assert got == want, (path, cred)
        assert lean.counters.snapshot() == ref.counters.snapshot()
        assert lean.meter.op_counts == ref.meter.op_counts
        assert lean.meter.total_us.hex() == ref.meter.total_us.hex()

    def test_first_failing_ancestor_is_named_and_stops_the_walk(self):
        tree = [("/a/b/c/d", 0o755, (0, 0)), ("/a/b", 0o700, (1000, 100))]
        dms = _metered_dms(tree)
        user, other = Credentials(1000, 100), Credentials(1001, 101)
        assert _outcome(DirectoryMetadataServer._acl_walk, dms, "/a/b/c/d/e", user)[0] is None
        err, charges = _outcome(DirectoryMetadataServer._acl_walk, dms, "/a/b/c/d", other)
        assert err == (PermissionDenied, ("PermissionDenied: /a/b",), "/a/b")
        assert [op for op, *_ in charges] == ["get"] * 3  # /, /a, /a/b
        err, charges = _outcome(DirectoryMetadataServer._acl_walk, dms, "/a/x/y/z", ROOT)
        assert err == (NoEntry, ("NoEntry: /a/x",), "/a/x")
        assert len(charges) == 3  # /, /a, and the miss on /a/x
        assert dms.counters.get("acl.walk_levels") == 5 + 4 + 4
        assert _outcome(DirectoryMetadataServer._acl_walk, dms, "/", other) == (None, [])


class TestLeanDirectoryHandlers:
    @pytest.mark.usefixtures("quiet_gc")
    def test_warm_handler_exact_call_counts(self):
        """One warm ``op_lookup``, ``op_mkdir`` and ``op_rmdir`` at depth 3
        on a metered DMS, root cred, under cProfile: exact and
        machine-independent.  CPython 3.11.7 counts 39, 90 and 78, the
        profiler's own ``disable`` included — the handlers that built an
        ancestors list, called ``_require_dir`` / ``_touch`` / ``_ikey``,
        walked the B+-tree through ``_child_index`` frames and appended
        with a ``get`` + ``put`` counted 71, 150 and 130."""
        dms = DirectoryMetadataServer()
        dms.attach_meter(Meter(KVCostPolicy(CostModel())))
        for path in ("/a", "/a/b", "/a/b/c"):
            dms.op_mkdir(path, 0o755, ROOT, 0.0)
        # warm: meter keys, the normalize / split memos, the uuid ceiling
        dms.op_mkdir("/a/b/w", 0o755, ROOT, 0.5)
        dms.op_lookup("/a/b/w", ROOT)
        dms.op_rmdir("/a/b/w", ROOT)
        counts = {}
        for name, handler, args in (("lookup", dms.op_lookup, ("/a/b/c", ROOT)),
                                    ("mkdir", dms.op_mkdir, ("/a/b/x", 0o755, ROOT, 1.0)),
                                    ("rmdir", dms.op_rmdir, ("/a/b/x", ROOT))):
            prof = cProfile.Profile()
            prof.runcall(handler, *args)
            counts[name] = pstats.Stats(prof).total_calls
        assert counts["lookup"] <= 39
        assert counts["mkdir"] <= 90
        assert counts["rmdir"] <= 78
        assert sorted(dms._meta) == ["/", "/a", "/a/b", "/a/b/c"]
