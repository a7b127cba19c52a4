"""Unit tests for the cost model and meters — the timing plane's ground truth."""

import pytest

from repro.kv import HashStore
from repro.kv.meter import Meter, NullMeter
from repro.sim.costmodel import HDD, SSD, CostModel, DeviceModel, KVCostPolicy


class TestCostModel:
    def test_paper_rtt_default(self):
        # Fig. 6 caption: single RTT = 0.174 ms
        assert CostModel().rtt_us == 174.0

    def test_kv_costs_scale_with_bytes(self):
        cm = CostModel()
        assert cm.kv_cost_us("put", 1000) > cm.kv_cost_us("put", 10)
        assert cm.kv_cost_us("get", 0) == cm.kv_get_us

    def test_unknown_op_costs_only_bytes(self):
        cm = CostModel()
        assert cm.kv_cost_us("exotic", 100) == pytest.approx(100 * cm.kv_per_byte_us)

    def test_background_ops_free(self):
        cm = CostModel()
        assert cm.kv_cost_us("flush", 0) == 0.0
        assert cm.kv_cost_us("compaction", 0) == 0.0

    def test_serialize_grows_linearly(self):
        cm = CostModel()
        base = cm.serialize_us(0)
        assert cm.serialize_us(100) == pytest.approx(base + 100 * cm.serialize_per_byte_us)

    def test_transfer_time(self):
        cm = CostModel(bandwidth_bpus=117.0)
        assert cm.transfer_us(117) == pytest.approx(1.0)
        assert cm.transfer_us(0) == 0.0

    def test_colocated_shrinks_network_only(self):
        cm = CostModel()
        co = cm.colocated()
        assert co.rtt_us == cm.local_rtt_us < cm.rtt_us
        assert co.client_overhead_us < cm.client_overhead_us
        # KV costs are untouched: the software does the same work
        assert co.kv_put_us == cm.kv_put_us

    def test_kv_derived_single_node_rate_matches_paper_ballpark(self):
        # the paper cites ~100-300K small KV ops/s on one node; our put
        # cost for a ~220B record should land in that decade
        cm = CostModel()
        per_op = cm.kv_cost_us("put", 220) + cm.server_overhead_us
        rate = 1e6 / per_op
        assert 100_000 < rate < 400_000


class TestDeviceModel:
    def test_hdd_seek_dominates_small_random(self):
        assert HDD.write_us(4096, seeks=1) > SSD.write_us(4096, seeks=1)
        assert HDD.seek_us > 50 * SSD.seek_us

    def test_sequential_scales_with_bytes(self):
        assert HDD.write_us(1 << 20) > HDD.write_us(1 << 10)

    def test_custom_device(self):
        dev = DeviceModel(name="nvme", seek_us=10.0, write_mbps=2000.0)
        assert dev.write_us(2000, seeks=2) == pytest.approx(21.0)


class TestMeter:
    def test_charges_accumulate_via_policy(self):
        m = Meter(KVCostPolicy(CostModel()))
        m.pending += (("put", 100), ("get", 50))
        m.settle()
        cm = CostModel()
        assert m.total_us == pytest.approx(
            cm.kv_cost_us("put", 100) + cm.kv_cost_us("get", 50))
        assert m.count("put") == 1

    def test_explicit_charge(self):
        m = Meter()
        m.charge_us(42.0, "journal")
        assert m.total_us == 42.0
        assert m.count("journal") == 1

    def test_null_meter_counts_but_never_charges(self):
        m = NullMeter()
        m.pending += (("put", 1000),)
        assert m.total_us == 0.0
        assert m.count("put") == 1

    def test_store_integration(self):
        m = Meter(KVCostPolicy(CostModel()))
        s = HashStore(meter=m)
        s.put(b"k", b"v" * 100)
        before = m.total_us
        s.get(b"k")
        assert m.total_us > before

    def test_snapshot_delta_pattern(self):
        # the engines' service-time measurement idiom
        m = Meter(KVCostPolicy(CostModel()))
        s = HashStore(meter=m)
        before = m.snapshot()
        s.put(b"a", b"1")
        s.get(b"a")
        delta = m.snapshot() - before
        cm = CostModel()
        # gets charge key + value bytes (the value must cross the read path)
        assert delta == pytest.approx(cm.kv_cost_us("put", 2) + cm.kv_cost_us("get", 2))
