"""CLWB/SFENCE cost model."""

import pytest

from repro.errors import AddressError
from repro.pm.flush import FlushModel
from repro.sim.clock import SimClock
from repro.sim.latency import default_model


def flush_model():
    clock = SimClock()
    return FlushModel(clock, default_model()), clock


class TestFlushModel:
    def test_clwb_charges_per_line(self):
        flush, clock = flush_model()
        flush.clwb(0, 256)          # 4 lines
        lat = default_model()
        assert clock.now_ns == pytest.approx(4 * lat.software.clwb_ns)
        assert flush.stats.get("clwb_lines") == 4

    def test_clwb_unaligned_range(self):
        flush, _clock = flush_model()
        flush.clwb(60, 8)           # spans 2 lines
        assert flush.stats.get("clwb_lines") == 2

    def test_clwb_empty_range_free(self):
        flush, clock = flush_model()
        assert flush.clwb(0, 0) == 0.0
        assert clock.now_ns == 0

    def test_clwb_negative_length_rejected(self):
        flush, clock = flush_model()
        with pytest.raises(AddressError) as info:
            flush.clwb(0, -1)
        assert str(info.value) == "size must be non-negative, got -1"
        assert flush.stats.get("clwb_lines") == 0
        assert clock.now_ns == 0

    def test_sfence_includes_pm_drain(self):
        flush, clock = flush_model()
        flush.sfence()
        lat = default_model()
        expected = lat.software.sfence_ns + lat.media.pm_write_ns
        assert clock.now_ns == pytest.approx(expected)
        assert flush.sfence_count == 1

    def test_persist_range_combines(self):
        flush, clock = flush_model()
        total = flush.persist_range(0, 64)
        assert clock.now_ns == pytest.approx(total)
        assert flush.stats.get("clwb_lines") == 1
        assert flush.sfence_count == 1
