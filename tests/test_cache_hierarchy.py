"""The coherent hierarchy: hits, misses, coherence, evictions, crash."""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.homes import HostHome
from repro.cache.line import MesiState
from repro.errors import AddressError
from repro.mem.address_space import AddressSpace
from repro.mem.physical import DramDevice
from repro.sim.clock import SimClock
from repro.sim.latency import default_model

BASE = 0x100000
SIZE = 1 << 21


def build(num_cores=2, grants_exclusive=True, tiny=True):
    clock = SimClock()
    lat = default_model()
    space = AddressSpace()
    space.map_device(BASE, DramDevice("dram", SIZE))
    kwargs = {}
    if tiny:
        kwargs = dict(
            l1_config=CacheConfig(2 * 1024, 2),
            l2_config=CacheConfig(8 * 1024, 4),
            llc_config=CacheConfig(32 * 1024, 8),
        )
    hierarchy = CacheHierarchy(clock, lat, num_cores=num_cores, **kwargs)
    home = HostHome("dram", space, lat.media.dram_ns, lat.media.dram_ns)
    home.grants_exclusive = grants_exclusive
    hierarchy.add_home(BASE, SIZE, home)
    return hierarchy, clock, space, home


class TestBasics:
    def test_store_load_roundtrip(self):
        h, _c, _s, _home = build()
        h.store(0, BASE + 100, b"hello")
        assert h.load(0, BASE + 100, 5) == b"hello"

    def test_line_spanning_access(self):
        h, _c, _s, _home = build()
        h.store(0, BASE + 60, b"12345678")
        assert h.load(0, BASE + 60, 8) == b"12345678"

    def test_load_miss_fills_and_hits(self):
        h, _c, _s, _home = build()
        h.load(0, BASE, 8)
        assert h.stats.get("memory_fetches") == 1
        h.load(0, BASE, 8)
        assert h.stats.get("l1_hits") == 1
        assert h.stats.get("memory_fetches") == 1

    def test_unhomed_address_rejected(self):
        h, _c, _s, _home = build()
        with pytest.raises(AddressError):
            h.load(0, 0x500000000, 8)

    def test_latency_charged(self):
        h, clock, _s, _home = build()
        h.load(0, BASE, 8)
        miss_time = clock.now_ns
        assert miss_time > default_model().media.dram_ns   # miss: media + caches
        h.load(0, BASE, 8)
        hit_time = clock.now_ns - miss_time
        assert hit_time == pytest.approx(default_model().cache.l1_ns)


class TestSizeEdges:
    """Sizes the single-line path does not take go through the line walk."""

    def test_negative_load_size_rejected(self):
        h, _c, _s, _home = build()
        with pytest.raises(AddressError) as info:
            h.load(0, BASE, -1)
        assert str(info.value) == "size must be non-negative, got -1"

    def test_zero_size_access_is_free(self):
        h, clock, _s, _home = build()
        assert h.load(0, BASE + 60, 0) == b""
        h.store(0, BASE + 60, b"")
        assert h.stats.get("loads") == 1
        assert h.stats.get("stores") == 1
        assert h.stats.get("memory_fetches") == 0
        assert clock.now_ns == 0


class TestExclusiveGrant:
    def test_sole_reader_gets_E_from_host_home(self):
        h, _c, _s, _home = build(grants_exclusive=True)
        h.load(0, BASE, 8)
        assert h.directory.state(BASE, 0) == MesiState.EXCLUSIVE

    def test_second_reader_gets_S(self):
        h, _c, _s, _home = build()
        h.load(0, BASE, 8)
        h.load(1, BASE, 8)
        assert h.directory.state(BASE, 1) == MesiState.SHARED

    def test_device_style_home_never_grants_E(self):
        h, _c, _s, _home = build(grants_exclusive=False)
        h.load(0, BASE, 8)
        assert h.directory.state(BASE, 0) == MesiState.SHARED

    def test_silent_E_to_M_upgrade(self):
        h, _c, _s, home = build(grants_exclusive=True)
        h.load(0, BASE, 8)
        acquires_before = home.stats.get("acquires")
        h.store(0, BASE, b"x")
        # E->M is silent: no extra home traffic.
        assert home.stats.get("acquires") == acquires_before
        assert h.directory.state(BASE, 0) == MesiState.MODIFIED


class TestCoherence:
    def test_cross_core_read_of_dirty_line(self):
        h, _c, _s, _home = build()
        h.store(0, BASE, b"dirty")
        assert h.load(1, BASE, 5) == b"dirty"
        assert h.stats.get("cross_core_transfers") == 1
        assert h.directory.state(BASE, 0) == MesiState.SHARED
        assert h.directory.state(BASE, 1) == MesiState.SHARED

    def test_store_invalidates_sharers(self):
        h, _c, _s, _home = build()
        h.load(0, BASE, 8)
        h.load(1, BASE, 8)
        h.store(1, BASE, b"new")
        assert h.directory.state(BASE, 0) == MesiState.INVALID
        assert h.directory.owner(BASE) == 1

    def test_store_steals_dirty_line(self):
        h, _c, _s, _home = build()
        h.store(0, BASE, b"AAAA")
        h.store(1, BASE + 4, b"BBBB")
        assert h.load(0, BASE, 8) == b"AAAABBBB"

    def test_writes_by_alternating_cores_converge(self):
        h, _c, _s, _home = build()
        for i in range(16):
            h.store(i % 2, BASE + i, bytes([i]))
        assert h.load(0, BASE, 16) == bytes(range(16))


class TestEvictions:
    def test_dirty_eviction_reaches_home(self):
        h, _c, space, _home = build()
        # Fill far beyond the tiny 32 KiB LLC.
        for i in range(0, 256 * 1024, 64):
            h.store(0, BASE + i, i.to_bytes(4, "little"))
        assert h.stats.get("llc_writebacks") > 0
        # Early lines must have reached DRAM and read back correctly.
        assert h.load(0, BASE, 4) == (0).to_bytes(4, "little")

    def test_inclusion_maintained(self):
        h, _c, _s, _home = build()
        l1, l2 = h.core_caches(0)
        for i in range(0, 64 * 1024, 64):
            h.store(0, BASE + i, b"x")
        for line in l1.lines():
            assert l2.peek(line.addr) is not None

    def test_l1_l2_share_object(self):
        h, _c, _s, _home = build()
        h.store(0, BASE, b"v1")
        l1, l2 = h.core_caches(0)
        assert l1.peek(BASE) is l2.peek(BASE)


class TestStaleLlcCopy:
    """Regression: an upgrade must supersede a dirty LLC copy.

    Found by the reference-model property test: store(c0) / load(c1)
    (downgrade parks the dirty line in the LLC) / store(c0) again
    (upgrade) left the stale dirty LLC copy alive, and a later flush
    wrote it back over the newer data.
    """

    def test_upgrade_supersedes_dirty_llc_copy(self):
        h, _c, space, _home = build()
        h.store(0, BASE, b"v1......")
        h.load(1, BASE, 8)             # M->S; dirty v1 parked in LLC
        h.store(0, BASE, b"v2......")  # S->M upgrade
        h.flush_all()
        assert space.read(BASE, 8) == b"v2......"

    def test_cross_core_steal_supersedes_llc_copy(self):
        h, _c, space, _home = build(num_cores=3)
        h.store(0, BASE, b"v1......")
        h.load(1, BASE, 8)             # dirty v1 in LLC, both cores S
        h.store(2, BASE, b"v3......")  # third core takes M
        h.flush_all()
        assert space.read(BASE, 8) == b"v3......"

    def test_no_m_owner_coexists_with_llc_copy(self):
        h, _c, _s, _home = build()
        h.store(0, BASE, b"x")
        h.load(1, BASE, 8)
        h.store(1, BASE, b"y")
        owner = h.directory.owner(BASE)
        assert owner is not None
        assert h.llc.peek(BASE) is None


class TestCrash:
    def test_drop_all_loses_dirty_data(self):
        h, _c, _s, _home = build()
        h.store(0, BASE, b"\xaa" * 8)
        h.drop_all()
        assert h.load(0, BASE, 8) == bytes(8)

    def test_flush_all_preserves_dirty_data(self):
        h, _c, _s, _home = build()
        h.store(0, BASE, b"\xbb" * 8)
        h.flush_all()
        h.drop_all()
        assert h.load(0, BASE, 8) == b"\xbb" * 8

    def test_dirty_lines_listing(self):
        h, _c, _s, _home = build()
        h.store(0, BASE, b"x")
        h.store(0, BASE + 128, b"y")
        h.load(0, BASE + 256, 8)
        assert h.dirty_lines() == [BASE, BASE + 128]


class TestWritebackLine:
    def test_clwb_pushes_to_home_keeps_line(self):
        h, _c, space, _home = build()
        h.store(0, BASE, b"flushme!")
        assert h.writeback_line(BASE)
        assert space.read(BASE, 8) == b"flushme!"
        # The line stays cached (clean) and hits in L1.
        hits = h.stats.get("l1_hits")
        h.load(0, BASE, 8)
        assert h.stats.get("l1_hits") == hits + 1

    def test_clwb_clean_line_is_noop(self):
        h, _c, _s, _home = build()
        h.load(0, BASE, 8)
        assert not h.writeback_line(BASE)

    def test_clwb_then_crash_preserves(self):
        h, _c, space, _home = build()
        h.store(0, BASE, b"saved")
        h.writeback_line(BASE)
        h.drop_all()
        assert space.read(BASE, 5) == b"saved"
