"""Set-associative cache arrays: geometry, lookup, eviction."""

import random

import pytest

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.line import CacheLine
from repro.errors import ConfigError, ProtocolError
from repro.util.constants import CACHE_LINE_SIZE


def tiny_cache(ways=2, sets=4):
    config = CacheConfig(size_bytes=sets * ways * CACHE_LINE_SIZE, ways=ways)
    return SetAssociativeCache("t", config)


def line(addr, fill=0):
    return CacheLine(addr, bytes([fill]) * CACHE_LINE_SIZE)


class TestConfig:
    def test_geometry(self):
        config = CacheConfig(size_bytes=32 * 1024, ways=8)
        assert config.num_sets == 64

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=3 * 64 * 8, ways=8).validate("x")

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, ways=3).validate("x")


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(0x1000) is None
        cache.insert(line(0x1000))
        assert cache.lookup(0x1000) is not None
        assert cache.stats.get("hits") == 1
        assert cache.stats.get("misses") == 1

    def test_peek_does_not_touch_stats(self):
        cache = tiny_cache()
        cache.insert(line(0x1000))
        cache.peek(0x1000)
        cache.peek(0x9999999)
        assert cache.stats.get("hits") == 0
        assert cache.stats.get("misses") == 0

    def test_set_conflict_eviction(self):
        cache = tiny_cache(ways=2, sets=4)
        # Addresses 0x0, 0x100, 0x200 all map to set 0 (stride 4*64=0x100).
        cache.insert(line(0x000))
        cache.insert(line(0x100))
        victim = cache.insert(line(0x200))
        assert victim is not None
        assert victim.addr == 0x000       # LRU
        assert cache.stats.get("evictions") == 1

    def test_lru_refresh_changes_victim(self):
        cache = tiny_cache(ways=2, sets=4)
        cache.insert(line(0x000))
        cache.insert(line(0x100))
        cache.lookup(0x000)               # refresh
        victim = cache.insert(line(0x200))
        assert victim.addr == 0x100

    def test_reinsert_same_addr_replaces_in_place(self):
        cache = tiny_cache(ways=2)
        cache.insert(line(0x40, fill=1))
        victim = cache.insert(line(0x40, fill=2))
        assert victim is None
        assert cache.peek(0x40).data[0] == 2
        assert len(cache) == 1

    def test_different_sets_do_not_conflict(self):
        cache = tiny_cache(ways=1, sets=4)
        cache.insert(line(0x00))
        assert cache.insert(line(0x40)) is None

    def test_remove(self):
        cache = tiny_cache()
        cache.insert(line(0x40))
        removed = cache.remove(0x40)
        assert removed is not None
        assert cache.remove(0x40) is None
        assert 0x40 not in cache

    def test_clear(self):
        cache = tiny_cache()
        cache.insert(line(0x00))
        cache.insert(line(0x40))
        cache.clear()
        assert len(cache) == 0

    def test_lines_iteration(self):
        cache = tiny_cache()
        cache.insert(line(0x00))
        cache.insert(line(0x40))
        assert sorted(l.addr for l in cache.lines()) == [0x00, 0x40]


class ListLruModel:
    """Independent reference: one Python list per set, least recent first."""

    def __init__(self, sets, ways):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def _set(self, addr):
        return self.sets[(addr // CACHE_LINE_SIZE) % len(self.sets)]

    def lookup(self, addr):
        members = self._set(addr)
        if addr in members:
            members.remove(addr)
            members.append(addr)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, addr):
        members = self._set(addr)
        victim = None
        if addr in members:
            members.remove(addr)
        elif len(members) == self.ways:
            victim = members.pop(0)
            self.evictions += 1
        members.append(addr)
        return victim

    def remove(self, addr):
        members = self._set(addr)
        if addr in members:
            members.remove(addr)
            self.invalidations += 1
            return True
        return False

    def clear(self):
        for members in self.sets:
            members.clear()

    def resident(self):
        return [addr for members in self.sets for addr in members]


class TestAgainstReferenceModel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_ops_match_list_lru(self, seed):
        rng = random.Random(seed)
        sets, ways = 4, 3
        cache = tiny_cache(ways=ways, sets=sets)
        model = ListLruModel(sets, ways)
        # 24 distinct lines over 4 sets: 6 candidates per 3-way set, so
        # hits, conflict evictions and removals all happen often.
        addrs = [n * CACHE_LINE_SIZE for n in range(24)]
        for step in range(3000):
            op = rng.random()
            addr = rng.choice(addrs)
            if op < 0.4:
                got = cache.lookup(addr)
                assert (got is not None) == model.lookup(addr)
                if got is not None:
                    assert got.addr == addr
            elif op < 0.8:
                fill = step & 0xFF
                victim = cache.insert(line(addr, fill))
                expected = model.insert(addr)
                assert (None if victim is None else victim.addr) == expected
                assert cache.peek(addr).data[0] == fill
            elif op < 0.995:
                removed = cache.remove(addr)
                assert (removed is not None) == model.remove(addr)
            else:
                cache.clear()
                model.clear()
            assert [l.addr for l in cache.lines()] == model.resident()
        assert len(cache) == len(model.resident())
        for name in ("hits", "misses", "evictions", "invalidations"):
            assert cache.stats.get(name) == getattr(model, name), name


class TestCacheLine:
    def test_write_marks_dirty(self):
        cache_line = line(0x40)
        assert not cache_line.dirty
        cache_line.write(4, b"zz")
        assert cache_line.dirty
        assert cache_line.read(4, 2) == b"zz"

    def test_wrong_size_rejected(self):
        with pytest.raises(ProtocolError):
            CacheLine(0, b"short")

    def test_snapshot_is_immutable_copy(self):
        cache_line = line(0x40)
        snap = cache_line.snapshot()
        cache_line.write(0, b"\xff")
        assert snap[0] == 0
