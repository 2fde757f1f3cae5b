"""The system address map: routing, overlap rejection, crash fan-out."""

import pytest

from repro.errors import AddressError, ConfigError
from repro.mem.address_space import AddressSpace
from repro.mem.physical import DramDevice, MemoryDevice


def space_with_two_devices():
    space = AddressSpace()
    a = MemoryDevice("a", 4096)
    b = MemoryDevice("b", 4096)
    space.map_device(0x10000, a)
    space.map_device(0x20000, b)
    return space, a, b


class TestMapping:
    def test_routing(self):
        space, a, b = space_with_two_devices()
        space.write(0x10010, b"AA")
        space.write(0x20020, b"BB")
        assert a.read(0x10, 2) == b"AA"
        assert b.read(0x20, 2) == b"BB"

    def test_overlap_rejected(self):
        space, _a, _b = space_with_two_devices()
        with pytest.raises(ConfigError):
            space.map_device(0x10800, MemoryDevice("c", 4096))

    def test_overlap_before_rejected(self):
        space = AddressSpace()
        space.map_device(0x20000, MemoryDevice("a", 4096))
        with pytest.raises(ConfigError):
            space.map_device(0x1F000, MemoryDevice("b", 8192))

    def test_adjacent_mappings_allowed(self):
        space = AddressSpace()
        space.map_device(0x10000, MemoryDevice("a", 4096))
        space.map_device(0x11000, MemoryDevice("b", 4096))
        assert space.device_at(0x10FFF).name == "a"
        assert space.device_at(0x11000).name == "b"

    def test_low_mapping_rejected(self):
        # Address 0 stays NULL.
        with pytest.raises(ConfigError):
            AddressSpace().map_device(0, MemoryDevice("a", 64))

    def test_unmapped_access(self):
        space, _a, _b = space_with_two_devices()
        with pytest.raises(AddressError):
            space.read(0x500, 1)
        with pytest.raises(AddressError):
            space.read(0x18000, 1)

    def test_access_spanning_device_end_rejected(self):
        space, _a, _b = space_with_two_devices()
        with pytest.raises(AddressError):
            space.read(0x10000 + 4090, 10)

    def test_resolve_offsets(self):
        space, _a, _b = space_with_two_devices()
        mapping, offset = space.resolve(0x10020, 4)
        assert mapping.base == 0x10000
        assert offset == 0x20


def space_with_gap():
    """A and B adjacent, then a gap, then C."""
    space = AddressSpace()
    a = MemoryDevice("a", 4096)
    b = MemoryDevice("b", 4096)
    c = MemoryDevice("c", 4096)
    space.map_device(0x10000, a)
    space.map_device(0x11000, b)
    space.map_device(0x20000, c)
    return space, a, b, c


def resolve_error(space, addr, length):
    with pytest.raises(AddressError) as err:
        space.resolve(addr, length)
    return str(err.value)


class TestMappingMemo:
    """``read``/``write`` remember the last mapping; that never widens
    what an access may touch."""

    REJECTED = [
        pytest.param(0x10000 + 4090, 10, id="straddles-into-b"),
        pytest.param(0x12000, 4, id="gap"),
        pytest.param(0x20000 + 4096, 1, id="past-last-mapping"),
        pytest.param(0x20000 + 4090, 8, id="straddles-last-end"),
        pytest.param(0x500, 1, id="below-first-mapping"),
    ]

    @pytest.mark.parametrize("addr,length", REJECTED)
    def test_read_after_hit_raises_as_resolve(self, addr, length):
        space, _a, _b, _c = space_with_gap()
        space.read(0x10010, 8)          # remembers mapping A
        expected = resolve_error(space, addr, length)
        with pytest.raises(AddressError) as err:
            space.read(addr, length)
        assert str(err.value) == expected

    @pytest.mark.parametrize("addr,length", REJECTED)
    def test_write_after_hit_raises_as_resolve(self, addr, length):
        space, _a, _b, _c = space_with_gap()
        space.write(0x10010, b"warm")   # remembers mapping A
        expected = resolve_error(space, addr, length)
        with pytest.raises(AddressError) as err:
            space.write(addr, bytes(length))
        assert str(err.value) == expected

    def test_zero_length_read_after_hit_raises_as_resolve(self):
        space, _a, _b, _c = space_with_gap()
        space.read(0x10010, 8)
        expected = resolve_error(space, 0x10020, 0)
        with pytest.raises(AddressError) as err:
            space.read(0x10020, 0)
        assert str(err.value) == expected

    def test_zero_length_write_still_needs_a_mapping(self):
        space, a, _b, _c = space_with_gap()
        space.write(0x10010, b"warm")
        space.write(0x10020, b"")       # mapped: accepted, writes nothing
        assert a.read(0x20, 1) == b"\x00"
        expected = resolve_error(space, 0x12000, 1)
        with pytest.raises(AddressError) as err:
            space.write(0x12000, b"")
        assert str(err.value) == expected

    def test_offsets_match_resolve(self):
        space, _a, _b, _c = space_with_gap()
        # Alternate mappings so the memo hits and misses.
        for addr in (0x10000, 0x10FF8, 0x11000, 0x11010, 0x10040,
                     0x20000, 0x20FF8, 0x10008):
            payload = addr.to_bytes(8, "little")
            space.write(addr, payload)
            mapping, offset = space.resolve(addr, 8)
            assert mapping.device.read(offset, 8) == payload
            assert space.read(addr, 8) == payload


class TestCrashFanOut:
    def test_crash_reaches_all_devices(self):
        space = AddressSpace()
        dram = DramDevice("dram", 4096)
        keep = MemoryDevice("keep", 4096)
        space.map_device(0x10000, dram)
        space.map_device(0x20000, keep)
        space.write(0x10000, b"gone")
        space.write(0x20000, b"kept")
        space.on_crash()
        assert space.read(0x10000, 4) == bytes(4)
        assert space.read(0x20000, 4) == b"kept"
