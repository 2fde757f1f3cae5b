"""The on-PM undo log region: encoding, scanning, durability discipline."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import ChecksumError, LogError
from repro.pm.device import PmDevice
from repro.pm.log import (
    ENTRY_SIZE,
    TAIL_CORRUPT,
    TAIL_TORN,
    UndoLogRegion,
    decode_entry,
    encode_entry,
)
from repro.util.checksum import crc32c, crc32c_fixed


#: The entry-body kernel, built once (construction costs ~10 ms).
BODY_CRC = crc32c_fixed(88)


def region(entries=16):
    device = PmDevice("pm", 1 << 20)
    return UndoLogRegion(device, 4096, entries * ENTRY_SIZE), device


class TestEncoding:
    def test_roundtrip(self):
        blob = encode_entry(5, 0x1000, b"\xaa" * 64)
        entry = decode_entry(blob)
        assert entry.epoch == 5
        assert entry.addr == 0x1000
        assert entry.data == b"\xaa" * 64

    def test_short_payload_preserved(self):
        entry = decode_entry(encode_entry(1, 0x40, b"abc"))
        assert entry.data == b"abc"

    def test_entry_size_fixed(self):
        assert len(encode_entry(1, 0x40, b"x")) == ENTRY_SIZE

    def test_unaligned_addr_rejected(self):
        with pytest.raises(LogError):
            encode_entry(1, 0x41, b"x")

    def test_oversize_payload_rejected(self):
        with pytest.raises(LogError):
            encode_entry(1, 0x40, b"x" * 65)

    def test_empty_payload_rejected(self):
        with pytest.raises(LogError):
            encode_entry(1, 0x40, b"")

    def test_corrupt_crc_detected(self):
        blob = bytearray(encode_entry(1, 0x40, b"data"))
        blob[30] ^= 0xFF
        assert decode_entry(bytes(blob)) is None

    def test_garbage_not_decoded(self):
        assert decode_entry(b"\x00" * ENTRY_SIZE) is None
        assert decode_entry(b"\xff" * ENTRY_SIZE) is None
        assert decode_entry(b"short") is None

    @given(st.integers(min_value=0, max_value=2**63),
           st.binary(min_size=1, max_size=64))
    def test_roundtrip_property(self, epoch, payload):
        entry = decode_entry(encode_entry(epoch, 0x1000, payload))
        assert entry is not None
        assert entry.epoch == epoch
        assert entry.data == payload


class TestOnMediaFormat:
    """Pinned entry bytes: any encoder change must reproduce them."""

    # magic "UNDO", len 3, pad, epoch 7, addr 0x1240, "abc" + 61 zero
    # bytes of padding, CRC-32C of bytes [0, 88), reserved.
    SHORT = bytes.fromhex(
        "4f444e55" "0300" "0000" "0700000000000000" "4012000000000000"
        "616263" + "00" * 61 + "6cfc1c93" "00000000")
    FULL = bytes.fromhex(
        "4f444e55" "4000" "0000" "efcdab8967452301" "c0ffff7f00000000"
        + bytes(range(0x40, 0x80)).hex() + "91d1c33c" "00000000")

    def test_short_payload_golden_bytes(self):
        assert encode_entry(7, 0x1240, b"abc") == self.SHORT

    def test_full_payload_golden_bytes(self):
        blob = encode_entry(0x0123456789ABCDEF, 0x7FFFFFC0,
                            bytes(range(0x40, 0x80)))
        assert blob == self.FULL

    def test_golden_bytes_decode(self):
        entry = decode_entry(self.SHORT)
        assert (entry.epoch, entry.addr, entry.data) == (7, 0x1240, b"abc")

    @pytest.mark.parametrize("body", [
        bytes(88), b"\xff" * 88,
        bytes(random.Random(13).getrandbits(8) for _ in range(88))],
        ids=["zeros", "ones", "random"])
    def test_fixed_kernel_matches_crc32c(self, body):
        assert BODY_CRC(body) == crc32c(body)

    @given(st.binary(min_size=88, max_size=88))
    def test_fixed_kernel_matches_crc32c_property(self, body):
        assert BODY_CRC(body) == crc32c(body)

    @pytest.mark.parametrize("length", [0, -1, 8.0])
    def test_fixed_kernel_rejects_bad_length(self, length):
        with pytest.raises(ChecksumError):
            crc32c_fixed(length)

    def test_fixed_kernel_rejects_wrong_input_length(self):
        if BODY_CRC is crc32c:
            pytest.skip("interpreter without int.bit_count: plain crc32c")
        with pytest.raises(ChecksumError):
            BODY_CRC(bytes(87))

    def test_torn_tail_classified(self):
        log, device = region()
        log.append(2, 0x1000, b"a" * 64)
        # The second append persisted its body but not its CRC.
        blob = encode_entry(2, 0x1040, b"b" * 64)
        device.write(4096 + ENTRY_SIZE, blob[:88] + bytes(8))
        result = log.scan_report(committed_epoch=1)
        assert result.tail == TAIL_TORN
        assert [e.addr for e in result.entries] == [0x1000]

    def test_corrupt_payload_classified(self):
        log, device = region()
        for i in range(3):
            log.append(2, 0x1000 + 64 * i, bytes([i + 1]) * 64)
        # One payload bit of the middle entry flips on the media.
        at = 4096 + ENTRY_SIZE + 40
        device.write(at, bytes([device.read(at, 1)[0] ^ 0x10]))
        result = log.scan_report(committed_epoch=1)
        assert result.tail == TAIL_CORRUPT
        assert [e.addr for e in result.entries] == [0x1000]


class TestRegion:
    def test_append_then_scan(self):
        log, _device = region()
        log.append(1, 0x1000, b"a" * 64)
        log.append(1, 0x1040, b"b" * 64)
        entries = list(log.scan())
        assert [e.addr for e in entries] == [0x1000, 0x1040]

    def test_scan_is_durable_only(self):
        # A fresh region object (volatile offset lost) must still scan.
        log, device = region()
        log.append(3, 0x1000, b"z" * 64)
        fresh = UndoLogRegion(device, 4096, log.size)
        assert [e.epoch for e in fresh.scan()] == [3]

    def test_capacity_enforced(self):
        log, _device = region(entries=2)
        log.append(1, 0x0, b"a")
        log.append(1, 0x40, b"b")
        assert log.is_full
        with pytest.raises(LogError):
            log.append(1, 0x80, b"c")

    def test_reset_poisons_scan(self):
        log, _device = region()
        log.append(1, 0x1000, b"a" * 64)
        log.append(1, 0x1040, b"b" * 64)
        log.reset()
        assert list(log.scan()) == []
        assert log.used_entries == 0

    def test_entries_beyond_reset_not_resurrected(self):
        log, _device = region()
        for index in range(4):
            log.append(1, 0x1000 + index * 64, bytes([index]) * 64)
        log.reset()
        log.append(2, 0x2000, b"n" * 64)
        entries = list(log.scan())
        # Only the new entry: old epoch-1 entries are unreachable.
        assert len(entries) == 1
        assert entries[0].epoch == 2

    def test_append_returns_monotonic_offsets(self):
        log, _device = region()
        offsets = [log.append(1, 0x1000 + i * 64, b"x") for i in range(5)]
        assert offsets == sorted(offsets)
        assert offsets[1] - offsets[0] == ENTRY_SIZE

    def test_region_too_small_rejected(self):
        with pytest.raises(LogError):
            UndoLogRegion(PmDevice("pm", 1 << 20), 4096, 10)
