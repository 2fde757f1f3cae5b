"""CRC-32C behaviour, including the incremental-seed property."""

import sys

from hypothesis import given, strategies as st

from repro.util.checksum import crc32c, crc32c_fixed, verify


class TestCrc32c:
    def test_known_vector(self):
        # RFC 3720 test vector: 32 bytes of zeros.
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_known_vector_ones(self):
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_known_vector_ascending(self):
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_verify(self):
        data = b"hello world"
        assert verify(data, crc32c(data))
        assert not verify(data, crc32c(data) ^ 1)

    @given(st.binary(max_size=256), st.binary(max_size=256))
    def test_incremental_equals_whole(self, a, b):
        assert crc32c(b, crc=crc32c(a)) == crc32c(a + b)

    @given(st.binary(min_size=1, max_size=256),
           st.integers(min_value=0, max_value=255))
    def test_single_bit_flip_detected(self, data, pos_seed):
        pos = pos_seed % len(data)
        corrupted = bytearray(data)
        corrupted[pos] ^= 0x01
        assert crc32c(data) != crc32c(bytes(corrupted))


def test_fixed_kernel_falls_back_before_3_10(monkeypatch):
    # int.bit_count is 3.10+; older interpreters get the table CRC.
    monkeypatch.setattr(sys, "version_info", (3, 9, 18))
    assert crc32c_fixed(88) is crc32c
