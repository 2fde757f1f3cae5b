"""Checksums used by on-media formats (pool superblock, undo-log entries).

We use CRC-32C (Castagnoli), the polynomial used by real storage stacks
(iSCSI, ext4, Btrfs), implemented with a precomputed table. Undo-log
entries and the pool superblock carry a CRC so that recovery can detect a
torn write at the durability boundary — exactly the failure a crash
simulator must get right.

:func:`crc32c_fixed` builds a faster kernel for records of one fixed
length (the undo-log entry body), exact against :func:`crc32c`.
"""

import sys

from repro.errors import ChecksumError

_CRC32C_POLY = 0x82F63B78


def _build_tables():
    # Slicing-by-8: table[0] is the classic byte-at-a-time table;
    # table[k][i] advances a byte through k additional zero bytes, so
    # eight table lookups consume eight input bytes per loop iteration.
    # The result is bit-identical to the byte-at-a-time computation.
    t0 = []
    for i in range(256):
        crc = i
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC32C_POLY
            else:
                crc >>= 1
        t0.append(crc)
    tables = [t0]
    for _ in range(7):
        prev = tables[-1]
        tables.append([t0[c & 0xFF] ^ (c >> 8) for c in prev])
    return tables


_TABLES = _build_tables()
_TABLE = _TABLES[0]


def crc32c(data, crc=0):
    """Compute the CRC-32C of ``data`` (bytes-like), seeding with ``crc``.

    The seed lets callers checksum a record incrementally:

    >>> crc32c(b"world", crc=crc32c(b"hello ")) == crc32c(b"hello world")
    True
    """
    crc ^= 0xFFFFFFFF
    data = bytes(data)
    n = len(data)
    t0, t1, t2, t3, t4, t5, t6, t7 = _TABLES
    end = n & ~7
    for i in range(0, end, 8):
        low = crc ^ data[i] ^ (data[i + 1] << 8) \
            ^ (data[i + 2] << 16) ^ (data[i + 3] << 24)
        crc = (t7[low & 0xFF] ^ t6[(low >> 8) & 0xFF]
               ^ t5[(low >> 16) & 0xFF] ^ t4[low >> 24]
               ^ t3[data[i + 4]] ^ t2[data[i + 5]]
               ^ t1[data[i + 6]] ^ t0[data[i + 7]])
    for j in range(end, n):
        crc = t0[(crc ^ data[j]) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c_fixed(length):
    """Return a CRC-32C function for inputs of exactly ``length`` bytes.

    CRC-32C is affine over GF(2): flipping an input bit flips a fixed set
    of result bits, whatever the other bits are. So result bit ``j`` is
    the parity of ``int.from_bytes(data, "little") & mask_j`` XOR-ed with
    bit ``j`` of the CRC of ``length`` zero bytes, where ``mask_j`` holds
    every input bit that flips result bit ``j``. The 32 masks are built
    once, here, from :func:`crc32c` itself; each call is then 32
    AND/``bit_count`` steps instead of a table lookup per byte.

    ``int.bit_count`` needs Python 3.10; older interpreters get
    :func:`crc32c` itself, which is exact for any length. The returned
    kernel raises :class:`~repro.errors.ChecksumError` on input of the
    wrong length (the fallback accepts any length).

    >>> crc32c_fixed(11)(b"hello world") == crc32c(b"hello world")
    True
    """
    if type(length) is not int or length < 1:
        raise ChecksumError("fixed CRC length must be a positive int, got %r"
                            % (length,))
    if sys.version_info < (3, 10):
        return crc32c
    zero_crc = crc32c(bytes(length))
    # flips[i]: the result bits that input bit i flips.
    flips = [crc32c((1 << i).to_bytes(length, "little")) ^ zero_crc
             for i in range(8 * length)]
    pairs = tuple(
        (sum(1 << i for i, flip in enumerate(flips) if flip >> j & 1), 1 << j)
        for j in range(32))
    from_bytes = int.from_bytes

    def kernel(data):
        if len(data) != length:
            raise ChecksumError("fixed CRC expects %d bytes, got %d"
                                % (length, len(data)))
        x = from_bytes(data, "little")
        crc = zero_crc
        for mask, bit in pairs:
            if (x & mask).bit_count() & 1:
                crc ^= bit
        return crc

    return kernel


def verify(data, expected):
    """Return True if ``data`` checksums to ``expected``."""
    return crc32c(data) == expected
