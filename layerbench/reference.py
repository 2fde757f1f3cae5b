"""A fixed pure-Python loop that measures how fast the host runs right now.

Co-tenants of a shared host change its speed by up to ~1.6x over seconds
to minutes. The benchmark runs :class:`ReferenceLoop` between chunks of
timed work and scales each chunk's rate by the loop's speed, which turns
host time into time on a host of fixed speed. The loop is a small
set-associative LRU cache -- ordered dicts, slotted line objects, byte
packing, float accumulation -- so that host contention slows it about as
much as it slows the simulator. It is frozen: it imports nothing from the
simulator, so a faster simulator reads faster.
"""

import struct
import time
from collections import OrderedDict

_U64 = struct.Struct("<Q")

#: Seconds one :meth:`ReferenceLoop.run` takes on the host the benchmark
#: was sized on (2-vCPU KVM guest on a 2.1 GHz Xeon, contended); rates are
#: scaled to a host of that speed.
NOMINAL_S = 0.0017


class _Line:
    __slots__ = ("addr", "data", "dirty")

    def __init__(self, addr):
        self.addr = addr
        self.data = bytearray(64)
        self.dirty = False


class ReferenceLoop:
    """1,000 accesses to a 64-set, 8-way cache over 1,024 lines."""

    ACCESSES = 1000

    def __init__(self):
        self._sets = [OrderedDict() for _set in range(64)]
        self._now = 0.0

    def _access(self, addr, store):
        line_addr = addr & ~63
        bucket = self._sets[(line_addr >> 6) & 63]
        line = bucket.get(line_addr)
        if line is None:
            self._now += 80.5
            if len(bucket) >= 8:
                bucket.popitem(last=False)
            line = bucket[line_addr] = _Line(line_addr)
        else:
            self._now += 1.5
            bucket.move_to_end(line_addr)
        offset = addr & 56
        if store:
            line.data[offset:offset + 8] = _U64.pack(addr)
            line.dirty = True
        return _U64.unpack_from(line.data, offset)[0]

    def run(self):
        """Run the loop once; returns the host seconds it took."""
        state = 12345
        start = time.perf_counter()
        for index in range(self.ACCESSES):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            self._access(state & 0xFFF8, index & 3 == 0)
        return time.perf_counter() - start
