"""The PMDK-style hand-crafted undo-WAL backend (paper §2, Fig 2b).

Models ``libpmemobj``-style transactions: before the first store to each
cache line inside a transaction, the line's old contents are appended to
an undo WAL with a non-temporal store and ordered with SFENCE
(``TX_ADD``); structure stores then proceed in place through the caches.
Commit flushes every dirtied line (CLWB), fences, and publishes the
transaction id with one atomic store. Every ``put``/``remove`` is one
transaction — exactly the cost structure the paper attributes to WAL
schemes: *multiple ordering stalls per logical operation*.

Crash recovery replays the undo WAL for any transaction newer than the
commit cell, restoring the pre-transaction image.
"""

from repro.baselines.base import StructureBackend
from repro.baselines.wal import DurableCells, Wal, WalLayout
from repro.errors import LogError
from repro.libpax.allocator import PmAllocator
from repro.libpax.machine import HEAP_PHYS_BASE, HostMachine
from repro.mem.accessor import MemoryAccessor
from repro.pm.flush import FlushModel
from repro.util.bitops import lines_covering
from repro.util.constants import CACHE_LINE_SIZE

#: Offset-within-line mask for the single-line store test.
_LINE_MASK = CACHE_LINE_SIZE - 1


class UndoTxAccessor(MemoryAccessor):
    """Interposes on stores: first touch of a line logs its old value.

    This is the hand-instrumented code path PMDK requires — the thing the
    paper's black-box property removes. Loads pass through untouched, so
    ``read`` and ``read_u64`` are the inner accessor's own bound methods,
    with no frame of this class in between.
    """

    def __init__(self, inner, wal, space):
        self._inner = inner
        self.read = inner.read
        self.read_u64 = inner.read_u64
        self._wal = wal
        self._space = space
        self._tx_id = None
        self._logged = set()
        self._dirty = set()
        #: Optional tracer told about transaction boundaries.
        self.tracer = None

    # -- transaction control ------------------------------------------------

    def begin(self, tx_id):
        """Open transaction ``tx_id``; clears the per-tx line sets."""
        if self._tx_id is not None:
            raise LogError("nested transactions are not supported")
        self._tx_id = tx_id
        self._logged.clear()
        self._dirty.clear()
        if self.tracer is not None:
            self.tracer.on_tx_begin(tx_id)

    @property
    def in_tx(self):
        """True while a transaction is open."""
        return self._tx_id is not None

    @property
    def dirty_lines(self):
        """Structure-space line addresses dirtied by the open tx."""
        return sorted(self._dirty)

    def end(self):
        """Close the transaction (commit bookkeeping is the caller's)."""
        self._tx_id = None
        self._logged.clear()
        self._dirty.clear()
        if self.tracer is not None:
            self.tracer.on_tx_end()

    # -- data path -----------------------------------------------------------

    def write(self, addr, data):
        data = bytes(data)
        if self._tx_id is not None:
            size = len(data)
            line = addr & ~_LINE_MASK
            if size and (addr + size - 1) & ~_LINE_MASK == line:
                lines = (line,)     # single-line store: no line walk
            else:
                lines = lines_covering(addr, size)
            for line in lines:
                if line not in self._logged:
                    # TX_ADD: snapshot the old line straight from PM —
                    # reading via the caches could see this transaction's
                    # own earlier (uncommitted) stores... which is fine
                    # within a tx, but the durable pre-image must be the
                    # pre-tx PM state, so we read the medium.
                    old = self._space.read(HEAP_PHYS_BASE + line,
                                           CACHE_LINE_SIZE)
                    self._wal.append(self._tx_id, line, old, fence=True)
                    self._logged.add(line)
                self._dirty.add(line)
        self._inner.write(addr, data)


class PmdkBackend(StructureBackend):
    """Hand-crafted synchronous undo-WAL hash table on PM."""

    name = "pmdk"
    crash_consistent = True

    def __init__(self, heap_size=64 * 1024 * 1024, wal_size=None,
                 capacity=1024, **machine_kwargs):
        super().__init__()
        self._machine = HostMachine(media="pm", heap_size=heap_size,
                                    **machine_kwargs)
        if wal_size is None:
            # Default: an eighth of the heap, capped at 4 MiB.
            wal_size = min(4 * 1024 * 1024, heap_size // 8)
        self._layout = WalLayout(heap_size, wal_size)
        self._flush = FlushModel(self._machine.clock, self._machine.latency)
        self._cells = DurableCells(self._machine, self._layout)
        self._wal = Wal(self._machine, self._layout, self._flush)
        self._tx = UndoTxAccessor(self._machine.mem(), self._wal,
                                  self._machine.space)
        self._next_tx = self._cells.committed_tx + 1
        self._gate_commits = 0
        self._capacity = capacity
        if self._cells.root == 0:
            self._alloc = PmAllocator.create(self._tx, self._layout.arena_limit)
            self._bind_structure(self._tx, self._alloc, capacity=capacity)
            # Make the initialized empty structure durable before
            # publishing its root.
            self._commit_lines(self._collect_all_dirty())
            self._cells.root = self._map.root
            self._flush.sfence()
        else:
            self._alloc = PmAllocator.attach(self._tx)
            self._reattach_structure(self._tx, self._alloc, self._cells.root)

    @property
    def machine(self):
        return self._machine

    def attach_tracer(self, tracer):
        """Wire a sanitizer/tracer into the machine, WAL, and accessor."""
        self._machine.attach_tracer(tracer)
        self._flush.tracer = tracer
        self._wal.tracer = tracer
        self._cells.tracer = tracer
        self._tx.tracer = tracer
        tracer.on_backend_attach(self, self._layout)

    # -- transactions -----------------------------------------------------------

    def _collect_all_dirty(self):
        return self._machine.hierarchy.dirty_lines()

    def _commit_lines(self, phys_lines):
        """CLWB every dirtied line, fence, publish the tx id, fence."""
        for line in phys_lines:
            self._flush.clwb(line, CACHE_LINE_SIZE)
            self._machine.hierarchy.writeback_line(line)
        self._flush.sfence()
        self._cells.committed_tx = self._next_tx
        self._flush.sfence()
        self._next_tx += 1
        self._wal.reset()
        self._gate_commits += 1

    def _run_tx(self, operation):
        self._tx.begin(self._next_tx)
        try:
            result = operation()
            dirty = self._tx.dirty_lines
        finally:
            self._tx.end()
        self._commit_lines([HEAP_PHYS_BASE + line for line in dirty])
        return result

    def put(self, key, value):
        self._c_puts.value += 1
        return self._run_tx(lambda: self._map.put(key, value))

    def remove(self, key):
        self._c_removes.value += 1
        return self._run_tx(lambda: self._map.remove(key))

    def get(self, key, default=None):
        self._c_gets.value += 1
        return self._map.get(key, default)

    def persist(self):
        """PMDK transactions are durable at commit; nothing extra to do."""

    # -- crash / recovery -----------------------------------------------------------

    def restart(self):
        """Reboot, roll back any uncommitted transaction, re-attach."""
        self._machine.restart()
        committed = self._cells.committed_tx
        to_undo = [entry for entry in self._wal.scan()
                   if entry.epoch > committed]
        for entry in reversed(to_undo):
            data = entry.data.ljust(CACHE_LINE_SIZE, b"\x00")
            self._machine.space.write(HEAP_PHYS_BASE + entry.addr, data)
        self._wal.reset()
        self._next_tx = committed + 1
        self._alloc = PmAllocator.attach(self._tx)
        self._reattach_structure(self._tx, self._alloc, self._cells.root)
        return len(to_undo)

    @property
    def gate_count(self):
        """Committed transactions (hand-written-gate accounting; the
        autopass backend reports the same counter for auto-placed gates)."""
        return self._gate_commits

    @property
    def sfence_count(self):
        """Ordering stalls so far — the paper's overhead argument in a number."""
        return self._flush.sfence_count

    @property
    def wal_bytes(self):
        """Bytes of undo log written (write-amplification accounting)."""
        return self._wal.stats.get("bytes")
