"""Batched trace replay: the execution-model change behind `--engine replay`.

Two engines re-execute a recorded trace against a freshly built backend:

* **generic** — dispatches every event to the same seam methods the
  recorder wrapped (``hierarchy.load``, ``space.write``, ``wal.append``,
  ...). Always available, always exact; it skips only the structure
  layer (hash probing, key encoding), which is what a trace makes
  redundant.
* **fast** — for the single-core PAX shape, a straight-line interpreter
  over the columnar event arrays. One Python loop advances the real
  cache sets and directory, the device's HBM/undo/write-back state, CXL
  link bandwidth mirrors and the simulated clock directly, with stat
  counters bound as locals and access-latency histogram samples buffered
  for a batched (numpy-accelerated) settle. It reproduces the per-access
  path's floating-point arithmetic operation for operation, so
  ``sim_ns``, every stat counter, histogram moments and final pool bytes
  are *byte-identical* — proven by the golden-equivalence tests.

The fast engine bails to the generic seams for anything outside its
proven envelope (multi-line accesses, ``persist()``, a non-empty device
write-back buffer) and resumes when the device is quiescent again; the
per-access path stays the executable spec (docs/performance.md).
"""

from repro.cache.coherence import DirectoryEntry
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import CacheLine
from repro.core.config import CREDIT_LOW as _CREDIT_LOW
from repro.core.config import CREDIT_SAT as _CREDIT_SAT
from repro.core.hbm import HbmCache
from repro.cxl.adapter import BusOp
from repro.cxl.link import CxlLink
from repro.cxl.messages import DATA_BYTES, HEADER_BYTES
from repro.cxl.port import DevicePort
from repro.errors import AddressError, ProtocolError, TraceError
from repro.libpax.machine import PaxHome, PaxMachine
from repro.pm.log import ENTRY_SIZE
from repro.replay import format as fmt
from repro.replay.equivalence import structure_stat_groups
from repro.replay._np import HAVE_NUMPY, np
from repro.replay.recorder import _resolve
from repro.util.stats import Histogram

from itertools import islice

_RESERVOIR = Histogram.RESERVOIR_SIZE

# Event kinds as module constants: the fast loop compares against these
# once or twice per event and a global load beats two attribute hops.
_LOAD = fmt.LOAD
_STORE = fmt.STORE
_MARK = fmt.MARK
_PAYLOAD_KINDS = fmt.PAYLOAD_KINDS

#: Below this many buffered samples the plain record() loop beats numpy
#: call overhead; above it the vectorized settle wins by ~10x.
_NP_SETTLE_MIN = 256


class ReplayResult:
    """What one replay produced (see :func:`replay_trace`)."""

    __slots__ = ("backend", "engine", "events", "sim_ns", "marks",
                 "wall_s", "wall_s_timed", "saturated_events")

    def __init__(self, backend, engine, events, sim_ns, marks,
                 wall_s, wall_s_timed, saturated_events):
        self.backend = backend
        self.engine = engine
        self.events = events
        self.sim_ns = sim_ns
        self.marks = marks          # mark code -> sim_ns at the mark
        self.wall_s = wall_s        # whole-trace wall clock (None w/o stopwatch)
        self.wall_s_timed = wall_s_timed   # wall after MARK_TIMED
        #: Events the fast engine's saturated same-line lane served
        #: (always 0 on the generic engine).
        self.saturated_events = saturated_events

    @property
    def sim_ns_timed(self):
        """Simulated ns consumed after the timed-phase mark."""
        start = self.marks.get(fmt.MARK_TIMED)
        if start is None:
            return self.sim_ns
        return self.sim_ns - start


class _Seams:
    """Bound replay entry points on a fresh backend (generic engine)."""

    __slots__ = ("backend", "machine", "hier", "load", "store", "wbl",
                 "persist", "space_read", "space_write", "clwb", "sfence",
                 "wal_append", "wal_reset")

    def __init__(self, backend):
        machine = backend.machine
        self.backend = backend
        self.machine = machine
        self.hier = machine.hierarchy
        self.load = self.hier.load
        self.store = self.hier.store
        self.wbl = self.hier.writeback_line
        self.persist = getattr(machine, "persist", None)
        space = getattr(machine, "space", None)
        self.space_read = None if space is None else space.read
        self.space_write = None if space is None else space.write
        flush = getattr(backend, "_flush", None)
        self.clwb = None if flush is None else flush.clwb
        self.sfence = None if flush is None else flush.sfence
        wal = getattr(backend, "_wal", None)
        self.wal_append = None if wal is None else wal.append
        self.wal_reset = None if wal is None else wal.reset


def _step(seams, kind, aux, addr, size, payload):
    """Re-issue one non-MARK event through the real seam methods."""
    if kind == fmt.LOAD:
        seams.load(aux, addr, size)
    elif kind == fmt.STORE:
        seams.store(aux, addr, payload)
    elif kind == fmt.RAW_READ:
        seams.space_read(addr, size)
    elif kind == fmt.RAW_WRITE:
        seams.space_write(addr, payload)
    elif kind == fmt.CLWB:
        seams.clwb(addr, size)
    elif kind == fmt.SFENCE:
        seams.sfence()
    elif kind == fmt.WBL:
        seams.wbl(addr)
    elif kind == fmt.PERSIST:
        seams.persist()
    elif kind == fmt.WAL_APPEND:
        seams.wal_append(aux >> 1, addr, payload, bool(aux & 1))
    elif kind == fmt.WAL_RESET:
        seams.wal_reset()
    else:
        raise TraceError("unknown trace event kind %d" % kind)


def fast_eligible(backend):
    """True when the fast interpreter covers this backend exactly.

    The envelope is deliberately narrow — everything outside it silently
    uses the generic engine, which is exact for any backend the recorder
    accepts: single-core CXL.cache PAX, no tracers, no lossy link, no
    store hooks.
    """
    machine = backend.machine
    if type(machine) is not PaxMachine:
        return False
    if getattr(machine, "protocol", None) != "cxl.cache":
        return False
    if type(machine.link) is not CxlLink:
        return False
    if type(machine.port) is not DevicePort:
        return False
    if getattr(machine, "store_hook", None) is not None:
        return False
    if getattr(machine, "tracer", None) is not None:
        return False
    hier = machine.hierarchy
    if type(hier) is not CacheHierarchy:
        return False
    if hier.num_cores != 1 or hier.tracer is not None:
        return False
    # Miss-path mechanisms (repro.cache.mechanisms) change the latency
    # arithmetic at both caching sites; the fast interpreter models
    # neither, so any configured stack routes to the generic engine.
    if hier.mechanisms is not None or machine.device.mech is not None:
        return False
    if len(hier._homes) != 1 or type(hier._homes[0][2]) is not PaxHome:
        return False
    device = machine.device
    if type(device.hbm) is not HbmCache:
        return False
    if device.undo.tracer is not None:
        return False
    # Exactly the device's background tick on the clock (nothing while
    # the tick is dormant): a foreign callback would observe (and depend
    # on) every advance.
    if machine.clock._callbacks != (() if device.dormant
                                    else (machine._tick,)):
        return False
    return True


def replay_trace(trace, backend, engine="auto", stopwatch=None):
    """Re-execute ``trace`` against a freshly built ``backend``.

    ``backend`` must be constructed exactly as the recorded one was (same
    config, same seed): construction is the trace's implicit initial
    state. ``engine`` is ``"auto"``, ``"fast"`` or ``"generic"``;
    ``"auto"`` picks fast when :func:`fast_eligible` holds. ``stopwatch``
    is an optional zero-argument monotonic-seconds callable (supplied by
    perfbench, which owns wall-clock concerns) used to time the replay.

    Returns a :class:`ReplayResult`; afterwards the backend's machine
    state matches the recorded run byte for byte, and the footer's
    structure-layer deltas have been applied to the backend's stats.
    """
    if engine not in ("auto", "fast", "generic"):
        raise TraceError("unknown replay engine %r" % engine)
    use_fast = engine == "fast" or (engine == "auto"
                                    and fast_eligible(backend))
    if engine == "fast" and not fast_eligible(backend):
        raise TraceError("backend %r is outside the fast-engine envelope"
                         % getattr(backend, "name", backend))
    start_wall = stopwatch() if stopwatch is not None else None
    saturated = 0
    if use_fast:
        marks, mark_walls, saturated = _replay_fast(trace, backend,
                                                    stopwatch)
        chosen = "fast"
    else:
        marks, mark_walls = _replay_generic(trace, backend, stopwatch)
        chosen = "generic"
    end_wall = stopwatch() if stopwatch is not None else None
    _apply_footer(trace.footer, backend)
    wall_s = None if start_wall is None else end_wall - start_wall
    timed_wall = None
    if end_wall is not None and fmt.MARK_TIMED in mark_walls:
        timed_wall = end_wall - mark_walls[fmt.MARK_TIMED]
    return ReplayResult(backend, chosen, len(trace),
                        backend.machine.clock.now_ns, marks,
                        wall_s, timed_wall, saturated)


def _apply_footer(footer, backend):
    """Restore structure-layer accounting skipped during replay."""
    groups = structure_stat_groups(backend)
    for path, deltas in footer.get("counter_deltas", {}).items():
        group = groups.get(path)
        if group is None:
            raise TraceError(
                "trace footer names stat group %r the backend lacks" % path)
        for name, delta in deltas.items():
            group.counter(name).value += delta
    for path, delta in footer.get("scalar_deltas", {}).items():
        spot = _resolve(backend, path)
        if spot is None:
            raise TraceError(
                "trace footer names scalar %r the backend lacks" % path)
        setattr(spot[0], spot[1], getattr(spot[0], spot[1]) + delta)


def _replay_generic(trace, backend, stopwatch):
    """Dispatch every event through the real seam methods."""
    seams = _Seams(backend)
    clock = backend.machine.clock
    marks = {}
    mark_walls = {}
    for kind, aux, addr, size, payload in trace.events():
        if kind == fmt.MARK:
            marks[aux] = clock.now_ns
            if stopwatch is not None:
                mark_walls[aux] = stopwatch()
        else:
            _step(seams, kind, aux, addr, size, payload)
    return marks, mark_walls


def _flush_access_hist(hist, samples):
    """Apply buffered latency samples to ``hist``, exactly.

    Reproduces the sequential float arithmetic of per-sample
    :meth:`Histogram.record` calls: ``np.add.accumulate`` computes the
    same left-to-right running sum the scalar loop does (unlike
    ``np.sum``, whose pairwise reduction reassociates), and the rotating
    reservoir slot for the k-th overall sample is ``count % 4096``, so
    only the trailing window of samples can survive.
    """
    n = len(samples)
    if not n:
        return
    if HAVE_NUMPY and n >= _NP_SETTLE_MIN:
        arr = np.asarray(samples, dtype=np.float64)
        acc = np.empty(n + 1, dtype=np.float64)
        acc[0] = hist.total
        acc[1:] = arr
        hist.total = float(np.add.accumulate(acc)[-1])
        acc[0] = hist._sum_sq
        np.multiply(arr, arr, out=acc[1:])
        hist._sum_sq = float(np.add.accumulate(acc)[-1])
        low = float(arr.min())
        high = float(arr.max())
        if low < hist.min:
            hist.min = low
        if high > hist.max:
            hist.max = high
        count0 = hist.count
        hist.count = count0 + n
        reservoir = hist._reservoir
        idx = 0
        while idx < n and len(reservoir) < _RESERVOIR:
            reservoir.append(samples[idx])
            idx += 1
        rem = n - idx
        if rem:
            base = count0 + idx + 1
            for j in range(rem - _RESERVOIR if rem > _RESERVOIR else 0, rem):
                reservoir[(base + j) % _RESERVOIR] = samples[idx + j]
    else:
        record = hist.record
        for value in samples:
            record(value)

def _replay_fast(trace, backend, stopwatch):
    """The straight-line single-core PAX interpreter.

    One Python loop over the columnar arrays handles single-line loads,
    stores and marks. It works on the real cache sets, directory entries,
    device HBM/undo/write-back state and stat counters, bound as locals,
    and keeps only three scalar mirrors: the simulated clock, the drain
    credits and the link backlog. It follows the exact floating-point
    operation order of the per-access walk (hierarchy
    ``_hit_path``/``_miss_path``, ``DevicePort._transact``,
    ``BandwidthLimiter.submit``, ``PaxDevice`` handlers and
    ``background_tick``). Anything else — multi-line accesses, persists,
    raw space traffic, a non-empty device write-back buffer — settles the
    scalar mirrors and the main loop's batched counters back into the
    objects and delegates single events to the real seam methods until
    the device is quiescent again.

    The mirrored-state invariant: while the inner loop runs, the device
    write-back buffer is empty and the persist pipeline idle, so the only
    background work per clock advance is credit accrual plus the undo
    drain — both inlined below exactly as ``background_tick`` does them.

    Returns ``(marks, mark_walls, saturated_events)``.
    """
    seams = _Seams(backend)
    machine = backend.machine
    clock = machine.clock
    hier = machine.hierarchy
    core = hier._cores[0]
    device = machine.device
    undo = device.undo
    wb = device.writeback
    hbm = device.hbm
    link = machine.link
    port = machine.port
    pipeline = device.pipeline
    pool = device.pool

    kinds_l = trace.kinds
    aux_l = trace.aux
    addrs_l = trace.addrs
    sizes_l = trace.sizes
    heap = trace.payload
    n = len(kinds_l)
    marks = {}
    mark_walls = {}
    i = 0
    p = 0   # payload heap cursor; advances for every payload-carrying event

    # Per-event class (0 = single-line load, 1 = single-line store,
    # 2 = everything else), line address and in-line offset, precomputed
    # in one vectorized pass so the interpreter does one list index where
    # it would otherwise do three indexes plus the address arithmetic.
    # Memoized on the trace: "record once, replay many" pays the decode
    # exactly once.
    columns = trace._fast_columns
    if columns is None:
        if HAVE_NUMPY and n >= 1024:
            ka = np.asarray(kinds_l, dtype=np.uint8)
            aa = np.asarray(addrs_l, dtype=np.int64)
            sa = np.asarray(sizes_l, dtype=np.int64)
            off = aa & 63
            single = (sa > 0) & (off + sa <= 64)
            cls = np.full(n, 2, dtype=np.uint8)
            cls[(ka == _LOAD) & single] = 0
            cls[(ka == _STORE) & single] = 1
            cls_l = cls.tolist()
            laddr_l = (aa - off).tolist()
            off_l = off.tolist()
        else:
            cls_l = []
            laddr_l = []
            off_l = []
            for kind, addr, size in zip(kinds_l, addrs_l, sizes_l):
                offset = addr & 63
                off_l.append(offset)
                laddr_l.append(addr - offset)
                if 0 < size <= 64 - offset:
                    cls_l.append(0 if kind == _LOAD
                                 else (1 if kind == _STORE else 2))
                else:
                    cls_l.append(2)
        columns = (cls_l, laddr_l, off_l)
        trace._fast_columns = columns
    else:
        cls_l, laddr_l, off_l = columns

    # -- immutable model parameters --------------------------------------
    l1_ns = hier._l1_ns
    l2_ns = hier._l2_ns
    llc_ns = hier._llc_ns
    one_way = link.one_way_ns
    config = device.config
    proc_ns = config.device_processing_ns
    log_bps = config.log_drain_bps
    wb_bps = config.writeback_drain_bps
    hbm_ns = device._lat.media.hbm_ns
    pm_read_ns = device._lat.media.pm_read_ns
    pool_delta = pool.data_base - device.vpm_base
    data_base = pool.data_base
    data_end = pool.data_base + pool.data_size
    hbm_cap = hbm.capacity_lines

    # -- cache geometry ---------------------------------------------------
    # The loop works on the real sets (LRU-ordered dicts, shared with
    # SetAssociativeCache), so delegated events need no cache copy-back.
    l1 = core.l1
    l2 = core.l2
    llc = hier._llc
    l1_sets = l1._sets
    l2_sets = l2._sets
    llc_sets = llc._sets
    l1_mask = l1._set_mask
    l2_mask = l2._set_mask
    llc_mask = llc._set_mask
    l1_ways = l1.ways
    l2_ways = l2.ways
    llc_ways = llc.ways
    dir_entries = hier._dir_entries
    dir_get = dir_entries.get

    # -- bound stat counters (hot-path-stat-lookup rule) -------------------
    c_loads = hier._c_loads
    c_stores = hier._c_stores
    c_l1_hits = hier._c_l1_hits
    c_l2_hits = hier._c_l2_hits
    c_llc_hits = hier._c_llc_hits
    c_mem_fetches = hier._c_memory_fetches
    c_upgrades = hier._c_upgrades
    c_l1_evictions = hier._c_l1_evictions
    c_l2_evictions = hier._c_l2_evictions
    c_llc_writebacks = hier._c_llc_writebacks
    c_l1_hit = l1._c_hits
    c_l1_miss = l1._c_misses
    c_l1_evic = l1._c_evictions
    c_l1_inval = l1._c_invalidations
    c_l2_hit = l2._c_hits
    c_l2_evic = l2._c_evictions
    c_llc_hit = llc._c_hits
    c_llc_miss = llc._c_misses
    c_llc_evic = llc._c_evictions
    c_llc_inval = llc._c_invalidations
    c_hbm_hits = hbm._c_hits
    c_hbm_misses = hbm._c_misses
    c_hbm_evics = hbm._c_evictions
    c_hbm_invals = hbm._c_invalidations
    c_rd_shared = device._c_rd_shared
    c_rd_own = device._c_rd_own
    c_dirty_evicts = device._c_dirty_evicts
    c_lines_logged = device._c_lines_logged
    c_stalled_evicts = device._c_stalled_evicts
    c_buffer_serves = device._c_buffer_serves
    c_pm_line_reads = device._c_pm_line_reads
    c_transactions = port._c_transactions
    translated = port.adapter._c_translated
    c_tr_read_miss = translated[BusOp.READ_MISS]
    c_tr_write_miss = translated[BusOp.WRITE_MISS]
    c_tr_write_upgrade = translated[BusOp.WRITE_UPGRADE]
    c_tr_evict_dirty = translated[BusOp.EVICT_DIRTY]
    h2d = link._h2d
    d2h = link._d2h
    c_h2d_msgs = link._c_h2d_messages
    c_h2d_bytes = link._c_h2d_bytes
    c_d2h_msgs = link._c_d2h_messages
    c_d2h_bytes = link._c_d2h_bytes
    h2d_rate = h2d._rate
    d2h_rate = d2h._rate
    c_h2d_lim_bytes = h2d._c_bytes
    c_h2d_lim_transfers = h2d._c_transfers
    c_h2d_stalled = h2d._c_stalled
    h_h2d_delay = h2d._h_queue_delay
    c_d2h_lim_bytes = d2h._c_bytes
    c_d2h_lim_transfers = d2h._c_transfers
    c_d2h_stalled = d2h._c_stalled
    h_d2h_delay = d2h._h_queue_delay
    access_hist = hier._h_access_ns

    # -- stable mutable structures and bound methods -----------------------
    hbm_lines = hbm._lines
    hbm_move = hbm_lines.move_to_end
    pending = undo._pending
    wb_buffer = wb._buffer
    drain_one = undo.drain_one
    note_modification = undo.note_modification
    buffer_line = wb.buffer_line
    wb_drain = wb.drain_budget
    pm_read = pool.device.read

    # Floating-point mirrors settled back into the objects whenever the
    # fast loop hands control to the per-access path. A dormant device
    # tick settles its lazily accrued credit first; the loop then runs
    # the tick's work itself until it delegates (see resync).
    if device.dormant:
        device.wake()
    now = clock._now_ns
    undo_credit = undo._drain_credit
    wb_credit = wb._drain_credit
    h2d_backlog = h2d._backlog_bytes
    h2d_last = h2d._last_ns
    d2h_backlog = d2h._backlog_bytes
    d2h_last = d2h._last_ns
    credits_live = True   # False = saturated, accruing lazily from anchors
    u_anchor = now
    w_anchor = now
    abuf = []   # deferred access_ns histogram samples, in event order
    abuf_append = abuf.append

    # Main-loop counters accumulated as local ints and flushed in
    # settle(); integer addition commutes, so batching is exact. The
    # closures below bump their bound Counters directly.
    n_loads = 0
    n_stores = 0
    n_ul = 0     # ultra-lane loads (count once, fan out in settle)
    n_us = 0     # ultra-lane stores
    n_sat = 0    # ultra-lane events over the whole replay (not a stat)
    n_l1c = 0    # l1 hits (cache-level and hierarchy counters move as one)
    n_l1m = 0    # l1 cache misses
    n_l2c = 0    # l2 hits (both counters)
    n_l1e = 0    # l1 evictions (both counters)
    n_l1i = 0    # l1 cache invalidations (inclusive-eviction back-inval)
    n_l2e = 0    # l2 evictions (both counters)
    n_llcc = 0   # llc hits (both counters)
    n_llcm = 0   # llc cache misses
    n_llci = 0   # llc cache invalidations
    n_upg = 0    # hierarchy upgrades
    n_memf = 0   # hierarchy memory_fetches
    # Set by the device closures whenever an event deposits work into
    # `pending` or `wb_buffer`; lets the saturated-mode tick skip both
    # drain checks on the (overwhelmingly common) events that touch
    # neither. Live mode ignores it — residue can persist across events
    # there, so the checks stay unconditional.
    dev_dirty = False

    def settle():
        nonlocal n_loads, n_stores, n_ul, n_us, n_sat
        nonlocal n_l1c, n_l1m, n_l2c
        nonlocal n_l1e, n_l1i, n_l2e, n_llcc
        nonlocal n_llcm, n_llci, n_upg, n_memf
        nonlocal undo_credit, wb_credit, u_anchor, w_anchor
        if not credits_live:
            undo_credit += log_bps * ((now - u_anchor) / 1e9)
            wb_credit += wb_bps * ((now - w_anchor) / 1e9)
            u_anchor = now
            w_anchor = now
        clock._now_ns = now
        undo._drain_credit = undo_credit
        wb._drain_credit = wb_credit
        h2d._backlog_bytes = h2d_backlog
        h2d._last_ns = h2d_last
        d2h._backlog_bytes = d2h_backlog
        d2h._last_ns = d2h_last
        same = n_ul + n_us
        n_sat += same
        c_loads.value += n_loads + n_ul
        c_stores.value += n_stores + n_us
        hits1 = n_l1c + same
        c_l1_hit.value += hits1
        c_l1_hits.value += hits1
        c_l1_miss.value += n_l1m
        c_l2_hit.value += n_l2c
        c_l2_hits.value += n_l2c
        c_l1_evic.value += n_l1e
        c_l1_evictions.value += n_l1e
        c_l1_inval.value += n_l1i
        c_l2_evic.value += n_l2e
        c_l2_evictions.value += n_l2e
        c_llc_hit.value += n_llcc
        c_llc_hits.value += n_llcc
        c_llc_miss.value += n_llcm
        c_llc_inval.value += n_llci
        c_upgrades.value += n_upg
        c_mem_fetches.value += n_memf
        n_loads = n_stores = n_ul = n_us = 0
        n_l1c = n_l1m = n_l2c = 0
        n_l1e = n_l1i = n_l2e = n_llcc = 0
        n_llcm = n_llci = n_upg = n_memf = 0
        _flush_access_hist(access_hist, abuf)
        del abuf[:]

    def resync():
        nonlocal now, undo_credit, wb_credit, credits_live
        nonlocal h2d_backlog, h2d_last, d2h_backlog, d2h_last
        if device.dormant:
            device.wake()
        now = clock._now_ns
        undo_credit = undo._drain_credit
        wb_credit = wb._drain_credit
        credits_live = True
        h2d_backlog = h2d._backlog_bytes
        h2d_last = h2d._last_ns
        d2h_backlog = d2h._backlog_bytes
        d2h_last = d2h._last_ns

    # One CXL hop each way, mirroring CxlLink.send_* + BandwidthLimiter
    # .submit against the local clock/backlog mirrors.
    def link_h2d(wire):
        nonlocal h2d_backlog, h2d_last
        c_h2d_msgs.value += 1
        c_h2d_bytes.value += wire
        elapsed = now - h2d_last
        if elapsed > 0:
            drained = h2d_backlog - h2d_rate * elapsed / 1e9
            h2d_backlog = drained if drained > 0.0 else 0.0
            h2d_last = now
        delay = h2d_backlog * 1e9 / h2d_rate
        h2d_backlog += wire
        c_h2d_lim_bytes.value += wire
        c_h2d_lim_transfers.value += 1
        if delay > 0:
            c_h2d_stalled.value += 1
            h_h2d_delay.record(delay)
        return one_way + delay

    def link_d2h(wire):
        nonlocal d2h_backlog, d2h_last
        c_d2h_msgs.value += 1
        c_d2h_bytes.value += wire
        elapsed = now - d2h_last
        if elapsed > 0:
            drained = d2h_backlog - d2h_rate * elapsed / 1e9
            d2h_backlog = drained if drained > 0.0 else 0.0
            d2h_last = now
        delay = d2h_backlog * 1e9 / d2h_rate
        d2h_backlog += wire
        c_d2h_lim_bytes.value += wire
        c_d2h_lim_transfers.value += 1
        if delay > 0:
            c_d2h_stalled.value += 1
            h_d2h_delay.record(delay)
        return one_way + delay

    # PaxDevice message handlers against the same dicts the device owns.
    def device_rd_own(line_addr, need_data):
        pool_addr = line_addr + pool_delta
        if not (data_base <= pool_addr and pool_addr + 64 <= data_end):
            raise AddressError(
                "physical 0x%x is outside this device's vPM range"
                % line_addr)
        nonlocal dev_dirty
        c_rd_own.value += 1
        if undo._logged.get(pool_addr) is None:
            entry = wb_buffer.get(pool_addr)
            old = entry.data if entry is not None else None
            if old is None:
                old = hbm_lines.get(pool_addr)
            if old is None:
                old = pm_read(pool_addr, 64)
            note_modification(pool_addr, old)
            c_lines_logged.value += 1
            dev_dirty = True
        service = proc_ns
        data = None
        if need_data:
            entry = wb_buffer.get(pool_addr)
            if entry is not None:
                c_buffer_serves.value += 1
                data = entry.data
                service = service + 0.0
            else:
                data = hbm_lines.get(pool_addr)
                if data is None:
                    c_hbm_misses.value += 1
                    data = pm_read(pool_addr, 64)
                    c_pm_line_reads.value += 1
                    service = service + pm_read_ns
                else:
                    hbm_move(pool_addr)
                    c_hbm_hits.value += 1
                    service = service + hbm_ns
        if hbm_lines.pop(pool_addr, None) is not None:
            c_hbm_invals.value += 1
        return data, service

    def device_rd_shared(line_addr):
        pool_addr = line_addr + pool_delta
        if not (data_base <= pool_addr and pool_addr + 64 <= data_end):
            raise AddressError(
                "physical 0x%x is outside this device's vPM range"
                % line_addr)
        entry = wb_buffer.get(pool_addr)
        if entry is not None:
            c_buffer_serves.value += 1
            data = entry.data
            media_ns = 0.0
        else:
            data = hbm_lines.get(pool_addr)
            if data is None:
                c_hbm_misses.value += 1
                data = pm_read(pool_addr, 64)
                c_pm_line_reads.value += 1
                media_ns = pm_read_ns
            else:
                hbm_move(pool_addr)
                c_hbm_hits.value += 1
                media_ns = hbm_ns
        if hbm_cap > 0:
            hbm_lines[pool_addr] = data
            hbm_move(pool_addr)
            if len(hbm_lines) > hbm_cap:
                hbm_lines.popitem(last=False)
                c_hbm_evics.value += 1
        c_rd_shared.value += 1
        return data, proc_ns + media_ns

    def device_dirty_evict(line_addr, data):
        pool_addr = line_addr + pool_delta
        if not (data_base <= pool_addr and pool_addr + 64 <= data_end):
            raise AddressError(
                "physical 0x%x is outside this device's vPM range"
                % line_addr)
        seq = undo._logged.get(pool_addr)
        if seq is None:
            raise ProtocolError(
                "dirty eviction of 0x%x, but the line was never logged "
                "this epoch" % line_addr)
        nonlocal dev_dirty
        dev_dirty = True
        pumped = buffer_line(pool_addr, data, seq)
        c_dirty_evicts.value += 1
        service = proc_ns
        if pumped:
            service += pumped * 1e9 / log_bps
            c_stalled_evicts.value += 1
        return service

    # DevicePort._transact for the four bus ops the fast loop meets.
    def acquire_own_nodata(line_addr):
        c_tr_write_upgrade.value += 1
        latency = link_h2d(HEADER_BYTES)
        _data, service = device_rd_own(line_addr, False)
        latency += service
        latency += link_d2h(HEADER_BYTES)   # Go
        c_transactions.value += 1
        return latency

    def acquire_own_data(line_addr):
        c_tr_write_miss.value += 1
        latency = link_h2d(HEADER_BYTES)
        data, service = device_rd_own(line_addr, True)
        latency += service
        latency += link_d2h(DATA_BYTES)     # DataResponse
        c_transactions.value += 1
        return data, latency

    def acquire_shared(line_addr):
        c_tr_read_miss.value += 1
        latency = link_h2d(HEADER_BYTES)
        data, service = device_rd_shared(line_addr)
        latency += service
        latency += link_d2h(DATA_BYTES)     # DataResponse
        c_transactions.value += 1
        return data, latency

    def writeback_dirty(line_addr, data):
        c_tr_evict_dirty.value += 1
        latency = link_h2d(DATA_BYTES)      # DirtyEvict carries the line
        service = device_dirty_evict(line_addr, data)
        latency += service
        latency += link_d2h(HEADER_BYTES)   # Go
        c_transactions.value += 1
        return latency

    # Hierarchy _insert_llc, for the miss-path fill (_evict_from_l2 is
    # inlined at its single call site in the fast loop).
    def insert_llc(new_line):
        line_addr = new_line.addr
        bucket = llc_sets[(line_addr >> 6) & llc_mask]
        existing = bucket.get(line_addr)
        if existing is not None:
            existing.data = bytearray(new_line.data)
            existing.dirty = existing.dirty or new_line.dirty
            return 0.0
        victim = None
        if len(bucket) >= llc_ways:
            victim = bucket.popitem(last=False)[1]
            c_llc_evic.value += 1
        bucket[line_addr] = new_line
        if victim is not None and victim.dirty:
            latency = writeback_dirty(victim.addr, bytes(victim.data))
            c_llc_writebacks.value += 1
            return latency
        return 0.0

    while i < n:
        kind = kinds_l[i]
        if (wb_buffer or pipeline._flights
                or (kind != _LOAD and kind != _STORE and kind != _MARK)):
            # Outside the fast envelope: settle the mirrors, run ONE event
            # through the real seams, resync, and re-evaluate. Device
            # asynchrony (buffer drain, pipelined epochs) advances inside
            # the real clock callbacks until the device is quiescent.
            settle()
            size = sizes_l[i]
            if kind in _PAYLOAD_KINDS:
                payload = heap[p:p + size]
                p += size
            else:
                payload = None
            if kind == _MARK:
                marks[aux_l[i]] = clock._now_ns
                if stopwatch is not None:
                    mark_walls[aux_l[i]] = stopwatch()
            else:
                _step(seams, kind, aux_l[i], addrs_l[i], size, payload)
            i += 1
            resync()
            continue

        # ---- fast inner loop: single-line loads/stores and marks -------
        # A flat zip walks the two always-needed columns at iterator
        # speed; `range` rides along so delegation can resume at `i`.
        prev_addr = -1      # line of the immediately preceding access:
        prev_line = None    # consecutive same-line hits skip every probe
        for c, line_addr, i in zip(islice(cls_l, i, None),
                                   islice(laddr_l, i, None), range(i, n)):
            if c == 2:
                if kinds_l[i] == _MARK:
                    code = aux_l[i]
                    marks[code] = now
                    if stopwatch is not None:
                        mark_walls[code] = stopwatch()
                    p += sizes_l[i]   # skip the label payload
                    continue
                break   # multi-line or non-access event: delegate
            # Same-line store fast path needs M state; for an L1-resident
            # line dirty <=> M (M is only entered by a store, and every
            # store sets dirty; E/S fills are clean), so the line's own
            # flag answers without a directory lookup.
            if line_addr == prev_addr and (c == 0 or prev_line.dirty):
                # Same line as the previous access: it is still
                # L1-resident and already MRU (anything that could evict
                # or demote it resets prev_addr), so the whole walk
                # collapses to L1-hit accounting. A store additionally
                # needs M state; an M line is dirty already, so the flag
                # needs no write either.
                if not credits_live:
                    # Saturated ultra lane. While the drain credits are
                    # saturated, `pending` and `wb_buffer` are provably
                    # empty at every event boundary (saturation is only
                    # entered with both empty, and any general-path event
                    # that refills them drains them fully in its own tick
                    # — the credit is >= _CREDIT_LOW >> one entry), so
                    # every remaining check in the slow lane below is
                    # statically false here.
                    if c:
                        offset = off_l[i]
                        size = sizes_l[i]
                        prev_line.data[offset:offset + size] = \
                            heap[p:p + size]
                        p += size
                        n_us += 1
                    else:
                        n_ul += 1
                    abuf_append(l1_ns)
                    now = now + l1_ns
                    continue
                if wb_buffer:
                    break   # live mode, undrained evict: delegate
                latency = l1_ns
                if c:
                    offset = off_l[i]
                    size = sizes_l[i]
                    prev_line.data[offset:offset + size] = heap[p:p + size]
                    p += size
                    n_stores += 1
                else:
                    n_loads += 1
                n_l1c += 1
            else:
                if wb_buffer:
                    break   # a dirty evict reached the device: delegate
                if c:
                    size = sizes_l[i]
                    store_data = heap[p:p + size]
                    p += size
                    n_stores += 1
                else:
                    n_loads += 1
                # Probe the caches before consulting the directory: the
                # fill/evict paths keep caches and directory in lockstep,
                # so a cached line implies a directory entry and loads on
                # the hit path never need the state at all. Stores read it
                # once in the shared upgrade block below — a fresh miss
                # fill has already set it to M there, making the block a
                # no-op on that path.
                index1 = (line_addr >> 6) & l1_mask
                bucket1 = l1_sets[index1]
                line = bucket1.get(line_addr)
                if line is not None:
                    # -- L1 hit ------------------------------------------
                    bucket1.move_to_end(line_addr)
                    n_l1c += 1
                    latency = l1_ns
                else:
                    bucket2 = l2_sets[(line_addr >> 6) & l2_mask]
                    line = bucket2.get(line_addr)
                    if line is not None:
                        # -- L2 hit --------------------------------------
                        n_l1m += 1
                        bucket2.move_to_end(line_addr)
                        n_l2c += 1
                        latency = l2_ns
                        # _fill_l1; a fill implies the line was absent,
                        # so the victim can never alias it, and L2
                        # inclusivity is enforced by the fill/evict paths
                        # themselves.
                        if len(bucket1) >= l1_ways:
                            bucket1.popitem(last=False)
                            n_l1e += 1
                        bucket1[line_addr] = line
                    else:
                        # One core: a directory entry exists exactly
                        # when core 0 holds the line.
                        if dir_get(line_addr) is not None:
                            raise ProtocolError(
                                "directory says core 0 holds 0x%x but L2 "
                                "lost it" % line_addr)
                        # -- miss path (single core: no owner/sharers) ---
                        bucketl = llc_sets[(line_addr >> 6) & llc_mask]
                        llc_line = bucketl.get(line_addr)
                        latency = llc_ns
                        if llc_line is not None:
                            bucketl.move_to_end(line_addr)
                            n_llcc += 1
                            if c:
                                bucketl.pop(line_addr)
                                n_llci += 1
                                line = CacheLine(line_addr,
                                                 bytes(llc_line.data),
                                                 llc_line.dirty)
                                latency += acquire_own_nodata(line_addr)
                                new_state = "M"
                            else:
                                line = CacheLine(line_addr,
                                                 bytes(llc_line.data))
                                new_state = "S"
                        else:
                            n_llcm += 1
                            if c:
                                data, home_ns = acquire_own_data(line_addr)
                                new_state = "M"
                            else:
                                data, home_ns = acquire_shared(line_addr)
                                new_state = "S"
                            latency += home_ns
                            n_memf += 1
                            line = CacheLine(line_addr, data)
                        # _miss_path fill: L2 insert (victim chain), then L1
                        if len(bucket2) >= l2_ways:
                            victim2 = bucket2.popitem(last=False)[1]
                            n_l2e += 1
                            bucket2[line_addr] = line
                            # _evict_from_l2, inlined: back-invalidate
                            # L1, drop the directory entry, spill dirty
                            # data to the LLC victim cache.
                            victim_addr = victim2.addr
                            if l1_sets[(victim_addr >> 6) & l1_mask] \
                                    .pop(victim_addr, None) is not None:
                                n_l1i += 1
                            dir_entries.pop(victim_addr, None)
                            if victim2.dirty:
                                latency += insert_llc(victim2)
                        else:
                            bucket2[line_addr] = line
                        if len(bucket1) >= l1_ways:
                            bucket1.popitem(last=False)
                            n_l1e += 1
                        bucket1[line_addr] = line
                        entry = DirectoryEntry()
                        dir_entries[line_addr] = entry
                        entry.states[0] = new_state

                if c:
                    states = dir_entries[line_addr].states
                    # No E case: fast_eligible admits only a PaxHome,
                    # and PaxHome.grants_exclusive is False.
                    if states[0] == "S":
                        # _upgrade: single core, no sharers to snoop
                        if llc_sets[(line_addr >> 6) & llc_mask] \
                                .pop(line_addr, None) is not None:
                            n_llci += 1
                        latency += acquire_own_nodata(line_addr)
                        states[0] = "M"
                        n_upg += 1
                    offset = off_l[i]
                    line.data[offset:offset + size] = store_data
                    line.dirty = True
                prev_addr = line_addr
                prev_line = line

            # _charge + clock.advance + background_tick, inlined. latency
            # >= l1_ns > 0, so the advance always fires the tick. While
            # saturated (credits_live False) the credit accrual runs
            # lazily from the anchors — see repro.core.config.CREDIT_SAT.
            abuf_append(latency)
            if credits_live:
                new_now = now + latency
                delta_s = (new_now - now) / 1e9
                undo_credit += log_bps * delta_s
                wb_credit += wb_bps * delta_s
                now = new_now
                if pending:
                    while pending and undo_credit >= ENTRY_SIZE:
                        drain_one()
                        undo_credit -= ENTRY_SIZE
                if wb_buffer:
                    wb._drain_credit = wb_credit
                    wb_drain(0.0)
                    wb_credit = wb._drain_credit
                elif (undo_credit > _CREDIT_SAT
                        and wb_credit > _CREDIT_SAT and not pending):
                    credits_live = False
                    u_anchor = now
                    w_anchor = now
            else:
                now = now + latency
                if dev_dirty:
                    # A device closure deposited into pending/wb_buffer
                    # this event; drain with lazily-accrued credit, and
                    # drop back to live accrual if either credit fell
                    # below the saturation floor.
                    dev_dirty = False
                    if pending:
                        undo_credit += log_bps * ((now - u_anchor) / 1e9)
                        u_anchor = now
                        while pending and undo_credit >= ENTRY_SIZE:
                            drain_one()
                            undo_credit -= ENTRY_SIZE
                        if undo_credit < _CREDIT_LOW:
                            wb_credit += wb_bps * ((now - w_anchor) / 1e9)
                            w_anchor = now
                            credits_live = True
                    if wb_buffer:
                        if not credits_live:
                            wb_credit += wb_bps * ((now - w_anchor) / 1e9)
                            w_anchor = now
                        wb._drain_credit = wb_credit
                        wb_drain(0.0)
                        wb_credit = wb._drain_credit
                        if not credits_live and wb_credit < _CREDIT_LOW:
                            undo_credit += log_bps * ((now - u_anchor) / 1e9)
                            u_anchor = now
                            credits_live = True
        else:
            i = n   # every remaining event consumed by the fast loop

    settle()
    return marks, mark_walls, n_sat
