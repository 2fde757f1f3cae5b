"""Golden equivalence: replay must be indistinguishable from the
per-access path (the PR3 pattern, applied machine-wide).

Each case records a seeded workload through a live backend, replays the
trace onto a freshly built backend, and diffs the two machine-wide
fingerprints — simulated clock, every stat counter and histogram, every
memory device's bytes, the machine-shape scalars. An empty diff is the
acceptance criterion; anything else names exactly which quantity moved.
"""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.line import MesiState
from repro.errors import ProtocolError, TraceUnsupportedError
from repro.perfbench import BACKENDS, build_backend
from repro.replay import fast_eligible, load_trace_bytes, record, \
    replay_trace
from repro.replay import format as fmt
from repro.replay.equivalence import diff, fingerprint
from repro.sim.rng import DeterministicRng


def _drive(live, recorder=None, ops=300, records=32, seed=11):
    """A small mixed workload with an explicit mid-trace persist."""
    rng = DeterministicRng(seed)
    for i in range(records):
        live.put(i, i * 7)
    if recorder is not None:
        recorder.mark(fmt.MARK_TIMED)
    for i in range(ops):
        key = rng.randint(0, records - 1)
        if i % 3 == 0:
            live.get(key)
        else:
            live.put(key, i)
        if i == ops // 2:
            live.persist()
    live.persist()


def _record_golden(name):
    golden = build_backend(name)
    trace = record(golden, _drive)
    return golden, trace


@pytest.mark.parametrize("name", BACKENDS)
def test_replay_matches_per_access(name):
    golden, trace = _record_golden(name)
    fresh = build_backend(name)
    result = replay_trace(trace, fresh)
    assert diff(fingerprint(golden), fingerprint(fresh)) == []
    assert result.events == len(trace)
    assert result.sim_ns == golden.machine.clock.now_ns


@pytest.mark.parametrize("name", BACKENDS)
def test_generic_engine_matches_per_access(name):
    golden, trace = _record_golden(name)
    fresh = build_backend(name)
    result = replay_trace(trace, fresh, engine="generic")
    assert result.engine == "generic"
    assert diff(fingerprint(golden), fingerprint(fresh)) == []


def test_fast_engine_used_for_pax():
    golden, trace = _record_golden("pax")
    assert fast_eligible(build_backend("pax"))
    fresh = build_backend("pax")
    result = replay_trace(trace, fresh, engine="fast")
    assert result.engine == "fast"
    assert diff(fingerprint(golden), fingerprint(fresh)) == []


def test_saturated_lane_engages_on_fresh_backend():
    # A fresh backend banks drain credit from time zero; within a short
    # replay it must cross the saturation floor so consecutive same-line
    # hits take the saturated lane, and the machine must still end up
    # byte-identical to the recording.
    golden, trace = _record_golden("pax")
    fresh = build_backend("pax")
    result = replay_trace(trace, fresh, engine="fast")
    assert result.saturated_events > 0
    assert diff(fingerprint(golden), fingerprint(fresh)) == []


def test_fast_and_generic_agree_with_each_other():
    _golden, trace = _record_golden("pax")
    a, b = build_backend("pax"), build_backend("pax")
    replay_trace(trace, a, engine="fast")
    replay_trace(trace, b, engine="generic")
    assert diff(fingerprint(a), fingerprint(b)) == []


def test_fast_engine_matches_with_dirty_llc_victims():
    # A working set beyond L2 over a small LLC sends dirty LLC victims to
    # the device (DirtyEvict into the write-back buffer) from inside the
    # fast loop, which the default-size traces never reach.
    llc = CacheConfig(size_bytes=8 * 1024, ways=4)
    golden = build_backend("pax", llc_config=llc)
    trace = record(golden, lambda live, recorder: _drive(
        live, recorder, ops=100, records=1500))
    fresh = build_backend("pax", llc_config=llc)
    replay_trace(trace, fresh, engine="fast")
    assert fresh.machine.hierarchy.stats.get("llc_writebacks") > 0
    assert diff(fingerprint(golden), fingerprint(fresh)) == []


@pytest.mark.parametrize("engine", ["fast", "generic"])
def test_engines_report_a_line_lost_by_l2(engine):
    # A directory entry for a line core 0's L2 does not hold breaks the
    # hierarchy's inclusion invariant; a load of that line must raise the
    # per-access path's ProtocolError on either engine.
    fresh = build_backend("pax")
    hier = fresh.machine.hierarchy
    _base, end, _home = hier._homes[0]
    line_addr = end - 64
    assert hier.core_caches(0)[1].peek(line_addr) is None
    hier._dir.set_state(line_addr, 0, MesiState.SHARED)
    trace = fmt.Trace([fmt.LOAD], [0], [line_addr + 8], [8], b"", {})
    with pytest.raises(ProtocolError) as info:
        replay_trace(trace, fresh, engine=engine)
    assert str(info.value) == (
        "directory says core 0 holds 0x%x but L2 lost it" % line_addr)


def test_fingerprint_sees_recency_order():
    # Same lines, same bytes, same counters -- only one set's LRU order
    # differs. The fingerprint must still tell the two machines apart,
    # so an engine that diverged in recency fails before it changes an
    # eviction.
    a, b = build_backend("pax"), build_backend("pax")
    _drive(a)
    _drive(b)
    l2 = b.machine.hierarchy.core_caches(0)[1]
    bucket = next(s for s in l2._sets if len(s) >= 2)
    bucket.move_to_end(next(iter(bucket)))
    assert [key for key, _a, _b in diff(fingerprint(a), fingerprint(b))] \
        == ["cache:core0.l2"]


def test_replay_from_serialized_bytes_matches():
    # The equivalence must survive a disk round trip, not just the
    # in-memory Trace object.
    golden, trace = _record_golden("pax")
    reloaded = load_trace_bytes(trace.to_bytes())
    fresh = build_backend("pax")
    replay_trace(reloaded, fresh)
    assert diff(fingerprint(golden), fingerprint(fresh)) == []


def test_replay_is_repeatable():
    _golden, trace = _record_golden("pax")
    a, b = build_backend("pax"), build_backend("pax")
    replay_trace(trace, a)
    replay_trace(trace, b)
    assert diff(fingerprint(a), fingerprint(b)) == []


def test_marks_reported():
    _golden, trace = _record_golden("pax")
    fresh = build_backend("pax")
    result = replay_trace(trace, fresh)
    assert fmt.MARK_TIMED in result.marks
    assert result.sim_ns_timed <= result.sim_ns


def test_footer_records_final_sim_ns():
    golden, trace = _record_golden("dram")
    assert trace.footer["sim_ns_end"] == golden.machine.clock.now_ns


def test_crash_cannot_be_recorded():
    backend = build_backend("pax")

    def drive(live, _recorder):
        live.put(0, 1)
        live.crash()

    with pytest.raises(TraceUnsupportedError):
        record(backend, drive)
