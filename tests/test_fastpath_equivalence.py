"""Golden equivalence for the hot-path optimizations.

The cache hierarchy, the PM device, the PMDK-style undo accessor and the
CLWB cost model carry single-line fast paths that bypass the generic
``split_lines``/``lines_covering`` walk, plus bound counters and inlined
accounting (docs/performance.md). Setting ``REPRO_SLOW_PATH=1`` before
construction forces the generic code.  These tests run the *same* mixed
workload — loads, stores, persists, a crash, recovery — under both
settings and require byte-identical observable behaviour: every stat
snapshot, the simulated clock, the wear profile, and the recovered pool
contents.  Any divergence means an optimization changed simulated
behaviour, not just wall-clock speed.
"""

import pytest

from repro.baselines.compiler_pass import CompilerPassBackend
from repro.baselines.pax import PaxBackend
from repro.baselines.pmdk import PmdkBackend
from repro.crashtest.injector import CrashInjector
from repro.libpax.machine import HostMachine
from repro.pm.device import PmDevice
from repro.replay.equivalence import diff, fingerprint
from repro.util.fastpath import SLOW_PATH_ENV, fast_path_enabled
from repro.util.stats import StatGroup

from tests.conftest import small_cache_kwargs


def _collect_stat_groups(root):
    """Every StatGroup reachable from ``root`` via instance attributes."""
    seen = set()
    groups = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StatGroup):
            groups.append(obj)
            continue
        values = []
        attrs = getattr(obj, "__dict__", None)
        if attrs:
            values.extend(attrs.values())
        if isinstance(obj, (list, tuple, set, frozenset)):
            values.extend(obj)
        elif isinstance(obj, dict):
            values.extend(obj.values())
        for value in values:
            if isinstance(value, (str, bytes, bytearray, int, float,
                                  bool, type(None))):
                continue
            stack.append(value)
    return groups


def _stats_fingerprint(root):
    """Sorted, hashable image of every stat group under ``root``."""
    return sorted(
        (group.owner, tuple(sorted(group.snapshot().items())))
        for group in _collect_stat_groups(root))


def _drive_pax(backend):
    """Mixed load/store/persist/crash/recover workload."""
    for i in range(80):
        backend.put(i, i * 2 + 1)
        if i % 7 == 0:
            backend.get(i)
    backend.persist()
    for i in range(0, 40, 3):
        backend.remove(i)
    for i in range(80, 120):
        backend.put(i, i ^ 0x5A)
    backend.persist()
    # Uncommitted tail, then power loss: recovery must roll it back.
    for i in range(120, 128):
        backend.put(i, i)
    backend.crash()
    rolled_back = backend.restart()
    for i in range(128, 140):
        backend.put(i, i + 7)
    backend.persist()
    return rolled_back


def _pax_fingerprint():
    backend = PaxBackend(pool_size=4 * 1024 * 1024, log_size=256 * 1024,
                         capacity=256, **small_cache_kwargs())
    rolled_back = _drive_pax(backend)
    return {
        "rolled_back": rolled_back,
        "clock_ns": backend.machine.clock.now_ns,
        "contents": backend.to_dict(),
        "wear": backend.machine.pm.wear_profile(),
        "stats": _stats_fingerprint(backend),
    }


def test_pax_fast_and_slow_paths_are_byte_identical(monkeypatch):
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    assert fast_path_enabled()
    fast = _pax_fingerprint()

    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    assert not fast_path_enabled()
    slow = _pax_fingerprint()

    assert fast["rolled_back"] == slow["rolled_back"]
    assert fast["clock_ns"] == slow["clock_ns"]
    assert fast["contents"] == slow["contents"]
    assert fast["wear"] == slow["wear"]
    assert fast["stats"] == slow["stats"]


def _host_fingerprint(media):
    machine = HostMachine(media=media, heap_size=1 * 1024 * 1024,
                          **small_cache_kwargs())
    mem = machine.mem()
    # Aligned words, unaligned spans, and line-crossing writes: the
    # single-line fast path and the generic walk must split identically.
    for i in range(64):
        mem.write_u64(i * 8, i * 3 + 1)
    for i in range(16):
        mem.write(4000 + i * 61, bytes([i]) * 61)
    total = 0
    for i in range(64):
        total += mem.read_u64(i * 8)
    blob = mem.read(4000, 16 * 61)
    return {
        "clock_ns": machine.clock.now_ns,
        "sum": total,
        "blob": blob,
        "stats": _stats_fingerprint(machine),
    }


def test_host_machine_fast_and_slow_paths_match(monkeypatch):
    for media in ("dram", "pm"):
        monkeypatch.setenv(SLOW_PATH_ENV, "0")
        fast = _host_fingerprint(media)
        monkeypatch.setenv(SLOW_PATH_ENV, "1")
        slow = _host_fingerprint(media)
        assert fast == slow, "fast/slow divergence on %s machine" % media


def _pm_device_fingerprint():
    device = PmDevice("pm", 64 * 1024)
    # One-line, exact-line, straddling, and long multi-line writes.
    device.write(0, b"a" * 8)
    device.write(64, b"b" * 64)
    device.write(60, b"c" * 8)
    device.write(130, b"d" * 700)
    device.write(63, b"e")
    return {
        "wear": dict(device.line_wear),
        "profile": device.wear_profile(),
        "lines_written": device.stats.get("lines_written"),
        "contents": device.read(0, 1024),
    }


def test_pm_device_fast_and_slow_paths_match(monkeypatch):
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    fast = _pm_device_fingerprint()
    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    slow = _pm_device_fingerprint()
    assert fast == slow


def _drive_wal(backend):
    """Puts, gets, removes, a line-straddling store, and a torn tx."""
    for i in range(60):
        backend.put(i, i * 5 + 3)
        if i % 5 == 0:
            backend.get(i)
    for i in range(0, 30, 4):
        backend.remove(i)

    def straddle():
        # 100 bytes from offset 40 of a fresh block cross two line
        # boundaries: the single-line fast paths must hand this store to
        # the generic walk.
        block = backend._alloc.alloc(192)
        backend._tx.write(block + 40, bytes(range(100)))
        return block

    block = backend._run_tx(straddle)
    # Power loss three stores into a put: restart rolls the WAL back.
    injector = CrashInjector(backend.machine)
    injector.arm(3)
    assert injector.run(lambda: backend.put(500, 1))
    rolled_back = backend.restart()
    for i in range(60, 72):
        backend.put(i, i ^ 0x3C)
    return block, rolled_back


def _wal_fingerprint(factory):
    backend = factory(heap_size=1024 * 1024, capacity=64,
                      **small_cache_kwargs())
    block, rolled_back = _drive_wal(backend)
    return {
        "block": bytes(backend._tx.read(block + 40, 100)),
        "rolled_back": rolled_back,
        "contents": backend.to_dict(),
        "wear": backend.machine.memory.wear_profile(),
        "machine": fingerprint(backend),
    }


@pytest.mark.parametrize("factory", [PmdkBackend, CompilerPassBackend],
                         ids=["pmdk", "compiler"])
def test_wal_backend_fast_and_slow_paths_match(monkeypatch, factory):
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    fast = _wal_fingerprint(factory)
    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    slow = _wal_fingerprint(factory)

    assert fast["rolled_back"] > 0
    assert fast["block"] == bytes(range(100))
    assert diff(slow["machine"], fast["machine"]) == []
    assert fast == slow
