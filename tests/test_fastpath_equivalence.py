"""Pinned goldens for the per-access path.

The cache hierarchy, the PM device, the PMDK-style undo accessor and the
CLWB cost model take a single-line access without the generic
``split_lines``/``lines_covering`` walk and hand every other size to it
(docs/performance.md). These tests run mixed workloads — loads, stores,
line-straddling spans, persists, a crash, recovery — and compare a
sha256 of everything observable against a pinned golden: every stat
snapshot, the simulated clock, the wear profile, and the pool contents.

The goldens were taken while a generic-walk-only variant of every one of
these paths still existed, and both variants produced them; the test
names keep that history. A mismatch means that a change moved simulated
behaviour, not just wall-clock speed.
"""

import hashlib

import pytest

from repro.baselines.compiler_pass import CompilerPassBackend
from repro.baselines.pax import PaxBackend
from repro.baselines.pmdk import PmdkBackend
from repro.crashtest.injector import CrashInjector
from repro.libpax.machine import HostMachine
from repro.pm.device import PmDevice
from repro.replay.equivalence import fingerprint
from repro.util.stats import StatGroup

from tests.conftest import small_cache_kwargs

#: sha256 of each scenario's canonical fingerprint (see :func:`_digest`).
GOLDEN = {
    "pax":
        "da12b86c9ca97f7b98a761ec69315541cb26abbbe9bbe5d5e32ed1f13cf8bec2",
    "host:dram":
        "520b85e3f65f001e59a3d2fe601cc5e296db1717d43f9d8ff878f1c2ea9c764d",
    "host:pm":
        "beb30d729f3d3f6546c11be4eff13bb8324c8355e49af5f505268fef4c6ed658",
    "pm_device":
        "d84f50d250f083c627c38574a8b70427d14edf39aa0ff166c55efe1b5bcfca1a",
    "wal:pmdk":
        "ac02bf9f39f50d4ab5701fb1c9a915d32597bf93a4218ac21e88cda13096ac3c",
    "wal:compiler":
        "19c752f329e75c8d5af9a5d46b80ccb06c39c5702ac5c9f609119c0099575183",
}


def _canonical(value):
    """A hashable image of ``value`` that no dict/set order can move."""
    if isinstance(value, dict):
        return tuple(sorted((repr(key), _canonical(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(_canonical(item)) for item in value))
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return repr(value)


def _digest(fingerprint_dict):
    """sha256 of a scenario fingerprint; ``repr`` keeps int/float apart."""
    blob = repr(_canonical(fingerprint_dict)).encode()
    return hashlib.sha256(blob).hexdigest()


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


def test_pax_fast_and_slow_paths_are_byte_identical():
    assert _digest(_pax_fingerprint()) == GOLDEN["pax"]


def _host_fingerprint(media):
    machine = HostMachine(media=media, heap_size=1 * 1024 * 1024,
                          **small_cache_kwargs())
    mem = machine.mem()
    # Aligned words, unaligned spans, and line-crossing writes: the
    # single-line path and the line walk must split them as pinned.
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


def test_host_machine_fast_and_slow_paths_match():
    for media in ("dram", "pm"):
        assert _digest(_host_fingerprint(media)) == GOLDEN["host:" + media], \
            "%s machine moved off its golden" % media


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


def test_pm_device_fast_and_slow_paths_match():
    assert _digest(_pm_device_fingerprint()) == GOLDEN["pm_device"]


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
        # boundaries: the single-line paths must hand this store to the
        # line walk.
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
def test_wal_backend_fast_and_slow_paths_match(factory):
    pinned = _wal_fingerprint(factory)
    assert pinned["rolled_back"] > 0
    assert pinned["block"] == bytes(range(100))
    assert _digest(pinned) == GOLDEN["wal:" + factory.name]
