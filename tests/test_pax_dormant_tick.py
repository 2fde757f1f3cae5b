"""The device's dormant background tick changes no simulated result.

With nothing to drain and both drain credits saturated, the PAX device's
clock callback takes itself off the clock and settles the credit lazily
when a request wakes it (``PaxDevice.background_tick``). Each case below
runs one workload twice: once with the saturation floor raised to
infinity, so the tick never sleeps and accrues eagerly on every advance,
and once as shipped. Every spec-visible bit must match.
"""

import hashlib
import math
import random

import pytest

from repro.baselines.pax import make_backend
from repro.core import device as device_module
from repro.core.config import PaxConfig
from repro.core.replication import NetworkLink, ReplicaTarget, Replicator
from repro.libpax.pool import PaxPool
from repro.pm.device import PmDevice
from repro.pm.pool import Pool
from repro.replay.equivalence import diff, fingerprint
from repro.structures import HashMap
from tests.conftest import small_cache_kwargs

POOL_SIZE = 4 * 1024 * 1024
LOG_SIZE = 256 * 1024
RECORDS = 600
OPS = 1500
PERSIST_EVERY = 32


def _backend(**machine_kwargs):
    kwargs = dict(pool_size=POOL_SIZE, log_size=LOG_SIZE, capacity=1024)
    kwargs.update(small_cache_kwargs())
    kwargs.update(machine_kwargs)
    return make_backend("pax", **kwargs)


def _drive(backend, persist):
    """Preload, then a seeded put/get mix with a persist every 32 ops."""
    rng = random.Random(7)
    for key in range(RECORDS):
        backend.put(key, key)
    persist()
    for index in range(OPS):
        key = rng.randrange(RECORDS)
        if rng.random() < 0.5:
            backend.put(key, rng.getrandbits(64))
        else:
            backend.get(key)
        if index % PERSIST_EVERY == PERSIST_EVERY - 1:
            persist()


def _blocking(**machine_kwargs):
    backend = _backend(**machine_kwargs)
    _drive(backend, backend.persist)
    return backend, {}


def _pipelined():
    backend = _backend()
    machine = backend.machine
    _drive(backend, machine.persist_async)
    machine.persist_barrier()
    return backend, {}


class _PoolRoot:
    """What :func:`fingerprint` needs of a backend, for a bare pool."""

    def __init__(self, pool, table):
        self.pool = pool
        self.machine = pool.machine
        self.put = table.put
        self.get = table.get


def _async_replicated():
    pool = PaxPool.map_pool(pool_size=POOL_SIZE, log_size=LOG_SIZE,
                            **small_cache_kwargs())
    machine = pool.machine
    replica = ReplicaTarget(Pool.format(PmDevice("replica", POOL_SIZE),
                                        log_size=LOG_SIZE))
    # The replicator adds a clock callback of its own next to the tick;
    # it must see every epoch, so it attaches before the first commit.
    replicator = Replicator(machine, replica, mode="async",
                            link=NetworkLink(machine.clock, rtt_ns=4000.0))
    root = _PoolRoot(pool, pool.persistent(HashMap, capacity=1024))
    _drive(root, machine.persist)
    replicator.flush()
    extra = {
        "replica:epoch": replica.replicated_epoch,
        "replica:sha256": hashlib.sha256(
            bytes(replica.pool.device._data)).hexdigest(),
        "replicator": sorted(replicator.stats.counters().items()),
    }
    return root, extra


CASES = {
    "cxl.cache": lambda: _blocking(),
    "cxl.mem": lambda: _blocking(protocol="cxl.mem"),
    "persist_async": _pipelined,
    "device_mechanisms": lambda: _blocking(pax_config=PaxConfig(
        mechanisms="victim:8+nextline:4", hbm_lines=16)),
    "async_replication": _async_replicated,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_dormant_tick_changes_nothing(case, monkeypatch):
    build = CASES[case]
    with monkeypatch.context() as patch:
        patch.setattr(device_module, "CREDIT_SAT", math.inf)
        eager, eager_extra = build()
    assert eager.machine.device.dormant is False
    lazy, lazy_extra = build()
    # The shipped run really slept: its tick ran on fewer advances.
    assert lazy.machine.device.ticks < eager.machine.device.ticks
    golden = fingerprint(eager)
    candidate = fingerprint(lazy)
    assert candidate["sim_ns"] == golden["sim_ns"]
    assert diff(golden, candidate) == []
    assert lazy_extra == eager_extra


def test_tick_is_dormant_for_most_advances():
    backend = _backend()
    for key in range(RECORDS):
        backend.put(key, key)
    backend.persist()
    machine = backend.machine
    device = machine.device
    advances = []
    machine.clock.on_advance(lambda prev, now: advances.append(now))
    ticks_before = device.ticks
    rng = random.Random(11)
    for index in range(OPS):
        key = rng.randrange(RECORDS)
        if rng.random() < 0.5:
            backend.put(key, index)
        else:
            backend.get(key)
        if index % PERSIST_EVERY == PERSIST_EVERY - 1:
            backend.persist()
    ticks = device.ticks - ticks_before
    assert len(advances) > 10000
    assert ticks < len(advances) / 2, (ticks, len(advances))


def test_wake_settles_credit_and_rejoins_the_clock():
    backend = _backend()
    backend.put(1, 1)
    backend.persist()
    machine = backend.machine
    device = machine.device
    clock = machine.clock
    # A run of loads with nothing to drain lets the tick fall asleep.
    for _round in range(200):
        backend.get(1)
    assert device.dormant
    assert clock._callbacks == ()
    undo_credit = device.undo._drain_credit
    anchor = device._anchor_ns
    clock.advance(1000.0)
    assert device.undo._drain_credit == undo_credit
    device.wake()
    assert not device.dormant
    assert clock._callbacks == (machine._tick,)
    assert device.undo._drain_credit == undo_credit + (
        device.config.log_drain_bps * ((clock.now_ns - anchor) / 1e9))


def test_crash_with_a_dormant_tick_leaves_the_clock_clean():
    backend = _backend()
    backend.put(1, 1)
    backend.persist()
    for _round in range(200):
        backend.get(1)
    machine = backend.machine
    assert machine.device.dormant
    machine.crash()
    assert machine.clock._callbacks == ()
    machine.restart()
    assert machine.clock._callbacks == (machine._tick,)
