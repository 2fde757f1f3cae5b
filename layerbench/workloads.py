"""The benchmark's workloads, their op streams and the phases that run them.

Every workload is a closed loop of one client: the next KV op is issued
when the previous one returns. Keys are uniform over the preloaded
records, values are random u64, and caches start warm -- the timed phase
begins after the preload and one ``persist()``.

The timed phase runs a fixed number of ops, ``seconds * ops_per_second``,
so that a run takes about ``seconds`` on a 2-core x86 host of 2026 and its
simulated results are a pure function of ``(seed, seconds)``. Host time is
measured around that fixed work, which also keeps two commits comparable:
both do the same work.

Host time is taken in laps -- chunks of timed ops, each holding the same
number of ``persist()`` calls, and slices of the set-up -- and each lap
is scaled by the speed of a fixed reference loop run at its two ends
(see :mod:`layerbench.reference`). Throughput is the timed ops over the
sum of the scaled chunk laps; set-up time is the sum of the scaled
set-up laps.
"""

import contextlib
import gc
import random
import statistics
import time
from dataclasses import dataclass, field

from repro.baselines import make_backend
from repro.cache.cache import CacheConfig
from repro.perfbench import BENCH_CACHES
from repro.replay import MARK_TIMED, record, replay_trace
from repro.replay.equivalence import collect_instrumented, fingerprint
from repro.util.stats import StatGroup

from layerbench.reference import NOMINAL_S, ReferenceLoop

#: The serve/fuzzer geometry: a working set of thousands of records
#: spills out of a 64 KiB LLC, so misses reach the link, device and PM.
SMALL_CACHES = dict(
    l1_config=CacheConfig(size_bytes=4 * 1024, ways=4),
    l2_config=CacheConfig(size_bytes=16 * 1024, ways=8),
    llc_config=CacheConfig(size_bytes=64 * 1024, ways=8),
)

POOL_BYTES = 8 * 1024 * 1024
LOG_BYTES = 2 * 1024 * 1024
#: 8,000 records stay under the HashMap's resize threshold at this
#: capacity, so no timed op pays for a rehash.
CAPACITY = 4096

#: Mark code the recording emits after every chunk, so that replays can
#: be timed per chunk too.
MARK_CHUNK = 2

#: Preload puts per set-up lap.
PRELOAD_LAP = 1000

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    backend: str
    caches: dict = field(repr=False)
    records: int
    update_share: float
    persist_every: int
    #: Nominal host rate; the timed phase runs ``seconds`` times this many
    #: ops (replay: that many ops worth of whole replays).
    ops_per_second: int
    #: Ops per host-time sample; a multiple of ``persist_every``.
    chunk_ops: int
    #: Replay workloads record ``trace_ops`` ops once during set-up and
    #: replay them on fresh backends in the timed phase.
    trace_ops: int = 0

    @property
    def replay(self):
        return self.trace_ops > 0

    def timed_ops(self, seconds):
        """Ops in one access timed phase."""
        return max(1, int(seconds * self.ops_per_second))

    def replays(self, seconds):
        """Whole replays in one replay timed phase."""
        return max(1, round(seconds * self.ops_per_second / self.trace_ops))


WORKLOADS = {
    "pax_spill": Workload(
        name="pax_spill", backend="pax", caches=SMALL_CACHES, records=8000,
        update_share=0.5, persist_every=64, ops_per_second=6000,
        chunk_ops=128),
    "pmdk_spill": Workload(
        name="pmdk_spill", backend="pmdk", caches=SMALL_CACHES,
        records=8000, update_share=0.5, persist_every=64,
        ops_per_second=7000, chunk_ops=128),
    "pax_replay_resident": Workload(
        name="pax_replay_resident", backend="pax", caches=BENCH_CACHES,
        records=2000, update_share=0.1, persist_every=1024,
        ops_per_second=30000, chunk_ops=1024,
        # Ends half-way through a group, so the closing crash has
        # records to roll back.
        trace_ops=24 * 1024 + 512),
}


def build_backend(workload, factory=make_backend):
    """A fresh, empty backend for ``workload``."""
    if workload.backend == "pax":
        kwargs = dict(pool_size=POOL_BYTES, log_size=LOG_BYTES)
    else:
        kwargs = dict(heap_size=POOL_BYTES)
    kwargs.update(workload.caches)
    return factory(workload.backend, capacity=CAPACITY, **kwargs)


def make_inputs(workload, seed, count):
    """Preload values and ``count`` timed ops, all drawn from ``seed``.

    An op is ``(key, value)`` for a put and ``(key, None)`` for a get.
    """
    rng = random.Random(seed)
    preload = [rng.getrandbits(64) for _key in range(workload.records)]
    ops = []
    for _index in range(count):
        key = rng.randrange(workload.records)
        if rng.random() < workload.update_share:
            ops.append((key, rng.getrandbits(64)))
        else:
            ops.append((key, None))
    return preload, ops


def stat_counters(backend):
    """Every simulator counter reachable from ``backend``, keyed
    ``owner:name`` and summed over groups that share an owner name."""
    out = {}
    for group in collect_instrumented(backend).values():
        if isinstance(group, StatGroup):
            for name, value in group.counters().items():
                key = "%s:%s" % (group.owner, name)
                out[key] = out.get(key, 0) + value
    out["backend:gates"] = getattr(backend, "gate_count", 0)
    return out


def counter_delta(after, before):
    return {key: value - before.get(key, 0) for key, value in after.items()}


class Phase:
    """What one pass of KV ops observed."""

    def __init__(self):
        self.ops = 0
        self.wrong_gets = 0
        self.chunks = []            # (ops, scaled host seconds) per chunk
        self.wall_s = 0.0
        self.sim_ns = 0.0
        self.op_ns = []             # simulated latency of each put/get
        self.persist_ns = []        # simulated latency of each persist()
        self.counters = {}          # counter deltas over the pass
        self.model = {}             # key -> value after the last op
        self.persisted = {}         # key -> value at the last persist()


def preload(backend, values, timer):
    """Insert every record and commit; returns the model dict.

    ``timer`` (a :class:`HostTimer`) is read every ``PRELOAD_LAP`` puts
    and at the end.
    """
    model = {}
    for key, value in enumerate(values):
        backend.put(key, value)
        model[key] = value
        if key % PRELOAD_LAP == PRELOAD_LAP - 1:
            timer()
    backend.persist()
    timer()
    return model


class HostTimer:
    """A stopwatch that runs the reference loop at every read.

    Each call returns host seconds since the first call, reference loops
    excluded, and records the lap since the previous call. A lap is
    scaled to a host of fixed speed by the reference loop's time at its
    two ends. With ``reference=False`` (the traced pass) no loop runs and
    nothing is scaled.
    """

    def __init__(self, reference=True):
        self._loop = ReferenceLoop() if reference else None
        self.laps = []              # host seconds between consecutive reads
        self.refs = []              # reference seconds at each read
        self._elapsed = 0.0
        self._last = None

    def __call__(self):
        now = time.perf_counter()
        if self._last is not None:
            self.laps.append(now - self._last)
            self._elapsed += now - self._last
        if self._loop is not None:
            self.refs.append(self._loop.run())
        self._last = time.perf_counter()
        return self._elapsed

    def scaled_lap(self, index):
        """Lap ``index`` in seconds of the fixed-speed host."""
        if self._loop is None:
            return self.laps[index]
        return self.laps[index] * 2 * NOMINAL_S / (self.refs[index]
                                                   + self.refs[index + 1])

    def scaled_seconds(self, first=0):
        """The laps from index ``first`` on, scaled and summed."""
        return sum(self.scaled_lap(index)
                   for index in range(first, len(self.laps)))

    def chunk_laps(self, first, ops, chunk):
        """``(ops, scaled seconds)`` of each chunk of ``ops`` timed in
        chunks of ``chunk`` ops, one lap each from index ``first`` on."""
        sizes = [chunk] * (ops // chunk) + ([ops % chunk] if ops % chunk
                                            else [])
        if len(self.laps) < first + len(sizes):
            raise RuntimeError("expected %d chunk laps, got %d"
                               % (len(sizes), len(self.laps) - first))
        return [(size, self.scaled_lap(index))
                for index, size in enumerate(sizes, first)]


def drive(backend, model, ops, workload, timer, on_chunk=None):
    """Run ``ops`` against ``backend``, checking each get against ``model``.

    ``model`` is updated in place; ``timer`` (a :class:`HostTimer`) is
    read at the start and after every chunk, and ``on_chunk()`` runs
    after every chunk (the recording marks chunk ends with it). Returns a
    :class:`Phase`.
    """
    phase = Phase()
    clock = backend.machine.clock
    put = backend.put
    get = backend.get
    persist = backend.persist
    persist_every = workload.persist_every
    op_ns = phase.op_ns
    persist_ns = phase.persist_ns
    unpersisted = []                # (key, value before the put)
    before_counters = stat_counters(backend)
    sim_start = clock.now_ns
    timer()
    first = len(timer.laps)
    for start in range(0, len(ops), workload.chunk_ops):
        for index in range(start, min(start + workload.chunk_ops, len(ops))):
            key, value = ops[index]
            before = clock.now_ns
            if value is None:
                if get(key) != model[key]:
                    phase.wrong_gets += 1
            else:
                put(key, value)
                unpersisted.append((key, model[key]))
                model[key] = value
            op_ns.append(clock.now_ns - before)
            if (index + 1) % persist_every == 0:
                before = clock.now_ns
                persist()
                persist_ns.append(clock.now_ns - before)
                unpersisted.clear()
        if on_chunk is not None:
            on_chunk()
        timer()
    phase.wall_s = sum(timer.laps[first:])
    phase.chunks = timer.chunk_laps(first, len(ops), workload.chunk_ops)
    phase.sim_ns = clock.now_ns - sim_start
    phase.counters = counter_delta(stat_counters(backend), before_counters)
    phase.ops = len(ops)
    phase.model = model
    phase.persisted = dict(model)
    for key, old in reversed(unpersisted):
        phase.persisted[key] = old
    return phase


@contextlib.contextmanager
def gc_paused():
    """Keep the cyclic collector out of a timed region."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Recovery:
    """The crash and restart that end a run, and what it recovered."""

    def __init__(self, backend, expected):
        clock = backend.machine.clock
        sim_start = clock.now_ns
        backend.crash()
        self.rolled_back = backend.restart()
        self.sim_ns = clock.now_ns - sim_start
        recovered = backend.to_dict()
        self.checked = len(expected)
        self.mismatched = sum(
            1 for key in expected.keys() | recovered.keys()
            if recovered.get(key) != expected.get(key))


class AccessResult:
    """One pass of an access workload: set-up, timed phase, recovery."""

    def __init__(self, setup_s, phase, recovery):
        self.setup_s = setup_s
        self.phase = phase
        self.recovery = recovery


def run_access(workload, seed, seconds, factory=make_backend, setups=SETUPS,
               before_timed=None, after_timed=None, reference=True):
    """Set up ``setups`` times, time the op stream on the last backend,
    then crash and recover it.

    ``before_timed``/``after_timed`` are called around the timed phase
    (the traced pass snapshots its span totals there, and times without
    the reference loop, ``reference=False``). Returns an
    :class:`AccessResult`; raises ``RuntimeError`` when set-ups of one
    seed disagree in simulated time.
    """
    preload_values, ops = make_inputs(workload, seed,
                                      workload.timed_ops(seconds))
    setup_s = []
    setup_sim = set()
    for _setup in range(setups):
        timer = HostTimer(reference)
        timer()
        backend = build_backend(workload, factory)
        timer()
        model = preload(backend, preload_values, timer)
        setup_s.append(timer.scaled_seconds())
        setup_sim.add(backend.now_ns)
    if len(setup_sim) != 1:
        raise RuntimeError("set-ups of one seed reached different sim times: "
                           "%s" % sorted(setup_sim))
    if before_timed is not None:
        before_timed()
    with gc_paused():
        phase = drive(backend, model, ops, workload, HostTimer(reference))
    if after_timed is not None:
        after_timed()
    # pmdk commits every op; pax keeps the state of the last persist().
    expected = phase.model if workload.backend == "pmdk" else phase.persisted
    return AccessResult(setup_s, phase, Recovery(backend, expected))


class ReplaySetup:
    """A recorded trace and everything the recording observed."""

    def __init__(self, setup_s, record_s, trace, phase, fingerprint,
                 timed_sim_ns):
        self.setup_s = setup_s
        self.record_s = record_s
        self.trace = trace
        self.phase = phase
        self.fingerprint = fingerprint
        self.timed_sim_ns = timed_sim_ns


def record_workload(workload, seed, factory=make_backend, setups=SETUPS):
    """Build, preload and record the op stream ``setups`` times.

    Every recording of one seed must be byte-identical; raises
    ``RuntimeError`` otherwise.
    """
    preload_values, ops = make_inputs(workload, seed, workload.trace_ops)
    setup_s = []
    record_s = []
    blobs = set()
    for _setup in range(setups):
        phases = []
        timer = HostTimer()
        timer()
        backend = build_backend(workload, factory)
        timer()

        def recorded(live, recorder):
            model = preload(live, preload_values, timer)
            recorder.mark(MARK_TIMED)
            phases.append(drive(live, model, ops, workload, timer,
                                lambda: recorder.mark(MARK_CHUNK)))

        trace = record(backend, recorded, meta={"workload": workload.name,
                                                "seed": seed})
        timer()
        setup_s.append(timer.scaled_seconds())
        record_s.append(timer.scaled_seconds(first=1))
        blobs.add(trace.to_bytes())
    if len(blobs) != 1:
        raise RuntimeError("recordings of one seed differ")
    phase = phases[0]
    return ReplaySetup(setup_s, record_s, trace, phase, fingerprint(backend),
                       phase.sim_ns)


class ReplayResult:
    """The timed replays of one pass and the recovery that ends it."""

    def __init__(self):
        self.chunks = []            # (ops, scaled host seconds) per chunk
        self.walls = []             # whole replay_trace() seconds, per replay
        self.engines = set()
        self.mismatched_replays = 0
        self.counters = {}          # summed counter deltas over the replays
        self.recovery = None


def run_replays(workload, setup, seconds, factory=make_backend,
                around_replay=None, reference=True):
    """Replay ``setup.trace`` on fresh backends, checking each replay's
    timed sim-ns and fingerprint against the recording, then crash and
    recover the last one.

    ``around_replay(call)`` wraps each ``replay_trace`` call (the traced
    pass opens a ``replay`` span there, and times without the reference
    loop, ``reference=False``).
    """
    result = ReplayResult()
    ops = setup.phase.ops
    for _replay in range(workload.replays(seconds)):
        backend = build_backend(workload, factory)
        before = stat_counters(backend)
        # replay_trace reads its stopwatch at its start, at every mark
        # (MARK_TIMED, then each chunk end) and at its end, so lap 0 is
        # the preload and laps 1.. are the timed chunks.
        timer = HostTimer(reference)

        def call():
            return replay_trace(setup.trace, backend, engine="auto",
                                stopwatch=timer)

        with gc_paused():
            replayed = around_replay(call) if around_replay else call()
        result.engines.add(replayed.engine)
        result.walls.append(replayed.wall_s)
        result.chunks.extend(timer.chunk_laps(1, ops, workload.chunk_ops))
        if (replayed.sim_ns_timed != setup.timed_sim_ns
                or fingerprint(backend) != setup.fingerprint):
            result.mismatched_replays += 1
        for key, value in counter_delta(stat_counters(backend),
                                        before).items():
            result.counters[key] = result.counters.get(key, 0) + value
    result.recovery = Recovery(backend, setup.phase.persisted)
    return result


def percentile(values, pct):
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]
