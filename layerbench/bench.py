"""One benchmark run: the untraced pass, the optional traced pass, the
correctness gate and the result line.

End-to-end metrics come from the untraced pass. With tracing on, the same
inputs run again with every layer entry point wrapped in a span; the
per-layer metrics come from that pass, its simulated results must equal
the untraced pass's exactly, and the difference in host time is reported
as tracing overhead.
"""

import hashlib
import json
import os
import resource
import statistics
import time

from repro.baselines import make_backend

from layerbench import spans
from layerbench.layers import (PER_LAYER, LayerInputs, format_table,
                               layer_metrics, residual_s)
from layerbench.workloads import (SETUPS, WORKLOADS, percentile,
                                  record_workload, run_access, run_replays)

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_ns_per_op", "ns", "lower"),
    ("op_sim_ns_p99", "ns", "lower"),
)

#: Simulated results printed in the report but not in the result line:
#: on some workload each reads the same value for every seed (the median
#: put/get on pmdk_spill and pax_replay_resident, the PMDK restart) or is
#: 0 (persist() on PMDK). ``(name, unit)``.
REPORTED = (
    ("op_sim_ns_p50", "ns"),
    ("persist_sim_ns_p50", "ns"),
    ("persist_sim_ns_p95", "ns"),
    ("recovery_sim_ns", "ns"),
)

#: The seed runs use by default, and the one kept back for checking a
#: claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HOLDOUT_SEED = 977


class Outcome:
    """Counts and failure notes accumulated over a run's passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, note, count=0):
        self.failed += count
        self.notes.append(note)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced passes -----------------------------------------------------


def _access_pass(workload, seed, seconds, factory, setups, outcome,
                 window=None):
    """One access pass; traced when ``window`` (a :class:`_Window`) is
    given, which then brackets the timed phase."""
    if window is None:
        result = run_access(workload, seed, seconds, factory, setups)
    else:
        result = run_access(workload, seed, seconds, factory, setups,
                            window.begin, window.end, reference=False)
    phase = result.phase
    recovery = result.recovery
    outcome.attempted += phase.ops + recovery.checked
    if phase.wrong_gets:
        outcome.fail("%d gets returned a value other than the model's"
                     % phase.wrong_gets, phase.wrong_gets)
    if recovery.mismatched:
        outcome.fail("%d keys differ from the model after crash+restart"
                     % recovery.mismatched, recovery.mismatched)
    sim = {
        "sim_ns": phase.sim_ns,
        "op_ns": phase.op_ns,
        "persist_ns": phase.persist_ns,
        "counters": phase.counters,
        "recovery_sim_ns": recovery.sim_ns,
        "rolled_back": recovery.rolled_back,
    }
    return result, sim


def _replay_pass(workload, seconds, setup, factory, outcome,
                 around_replay=None):
    replays = run_replays(workload, setup, seconds, factory, around_replay,
                          reference=around_replay is None)
    ops = setup.phase.ops
    recovery = replays.recovery
    outcome.attempted += ops * len(replays.walls) + recovery.checked
    if replays.engines != {"fast"}:
        outcome.fail("replay ran the %s engine, not only fast"
                     % "+".join(sorted(replays.engines)))
    if replays.mismatched_replays:
        outcome.fail("%d replays differ from the recording in timed sim-ns "
                     "or fingerprint" % replays.mismatched_replays,
                     ops * replays.mismatched_replays)
    if recovery.mismatched:
        outcome.fail("%d keys differ from the model after crash+restart"
                     % recovery.mismatched, recovery.mismatched)
    sim = {
        "counters": replays.counters,
        "recovery_sim_ns": recovery.sim_ns,
        "rolled_back": recovery.rolled_back,
    }
    return replays, sim


def _record(workload, seed, factory, setups, outcome):
    setup = record_workload(workload, seed, factory, setups)
    phase = setup.phase
    outcome.attempted += phase.ops
    if phase.wrong_gets:
        outcome.fail("%d recorded gets returned a value other than the "
                     "model's" % phase.wrong_gets, phase.wrong_gets)
    return setup


def _end_to_end(chunks, setup_s, sim_ns, ops, op_ns):
    """``chunks`` holds ``(ops, scaled host seconds)`` per timed chunk."""
    return {
        "ops_per_s": (sum(count for count, _seconds in chunks)
                      / sum(seconds for _count, seconds in chunks)),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": _peak_rss_mb(),
        "sim_ns_per_op": sim_ns / ops,
        "op_sim_ns_p99": percentile(op_ns, 99),
    }


# -- traced pass ---------------------------------------------------------


class _Window:
    """Span totals and host time summed over timed windows."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.totals = spans.Totals({}, {}, {})
        self.wall_s = 0.0
        self.last = None            # tracer totals when the last window ended
        self._start = None

    def begin(self):
        self._start = (self.tracer.snapshot(), time.perf_counter())

    def end(self):
        wall = time.perf_counter()
        totals, start = self._start
        self.last = self.tracer.snapshot()
        self.totals = self.totals + (self.last - totals)
        self.wall_s += wall - start


def _traced_access(workload, seed, seconds, factory, outcome, untraced):
    tracer = spans.LayerTracer()
    window = _Window(tracer)
    with spans.install(tracer):
        result, sim = _access_pass(workload, seed, seconds, factory, 1,
                                   outcome, window)
    restart = tracer.snapshot() - window.last
    phase = result.phase
    # The phase's own wall time, like the untraced pass's: the window's
    # also holds the counter snapshots that bracket the ops.
    inputs = LayerInputs(
        window.totals, phase.wall_s, phase.counters, phase.ops,
        percentile(phase.op_ns, 50), percentile(phase.persist_ns, 50),
        percentile(phase.persist_ns, 95), result.recovery,
        _restart_s(restart), untraced.phase.wall_s)
    return inputs, sim


def _restart_s(totals):
    return (totals.inclusive("PaxMachine.restart")
            + totals.inclusive("HostMachine.restart"))


def _traced_replay(workload, seconds, setup, factory, outcome, untraced):
    tracer = spans.LayerTracer()
    window = _Window(tracer)

    def around_replay(call):
        window.begin()
        tracer.open("replay", "replay_trace")
        try:
            return call()
        finally:
            tracer.close()
            window.end()

    with spans.install(tracer):
        replays, sim = _replay_pass(workload, seconds, setup, factory,
                                    outcome, around_replay)
    restart = tracer.snapshot() - window.last
    phase = setup.phase
    count = len(replays.walls)
    inputs = LayerInputs(
        window.totals, window.wall_s, replays.counters,
        count * (workload.records + phase.ops),
        percentile(phase.op_ns, 50), percentile(phase.persist_ns, 50),
        percentile(phase.persist_ns, 95), replays.recovery,
        _restart_s(restart), sum(untraced.walls),
        record_s=statistics.median(setup.record_s),
        replay_s=statistics.median(untraced.walls),
        events=count * len(setup.trace),
        trace_bytes=len(setup.trace.to_bytes()))
    return inputs, sim


# -- determinism across runs ---------------------------------------------


#: The checkout root, and the source trees under it whose code decides
#: the simulated results.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("src/repro", "layerbench")


def _digest(sim):
    blob = json.dumps(sim, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def source_digest(workload):
    """A hash of every ``.py`` file under :data:`SOURCES` and of the
    workload's definition, so that only runs of the same code and
    workload are compared."""
    digest = hashlib.sha256(repr((workload, workload.caches)).encode())
    for tree in SOURCES:
        for directory, subdirs, files in os.walk(os.path.join(ROOT, tree)):
            subdirs[:] = sorted(name for name in subdirs
                                if name != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def check_sim_cache(cache_dir, key, sim, outcome):
    """Fail the run if an earlier run with the same ``key`` (code,
    workload, seed and size) recorded different simulated results;
    otherwise remember these."""
    path = os.path.join(cache_dir, key + ".json")
    digest = _digest(sim)
    try:
        with open(path) as handle:
            earlier = json.load(handle)["digest"]
    except FileNotFoundError:
        os.makedirs(cache_dir, exist_ok=True)
        partial = "%s.%d.tmp" % (path, os.getpid())
        with open(partial, "w") as handle:
            json.dump({"digest": digest}, handle)
        os.replace(partial, path)
        return
    if earlier != digest:
        outcome.fail("simulated results differ from an earlier run of the "
                     "same seed (%s)" % key)


# -- the run -------------------------------------------------------------


def run(name, seed, seconds, trace=False, factory=make_backend,
        cache_dir=None, workload=None):
    """Run workload ``name``; returns ``(result line dict, report lines)``.

    ``workload`` overrides the registered definition (tests shrink it);
    ``cache_dir`` enables the cross-run determinism check.
    """
    workload = workload or WORKLOADS[name]
    outcome = Outcome()
    report = ["workload %s  seed %d  seconds %g  trace %d"
              % (workload.name, seed, seconds, int(trace))]
    setups = 1 if trace else SETUPS
    if workload.replay:
        setup = _record(workload, seed, factory, setups, outcome)
        untraced, sim = _replay_pass(workload, seconds, setup, factory,
                                     outcome)
        sim.update(sim_ns=setup.timed_sim_ns, op_ns=setup.phase.op_ns,
                   persist_ns=setup.phase.persist_ns)
        ops = setup.phase.ops
        chunks = untraced.chunks
        metrics = _end_to_end(chunks, setup.setup_s, setup.timed_sim_ns, ops,
                              setup.phase.op_ns)
        size = "n%d-r%d" % (ops, len(untraced.walls))
    else:
        untraced, sim = _access_pass(workload, seed, seconds, factory,
                                     setups, outcome)
        phase = untraced.phase
        ops = phase.ops
        chunks = phase.chunks
        metrics = _end_to_end(chunks, untraced.setup_s, phase.sim_ns, ops,
                              phase.op_ns)
        size = "n%d" % ops
    if cache_dir is not None:
        check_sim_cache(cache_dir, "%s-s%d-%s-%s" % (
            workload.name, seed, size,
            source_digest(workload)[:16]), sim, outcome)
    units = dict((metric, unit) for metric, unit, _better in END_TO_END)
    for metric, _unit, _better in END_TO_END:
        report.append("  %-19s %16.4f %s" % (metric, metrics[metric],
                                              units[metric]))
    reported = {
        "op_sim_ns_p50": percentile(sim["op_ns"], 50),
        "persist_sim_ns_p50": percentile(sim["persist_ns"], 50),
        "persist_sim_ns_p95": percentile(sim["persist_ns"], 95),
        "recovery_sim_ns": sim["recovery_sim_ns"],
    }
    for metric, unit in REPORTED:
        report.append("  %-19s %16.4f %s  (report only)"
                      % (metric, reported[metric], unit))
    report.append("  ops_per_s is %d ops over %d reference-scaled %d-op "
                  "chunks (median chunk rate %.1f 1/s); op_sim_ns_p99 is "
                  "over %d ops" % (
                      sum(count for count, _seconds in chunks), len(chunks),
                      workload.chunk_ops,
                      statistics.median(count / seconds
                                        for count, seconds in chunks), ops))
    if trace:
        if workload.replay:
            inputs, traced_sim = _traced_replay(workload, seconds, setup,
                                                factory, outcome, untraced)
            sim = {key: sim[key] for key in traced_sim}
        else:
            inputs, traced_sim = _traced_access(workload, seed, seconds,
                                                factory, outcome, untraced)
        if traced_sim != sim:
            outcome.fail("simulated results differ with tracing on")
        if residual_s(inputs.window, inputs.wall_s) < 0:
            outcome.fail("layer self times exceed the traced window")
        metrics = layer_metrics(inputs)
        units = dict((metric, unit) for metric, unit, _better in PER_LAYER)
        report.extend("  " + line for line in format_table(inputs))
    fail_share = outcome.failed / outcome.attempted if outcome.attempted else 1
    report.append("  fail_share %.6f (%d of %d)"
                  % (fail_share, outcome.failed, outcome.attempted))
    report.extend("  FAILED: " + note for note in outcome.notes)
    line = {
        "correct": not outcome.notes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }
    return line, report
