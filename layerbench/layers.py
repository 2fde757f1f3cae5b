"""Per-layer metrics of the traced run.

Each metric is named ``<layer>.<metric>``. Host times come from the span
window of :mod:`layerbench.spans`; counts and ratios come from the
simulator's own stat counters over the same window. Which end-to-end
metric each one should move, on which workload, is in README.md.
"""

from layerbench.spans import LAYERS, ROOT

#: The machine seams a replay re-issues through the real methods (see
#: ``repro.replay.engine``) that have entry points: what the fast engine
#: hands back when an event is outside its envelope.
REPLAY_SEAMS = frozenset((
    "CacheHierarchy.load", "CacheHierarchy.store",
    "CacheHierarchy.writeback_line", "PaxMachine.persist",
    "FlushModel.clwb", "FlushModel.sfence"))

#: ``(name, unit, better)`` for every per-layer metric, in report order.
PER_LAYER = (
    ("structures.calls", "count", "lower"),
    ("structures.self_ms", "ms", "lower"),
    ("structures.mem_calls_per_op", "count/op", "lower"),
    ("mem.calls", "count", "lower"),
    ("mem.self_ms", "ms", "lower"),
    ("baselines.calls", "count", "lower"),
    ("baselines.self_ms", "ms", "lower"),
    ("baselines.wal_bytes_per_op", "B/op", "lower"),
    ("baselines.sfences_per_op", "count/op", "lower"),
    ("baselines.gates_per_op", "count/op", "lower"),
    ("baselines.op_sim_ns_p50", "ns", "lower"),
    ("baselines.recovery_sim_ns", "ns", "lower"),
    ("cache.calls", "count", "lower"),
    ("cache.self_ms", "ms", "lower"),
    ("cache.host_ns_per_access", "ns", "lower"),
    ("cache.l1_hit_ratio", "ratio", "higher"),
    ("cache.llc_hit_ratio", "ratio", "higher"),
    ("cache.fetches_per_op", "count/op", "lower"),
    ("cache.writebacks_per_op", "count/op", "lower"),
    ("cxl.messages", "count", "lower"),
    ("cxl.self_ms", "ms", "lower"),
    ("cxl.snoops_per_persist", "count", "lower"),
    ("core.messages", "count", "lower"),
    ("core.self_ms", "ms", "lower"),
    ("core.persist_ms", "ms", "lower"),
    ("core.lines_logged_per_op", "count/op", "lower"),
    ("core.stalled_evicts", "count", "lower"),
    ("core.hbm_serve_ratio", "ratio", "higher"),
    ("pm.self_ms", "ms", "lower"),
    ("pm.line_reads_per_op", "count/op", "lower"),
    ("pm.media_write_bytes_per_op", "B/op", "lower"),
    ("libpax.self_ms", "ms", "lower"),
    ("libpax.persist_calls", "count", "lower"),
    ("libpax.persist_ms", "ms", "lower"),
    ("libpax.persist_sim_ns_p50", "ns", "lower"),
    ("libpax.persist_sim_ns_p95", "ns", "lower"),
    ("libpax.restart_ms", "ms", "lower"),
    ("libpax.rolled_back", "count", "lower"),
    ("replay.self_ms", "ms", "lower"),
    ("replay.record_s", "s", "lower"),
    ("replay.replay_s", "s", "lower"),
    ("replay.events", "count", "lower"),
    ("replay.delegated_share", "ratio", "lower"),
    ("replay.trace_mb", "MB", "lower"),
    ("residual.self_ms", "ms", "lower"),
    ("residual.share", "ratio", "lower"),
    ("trace.timed_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class LayerInputs:
    """What the traced pass measured, gathered for :func:`layer_metrics`.

    ``window`` is the span :class:`~layerbench.spans.Totals` of the timed
    window and ``wall_s`` its host duration; ``counters`` the stat-counter
    deltas over it and ``kv_ops`` the KV ops it ran. The rest are
    measured outside the window: simulated latencies, the recovery, the
    replay trace and the untraced pass's wall time.
    """

    def __init__(self, window, wall_s, counters, kv_ops, op_ns_p50,
                 persist_ns_p50, persist_ns_p95, recovery, restart_s,
                 untraced_wall_s, record_s=0.0, replay_s=0.0, events=0,
                 trace_bytes=0):
        self.window = window
        self.wall_s = wall_s
        self.counters = counters
        self.kv_ops = kv_ops
        self.op_ns_p50 = op_ns_p50
        self.persist_ns_p50 = persist_ns_p50
        self.persist_ns_p95 = persist_ns_p95
        self.recovery = recovery
        self.restart_s = restart_s
        self.untraced_wall_s = untraced_wall_s
        self.record_s = record_s
        self.replay_s = replay_s
        self.events = events
        self.trace_bytes = trace_bytes


def residual_s(window, wall_s):
    """Window time outside every span: ``wall - sum(layer self times)``."""
    return wall_s - sum(window.self_s.get(layer, 0.0) for layer in LAYERS)


def layer_metrics(inputs):
    """``{name: value}`` for every name in :data:`PER_LAYER`."""
    w = inputs.window
    c = inputs.counters.get
    ops = inputs.kv_ops
    ms = {layer: w.self_s.get(layer, 0.0) * 1e3 for layer in LAYERS}
    accesses = c("hierarchy:loads", 0) + c("hierarchy:stores", 0)
    persists = c("PaxMachine:persists", 0)
    residual = residual_s(w, inputs.wall_s)
    out = {
        "structures.calls": w.calls("structures"),
        "structures.self_ms": ms["structures"],
        "structures.mem_calls_per_op":
            _ratio(w.calls("mem", parent="structures"), ops),
        "mem.calls": w.calls("mem"),
        "mem.self_ms": ms["mem"],
        "baselines.calls": w.calls("baselines"),
        "baselines.self_ms": ms["baselines"],
        "baselines.wal_bytes_per_op": _ratio(c("wal:bytes", 0), ops),
        "baselines.sfences_per_op": _ratio(c("flush:sfences", 0), ops),
        "baselines.gates_per_op": _ratio(c("backend:gates", 0), ops),
        "baselines.op_sim_ns_p50": inputs.op_ns_p50,
        "baselines.recovery_sim_ns": inputs.recovery.sim_ns,
        "cache.calls": w.calls("cache"),
        "cache.self_ms": ms["cache"],
        "cache.host_ns_per_access":
            _ratio(w.self_s.get("cache", 0.0) * 1e9, accesses),
        "cache.l1_hit_ratio": _ratio(
            c("core0.l1:hits", 0),
            c("core0.l1:hits", 0) + c("core0.l1:misses", 0)),
        "cache.llc_hit_ratio": _ratio(
            c("llc:hits", 0), c("llc:hits", 0) + c("llc:misses", 0)),
        "cache.fetches_per_op": _ratio(c("hierarchy:memory_fetches", 0), ops),
        "cache.writebacks_per_op": _ratio(
            c("hierarchy:llc_writebacks", 0)
            + c("hierarchy:clwb_writebacks", 0), ops),
        "cxl.messages": c("cxl:h2d_messages", 0) + c("cxl:d2h_messages", 0),
        "cxl.self_ms": ms["cxl"],
        "cxl.snoops_per_persist": _ratio(
            c("host_snoop_port:snp_data", 0)
            + c("host_snoop_port:snp_inv", 0), persists),
        "core.messages": sum(c("pax_device:" + kind, 0) for kind in
                             ("rd_shared", "rd_own", "dirty_evicts",
                              "clean_evicts")),
        "core.self_ms": ms["core"],
        "core.persist_ms": w.inclusive("PaxDevice.persist") * 1e3,
        "core.lines_logged_per_op":
            _ratio(c("pax_device:lines_logged", 0), ops),
        "core.stalled_evicts": c("pax_device:stalled_evicts", 0),
        "core.hbm_serve_ratio": _ratio(
            c("hbm:hits", 0), c("hbm:hits", 0) + c("hbm:misses", 0)),
        "pm.self_ms": ms["pm"],
        "pm.line_reads_per_op": _ratio(c("pm0:bytes_read", 0) / 64, ops),
        "pm.media_write_bytes_per_op":
            _ratio(c("pm0:lines_written", 0) * 64, ops),
        "libpax.self_ms": ms["libpax"],
        "libpax.persist_calls": persists,
        "libpax.persist_ms": w.inclusive("PaxMachine.persist") * 1e3,
        "libpax.persist_sim_ns_p50": inputs.persist_ns_p50,
        "libpax.persist_sim_ns_p95": inputs.persist_ns_p95,
        "libpax.restart_ms": inputs.restart_s * 1e3,
        "libpax.rolled_back": inputs.recovery.rolled_back,
        "replay.self_ms": ms["replay"],
        "replay.record_s": inputs.record_s,
        "replay.replay_s": inputs.replay_s,
        "replay.events": inputs.events,
        "replay.delegated_share": _ratio(
            w.calls_to(REPLAY_SEAMS, "replay"), inputs.events),
        "replay.trace_mb": inputs.trace_bytes / 1e6,
        "residual.self_ms": residual * 1e3,
        "residual.share": _ratio(residual, inputs.wall_s),
        "trace.timed_ms": inputs.wall_s * 1e3,
        "trace.overhead_share":
            _ratio(inputs.wall_s, inputs.untraced_wall_s) - 1.0,
    }
    return out


def format_table(inputs):
    """The per-layer self-time table, one line per layer plus residual."""
    w = inputs.window
    wall = inputs.wall_s
    lines = ["%-11s %12s %12s %8s" % ("layer", "calls", "self_ms", "share")]
    for layer in LAYERS:
        self_s = w.self_s.get(layer, 0.0)
        lines.append("%-11s %12d %12.1f %7.1f%%" % (
            layer, w.calls(layer), self_s * 1e3, 100 * _ratio(self_s, wall)))
    residual = residual_s(w, wall)
    lines.append("%-11s %12s %12.1f %7.1f%%" % (
        ROOT, "-", residual * 1e3, 100 * _ratio(residual, wall)))
    lines.append("%-11s %12s %12.1f %7.1f%%" % ("total", "-", wall * 1e3,
                                                100.0))
    lines.append("sim and util have no entry points: their time is in the "
                 "calling layer's self time; residual is the benchmark's "
                 "own loop")
    lines.append("tracing overhead: %+.1f%% over the untraced pass "
                 "(%.1f ms traced vs %.1f ms untraced)" % (
                     100 * (_ratio(wall, inputs.untraced_wall_s) - 1.0),
                     wall * 1e3, inputs.untraced_wall_s * 1e3))
    return lines
