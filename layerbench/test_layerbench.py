"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q layerbench/test_layerbench.py
"""

import json
import os
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from repro.baselines import make_backend  # noqa: E402

from layerbench import bench, spans  # noqa: E402
from layerbench.layers import PER_LAYER  # noqa: E402
from layerbench.reference import NOMINAL_S  # noqa: E402
from layerbench.workloads import WORKLOADS, HostTimer  # noqa: E402


def tiny(name):
    """``name`` shrunk to a fraction of a second."""
    workload = replace(WORKLOADS[name], records=300, persist_every=64,
                       chunk_ops=128)
    if workload.replay:
        return replace(workload, trace_ops=320, ops_per_second=640)
    return replace(workload, ops_per_second=320)


def run_tiny(name, trace, factory=make_backend):
    return bench.run(name, seed=5, seconds=1, trace=trace, factory=factory,
                     workload=tiny(name))[0]


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- every workload emits every metric -----------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    line = run_tiny(name, trace)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    table = PER_LAYER if trace else bench.END_TO_END
    assert {metric: (value["unit"]) for metric, value
            in line["metrics"].items()} == {
                metric: unit for metric, unit, _better in table}
    for value in line["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_benchmark_json_matches_the_code():
    config = load_benchmark_json()
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in config["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in config["per_layer"]] == list(PER_LAYER)


def test_traced_replay_attributes_delegated_events():
    metrics = run_tiny("pax_replay_resident", True)["metrics"]
    assert 0 < metrics["replay.delegated_share"]["value"] < 1
    assert metrics["structures.calls"]["value"] == 0


# -- the correctness gate --------------------------------------------------


class StaleGets:
    """A backend whose gets return the first value ever put for a key."""

    def __init__(self, inner):
        self._inner = inner
        self._first = {}

    def put(self, key, value):
        self._first.setdefault(key, value)
        return self._inner.put(key, value)

    def get(self, key, default=None):
        value = self._inner.get(key, default)
        return self._first.get(key, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("name", ["pax_spill", "pmdk_spill"])
def test_stale_gets_count_as_failures(name):
    line = run_tiny(name, False,
                    lambda backend, **kw: StaleGets(make_backend(backend,
                                                                 **kw)))
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]


def test_changed_sim_results_fail_a_later_run_of_the_seed(tmp_path):
    outcome = bench.Outcome()
    bench.check_sim_cache(str(tmp_path), "w-s1-n8", {"sim_ns": 5.0}, outcome)
    bench.check_sim_cache(str(tmp_path), "w-s1-n8", {"sim_ns": 5.0}, outcome)
    assert not outcome.notes
    bench.check_sim_cache(str(tmp_path), "w-s1-n8", {"sim_ns": 6.0}, outcome)
    assert len(outcome.notes) == 1


def test_sim_results_are_compared_only_for_the_same_workload_definition():
    workload = WORKLOADS["pax_spill"]
    assert bench.source_digest(workload) == bench.source_digest(workload)
    assert bench.source_digest(workload) != bench.source_digest(
        replace(workload, records=workload.records + 1))


def test_chunk_laps_cover_a_partial_last_chunk():
    timer = HostTimer(reference=False)
    timer.laps = [9.0, 2.0, 1.0]
    assert timer.chunk_laps(1, 6, 4) == [(4, 2.0), (2, 1.0)]
    with pytest.raises(RuntimeError):
        timer.chunk_laps(2, 6, 4)


def test_chunk_laps_scale_by_the_reference_speed():
    timer = HostTimer()
    timer()
    timer()
    assert len(timer.laps) == 1 and len(timer.refs) == 2
    # A lap during which the reference ran at twice its nominal time is
    # counted as a host running at half speed.
    timer.laps = [2.0]
    timer.refs = [NOMINAL_S, 3 * NOMINAL_S]
    assert timer.chunk_laps(0, 4, 4) == [(4, pytest.approx(1.0))]


def test_ops_per_s_counts_every_chunk_s_time():
    # One slow chunk out of three: a median of chunk rates would hide it.
    metrics = bench._end_to_end([(4, 1.0), (4, 1.0), (4, 4.0)], [1.0],
                                sim_ns=12.0, ops=12, op_ns=[1.0, 2.0])
    assert metrics["ops_per_s"] == pytest.approx(2.0)


# -- self-time arithmetic ----------------------------------------------------


#: (layer, start, end, children): structures calls mem twice, the first
#: mem call reaches cache, which reaches cxl.
TREE = [
    ("structures", 1.0, 10.0, [
        ("mem", 2.0, 5.0, [
            ("cache", 2.5, 4.5, [("cxl", 3.0, 3.5, [])]),
        ]),
        ("mem", 6.0, 9.0, []),
    ]),
    ("pm", 11.0, 12.0, []),
]


def reference_self_times(tree):
    """Each span's duration minus the union of its children's intervals."""
    out = {}
    for layer, start, end, children in tree:
        covered = 0.0
        edge = start
        for _layer, child_start, child_end, _kids in sorted(
                children, key=lambda child: child[1]):
            lo = max(child_start, edge)
            if child_end > lo:
                covered += child_end - lo
                edge = child_end
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
        for child_layer, value in reference_self_times(children).items():
            out[child_layer] = out.get(child_layer, 0.0) + value
    return out


def replay_tree(tracer, clock, tree):
    for layer, start, end, children in tree:
        clock.now = start
        tracer.open(layer, layer + ".call")
        replay_tree(tracer, clock, children)
        clock.now = end
        tracer.close()


class ScriptedClock:
    now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_a_synthetic_span_tree():
    clock = ScriptedClock()
    tracer = spans.LayerTracer(clock)
    before = tracer.snapshot()
    replay_tree(tracer, clock, TREE)
    window = tracer.snapshot() - before
    expected = reference_self_times(TREE)
    for layer in spans.LAYERS:
        assert window.self_s[layer] == pytest.approx(expected.get(layer, 0))
    assert window.self_s["structures"] == pytest.approx(3.0)
    assert window.self_s["cxl"] == pytest.approx(0.5)
    wall = 13.0
    residual = wall - sum(window.self_s.values())
    assert residual == pytest.approx(3.0)   # [0, 1], [10, 11], [12, 13]
    assert window.calls("mem", parent="structures") == 2
    assert window.calls("pm", parent=spans.ROOT) == 1
    assert window.calls_to({"cache.call"}, "mem") == 1
    assert window.calls("mem") == 2
    assert window.inclusive("mem.call") == pytest.approx(6.0)


def test_install_wraps_entry_points_and_restores_them():
    from repro.cache.hierarchy import CacheHierarchy
    from repro.pm.device import PmDevice
    original_load = CacheHierarchy.load
    original_write = PmDevice.write
    tracer = spans.LayerTracer()
    with spans.install(tracer):
        assert CacheHierarchy.load is not original_load
        assert CacheHierarchy.load.__wrapped__ is original_load
        backend = make_backend("pax", pool_size=1 << 20, log_size=1 << 18,
                               capacity=64)
        backend.put(1, 2)
        assert backend.get(1) == 2
    assert CacheHierarchy.load is original_load
    assert PmDevice.write is original_write
    assert tracer.depth == 0
    totals = tracer.snapshot()
    assert totals.calls("structures") == 2
    assert totals.calls("structures", parent="baselines") == 2
    assert totals.calls("cache") > 0
