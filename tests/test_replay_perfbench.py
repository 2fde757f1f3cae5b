"""Perfbench's replay engine: equivalence wiring, caching, comparison
report shape, and the speedup the replay engine exists to deliver."""

import time

import pytest

from repro.errors import ConfigError
from repro.perfbench import (COMPARE_SCHEMA, _TRACE_CACHE,
                             _record_cell_trace, build_backend,
                             compare, compare_report, run_cell,
                             run_matrix)
from repro.replay import record, replay_trace
from repro.replay import format as fmt
from repro.sim.rng import DeterministicRng


class TestReplayCells:
    def test_replay_cell_matches_access_sim_ns(self):
        access = run_cell("store_heavy", "pax", ops=300, records=64)
        replay = run_cell("store_heavy", "pax", ops=300, records=64,
                          engine="replay")
        assert access["engine"] == "access"
        assert replay["engine"] == "replay"
        assert replay["sim_ns"] == access["sim_ns"]
        assert replay["ops"] == access["ops"]

    def test_replay_cell_repeats_deterministic(self):
        cell = run_cell("mixed", "pmdk", ops=200, records=32, repeats=3,
                        engine="replay")
        assert cell["sim_ns"] > 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="engine"):
            run_cell("store_heavy", "pax", ops=10, records=4,
                     engine="vectorized")

    def test_tracer_with_replay_rejected(self):
        with pytest.raises(ConfigError, match="per-access"):
            run_cell("store_heavy", "pax", ops=10, records=4,
                     engine="replay", tracer=object())

    def test_trace_recorded_once_per_config(self):
        key = ("load_heavy", "dram", 150, 32, 5)
        _TRACE_CACHE.pop(key, None)
        trace1, sim1 = _record_cell_trace(*key)
        trace2, sim2 = _record_cell_trace(*key)
        assert trace1 is trace2
        assert sim1 == sim2

    def test_matrix_engine_axis(self):
        report = run_matrix(workloads=("store_heavy",),
                            backends=("dram",), ops=100, records=16,
                            engines=("access", "replay"))
        engines = [cell["engine"] for cell in report["results"]]
        assert engines == ["access", "replay"]
        assert report["config"]["engines"] == ["access", "replay"]
        sims = {cell["sim_ns"] for cell in report["results"]}
        assert len(sims) == 1


class TestCompareReport:
    def _report(self):
        return run_matrix(workloads=("store_heavy",),
                          backends=("dram", "pax"), ops=100, records=16,
                          engines=("access", "replay"))

    def test_self_compare_clean_and_shaped(self):
        report = self._report()
        grade = compare_report(report, report)
        assert grade["schema"] == COMPARE_SCHEMA
        assert grade["problems"] == []
        assert grade["same_config"] is True
        assert len(grade["cells"]) == 4
        for cell in grade["cells"]:
            assert cell["engine"] in ("access", "replay")
            assert cell["wall_s_delta"] == 0.0
            assert cell["throughput_ratio"] == 1.0
            assert cell["regressed"] is False
            assert cell["sim_ns_match"] is True

    def test_engineless_baseline_cells_are_access(self):
        # BENCH_PR3.json predates the engine axis; its cells must keep
        # matching the access cells of a new-format run.
        report = self._report()
        baseline = {
            "config": dict(report["config"]),
            "results": [
                {k: v for k, v in cell.items() if k != "engine"}
                for cell in report["results"]
                if cell["engine"] == "access"
            ],
        }
        grade = compare_report(report, baseline)
        matched = {(c["workload"], c["backend"], c["engine"])
                   for c in grade["cells"]}
        assert all(engine == "access" for _, _, engine in matched)
        assert grade["problems"] == []

    def test_regression_reported_per_cell(self):
        report = self._report()
        forged = {
            "config": dict(report["config"]),
            "results": [dict(cell) for cell in report["results"]],
        }
        for cell in forged["results"]:
            cell["ops_per_sec"] *= 1e6
        grade = compare_report(report, forged)
        assert len(grade["problems"]) == 4
        assert all(cell["regressed"] for cell in grade["cells"])
        assert compare(report, forged) == grade["problems"]


class TestSpeedup:
    def test_replay_beats_per_access_on_store_heavy_pax(self):
        # The acceptance-criterion speedup measurement (docs record the
        # full-size ratio); asserted here with margin so scheduler noise
        # on a shared CI runner cannot flake the suite.
        ops, records, seed = 20000, 2000, 42

        def drive(live, recorder=None):
            rng = DeterministicRng(seed)
            for i in range(records):
                live.put(i, i)
            if recorder is not None:
                recorder.mark(fmt.MARK_TIMED)
            start = time.perf_counter()
            for i in range(ops):
                live.put(rng.randint(0, records - 1), i)
            return time.perf_counter() - start

        trace = record(build_backend("pax"), drive)
        # Warm-up replay amortizes the one-time column decode, matching
        # perfbench's record-once-replay-many shape.
        replay_trace(trace, build_backend("pax"))
        # Interleaved runs, best of three each: a burst of load on a
        # shared host lands on both engines rather than on one of them.
        access_walls = []
        replay_walls = []
        for _ in range(3):
            access_walls.append(drive(build_backend("pax")))
            replay_walls.append(replay_trace(
                trace, build_backend("pax"),
                stopwatch=time.perf_counter).wall_s_timed)
        access_wall = min(access_walls)
        replay_wall = min(replay_walls)
        assert replay_wall < access_wall / 3.0, (
            "replay %.3fs vs per-access %.3fs: below the 3x floor"
            % (replay_wall, access_wall))
