"""The A/B comparison table of benchmarks/layerbench_ab.py."""

from benchmarks.layerbench_ab import ops_per_s, report, workloads_in

METRICS = [("ops_per_s", "higher"), ("sim_ns_per_op", "lower")]


def _run(metrics):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": value}
                        for name, value in metrics.items()}}


def test_report_reads_bare_metric_names():
    base = _run({"ops_per_s": 100.0, "sim_ns_per_op": 50.0})
    change = _run({"ops_per_s": 110.0, "sim_ns_per_op": 50.0})
    lines = report(METRICS, [base], [change])
    assert lines[1].split()[0] == "ops_per_s"
    assert "+10.0%" in lines[1] and lines[1].split()[-1] == "1/1"
    assert "+0.0%" in lines[2] and lines[2].split()[-1] == "0/1"


def test_report_reads_prefixed_result_line():
    # ``layerbench/run.py --workload all`` names every metric
    # ``<workload>.<metric>``; each workload gets its own table.
    base = _run({"pax_spill.ops_per_s": 100.0,
                 "pax_spill.sim_ns_per_op": 50.0,
                 "pmdk_spill.ops_per_s": 40.0,
                 "pmdk_spill.sim_ns_per_op": 120.0})
    change = _run({"pax_spill.ops_per_s": 120.0,
                   "pax_spill.sim_ns_per_op": 50.0,
                   "pmdk_spill.ops_per_s": 30.0,
                   "pmdk_spill.sim_ns_per_op": 120.0})
    assert workloads_in([base, change]) == ["pax_spill", "pmdk_spill"]
    pax = report(METRICS, [base], [change], "pax_spill")
    pmdk = report(METRICS, [base], [change], "pmdk_spill")
    for lines in (pax, pmdk):
        assert not any("(not reported)" in line for line in lines)
    assert "+20.0%" in pax[1] and pax[1].split()[-1] == "1/1"
    assert "-25.0%" in pmdk[1] and pmdk[1].split()[-1] == "0/1"
    # Bare names find nothing in a prefixed line.
    assert report(METRICS, [base], [change])[1] == \
        "%-14s (not reported)" % "ops_per_s"


def test_ops_per_s_lists_every_workload():
    run = _run({"pax_spill.ops_per_s": 1.5, "pax_spill.setup_s": 2.0,
                "pmdk_spill.ops_per_s": 3.0})
    assert ops_per_s(run) == "pax_spill.ops_per_s 1.5, pmdk_spill.ops_per_s 3"
    assert ops_per_s(_run({})) == "none"
