"""Layer-attributed benchmark of the PAX simulator.

Run from the root of a checkout::

    python3 layerbench/run.py --workload pax_spill --seed 1 --seconds 10

``--workload all`` runs every workload, one after another, each in a
child process of its own so that its ``peak_rss_mb`` is its own peak.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it are the human-readable report, including the per-layer table when
tracing. Exit status: 0 when every correctness check held, 1 when one
failed, 2 when the simulator sources are missing or the arguments are
invalid. See layerbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv, workloads, default_seed):
    parser = argparse.ArgumentParser(
        prog="layerbench/run.py",
        description="Layer-attributed benchmark of the PAX simulator.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_child(name, args):
    """Run workload ``name`` in a child process, print its report and
    return its result line (a failed one if it printed none)."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    output = child.stdout.splitlines()
    print("\n".join(output[:-1]), flush=True)
    try:
        return json.loads(output[-1])
    except (IndexError, ValueError):
        print("layerbench: %s exited %d without a result line"
              % (name, child.returncode), file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("layerbench: no simulator sources at %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from layerbench import bench
    from layerbench.workloads import WORKLOADS
    args = parse_args(argv, WORKLOADS, bench.DEFAULT_SEED)
    if args.workload != "all":
        result, report = bench.run(args.workload, args.seed, args.seconds,
                                   trace=bool(args.trace),
                                   cache_dir=os.path.join(ROOT, ".layerbench"))
        print("\n".join(report), flush=True)
    else:
        lines = [(name, run_child(name, args)) for name in sorted(WORKLOADS)]
        result = {
            "correct": all(line["correct"] for _name, line in lines),
            "attempted": sum(line["attempted"] for _name, line in lines),
            "failed": sum(line["failed"] for _name, line in lines),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, line in lines
                        for metric, value in line["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
