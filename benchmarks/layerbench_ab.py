"""Alternating A/B runs of the repository benchmark against a git ref.

Exports ``--ref`` into a temporary directory (``git archive``, which
leaves the repository's ``.git`` untouched), then runs
``layerbench/run.py`` on one workload in pairs: one run of the ref (the
base) and one of this checkout (the change), strictly one at a time and
alternating which goes first, so that slow drift of the host lands on
both sides. At the end it prints, for every end-to-end metric that
``BENCHMARK.json`` declares, the median and inter-quartile range of each
side, the change in the median, and how many pairs the change won::

    python3 benchmarks/layerbench_ab.py --ref HEAD~1 --workload pax_spill \\
        --pairs 5 --seconds 10

(``make layerbench-ab REF=HEAD~1 WORKLOAD=pax_spill PAIRS=5``.) With
``--workload all`` each run covers every workload, and the comparison
prints one table per workload. A claimed gain should win most pairs and
move the median by more than the base's IQR. Exit status: 0 when every
run's correctness checks held, 1 when one failed, 2 when the ref cannot
be exported or has no benchmark.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks/layerbench_ab.py",
        description="Alternating A/B runs of layerbench against a git ref.")
    parser.add_argument("--ref", required=True,
                        help="git ref of the base side (e.g. HEAD~1)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end_metrics(root):
    """``[(name, better)]`` of the end-to-end metrics ``root`` declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(metric["name"], metric["better"])
            for metric in spec["end_to_end"]]


def export_tree(ref, dest):
    """Extract the files of ``ref`` into ``dest``; True on success."""
    os.mkdir(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    extract = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                             check=False)
    archive.stdout.close()
    return archive.wait() == 0 and extract.returncode == 0


def run_once(tree, args):
    """One layerbench run in ``tree``; returns its result line."""
    child = subprocess.run(
        [sys.executable, os.path.join(tree, "layerbench", "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = child.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {}}


def metric_value(run, name):
    """Value of metric ``name`` in a result line, or None."""
    metric = run["metrics"].get(name)
    return None if metric is None else metric["value"]


def workloads_in(runs):
    """Sorted workload prefixes of ``--workload all`` metric names
    (``<workload>.<metric>``) found in ``runs``."""
    return sorted({name.split(".", 1)[0] for run in runs
                   for name in run["metrics"] if "." in name})


def ops_per_s(run):
    """Every ``ops_per_s`` value of a result line, as text."""
    values = ["%s %.6g" % (name, metric["value"])
              for name, metric in sorted(run["metrics"].items())
              if name.rsplit(".", 1)[-1] == "ops_per_s"]
    return ", ".join(values) or "none"


def quartiles(values):
    """``(q1, median, q3)`` of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metrics, base_runs, change_runs, workload=None):
    """The comparison table, one line per metric.

    ``workload`` selects one workload's metrics from ``--workload all``
    result lines, which name them ``<workload>.<metric>``.
    """
    lines = ["%-14s %27s %27s %9s %6s" % (
        "metric", "base median [IQR]", "change median [IQR]", "delta",
        "wins")]
    for name, better in metrics:
        key = name if workload is None else "%s.%s" % (workload, name)
        pairs = [(metric_value(base, key), metric_value(change, key))
                 for base, change in zip(base_runs, change_runs)]
        pairs = [(base, change) for base, change in pairs
                 if base is not None and change is not None]
        if not pairs:
            lines.append("%-14s (not reported)" % name)
            continue
        base_q = quartiles([base for base, _change in pairs])
        change_q = quartiles([change for _base, change in pairs])
        if better == "higher":
            wins = sum(1 for base, change in pairs if change > base)
        else:
            wins = sum(1 for base, change in pairs if change < base)
        delta = ("%+8.1f%%" % (100.0 * (change_q[1] / base_q[1] - 1.0))
                 if base_q[1] else "%9s" % "n/a")
        lines.append("%-14s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
                     "%s %3d/%-2d" % (
                         name, base_q[1], base_q[0], base_q[2],
                         change_q[1], change_q[0], change_q[2], delta,
                         wins, len(pairs)))
    return lines


def main(argv=None):
    args = parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="layerbench-ab-")
    base_tree = os.path.join(scratch, "base")
    try:
        if not export_tree(args.ref, base_tree):
            print("layerbench-ab: cannot export %r" % args.ref,
                  file=sys.stderr)
            return 2
        if not os.path.isfile(os.path.join(base_tree, "layerbench",
                                           "run.py")):
            print("layerbench-ab: %r has no layerbench/run.py" % args.ref,
                  file=sys.stderr)
            return 2
        base_runs = []
        change_runs = []
        for pair in range(args.pairs):
            # Alternate which side runs first in each pair.
            order = [(base_tree, base_runs), (ROOT, change_runs)]
            if pair % 2:
                order.reverse()
            for tree, runs in order:
                runs.append(run_once(tree, args))
            print("pair %d/%d: base %s; change %s" % (
                pair + 1, args.pairs, ops_per_s(base_runs[-1]),
                ops_per_s(change_runs[-1])), flush=True)
        print("%s, seed %d, %g s, %d pair(s); base %s" % (
            args.workload, args.seed, args.seconds, args.pairs, args.ref))
        metrics = end_to_end_metrics(ROOT)
        workloads = ([None] if args.workload != "all"
                     else workloads_in(base_runs + change_runs))
        for workload in workloads:
            if workload is not None:
                print("-- %s" % workload)
            print("\n".join(report(metrics, base_runs, change_runs,
                                   workload)))
        runs = base_runs + change_runs
        correct = all(run["correct"] and not run["failed"] for run in runs)
        if not correct:
            print("layerbench-ab: a run failed its correctness checks",
                  file=sys.stderr)
        return 0 if correct else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
