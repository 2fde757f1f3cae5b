"""The whole-program run and the one analysis CLI.

Every run is whole-program: :func:`run_interproc` reads all sources,
builds the :class:`~repro.staticcheck.callgraph.ProjectIndex` and the
:class:`~repro.staticcheck.interproc.InterprocAnalysis`, runs every
registered rule — the AST rules of :mod:`repro.lint.rules` and the flow
rules of :mod:`repro.staticcheck.checkers` — through the shared per-file
pass :func:`~repro.lint.engine.check_source`, and applies the
caller-direction discharge filter. :func:`main` checks the result
against the accepted-findings baseline. Exit codes: 0 clean, 1 findings,
2 usage error or crash.
"""

import argparse
import os
import sys

from repro.errors import LintError
from repro.lint.engine import (
    LintFinding,
    all_rules,
    check_source,
    iter_python_files,
    render_findings,
)
from repro.staticcheck.baseline import (
    Baseline,
    discover_baseline,
    path_key,
    write_baseline,
)
from repro.staticcheck.cache import (
    CACHE_FORMAT,
    DEFAULT_CACHE_DIR,
    SALT,
    SummaryCache,
    content_hash,
    env_hashes,
)
from repro.staticcheck.callgraph import ProjectIndex, module_key
from repro.staticcheck.fixer import fix_paths
from repro.staticcheck.interproc import InterprocAnalysis


def run_interproc(paths, selected=None, cache_dir=None, use_cache=True):
    """Whole-program interprocedural run over ``paths``.

    Builds the project index and the
    :class:`~repro.staticcheck.interproc.InterprocAnalysis`, computes
    (or loads from the per-module summary cache) function summaries and
    raw findings, then applies the caller-direction discharge filter.
    Returns ``(findings, filenames, stats)`` where ``stats`` carries
    ``analyzed``/``total`` module counts and the discharge count.

    The cache is bypassed when a rule selection is active — entries
    always describe full-catalogue runs.
    """
    sources = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            sources.append((filename, handle.read()))
    project = ProjectIndex.build(sources)
    interproc = InterprocAnalysis(project)

    cache = None
    if use_cache and selected is None:
        cache = SummaryCache(cache_dir or DEFAULT_CACHE_DIR)
    contents = {}
    for filename, source in sources:
        contents[module_key(filename)] = content_hash(source)
    env = env_hashes(project, contents) if cache is not None else {}

    hits = {}
    if cache is not None:
        for filename, _source in sources:
            key = module_key(filename)
            if key not in project.modules:
                continue            # unparseable: always analyzed fresh
            entry = cache.load(key, filename, env.get(key))
            if entry is not None:
                hits[key] = entry

    for entry in hits.values():
        interproc.load_summaries(entry["summaries"])
    misses = [module_key(f) for f, _s in sources
              if module_key(f) not in hits]
    interproc.compute_summaries(misses)

    findings = []
    for filename, source in sources:
        key = module_key(filename)
        entry = hits.get(key)
        if entry is not None:
            for lineno, col, rule, message in entry["findings"]:
                findings.append(LintFinding(filename, lineno, col,
                                            rule, message))
            for lineno, col, qualname, entry_dep in entry["candidates"]:
                interproc.register_store(filename, lineno, col,
                                         qualname, entry_dep)
            continue
        file_findings = check_source(filename, source, project=project,
                                     selected=selected,
                                     interproc=interproc)
        findings.extend(file_findings)
        if cache is not None and key in project.modules:
            cache.store(key, {
                "format": CACHE_FORMAT,
                "salt": SALT,
                "path": filename,
                "module": key,
                "content_hash": contents[key],
                "env_hash": env.get(key),
                "summaries": interproc.summary_dicts(key),
                "findings": [[f.lineno, f.col, f.rule_id, f.message]
                             for f in file_findings],
                "candidates": interproc.candidates_for(filename),
            })

    findings = interproc.filter_findings(findings)
    stats = {
        "analyzed": len(sources) - len(hits),
        "total": len(sources),
        "discharged": len(interproc.discharged),
    }
    return findings, [filename for filename, _source in sources], stats


def main(argv=None):
    """CLI entry point; exit code 0 clean, 1 findings, 2 usage error."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Whole-program static analysis (AST rules plus "
                    "CFG/dataflow rules over the call graph) of the "
                    "repro sources; see docs/analysis-tools.md.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    parser.add_argument("--select", action="append", metavar="RULE",
                        help="run only this rule id (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default text; sarif suits "
                             "CI annotation upload)")
    parser.add_argument("--fix", action="store_true",
                        help="auto-insert persist gates for fixable "
                             "persist-order findings (rewrites files)")
    parser.add_argument("--fix-diff", action="store_true",
                        help="like --fix but print a unified diff on "
                             "stdout instead of writing files")
    parser.add_argument("--fix-style",
                        choices=("auto", "tx", "with", "wal"),
                        default="auto",
                        help="gate idiom for --fix/--fix-diff (default: "
                             "auto — pick per receiver)")
    parser.add_argument("--witness-trace", action="append", metavar="FILE",
                        help="replay trace (repro.replay format) used to "
                             "ground surviving findings as 'confirmed' or "
                             "'static-only' (repeatable)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="summary cache directory (default: "
                             ".staticcheck-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the summary cache")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="accepted-findings baseline (default: "
                             "discover staticcheck-baseline.txt)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline; report every finding")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept current findings into the --baseline "
                             "file (default staticcheck-baseline.txt) and "
                             "exit 0")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_obj in sorted(all_rules().items()):
            print("%-20s %s" % (rule_id, rule_obj.summary))
        return 0

    paths = args.paths or ["src"]
    baseline = baseline_path = None
    try:
        if not (args.no_baseline or args.write_baseline):
            baseline_path = args.baseline or discover_baseline(paths)
            if baseline_path is not None:
                baseline = Baseline.load(baseline_path)
        if args.fix or args.fix_diff:
            return fix_paths(paths, style=args.fix_style,
                             diff_only=args.fix_diff, baseline=baseline)
        findings, checked_files, stats = run_interproc(
            paths, selected=args.select, cache_dir=args.cache_dir,
            use_cache=not args.no_cache)
        print("staticcheck: re-analyzed %d/%d module(s)"
              % (stats["analyzed"], stats["total"]), file=sys.stderr)
        if stats["discharged"]:
            print("staticcheck: interprocedural summaries discharged "
                  "%d finding(s)" % stats["discharged"], file=sys.stderr)
        if args.witness_trace:
            # Imported lazily: the trace reader loads repro.replay, which
            # more than doubles the CLI's import time.
            from repro.staticcheck.witness import apply_witnesses
            confirmed, static_only = apply_witnesses(
                findings, args.witness_trace)
            print("staticcheck: witness: %d confirmed, %d static-only"
                  % (confirmed, static_only), file=sys.stderr)
    except (LintError, OSError) as exc:
        print("staticcheck: error: %s" % exc, file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or "staticcheck-baseline.txt"
        existing_notes = {}
        if os.path.isfile(target):
            existing_notes = Baseline.load(target).notes
        write_baseline(findings, target, notes=existing_notes)
        print("staticcheck: wrote %d finding(s) to %s"
              % (len(findings), target), file=sys.stderr)
        return 0

    accepted = []
    dead = []
    if baseline is not None:
        findings, accepted = baseline.apply(findings)
        checked_keys = {path_key(name) for name in checked_files}
        dead = baseline.dead_entries(accepted + findings, checked_keys)
        for dead_path, dead_rule in dead:
            print("staticcheck: error: baseline entry %s %s is dead "
                  "(that file/rule produces no finding any more); "
                  "remove it from %s"
                  % (dead_path, dead_rule, baseline_path),
                  file=sys.stderr)
        for stale_path, stale_rule, unused in \
                baseline.stale_entries(accepted + findings):
            if (stale_path, stale_rule) in dead:
                continue
            print("staticcheck: note: baseline entry %s %s has %d "
                  "unused slot(s)" % (stale_path, stale_rule, unused),
                  file=sys.stderr)

    rendered = render_findings(
        findings, args.format, "repro.staticcheck",
        rules={rid: r.summary for rid, r in all_rules().items()})
    if rendered or args.format != "text":
        print(rendered)
    if dead and not findings:
        print("staticcheck: %d dead baseline entr%s" %
              (len(dead), "y" if len(dead) == 1 else "ies"),
              file=sys.stderr)
        return 1
    if findings:
        print("staticcheck: %d new finding(s)%s"
              % (len(findings),
                 " (%d baseline-accepted)" % len(accepted) if accepted
                 else ""),
              file=sys.stderr)
        return 1
    if accepted:
        print("staticcheck: clean (%d baseline-accepted finding(s))"
              % len(accepted), file=sys.stderr)
    return 0
