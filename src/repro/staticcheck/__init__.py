"""Whole-program static analysis for the repro codebase.

``python -m repro.staticcheck src/repro`` is the one analysis CLI. It
reads every file under the given paths, builds the module-level call
graph (:mod:`repro.staticcheck.callgraph`) and per-function
persistency summaries over it (:mod:`repro.staticcheck.interproc`),
and runs every rule of the shared registry (:mod:`repro.lint.engine`)
in one per-file pass: the AST rules of :mod:`repro.lint.rules` and the
flow rules of :mod:`repro.staticcheck.checkers`, which build
per-function CFGs (:mod:`repro.staticcheck.cfg`) and run forward
dataflow over them (:mod:`repro.staticcheck.dataflow`):

``persist-order``
    Accessor stores in ``structures/`` / ``baselines/`` must be
    dominated by an open tx/persist gate on **all** paths — the static
    counterpart of PaxSan's dynamic ``san-missing-undo``.
``det-taint``
    Wall-clock / entropy / iteration-order values must not *flow* into
    simulated state, however many assignments they pass through.
``pm-escape``
    Raw device objects must not escape their owning module without a
    ``repro.mem.accessor`` wrapper (alias-aware, unlike the syntactic
    ``pm-direct-write`` rule).

``persist-order`` findings can be *repaired*, not just reported:
``--fix`` / ``--fix-diff`` run the gate-placement pass
(:mod:`repro.staticcheck.placement` + :mod:`repro.staticcheck.fixer`)
that inserts ``begin``/``end``, ``with transaction:``, or
``wal.append`` gates as token-preserving line edits, idempotently.
The same pass generates the ``autopass`` baseline backend (see
``repro.staticcheck.autogen``).

Accepted legacy findings live in ``staticcheck-baseline.txt`` with a
justification each; CI fails only on findings beyond the baseline (and
on *dead* entries whose finding no longer exists). Suppressions use
``# lint: ignore[rule-id]``; exit codes are 0 clean / 1 findings /
2 usage error; ``--format json`` and ``--format sarif`` render the
same findings for machines.
"""

from repro.lint.engine import CheckContext, all_rules, check_source, rule
from repro.staticcheck.engine import main, run_interproc
from repro.staticcheck.baseline import Baseline, path_key, write_baseline
from repro.staticcheck.cfg import CFG, build_cfg
from repro.staticcheck.dataflow import (
    TOP,
    ForwardAnalysis,
    SetIntersectAnalysis,
    SetUnionAnalysis,
    dominators,
    postdominators,
)
from repro.staticcheck.callgraph import ProjectIndex, module_key
from repro.staticcheck.fixer import fix_source

__all__ = [
    "Baseline",
    "CFG",
    "CheckContext",
    "ForwardAnalysis",
    "ProjectIndex",
    "SetIntersectAnalysis",
    "SetUnionAnalysis",
    "TOP",
    "all_rules",
    "build_cfg",
    "check_source",
    "dominators",
    "fix_source",
    "main",
    "module_key",
    "path_key",
    "postdominators",
    "rule",
    "run_interproc",
    "write_baseline",
]
