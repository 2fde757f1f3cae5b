"""The shared analysis engine and the project's AST rules.

:mod:`repro.lint.engine` holds the one rule registry, the per-file
context and pass (:func:`~repro.lint.engine.check_source`), the
suppression syntax and the findings output; :mod:`repro.lint.rules`
holds the AST rules — the bug classes the PAX paper argues hand-written
PM code keeps reintroducing (see docs/analysis-tools.md):

``typed-errors``
    Raise :class:`~repro.errors.ReproError` subclasses, never bare
    builtins, so callers can catch one base class.
``pm-direct-write``
    Only sanctioned modules may write the PM device directly; everything
    else must go through the cache hierarchy or an accessor, or PaxSan
    (and the paper's write-interposition argument) loses visibility.
``sim-determinism``
    No wall-clock or ambient randomness in simulation code; time comes
    from ``sim.clock`` and randomness from ``sim.rng``.
``mutable-default``
    No mutable default arguments.
``hot-path-stat-lookup``
    No string-keyed stat lookups inside per-access hot paths.

The flow rules register in the same registry from
:mod:`repro.staticcheck.checkers`, and all of them run whole-program
from one CLI, ``python -m repro.staticcheck``. Findings can be
suppressed per line with ``# lint: ignore[rule-id]`` (or a bare
``# lint: ignore`` for every rule). New rules register with the
:func:`~repro.lint.engine.rule` decorator.
"""

from repro.lint.engine import (
    CheckContext,
    LintFinding,
    SuppressionIndex,
    all_rules,
    check_source,
    findings_to_json,
    iter_function_nodes,
    rule,
)

__all__ = [
    "CheckContext",
    "LintFinding",
    "SuppressionIndex",
    "all_rules",
    "check_source",
    "findings_to_json",
    "iter_function_nodes",
    "rule",
]
