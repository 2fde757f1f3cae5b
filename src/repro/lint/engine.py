"""The analysis engine: rule registry, per-file context and pass,
suppression parsing, file walking, and findings output.

Rules are plugins: a rule is a generator function taking a
:class:`CheckContext` and yielding ``(lineno, col, message)`` tuples;
the :func:`rule` decorator registers it under a stable id. The AST rules
(:mod:`repro.lint.rules`) and the flow rules
(:mod:`repro.staticcheck.checkers`) share this one registry and run in
one per-file pass, :func:`check_source`. The engine owns everything
else — AST parsing, per-line ``# lint: ignore[rule]`` suppressions,
path walking, and rendering. The whole-program run and the CLI live in
:mod:`repro.staticcheck.engine`.
"""

import ast
import json
import os
import re

from repro.errors import LintError

#: ``# lint: ignore`` or ``# lint: ignore[rule-a, rule-b]``.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[a-z0-9\-_,\s]*)\])?")

#: Compound statements: a marker inside their (possibly huge) body must
#: not suppress findings on the header line, so statement-extent lookup
#: only indexes the simple statements.
_COMPOUND_STMTS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For,
    ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try,
)

_RULES = {}


class Rule:
    """One registered rule: an id, a one-line summary, and a checker."""

    __slots__ = ("rule_id", "summary", "check")

    def __init__(self, rule_id, summary, check):
        self.rule_id = rule_id
        self.summary = summary
        self.check = check


def rule(rule_id, summary):
    """Decorator registering ``func`` as the checker for ``rule_id``.

    ``func(ctx)`` receives a :class:`CheckContext` and yields
    ``(lineno, col, message)`` findings. Registering the same id twice is
    a programming error and raises :class:`~repro.errors.LintError`.
    """
    if not re.fullmatch(r"[a-z][a-z0-9\-]*", rule_id):
        raise LintError("rule id %r must be kebab-case" % (rule_id,))

    def decorator(func):
        if rule_id in _RULES:
            raise LintError("duplicate rule id %r" % (rule_id,))
        _RULES[rule_id] = Rule(rule_id, summary, func)
        return func
    return decorator


def _catalogue():
    """The registry with both built-in catalogues registered."""
    # Imported lazily: both catalogues import this module to register.
    import repro.lint.rules  # noqa: F401
    import repro.staticcheck.checkers  # noqa: F401
    return _RULES


def all_rules():
    """The registered catalogue as ``{rule_id: Rule}`` (a copy)."""
    return dict(_catalogue())


class LintFinding:
    """One located finding: file, position, rule id, message."""

    __slots__ = ("path", "lineno", "col", "rule_id", "message",
                 "properties")

    def __init__(self, path, lineno, col, rule_id, message,
                 properties=None):
        self.path = path
        self.lineno = lineno
        self.col = col
        self.rule_id = rule_id
        self.message = message
        #: Optional extra facts (e.g. the witness verdict); emitted as
        #: the SARIF result property bag and extra JSON keys when set.
        self.properties = properties

    def render(self):
        """``path:line:col: rule-id message`` (editor-clickable)."""
        return "%s:%d:%d: %s %s" % (self.path, self.lineno, self.col,
                                    self.rule_id, self.message)

    def __repr__(self):
        return "LintFinding(%s)" % self.render()


class CheckContext:
    """Everything a rule may inspect about one file.

    The AST rules read ``tree``/``lines`` and the path predicates; the
    flow rules add the lazily built module facts (``imports``,
    ``functions()``, per-function ``cfg()``), which cost nothing for a
    rule that never asks.
    """

    def __init__(self, path, source, tree, project=None, interproc=None):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: Path normalized to forward slashes, for module-scope predicates.
        self.norm_path = path.replace(os.sep, "/")
        #: ProjectIndex over the whole run (None for single-file calls).
        self.project = project
        #: InterprocAnalysis in the whole-program run (else None); flow
        #: rules consult it for callee summaries and register candidate
        #: metadata on it.
        self.interproc = interproc
        self._cfgs = {}
        self._functions = None
        self._imports = None

    # -- path scoping -----------------------------------------------------

    def in_package(self, *suffixes):
        """True if this file lives at one of ``suffixes`` inside the
        ``repro`` package (e.g. ``"pm/"`` or ``"sim/rng.py"``)."""
        marker = "/repro/"
        index = self.norm_path.rfind(marker)
        if index < 0:
            if self.norm_path.startswith("repro/"):
                relative = self.norm_path[len("repro/"):]
            else:
                return False
        else:
            relative = self.norm_path[index + len(marker):]
        return any(relative == s or relative.startswith(s) for s in suffixes)

    def has_segment(self, *names):
        """True if any path component equals one of ``names``.

        Unlike :meth:`in_package` this matches fixture trees too
        (``tests/fixtures/staticcheck/structures/bad.py`` has a
        ``structures`` segment), which is what keeps the seeded-violation
        fixtures honest: they run through exactly the production scoping.
        """
        parts = self.norm_path.split("/")
        return any(name in parts for name in names)

    # -- module facts -----------------------------------------------------

    @property
    def imports(self):
        """Local name -> source module, from top-level imports."""
        if self._imports is None:
            imports = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        imports[local] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        imports[alias.asname or alias.name] = node.module
            self._imports = imports
        return self._imports

    def functions(self):
        """Every function in the file as ``(qualname, node)``, including
        nested functions and methods (lambdas are not CFG material)."""
        if self._functions is None:
            collected = []

            def visit(body, prefix):
                for node in body:
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        qualname = prefix + node.name
                        collected.append((qualname, node))
                        visit(node.body, qualname + ".")
                    elif isinstance(node, ast.ClassDef):
                        visit(node.body, prefix + node.name + ".")
                    else:
                        # Descend into compound statements (if/for/try/
                        # with bodies) so arbitrarily nested defs are
                        # found at the same qualname prefix.
                        nested = [child for child in ast.iter_child_nodes(node)
                                  if isinstance(child, ast.stmt)]
                        if nested:
                            visit(nested, prefix)
            visit(self.tree.body, "")
            self._functions = collected
        return self._functions

    def cfg(self, func):
        """The (cached) CFG for one function node."""
        if func not in self._cfgs:
            # Imported lazily: repro.staticcheck imports this module.
            from repro.staticcheck.cfg import build_cfg
            self._cfgs[func] = build_cfg(func)
        return self._cfgs[func]


def _suppressed_rules(line):
    """Return None (no marker), "all", or a set of suppressed rule ids."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    listed = match.group("rules")
    if listed is None or not listed.strip():
        return "all"
    return {item.strip() for item in listed.split(",") if item.strip()}


def iter_function_nodes(tree):
    """Yield every function-like node: defs, async defs, and lambdas.

    ``ast.walk`` order, so nested functions, methods of nested classes,
    and lambdas buried in expressions are all visited — rules that scope
    per-function must use this rather than scanning top-level bodies.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            yield node


class SuppressionIndex:
    """Per-file ``# lint: ignore`` lookup, aware of multi-line statements.

    A finding is anchored to the line its AST node *starts* on, but the
    human editing the file naturally appends the marker to the line they
    are looking at — which for a wrapped call or a parenthesised
    expression may be the statement's *last* line. The index therefore
    honours a marker on the finding line itself, or on the first or last
    line of the smallest *simple* statement enclosing it. Compound
    statements (def/if/try/...) are excluded so a marker deep inside a
    body cannot blanket-suppress its header.
    """

    def __init__(self, lines, tree=None):
        self._lines = lines
        self._extents = []
        if tree is not None:
            for node in ast.walk(tree):
                if isinstance(node, ast.stmt) \
                        and not isinstance(node, _COMPOUND_STMTS):
                    end = getattr(node, "end_lineno", None) or node.lineno
                    if end > node.lineno:
                        self._extents.append((node.lineno, end))

    def _marker_lines(self, lineno):
        """Line numbers whose marker may suppress a finding at ``lineno``."""
        lines = {lineno}
        best = None
        for start, end in self._extents:
            if start <= lineno <= end:
                if best is None or (end - start) < (best[1] - best[0]):
                    best = (start, end)
        if best is not None:
            lines.update(best)
        return lines

    def suppressed(self, lineno, rule_id):
        """True if ``rule_id`` is suppressed for a finding at ``lineno``."""
        for line_no in self._marker_lines(lineno):
            if not 0 < line_no <= len(self._lines):
                continue
            marks = _suppressed_rules(self._lines[line_no - 1])
            if marks == "all" or (marks is not None and rule_id in marks):
                return True
        return False


#: Version of the ``--format json`` payload; bumped on incompatible
#: shape changes.
JSON_SCHEMA_VERSION = 1


def findings_to_json(findings):
    """Serialize findings as a schema-tagged JSON object.

    The payload is ``{"schema": 1, "findings": [...]}`` so consumers can
    detect shape changes instead of silently misparsing them.
    """
    entries = []
    for finding in findings:
        entry = {"path": finding.path, "line": finding.lineno,
                 "col": finding.col, "rule": finding.rule_id,
                 "message": finding.message}
        # Extra keys only when a pass attached them — the base shape
        # stays exactly five keys for existing consumers.
        properties = getattr(finding, "properties", None)
        if properties:
            entry.update(properties)
        entries.append(entry)
    return json.dumps(
        {"schema": JSON_SCHEMA_VERSION, "findings": entries},
        indent=2)


#: SARIF version emitted by ``--format sarif``; the minimal subset
#: GitHub code scanning ingests for inline annotations.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def findings_to_sarif(findings, tool_name, rules=None):
    """Serialize findings as a SARIF 2.1.0 log (one run).

    ``rules`` maps rule ids to one-line summaries for the tool's rule
    catalogue; ids seen only in findings are added with no summary.
    Columns are 0-based internally but SARIF is 1-based, hence the +1.
    """
    catalogue = dict(rules or {})
    for finding in findings:
        catalogue.setdefault(finding.rule_id, "")
    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule_id,
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace(os.sep, "/"),
                    },
                    "region": {
                        "startLine": finding.lineno,
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        }
        properties = getattr(finding, "properties", None)
        if properties:
            result["properties"] = dict(properties)
        results.append(result)
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "rules": [
                    {"id": rule_id,
                     "shortDescription": {"text": summary or rule_id}}
                    for rule_id, summary in sorted(catalogue.items())
                ],
            }},
            "results": results,
        }],
    }
    return json.dumps(log, indent=2)


def render_findings(findings, fmt, tool_name, rules=None):
    """One findings payload in ``fmt``: "text", "json", or "sarif"."""
    if fmt == "json":
        return findings_to_json(findings)
    if fmt == "sarif":
        return findings_to_sarif(findings, tool_name, rules=rules)
    if fmt != "text":
        raise LintError("unknown output format %r" % (fmt,))
    return "\n".join(finding.render() for finding in findings)


def check_source(path, source, project=None, selected=None,
                 interproc=None):
    """Check one source string; returns a list of :class:`LintFinding`.

    ``selected`` restricts the run to an iterable of rule ids (all
    registered rules when None). Unknown ids raise
    :class:`~repro.errors.LintError`. Syntax errors are reported as a
    finding under the pseudo-rule ``parse-error`` rather than raised, so
    one broken file cannot hide the rest of the tree's findings.
    Suppressions are honoured per line (with multi-line statement
    awareness). ``project`` and ``interproc`` are the whole-program
    run's call graph and analysis: with them the flow rules resolve
    gates through callee summaries and register candidate metadata for
    the discharge filter; without them they check each function alone.
    """
    rules = _select(selected)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 1, exc.offset or 0,
                            "parse-error", str(exc.msg))]
    ctx = CheckContext(path, source, tree, project=project,
                       interproc=interproc)
    suppressions = SuppressionIndex(ctx.lines, tree)
    findings = []
    for rule_obj in rules:
        for lineno, col, message in rule_obj.check(ctx):
            if suppressions.suppressed(lineno, rule_obj.rule_id):
                continue
            findings.append(
                LintFinding(path, lineno, col, rule_obj.rule_id, message))
    findings.sort(key=lambda f: (f.lineno, f.col, f.rule_id))
    return findings


def _select(selected):
    rules = _catalogue()
    if selected is None:
        return list(rules.values())
    chosen = []
    for rule_id in selected:
        if rule_id not in rules:
            raise LintError("unknown rule %r (have %s)"
                            % (rule_id, ", ".join(sorted(rules))))
        chosen.append(rules[rule_id])
    return chosen


def iter_python_files(paths):
    """Yield every ``.py`` file under ``paths`` (files or directories)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__")
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise LintError("no such file or directory: %r" % (path,))
