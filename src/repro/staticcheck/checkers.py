"""The flow rules: persist-order, det-taint, pm-escape.

Each flow rule upgrades a syntactic AST rule (``repro.lint.rules``)
with actual control- and data-flow reasoning:

``persist-order``
    The static counterpart of PaxSan's dynamic ``san-missing-undo``: in
    ``structures/`` and ``baselines/`` code, a PM store issued through
    an accessor must be *dominated* by an open tx/persist gate — on
    every path, not just the one a workload happened to execute.
``det-taint``
    Upgrades ``sim-determinism`` from import-matching to taint
    propagation: a value *derived* from wall-clock, ambient entropy,
    ``id()``, or unordered-container iteration must not flow into
    simulated state (clock advances, RNG seeds, message scheduling),
    however many assignments or helper calls it passes through.
``pm-escape``
    Replaces ``pm-direct-write``'s alias blindness: a raw device object
    (``PmDevice`` & co) may not leave its owning module — public
    returns, public attributes, or foreign-module calls — unless it is
    wrapped in a ``repro.mem.accessor`` type or handed to a sanctioned
    owner subsystem first.
"""

import ast

from repro.lint.engine import rule
from repro.staticcheck.dataflow import ForwardAnalysis, TOP


def _name_of(expr):
    """Simple name of an expression: ``x`` -> "x", ``a.b`` -> "b"."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _event_exprs(kind, node):
    """The expressions evaluated by one CFG event, in source order."""
    if kind == "stmt":
        return [node]
    if kind == "test":
        return [node]
    if kind == "for":
        return [node.iter]
    if kind == "with-enter":
        return [item.context_expr for item in node.items]
    return []


# ---------------------------------------------------------------------------
# persist-order
# ---------------------------------------------------------------------------

#: Store verbs on an accessor-like receiver (plus any ``write_uNN``).
_STORE_VERBS = frozenset({"write", "write_bytes", "memset", "memcpy"})

#: Receiver names that identify an accessor / device / address space.
_ACCESSOR_NAMES = frozenset({
    "mem", "_mem", "accessor", "_accessor", "acc", "tx", "_tx",
    "inner", "_inner", "space", "_space", "pm", "_pm", "device", "media",
})

#: ``StructLayout`` views: ``view.set(...)`` is a PM store too.
_VIEW_SET_RECEIVERS = frozenset({"hdr", "_hdr", "view", "header"})

#: Calls opening a transaction gate.
_GATE_OPEN_ATTRS = frozenset({
    "begin", "begin_tx", "tx_begin", "start_tx", "open_tx"})

#: Logging a pre-image (WAL/undo append) also gates the following stores.
_GATE_LOG_ATTRS = frozenset({"append", "log_line", "tx_add"})
_GATE_LOG_RECEIVERS = frozenset({
    "wal", "_wal", "log", "_log", "undo", "_undo", "journal", "_journal"})

#: Calls closing every open gate.
_GATE_CLOSE_ATTRS = frozenset({
    "end", "commit", "tx_end", "end_tx", "abort", "rollback"})

#: ``with x.transaction():`` style context-manager gates.
_WITH_GATE_NAMES = frozenset({"transaction", "tx", "atomic", "guard"})

#: Pseudo-token meaning "whatever gate the caller may hold at the call
#: site" — the interprocedural boundary fact. It is *not* a real gate:
#: a store covered only by ``@entry`` is safe iff every caller calls in
#: gated, which is the summary question ``interproc.py`` answers.
ENTRY_TOKEN = "@entry"
_ENTRY_SET = frozenset({ENTRY_TOKEN})


def _bound_store_names(func):
    """Local names bound to a store method (``write = self._write_u64``)."""
    bound = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Attribute):
            verb = value.attr.lstrip("_")
            if verb in _STORE_VERBS or verb.startswith("write_"):
                bound.add(target.id)
    return bound


def _is_store_call(call, bound_stores):
    """True if ``call`` issues a PM store through an accessor."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in bound_stores
    if not isinstance(func, ast.Attribute):
        return False
    receiver = _name_of(func.value)
    verb = func.attr.lstrip("_")
    if verb in _STORE_VERBS or verb.startswith("write_"):
        if receiver in _ACCESSOR_NAMES:
            return True
        if receiver == "self" and func.attr.startswith("_write"):
            return True
    if func.attr == "set" and receiver in _VIEW_SET_RECEIVERS:
        return True
    return False


def _gate_delta(call):
    """The gate effect of one call: "open", "close", or None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _GATE_OPEN_ATTRS:
        return "open"
    if func.attr in _GATE_CLOSE_ATTRS:
        return "close"
    if func.attr in _GATE_LOG_ATTRS \
            and _name_of(func.value) in _GATE_LOG_RECEIVERS:
        return "open"
    return None


def _with_opens_gate(node):
    """True if a ``with`` statement's context expression is a tx gate."""
    for item in node.items:
        expr = item.context_expr
        call = expr if isinstance(expr, ast.Call) else None
        target = call.func if call is not None else expr
        name = _name_of(target)
        if name in _WITH_GATE_NAMES:
            return True
    return False


class _GateAnalysis(ForwardAnalysis):
    """Must-analysis: the set of gate tokens open on *every* path.

    Per-function use keeps the historical contract: ``report`` collects
    the bare store ``ast.Call`` nodes not covered by any token (the
    fixer's ``placement.py`` consumes exactly that shape).

    The interprocedural layer turns on two extensions:

    * ``entry_gate=True`` seeds the boundary with :data:`ENTRY_TOKEN`,
      so a store covered *only* by the caller's hypothetical gate still
      lands in ``report`` but is also recorded in ``entry_covered`` —
      "safe iff every caller calls in gated";
    * ``resolver`` supplies callee summaries — ``resolver.opens(call)``
      treats a call to a must-open project function as a gate-open, and
      ``resolver.defers_store(call)`` suppresses a store verb that
      resolves to a project function (the callee body is then the thing
      being judged, in its own right).

    When ``call_sites`` is set to a list, every call is appended as
    ``(call, gatedness)`` with gatedness ``"yes"`` (a real token is
    open), ``"entry"`` (only ``@entry``), or ``"no"``; ``store_calls``
    accumulates the ids of every store call seen.
    """

    def __init__(self, bound_stores, report=None, resolver=None,
                 entry_gate=False):
        self._bound_stores = bound_stores
        self._resolver = resolver
        self._entry_gate = entry_gate
        self._entry_set = _ENTRY_SET if entry_gate else frozenset()
        #: When set, uncovered store call nodes are appended here
        #: during the post-solve reporting walk.
        self.report = report
        #: ids of reported calls whose only cover was ``@entry``.
        self.entry_covered = set()
        #: When set to a list, ``(call, gatedness)`` for every call.
        self.call_sites = None
        #: ids of every store call walked (gated or not).
        self.store_calls = set()

    def boundary(self):
        return self._entry_set

    def meet(self, left, right):
        return left & right

    def transfer(self, fact, kind, node):
        if kind == "with-enter":
            if _with_opens_gate(node):
                return fact | {"with:%d" % node.lineno}
            return fact
        if kind == "with-exit":
            return frozenset(t for t in fact
                             if t != "with:%d" % node.lineno)
        if kind == "except":
            # An exception may have interrupted the gated region at any
            # point; trust nothing (not even the caller's gate).
            return frozenset()
        for expr in _event_exprs(kind, node):
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                is_store = _is_store_call(call, self._bound_stores)
                if is_store and self._resolver is not None \
                        and self._resolver.defers_store(call):
                    is_store = False
                real = fact - self._entry_set
                if self.call_sites is not None:
                    gated = "yes" if real else ("entry" if fact else "no")
                    self.call_sites.append((call, gated))
                if is_store:
                    self.store_calls.add(id(call))
                    if self.report is not None and not real:
                        self.report.append(call)
                        if fact:
                            self.entry_covered.add(id(call))
                delta = _gate_delta(call)
                if delta is None and self._resolver is not None \
                        and self._resolver.opens(call):
                    delta = "open"
                if delta == "open":
                    fact = fact | {"tx"}
                elif delta == "close":
                    fact = frozenset()
        return fact


@rule("persist-order",
      "accessor stores in structures/baselines must be dominated by "
      "an open tx/persist gate")
def check_persist_order(ctx):
    """Flag PM stores not covered by a transaction gate on all paths.

    A gate opens at ``*.begin(...)`` / ``wal.append(...)`` / ``with
    x.transaction():`` and closes at ``*.end()`` / ``*.commit()`` (or
    when an exception handler is entered). The analysis is a forward
    *must* problem — a gate opened on only one arm of a branch does not
    cover the join — which is exactly the all-paths guarantee crash
    consistency needs and dynamic sanitizers cannot give.
    """
    if not ctx.has_segment("structures", "baselines"):
        return
    interproc = ctx.interproc
    for qualname, func in ctx.functions():
        bound_stores = _bound_store_names(func)
        cfg = ctx.cfg(func)
        resolver = None
        if interproc is not None:
            resolver = interproc.gate_resolver(ctx.path, qualname, func)
        entry_gate = interproc is not None
        solver = _GateAnalysis(bound_stores, resolver=resolver,
                               entry_gate=entry_gate)
        in_facts = solver.solve(cfg)
        reporter = _GateAnalysis(bound_stores, report=[], resolver=resolver,
                                 entry_gate=entry_gate)
        seen = set()
        for block in cfg.blocks:
            fact = in_facts.get(block, TOP)
            if fact is TOP:
                continue
            reporter.report = []
            reporter.block_out(fact, block)
            for call in reporter.report:
                location = (call.lineno, call.col_offset)
                if location in seen:
                    continue
                seen.add(location)
                if interproc is not None:
                    interproc.register_store(
                        ctx.path, call.lineno, call.col_offset, qualname,
                        entry_dep=id(call) in reporter.entry_covered)
                yield (call.lineno, call.col_offset,
                       "PM store through an accessor is not dominated by "
                       "an open tx/persist gate (static san-missing-undo)")


# ---------------------------------------------------------------------------
# det-taint
# ---------------------------------------------------------------------------

#: Modules any call into which yields a non-deterministic value.
_NONDET_MODULES = frozenset({"time", "random", "datetime", "secrets",
                             "uuid"})

#: Files fencing non-determinism behind seeded interfaces (mirrors the
#: ``sim-determinism`` lint sanction list).
_TAINT_SANCTIONED = ("sim/rng.py", "sim/clock.py", "perfbench/")

#: Sink receivers/attrs: calls that mutate simulated state.
_SINK_METHODS = {
    "advance": frozenset({"clock", "_clock"}),
    "tick": frozenset({"clock", "_clock"}),
    "seed": frozenset({"rng", "_rng"}),
    "reseed": frozenset({"rng", "_rng"}),
    "jump": frozenset({"rng", "_rng"}),
    "schedule": frozenset({"sim", "_sim", "scheduler", "_scheduler"}),
    "submit": frozenset({"bandwidth", "_bandwidth", "link", "_link"}),
    "record": frozenset({"bandwidth", "_bandwidth"}),
    "send": frozenset({"link", "_link", "bus", "_bus"}),
    "send_h2d": frozenset({"link", "_link"}),
    "send_d2h": frozenset({"link", "_link"}),
    "deliver": frozenset({"link", "_link", "bus", "_bus"}),
    "enqueue": frozenset({"queue", "_queue", "scheduler", "_scheduler"}),
}

#: Constructors whose arguments seed simulated state.
_SINK_CONSTRUCTORS = frozenset({
    "Rng", "SeededRng", "DeterministicRng", "SimClock", "Clock"})

_TAINT = "t"
_UNORDERED = "u"


def _unordered_literal(expr):
    """True for expressions producing hash-ordered containers."""
    if isinstance(expr, (ast.Set, ast.Dict)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset", "dict")
    return False


class _TaintAnalysis(ForwardAnalysis):
    """May-analysis: tagged names — ("t", x) tainted, ("u", x) unordered."""

    def __init__(self, ctx, summaries):
        self._ctx = ctx
        self._summaries = summaries

    def boundary(self):
        return frozenset()

    def meet(self, left, right):
        return left | right

    # -- source / taint predicates ---------------------------------------

    def _module_of(self, name):
        module = self._ctx.imports.get(name)
        if module is not None:
            return module
        # Unimported bare receiver named like the module (fixtures,
        # function-local imports the map already caught via ast.walk).
        if name in _NONDET_MODULES or name == "os":
            return name
        return None

    def _is_source_call(self, call):
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                return True
            module = self._ctx.imports.get(func.id)
            if module in _NONDET_MODULES:
                return True
            if module == "os" and "urandom" in func.id:
                return True
            return self._summary_tainted(("local", func.id))
        if isinstance(func, ast.Attribute):
            receiver = _name_of(func.value)
            module = self._module_of(receiver) if receiver else None
            if module in _NONDET_MODULES:
                return True
            if module == "os" and func.attr == "urandom":
                return True
        return False

    def _summary_tainted(self, callee):
        if self._summaries is None:
            return False
        return self._summaries.tainted(callee)

    def expr_tainted(self, expr, fact):
        """True if evaluating ``expr`` can yield a tainted value."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                and expr.func.id == "sorted":
            # sorted() restores a deterministic order; only genuine value
            # taint inside the arguments survives.
            return any(self._value_taint_only(arg, fact)
                       for arg in expr.args)
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and (_TAINT, node.id) in fact:
                return True
            if isinstance(node, ast.Call):
                if self._is_source_call(node):
                    return True
                if self._consumes_unordered(node, fact):
                    return True
        return False

    def _value_taint_only(self, expr, fact):
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and (_TAINT, node.id) in fact:
                return True
            if isinstance(node, ast.Call) and self._is_source_call(node):
                return True
        return False

    def _consumes_unordered(self, call, fact):
        """iter()/list()/tuple() over, or .pop() on, an unordered name."""
        func = call.func
        if isinstance(func, ast.Name) and func.id in ("iter", "list",
                                                      "tuple", "next"):
            return any(isinstance(arg, ast.Name)
                       and (_UNORDERED, arg.id) in fact
                       for arg in call.args)
        if isinstance(func, ast.Attribute) and func.attr == "pop":
            receiver = func.value
            return isinstance(receiver, ast.Name) \
                and (_UNORDERED, receiver.id) in fact
        return False

    def iter_tainted(self, iter_expr, fact):
        """Taint for a loop target: tainted iterable or unordered order."""
        if isinstance(iter_expr, ast.Call) \
                and isinstance(iter_expr.func, ast.Name) \
                and iter_expr.func.id == "sorted":
            return any(self._value_taint_only(arg, fact)
                       for arg in iter_expr.args)
        if isinstance(iter_expr, ast.Name) \
                and (_UNORDERED, iter_expr.id) in fact:
            return True
        if _unordered_literal(iter_expr):
            return True
        return self.expr_tainted(iter_expr, fact)

    # -- transfer ---------------------------------------------------------

    @staticmethod
    def _target_names(target):
        names = []
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.append(node.id)
        return names

    def transfer(self, fact, kind, node):
        if kind == "except":
            if node.name:
                fact = frozenset(t for t in fact if t[1] != node.name)
            return fact
        if kind == "for":
            tainted = self.iter_tainted(node.iter, fact)
            for name in self._target_names(node.target):
                fact = frozenset(t for t in fact if t[1] != name)
                if tainted:
                    fact = fact | {(_TAINT, name)}
            return fact
        if kind == "with-enter":
            for item in node.items:
                if item.optional_vars is None:
                    continue
                tainted = self.expr_tainted(item.context_expr, fact)
                for name in self._target_names(item.optional_vars):
                    if tainted:
                        fact = fact | {(_TAINT, name)}
            return fact
        if kind != "stmt":
            return fact

        if isinstance(node, ast.Assign):
            tainted = self.expr_tainted(node.value, fact)
            unordered = _unordered_literal(node.value) or (
                isinstance(node.value, ast.Name)
                and (_UNORDERED, node.value.id) in fact)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fact = frozenset(t for t in fact if t[1] != target.id)
                    if tainted:
                        fact = fact | {(_TAINT, target.id)}
                    if unordered:
                        fact = fact | {(_UNORDERED, target.id)}
                else:
                    for name in self._target_names(target):
                        if tainted and isinstance(target, (ast.Tuple,
                                                           ast.List)):
                            fact = fact | {(_TAINT, name)}
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) \
                    and self.expr_tainted(node.value, fact):
                fact = fact | {(_TAINT, node.target.id)}
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None and isinstance(node.target, ast.Name):
                fact = frozenset(t for t in fact if t[1] != node.target.id)
                if self.expr_tainted(node.value, fact):
                    fact = fact | {(_TAINT, node.target.id)}
        return fact

    # -- sinks ------------------------------------------------------------

    def sink_findings(self, fact, kind, node):
        """Findings for tainted values reaching sinks in one event."""
        for expr in _event_exprs(kind, node):
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                for finding in self._check_sink_call(call, fact):
                    yield finding
        if kind == "stmt" and isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and "seed" in target.attr \
                        and self.expr_tainted(node.value, fact):
                    yield (node.lineno, node.col_offset,
                           "non-deterministic value stored into %r; seeds "
                           "must come from config or sim.rng"
                           % target.attr)

    def _check_sink_call(self, call, fact):
        tainted_args = [arg for arg in call.args
                        if self.expr_tainted(arg, fact)]
        tainted_kw = [kw for kw in call.keywords
                      if kw.arg is not None
                      and self.expr_tainted(kw.value, fact)]
        if not tainted_args and not tainted_kw:
            return
        for kw in tainted_kw:
            if kw.arg == "seed":
                yield (call.lineno, call.col_offset,
                       "non-deterministic value flows into seed=; "
                       "determinism taint (use sim.rng / sim.clock)")
                return
        func = call.func
        if isinstance(func, ast.Name) and func.id in _SINK_CONSTRUCTORS:
            yield (call.lineno, call.col_offset,
                   "non-deterministic value flows into %s(); simulated "
                   "state must be seeded deterministically" % func.id)
            return
        if isinstance(func, ast.Attribute):
            receivers = _SINK_METHODS.get(func.attr)
            if receivers and _name_of(func.value) in receivers:
                yield (call.lineno, call.col_offset,
                       "non-deterministic value flows into simulated "
                       "state via .%s(); determinism taint" % func.attr)


def _module_sanctioned_for_taint(key):
    return key.endswith("sim.rng") or key.endswith("sim.clock") \
        or ".perfbench" in key or key.endswith("perfbench")


class NameTaintSummaries:
    """Name-keyed taint oracle (the historical per-function behaviour).

    ``tainted(callee)`` answers by bare function name — conservative
    against same-named functions in different modules; the
    interprocedural oracle in ``interproc.py`` resolves identity
    through the call graph instead.
    """

    __slots__ = ("names",)

    def __init__(self, names):
        self.names = names

    def tainted(self, callee):
        """True if the callee descriptor's bare name is tainted."""
        return callee[1] in self.names

    def __contains__(self, name):      # keeps `"f" in summaries` working
        return name in self.names


def _taint_summaries(ctx):
    """Oracle for "does this function return a tainted value?".

    Computed once per ProjectIndex and cached on it: a function is
    taint-returning if it has a value-returning ``return`` and its body
    contains a direct non-determinism source or a call to a function
    already in the set. Iterated to fixpoint over the call graph.
    """
    project = ctx.project
    if project is None:
        return None
    cached = getattr(project, "_taint_summaries", None)
    if cached is not None:
        return cached

    def returns_value(func):
        return any(isinstance(n, ast.Return) and n.value is not None
                   for n in ast.walk(func))

    def has_direct_source(module, func):
        analysis = _TaintAnalysis(
            _ModuleImportsShim(module), None)
        return any(isinstance(n, ast.Call) and analysis._is_source_call(n)
                   for n in ast.walk(func))

    tainted = set()
    infos = []
    for module in project.modules.values():
        if _module_sanctioned_for_taint(module.key):
            continue
        for info in set(module.functions.values()):
            infos.append((module, info))
            if returns_value(info.node) \
                    and has_direct_source(module, info.node):
                tainted.add(info.node.name)

    for _round in range(10):
        changed = False
        for module, info in infos:
            if info.node.name in tainted:
                continue
            if not returns_value(info.node):
                continue
            for callee in info.calls:
                resolved = project.resolve(module, callee)
                if resolved is not None and resolved.node.name in tainted:
                    tainted.add(info.node.name)
                    changed = True
                    break
        if not changed:
            break
    oracle = NameTaintSummaries(tainted)
    project._taint_summaries = oracle
    return oracle


class _ModuleImportsShim:
    """Adapter giving _TaintAnalysis an ``imports`` map for a ModuleInfo."""

    def __init__(self, module):
        self.imports = module.imports
        self.project = None


@rule("det-taint",
      "no wall-clock/entropy/iteration-order taint may reach "
      "simulated state")
def check_det_taint(ctx):
    """Track non-determinism through assignments into sim-state sinks.

    Sources: calls into ``time`` / ``random`` / ``datetime`` /
    ``secrets`` / ``uuid`` / ``os.urandom``, ``id()``, iteration over
    hash-ordered containers, and calls to project functions that
    (transitively) return such values. Sinks: clock advances, RNG
    seeding, scheduler/link submission, ``seed=`` keywords, and
    ``*seed*`` attribute stores. ``sorted(...)`` launders iteration-
    order taint (that is the approved fix), but not value taint.
    """
    if ctx.in_package(*_TAINT_SANCTIONED):
        return
    interproc = ctx.interproc
    summaries = None
    if interproc is not None:
        summaries = interproc.taint_oracle(ctx.path)
    if summaries is None:
        summaries = _taint_summaries(ctx)
    for _qualname, func in ctx.functions():
        cfg = ctx.cfg(func)
        analysis = _TaintAnalysis(ctx, summaries)
        in_facts = analysis.solve(cfg)
        seen = set()
        for block in cfg.blocks:
            fact = in_facts.get(block, TOP)
            if fact is TOP:
                continue
            for kind, node in block.events:
                for finding in analysis.sink_findings(fact, kind, node):
                    location = (finding[0], finding[1])
                    if location not in seen:
                        seen.add(location)
                        yield finding
                fact = analysis.transfer(fact, kind, node)


# ---------------------------------------------------------------------------
# pm-escape
# ---------------------------------------------------------------------------

#: Constructors producing a raw PM/DRAM device object.
_RAW_CONSTRUCTORS = frozenset({
    "PmDevice", "DramDevice", "MemoryDevice", "FaultyPmDevice"})

#: Accessor wrappers that make a raw device safe to hand out.
_ACCESSOR_WRAPPERS = frozenset({
    "RawAccessor", "OffsetAccessor", "CountingAccessor"})

#: Modules that legitimately own raw devices; handing a device *to* them
#: (or code living *in* them) is not an escape.
_OWNER_SEGMENTS = ("pm", "mem", "libpax", "faults")
_OWNER_MODULE_PREFIXES = (
    "repro.pm", "repro.mem", "repro.libpax", "repro.faults")


class _EscapeAnalysis(ForwardAnalysis):
    """May-analysis: local names currently bound to a raw device.

    ``params`` seeds the boundary — the interprocedural summary pass
    uses it to ask "if every parameter were a raw device, would this
    function leak one?". ``callee_safe`` (a ``call -> bool`` predicate)
    discharges foreign-call escapes whose resolved callee is known not
    to leak its parameters.
    """

    def __init__(self, ctx, params=(), callee_safe=None):
        self._ctx = ctx
        self._params = frozenset(params)
        self._callee_safe = callee_safe

    def boundary(self):
        return self._params

    def meet(self, left, right):
        return left | right

    def _is_raw_expr(self, expr, fact):
        if isinstance(expr, ast.Name):
            return expr.id in fact
        if isinstance(expr, ast.Call):
            name = _name_of(expr.func)
            return name in _RAW_CONSTRUCTORS
        return False

    def transfer(self, fact, kind, node):
        if kind != "stmt" or not isinstance(node, ast.Assign):
            return fact
        raw = self._is_raw_expr(node.value, fact)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if raw:
                    fact = fact | {target.id}
                else:
                    fact = fact - {target.id}
        return fact

    # -- escapes ----------------------------------------------------------

    def _sanctioned_call(self, call):
        """True if ``call`` may legitimately consume a raw device: an
        accessor wrapper, or a constructor/function imported from an
        owner subsystem (ownership transfer)."""
        name = _name_of(call.func)
        if name in _ACCESSOR_WRAPPERS:
            return True
        if isinstance(call.func, ast.Name):
            module = self._ctx.imports.get(call.func.id)
            if module is not None \
                    and module.startswith(_OWNER_MODULE_PREFIXES):
                return True
        return False

    def _raw_refs(self, expr, fact):
        """Raw names referenced by ``expr`` outside wrapper calls."""
        if expr is None:
            return []
        found = []
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call) and self._sanctioned_call(node):
                continue
            if isinstance(node, ast.Name) and node.id in fact:
                found.append(node)
                continue
            stack.extend(ast.iter_child_nodes(node))
        return found

    def _callee_module(self, call):
        if isinstance(call.func, ast.Name):
            return self._ctx.imports.get(call.func.id)
        return None

    def escape_findings(self, fact, kind, node, func_public):
        if kind != "stmt":
            return
        if isinstance(node, ast.Return):
            if func_public and self._raw_refs(node.value, fact):
                yield (node.lineno, node.col_offset,
                       "raw PM device escapes via public return; wrap it "
                       "in a repro.mem.accessor type first")
            return
        if isinstance(node, ast.Assign):
            raw = self._is_raw_expr(node.value, fact) \
                or bool(self._raw_refs(node.value, fact))
            if raw:
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and _name_of(target.value) == "self" \
                            and not target.attr.startswith("_"):
                        yield (node.lineno, node.col_offset,
                               "raw PM device stored on public attribute "
                               "%r; keep it private or wrap it in an "
                               "accessor" % target.attr)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Yield):
            if func_public and self._raw_refs(node.value.value, fact):
                yield (node.lineno, node.col_offset,
                       "raw PM device escapes via public yield; wrap it "
                       "in a repro.mem.accessor type first")
            return
        # Foreign-module calls taking a raw device argument.
        for call in ast.walk(node):
            if not isinstance(call, ast.Call) or self._sanctioned_call(call):
                continue
            module = self._callee_module(call)
            if module is None:
                continue
            if self._callee_safe is not None and self._callee_safe(call):
                continue
            args = list(call.args) + [kw.value for kw in call.keywords]
            for arg in args:
                if self._raw_refs(arg, fact):
                    yield (call.lineno, call.col_offset,
                           "raw PM device passed to %s (module %s) without "
                           "an accessor wrapper"
                           % (_name_of(call.func), module))
                    break


@rule("pm-escape",
      "raw PM devices must not escape their owning module unwrapped")
def check_pm_escape(ctx):
    """Flag raw device objects leaking out of non-owner modules.

    Tracks aliases through assignments (the blindness of the syntactic
    ``pm-direct-write`` rule), and accepts three legitimate exits: a
    ``repro.mem.accessor`` wrapper call, handing the device to an owner
    subsystem (``repro.pm`` / ``repro.mem`` / ``repro.libpax`` /
    ``repro.faults``), or keeping it on a private attribute.
    """
    if ctx.has_segment(*_OWNER_SEGMENTS):
        return
    interproc = ctx.interproc
    callee_safe = None
    if interproc is not None:
        callee_safe = interproc.escape_oracle(ctx.path)
    for qualname, func in ctx.functions():
        func_public = not func.name.startswith("_")
        cfg = ctx.cfg(func)
        analysis = _EscapeAnalysis(ctx, callee_safe=callee_safe)
        in_facts = analysis.solve(cfg)
        seen = set()
        for block in cfg.blocks:
            fact = in_facts.get(block, TOP)
            if fact is TOP:
                continue
            for kind, node in block.events:
                for finding in analysis.escape_findings(
                        fact, kind, node, func_public):
                    location = (finding[0], finding[1])
                    if location not in seen:
                        seen.add(location)
                        yield finding
                fact = analysis.transfer(fact, kind, node)
