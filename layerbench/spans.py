"""Layer spans recorded from outside the simulator.

The benchmark attributes host time to the simulator's packages
(``structures``, ``mem``, ``baselines``, ``cache``, ``cxl``, ``core``,
``pm``, ``libpax``, ``replay``) without editing them: :func:`install`
replaces each *layer entry point* -- a public method another layer calls
into, listed in :data:`ENTRY_POINTS` -- with a wrapper that opens a span
on entry and closes it on exit. Classes are patched before the traced
backend is built, so the bound methods the simulator caches at
construction are the wrappers too.

A span belongs to the package whose source defines the wrapped function.
A layer's *self time* is the sum of its spans' durations minus the part
covered by their child spans. Spans are aggregated as they close (a run
makes millions), so the tracer keeps per-layer totals, per-entry-point
inclusive time, and call counts per (parent layer, layer, entry point).

Two packages have no entry points: ``sim`` (``SimClock.advance`` and the
device's ``background_tick`` callback) and ``util`` (stat counters and
histograms) are reached only through references bound at construction,
so their time stays in the calling layer's self time. Time outside every
span -- the benchmark's own loop -- is the ``residual``.
"""

import contextlib
import functools
import importlib
import time

#: Layers in reporting order.
LAYERS = ("structures", "mem", "baselines", "cache", "cxl", "core", "pm",
          "libpax", "replay")

#: Pseudo-layer of the frame below every span: the benchmark itself.
ROOT = "residual"

#: ``(module, attribute, methods)`` entry points. ``methods`` is a tuple of
#: method names on the class ``attribute``, or None when the attribute is
#: a module-level function looked up at call time. Only methods another
#: layer calls are listed: a call within a layer changes no layer's self
#: time, and every span costs host time.
ENTRY_POINTS = (
    ("repro.structures.hashmap", "HashMap", ("put", "get", "remove", "items")),
    ("repro.mem.accessor", "MemoryAccessor",
     ("read_u8", "write_u8", "read_u16", "write_u16", "read_u32",
      "write_u32", "read_u64", "write_u64", "read_bytes", "write_bytes",
      "memset", "memcpy")),
    ("repro.mem.physical", "MemoryDevice", ("read", "write")),
    ("repro.baselines.base", "StructureBackend", ("put", "get", "remove")),
    ("repro.baselines.pax", "PaxBackend", ("persist", "restart")),
    ("repro.baselines.pmdk", "PmdkBackend",
     ("put", "get", "remove", "persist", "restart")),
    ("repro.baselines.pmdk", "UndoTxAccessor", ("read", "write")),
    ("repro.cache.hierarchy", "CacheHierarchy",
     ("load", "store", "writeback_line", "snoop_shared", "snoop_invalidate",
      "flush_all", "drop_all", "dirty_lines")),
    ("repro.cache.homes", "HostHome", ("acquire", "writeback")),
    ("repro.cxl.port", "DevicePort",
     ("read_shared", "read_own", "evict_dirty", "evict_clean")),
    ("repro.cxl.port", "HostSnoopPort", ("snoop_shared", "snoop_invalidate")),
    ("repro.core.device", "PaxDevice",
     ("handle_message", "persist", "persist_async", "on_crash")),
    ("repro.libpax.machine", "recover_pool", None),
    ("repro.pm.device", "PmDevice", ("write",)),
    ("repro.pm.flush", "FlushModel", ("clwb", "sfence", "persist_range")),
    ("repro.pm.pool", "Pool", ("commit_epoch",)),
    ("repro.pm.log", "UndoLogRegion", ("append", "reset", "scan_report")),
    ("repro.libpax.machine", "CpuAccessor", ("read", "write")),
    ("repro.libpax.machine", "PaxHome", ("acquire", "writeback")),
    ("repro.libpax.machine", "PaxMachine", ("persist", "crash", "restart")),
    ("repro.libpax.machine", "HostMachine", ("crash", "restart")),
    ("repro.libpax.pool", "PaxPool", ("persist", "restart", "reattach_root")),
    ("repro.libpax.allocator", "PmAllocator", ("alloc", "free")),
)


def layer_of(func):
    """The layer a function belongs to: its package under ``repro``."""
    parts = func.__module__.split(".")
    if parts[0] != "repro" or len(parts) < 2 or parts[1] not in LAYERS:
        raise ValueError("%s.%s is not in a traced layer"
                         % (func.__module__, func.__qualname__))
    return parts[1]


class LayerTracer:
    """Span stack with streaming self-time arithmetic.

    :meth:`open` and :meth:`close` bracket one span; ``clock`` is any
    zero-argument seconds counter (tests pass a scripted one). Totals:

    * ``self_s[layer]`` -- span durations minus their children's;
    * ``inclusive_s[name]`` -- whole durations per entry point;
    * ``edges[(parent_layer, layer, name)]`` -- spans opened under a
      parent.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # Frames are [layer, name, start, child seconds]; the bottom frame
        # stands for the benchmark and collects top-level span time.
        self._stack = [[ROOT, ROOT, 0.0, 0.0]]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = {}
        self.edges = {}

    def open(self, layer, name):
        """Start a span of ``layer`` for entry point ``name``."""
        self._stack.append([layer, name, self._clock(), 0.0])

    def close(self):
        """End the innermost span and fold it into the totals."""
        end = self._clock()
        layer, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent[3] += duration
        self.self_s[layer] += duration - child
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration
        edge = (parent[0], layer, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    @property
    def depth(self):
        """Open spans (0 between calls into the simulator)."""
        return len(self._stack) - 1

    def snapshot(self):
        """Copy of the totals, for differencing around a window."""
        if self.depth:
            raise RuntimeError("snapshot taken inside an open span")
        return Totals(dict(self.self_s), dict(self.inclusive_s),
                      dict(self.edges))


class Totals:
    """Tracer totals at one instant; subtract two to get a window."""

    def __init__(self, self_s, inclusive_s, edges):
        self.self_s = self_s
        self.inclusive_s = inclusive_s
        self.edges = edges

    def _combine(self, other, sign):
        def merge(mine, theirs):
            out = dict(mine)
            for key, value in theirs.items():
                out[key] = out.get(key, 0) + sign * value
            return out
        return Totals(merge(self.self_s, other.self_s),
                      merge(self.inclusive_s, other.inclusive_s),
                      merge(self.edges, other.edges))

    def __sub__(self, other):
        return self._combine(other, -1)

    def __add__(self, other):
        return self._combine(other, 1)

    def calls(self, layer, parent=None):
        """Spans of ``layer`` opened, under ``parent`` or any layer."""
        return sum(count for (caller, child, _name), count
                   in self.edges.items()
                   if child == layer and parent in (None, caller))

    def calls_to(self, names, parent):
        """Spans of the entry points ``names`` opened under ``parent``."""
        return sum(count for (caller, _child, name), count
                   in self.edges.items()
                   if name in names and caller == parent)

    def inclusive(self, name):
        """Inclusive seconds of entry point ``name`` (0 if never called)."""
        return self.inclusive_s.get(name, 0.0)


def _span_wrapper(func, tracer, layer, name):
    # LayerTracer.open inlined: this runs millions of times per run.
    push = tracer._stack.append
    clock = tracer._clock
    close_span = tracer.close

    @functools.wraps(func)
    def span(*args, **kwargs):
        push([layer, name, clock(), 0.0])
        try:
            return func(*args, **kwargs)
        finally:
            close_span()

    return span


def _targets():
    """Yield ``(owner, attribute, function, name)`` for every entry point.

    A method a class inherits is patched on the class that defines it, so
    every subclass sharing the code shares the span.
    """
    seen = set()
    for module_name, attr, methods in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if methods is None:
            func = getattr(module, attr)
            yield module, attr, func, "%s.%s" % (module_name, attr)
            continue
        cls = getattr(module, attr)
        for method in methods:
            owner = next(klass for klass in cls.__mro__
                         if method in vars(klass))
            if (owner, method) in seen:
                continue
            seen.add((owner, method))
            func = vars(owner)[method]
            yield owner, method, func, "%s.%s" % (owner.__name__, method)


@contextlib.contextmanager
def install(tracer):
    """Route every entry point through ``tracer`` inside the block.

    Restores the original functions on exit. Objects built inside the
    block keep the wrappers they bound, so build, run and tear down the
    traced backend inside it.
    """
    saved = []
    try:
        for owner, attr, func, name in _targets():
            saved.append((owner, attr, func))
            setattr(owner, attr,
                    _span_wrapper(func, tracer, layer_of(func), name))
        yield tracer
    finally:
        for owner, attr, func in reversed(saved):
            setattr(owner, attr, func)
