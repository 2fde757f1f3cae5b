"""A set-associative cache array.

Stores :class:`~repro.cache.line.CacheLine` objects; no coherence state
(see :mod:`repro.cache.coherence`) and no timing (the hierarchy charges
latency). Evictions are returned to the caller, which decides where the
victim goes (next level, home, or nowhere).

Each set is one ``OrderedDict`` (line address -> line) kept in LRU
order, least recent first: a hit is a ``get`` plus ``move_to_end``, a
full-set insert evicts with ``popitem(last=False)``. The replay engine's
fast loop drives the same dicts directly.
"""

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.util.constants import CACHE_LINE_SIZE, is_power_of_two
from repro.util.stats import StatGroup

#: log2(line size), hoisted so set indexing is a shift, not a division.
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1


@dataclass
class CacheConfig:
    """Geometry of one cache level (replacement is always LRU)."""

    size_bytes: int
    ways: int

    @property
    def num_sets(self):
        """Number of sets this geometry yields."""
        return self.size_bytes // (self.ways * CACHE_LINE_SIZE)

    def validate(self, name):
        """Raise :class:`ConfigError` on an impossible geometry."""
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ConfigError("%s: size and ways must be positive" % name)
        if self.size_bytes % (self.ways * CACHE_LINE_SIZE) != 0:
            raise ConfigError("%s: size must divide into ways x lines" % name)
        if not is_power_of_two(self.num_sets):
            raise ConfigError("%s: number of sets must be a power of two" % name)
        return self


class SetAssociativeCache:
    """``num_sets`` LRU sets, each holding up to ``ways`` lines."""

    def __init__(self, name, config):
        config.validate(name)
        self.name = name
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self._set_mask = self.num_sets - 1
        self.stats = StatGroup(name)
        # Per-access counters bound once (hot-path-stat-lookup rule).
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_evictions = self.stats.counter("evictions")
        self._c_invalidations = self.stats.counter("invalidations")

    def lookup(self, line_addr):
        """Return the resident line (refreshing recency) or None."""
        bucket = self._sets[(line_addr >> _LINE_SHIFT) & self._set_mask]
        line = bucket.get(line_addr)
        if line is not None:
            bucket.move_to_end(line_addr)
            self._c_hits.value += 1
        else:
            self._c_misses.value += 1
        return line

    def peek(self, line_addr):
        """Return the resident line without touching recency or stats."""
        return self._sets[(line_addr >> _LINE_SHIFT) & self._set_mask] \
            .get(line_addr)

    def insert(self, line):
        """Insert ``line`` as most recent; return the evicted victim or None.

        If the line address is already resident, its entry is replaced in
        place (data merged by the caller beforehand) and nothing is
        evicted.
        """
        addr = line.addr
        bucket = self._sets[(addr >> _LINE_SHIFT) & self._set_mask]
        victim = None
        if addr in bucket:
            bucket.move_to_end(addr)
        elif len(bucket) >= self.ways:
            victim = bucket.popitem(last=False)[1]
            self._c_evictions.value += 1
        bucket[addr] = line
        return victim

    def remove(self, line_addr):
        """Remove and return the line (None if absent)."""
        line = self._sets[(line_addr >> _LINE_SHIFT) & self._set_mask] \
            .pop(line_addr, None)
        if line is not None:
            self._c_invalidations.value += 1
        return line

    def clear(self):
        """Drop every line (crash / reset)."""
        for bucket in self._sets:
            bucket.clear()

    def lines(self):
        """Iterate over all resident lines (no recency effect).

        Sets come in index order, and each set's lines least recent first.
        """
        for bucket in self._sets:
            yield from bucket.values()

    def __len__(self):
        return sum(len(bucket) for bucket in self._sets)

    def __contains__(self, line_addr):
        return self.peek(line_addr) is not None

    def __repr__(self):
        return "SetAssociativeCache(%s, %d/%d lines)" % (
            self.name, len(self), self.num_sets * self.ways)
