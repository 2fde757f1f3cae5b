"""Exception hierarchy for the PAX reproduction.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch one base class. Subclasses are grouped by the
subsystem that raises them.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AddressError(ReproError):
    """An access targeted an unmapped, misaligned, or out-of-range address."""


class ProtectionError(ReproError):
    """A store hit a read-only page (used by the mprotect baseline)."""

    def __init__(self, addr, message=None):
        self.addr = addr
        super().__init__(message or "write to protected page at 0x%x" % addr)


class PoolError(ReproError):
    """A pool file is missing, corrupt, or version-incompatible."""


class LogError(ReproError):
    """The undo log is corrupt or an append exceeded its capacity."""


class AllocationError(ReproError):
    """The persistent allocator could not satisfy a request."""


class ProtocolError(ReproError):
    """A coherence/CXL message violated the protocol state machine."""


class CrashedError(ReproError):
    """An operation was attempted on a machine that has simulated a crash."""


class LinkError(ReproError):
    """A link-level transfer failed permanently (retransmit budget spent)."""


class RecoveryError(ReproError):
    """Recovery could not restore a consistent snapshot.

    Carries the partial :class:`~repro.core.recovery.RecoveryReport` (when
    one exists) so callers can see how far recovery got — how many records
    were valid, where the log went bad, which epoch slots survived —
    before the error was raised.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ReproError):
    """A component was constructed with invalid configuration."""


class FaultPlanError(ConfigError):
    """A fault plan or chaos timeline is structurally invalid.

    Raised at *build* time — an overlapping or zero-width fault window,
    an unknown window kind, a window missing its payload — so a bad
    drill schedule fails before any traffic is admitted, never mid-run.
    """


class RecoveryTimeout(ReproError):
    """Recovery finished, but took longer than its deadline.

    The pool *is* consistent when this is raised — rollback always runs
    to completion (aborting mid-rollback would leave a torn snapshot).
    The timeout is an SLO signal for serving harnesses: recovery blew
    its budget. Carries the full
    :class:`~repro.core.recovery.RecoveryReport` (including
    ``elapsed_ns``) so callers can see where the time went.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ServeError(ReproError):
    """Base class for serving-harness request failures (:mod:`repro.serve`).

    Subclasses are the typed verdicts a request can fail with; clients
    decide retry behaviour by type, never by string matching.
    """


class Overload(ServeError):
    """A request was rejected at admission: the bounded queue is full."""


class ServeTimeout(ServeError):
    """A request waited past its deadline before the server reached it."""


class ReadOnlyError(ServeError):
    """A write was rejected while the harness is degraded to read-only
    mode (device or link marked unhealthy)."""


class ServeUnavailable(ServeError):
    """A request was in flight when the machine crashed; the client may
    retry after recovery."""


class StructureError(ReproError, IndexError):
    """A persistent data structure was asked for something it cannot do
    (pop from empty, index out of range, enqueue to a full ring).

    Also an :class:`IndexError` so the structures keep Python's container
    protocol (``__getitem__`` ends iteration with IndexError) while still
    being catchable as :class:`ReproError`.
    """


class StatsError(ReproError):
    """A statistics or reporting primitive was misused (e.g. a counter
    asked to decrease, or a table row with the wrong arity)."""


class ChecksumError(ReproError):
    """A checksum kernel was misused: a fixed-length CRC built for a
    non-positive length, or handed input of a length it was not built
    for (see :func:`repro.util.checksum.crc32c_fixed`)."""


class SimulationError(ReproError):
    """Simulated-time machinery was misused (clock moved backwards,
    negative transfer sizes, a stopwatch stopped before starting)."""


class SanitizerError(ReproError):
    """PaxSan detected a persist-ordering violation.

    Raised by :mod:`repro.sanitizer` when the dynamic persist-state
    machine observes an illegal transition — a store reaching PM with no
    undo record covering it, an epoch committed while modified lines were
    still volatile, or a flush/fence ordering inversion. Carries the rule
    id, the offending line address, and the epoch/transaction so findings
    are located, not just described.
    """

    def __init__(self, rule, message, addr=None, epoch=None):
        self.rule = rule
        self.addr = addr
        self.epoch = epoch
        where = ""
        if addr is not None:
            where += " [line 0x%x]" % addr
        if epoch is not None:
            where += " [epoch %d]" % epoch
        super().__init__("%s: %s%s" % (rule, message, where))


class LintError(ReproError):
    """The static linter was misconfigured (unknown rule id, bad plugin,
    unreadable target). Lint *findings* are data, not exceptions."""


class TraceError(ReproError):
    """Base class for trace record/replay failures (repro.replay)."""


class TraceFormatError(TraceError):
    """A trace file is unreadable: bad magic, unsupported version,
    truncated columns, or a CRC mismatch. Raised on load, never on
    replay — a trace that decodes is replayable by construction."""


class TraceUnsupportedError(TraceError):
    """The workload did something recording cannot capture faithfully
    (crash/restart, pipelined persists, store hooks). Callers should
    fall back to the per-access path; see docs/performance.md."""
