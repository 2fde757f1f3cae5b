"""PAX device configuration."""

from dataclasses import dataclass

from repro.errors import ConfigError

#: Drain-credit saturation floor (bytes). The undo log and the write-back
#: buffer each earn drain credit at their drain rate for every simulated
#: ns, with no cap. Once both credits are at or above CREDIT_SAT, nothing
#: is pending and nothing is buffered, the background drain has nothing
#: to decide, and two consumers may stop accruing per advance and settle
#: the credit lazily from an anchor time instead, as
#: ``bps * ((now - anchor) / 1e9)``: the device's dormant tick
#: (:meth:`~repro.core.device.PaxDevice.background_tick`) and the fast
#: replay engine's saturated lane.
#:
#: What the floor protects: every drain decision (``credit >= ENTRY_SIZE``
#: for the log, ``>= 64`` for the write-back buffer) must come out as it
#: would under eager accrual. One event deposits at most one 96 B log
#: record and one 64 B line, so a credit that starts an event at or above
#: CREDIT_LOW (4 KiB) ends it far above either threshold, whichever
#: accrual order produced it; the two orders differ by float rounding,
#: well under a byte. Drain timing, hence every counter and sim_ns, is
#: unchanged. The credits themselves are scratch accounting, not part of
#: the observable machine state. The 16x gap between the two floors keeps
#: a consumer that drops back to eager accrual below CREDIT_LOW from
#: flapping. The floor is sized by that invariant, not by the run: a
#: replay lasting a few simulated ms banks only a few MB of credit, so a
#: floor in the MB range would never let either consumer engage.
CREDIT_SAT = float(1 << 16)
CREDIT_LOW = float(1 << 12)


@dataclass
class PaxConfig:
    """Tunables of one PAX device instance.

    Defaults model the paper's target: an FPGA/ASIC device with a sizeable
    HBM cache of PM, a bounded SRAM write-back buffer, and asynchronous
    undo logging that drains at device speed. Every knob is swept by an
    ablation benchmark (DESIGN.md §4).
    """

    #: Capacity of the on-device HBM cache of PM, in cache lines.
    #: 0 disables the HBM cache entirely (ablation abl-hbm).
    hbm_lines: int = 16384

    #: Capacity of the modified-line buffer, in cache lines. Overflow
    #: forces evictions gated on undo-entry durability (paper §3.3).
    writeback_buffer_lines: int = 4096

    #: Rate at which the device drains buffered undo entries to the PM log
    #: region, bytes/second of log written.
    log_drain_bps: float = 2e9

    #: Rate of background write-back of buffered modified lines to PM.
    writeback_drain_bps: float = 2e9

    #: Log each line at most once per epoch. Safe (rollback only needs the
    #: epoch-start value) and what the paper implies; ablatable.
    dedup_log_entries: bool = True

    #: Prefer evicting buffered lines whose undo entries are already
    #: durable, avoiding a forced synchronous log pump (paper §3.3).
    prefer_durable_eviction: bool = True

    #: Fixed device pipeline cost charged per message (FPGA/ASIC service).
    device_processing_ns: float = 15.0

    #: Miss-path mechanism spec for the device's PM read path (e.g.
    #: ``"victim:32"``, ``"stream:4x4+nextline:16"``); None/"none"
    #: disables the zoo — see :mod:`repro.cache.mechanisms`.
    mechanisms: str = None

    #: Replacement policy inside the mechanisms that have one.
    mechanism_policy: str = "lru"

    def validate(self):
        """Raise :class:`ConfigError` on inconsistent settings."""
        from repro.cache.mechanisms import make_mechanisms
        make_mechanisms(self.mechanisms, self.mechanism_policy)
        if self.hbm_lines < 0:
            raise ConfigError("hbm_lines cannot be negative")
        if self.writeback_buffer_lines <= 0:
            raise ConfigError("write-back buffer needs at least one line")
        if self.log_drain_bps <= 0 or self.writeback_drain_bps <= 0:
            raise ConfigError("drain rates must be positive")
        if self.device_processing_ns < 0:
            raise ConfigError("processing cost cannot be negative")
        return self
