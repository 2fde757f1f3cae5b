"""CXL.cache message vocabulary.

The subset of CXL 2.0 semantics PAX needs (paper §3-4), as typed message
objects. Directions follow the paper's usage:

Host-to-device (the device is the home of all vPM addresses):

* :class:`RdShared` — a load missed the host LLC; the host wants an
  S-state copy.
* :class:`RdOwn` — the host will modify a line. ``need_data`` is False for
  an S->M permission upgrade where the host already holds the bytes. This
  is the message that gives the device its chance to undo-log (§3.1).
* :class:`DirtyEvict` — the host LLC evicts a modified vPM line; the data
  travels to the device, which buffers it until its undo entry is durable.
* :class:`CleanEvict` — address-only notification of a clean eviction.

Device-to-host:

* :class:`DataResponse` — completion carrying line data plus the granted
  MESI state (``GO-S`` / ``GO-M`` in CXL terms, folded into one message).
* :class:`Go` — data-less completion (upgrade acks, evict acks).
* :class:`SnpData` — the device wants the current value and a downgrade
  to S in all host caches; issued per logged line during ``persist()``
  (§3.3, CXL 2.0 §3.2.4.3).
* :class:`SnpInv` — the device wants the line invalidated everywhere.

Every message is line-granular: ``addr`` must be 64-byte aligned.
"""

from dataclasses import dataclass
from typing import Optional

from repro.errors import ProtocolError
from repro.util.constants import CACHE_LINE_SIZE

#: Bytes on the wire for an address-only message (header + addr + CRC).
HEADER_BYTES = 16
#: Bytes on the wire for a message carrying one line of data.
DATA_BYTES = HEADER_BYTES + CACHE_LINE_SIZE

#: Offset-within-line mask. A message is built on every device
#: transaction, so each ``__post_init__`` tests ``addr & _LINE_MASK``
#: inline and calls :func:`_reject_unaligned` only for a bad address.
_LINE_MASK = CACHE_LINE_SIZE - 1


def _reject_unaligned(addr):
    raise ProtocolError("CXL messages are line-granular; 0x%x is not "
                        "64-byte aligned" % addr)


class Message:
    """Base class; ``wire_bytes`` sizes the link-bandwidth charge."""

    wire_bytes = HEADER_BYTES

    @property
    def name(self):
        """The message's protocol name (its class name)."""
        return type(self).__name__


# -- host-to-device ---------------------------------------------------------

@dataclass
class RdShared(Message):
    """Host load miss: request an S copy of ``addr``."""

    addr: int

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)


@dataclass
class RdOwn(Message):
    """Host store: request M on ``addr``; ``need_data`` False = upgrade."""

    addr: int
    need_data: bool = True

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)


@dataclass
class DirtyEvict(Message):
    """Host LLC eviction of a modified line; carries the data."""

    addr: int
    data: bytes
    wire_bytes = DATA_BYTES

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)
        self.data = bytes(self.data)
        if len(self.data) != CACHE_LINE_SIZE:
            raise ProtocolError("DirtyEvict carries exactly one line")


@dataclass
class CleanEvict(Message):
    """Host LLC eviction of a clean line (address-only hint)."""

    addr: int

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)


@dataclass
class MemRd(Message):
    """CXL.mem read: the device is plain memory; no coherence state.

    Used by the CXL.mem-mode PAX (paper §6): the host memory controller
    treats device memory like local DRAM, so the device never learns who
    caches what.
    """

    addr: int

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)


@dataclass
class MemWr(Message):
    """CXL.mem write: a dirty line (or CLWB) arriving at the device."""

    addr: int
    data: bytes
    wire_bytes = DATA_BYTES

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)
        self.data = bytes(self.data)
        if len(self.data) != CACHE_LINE_SIZE:
            raise ProtocolError("MemWr carries exactly one line")


# -- device-to-host ---------------------------------------------------------

@dataclass
class DataResponse(Message):
    """Completion with data and a granted state ('S' or 'M')."""

    addr: int
    data: bytes
    state: str
    wire_bytes = DATA_BYTES

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)
        self.data = bytes(self.data)
        if len(self.data) != CACHE_LINE_SIZE:
            raise ProtocolError("DataResponse carries exactly one line")
        if self.state not in ("S", "M"):
            raise ProtocolError("granted state must be S or M")


@dataclass
class Go(Message):
    """Data-less completion; ``state`` is the granted state ('M') or None."""

    addr: int
    state: Optional[str] = None

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)


@dataclass
class SnpData(Message):
    """Device-to-host: downgrade to S and forward the current value."""

    addr: int

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)


@dataclass
class SnpInv(Message):
    """Device-to-host: invalidate every cached copy."""

    addr: int

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)


@dataclass
class SnpResponse(Message):
    """Host reply to a snoop; ``data`` is None when no copy was dirty."""

    addr: int
    data: Optional[bytes] = None

    def __post_init__(self):
        if self.addr & _LINE_MASK:
            _reject_unaligned(self.addr)
        if self.data is not None:
            self.data = bytes(self.data)
            if len(self.data) != CACHE_LINE_SIZE:
                raise ProtocolError("SnpResponse data must be one line")
            self.wire_bytes = DATA_BYTES

    @property
    def was_dirty(self):
        """True if the host surrendered modified data."""
        return self.data is not None


HOST_TO_DEVICE = (RdShared, RdOwn, DirtyEvict, CleanEvict)
DEVICE_TO_HOST = (DataResponse, Go, SnpData, SnpInv)
