"""The coherence-bus-to-CXL adapter layer.

Paper §4: the Enzian prototype sees ThunderX-1 ECI messages, which are
lower-level and microarchitecture-specific; PAX therefore runs behind an
"adapter" that filters and rewrites them into CXL-shaped messages, so the
device logic ports unchanged to commodity CXL hardware. The software
prototype (Pin-based) uses the same layer.

We reproduce that structure: the cache hierarchy's device home emits
*raw bus operations* (:class:`BusOp`), and :class:`CxlAdapter` maps them
onto the typed message set in :mod:`repro.cxl.messages`. The device only
ever consumes CXL messages — the test suite asserts the device never sees
a raw bus op, which is exactly the portability property the paper wants.
"""

from repro.cxl import messages as msg
from repro.errors import ProtocolError
from repro.util.stats import StatGroup

# Message classes bound to module globals for the per-transaction
# exact-type checks in _required_answer and check_response.
_RdShared = msg.RdShared
_RdOwn = msg.RdOwn
_DirtyEvict = msg.DirtyEvict
_CleanEvict = msg.CleanEvict
_DataResponse = msg.DataResponse
_Go = msg.Go


def _required_answer(request):
    """``(response type, granted state or None)`` required for ``request``."""
    kind = type(request)
    if kind is _RdShared:
        return _DataResponse, "S"
    if kind is _RdOwn:
        return (_DataResponse, "M") if request.need_data else (_Go, None)
    if kind is _DirtyEvict or kind is _CleanEvict:
        return _Go, None
    raise ProtocolError("unknown request %r" % (request,))


class BusOp:
    """Raw host coherence-bus operations (microarchitecture-flavoured)."""

    READ_MISS = "read_miss"          # LLC read miss into device-homed range
    WRITE_MISS = "write_miss"        # store miss needing data + ownership
    WRITE_UPGRADE = "write_upgrade"  # S->M upgrade, data already cached
    EVICT_DIRTY = "evict_dirty"      # modified victim leaving the LLC
    EVICT_CLEAN = "evict_clean"      # clean victim notification

    ALL = (READ_MISS, WRITE_MISS, WRITE_UPGRADE, EVICT_DIRTY, EVICT_CLEAN)


class CxlAdapter:
    """Stateless translation between bus ops and CXL.cache messages."""

    def __init__(self):
        self.stats = StatGroup("cxl_adapter")
        # Per-miss translation counters, keyed by op and bound once
        # (hot-path-stat-lookup rule): the op set is closed, so the
        # "translated." + op key concatenation can happen here instead of
        # on every miss.
        self._c_translated = {
            op: self.stats.counter("translated." + op) for op in BusOp.ALL}

    def to_cxl(self, op, addr, data=None):
        """Translate a host bus operation into the CXL request to send."""
        counter = self._c_translated.get(op)
        if counter is not None:
            counter.value += 1
        if op == BusOp.READ_MISS:
            return msg.RdShared(addr)
        if op == BusOp.WRITE_MISS:
            return msg.RdOwn(addr, need_data=True)
        if op == BusOp.WRITE_UPGRADE:
            return msg.RdOwn(addr, need_data=False)
        if op == BusOp.EVICT_DIRTY:
            if data is None:
                raise ProtocolError("dirty eviction needs line data")
            return msg.DirtyEvict(addr, data)
        if op == BusOp.EVICT_CLEAN:
            return msg.CleanEvict(addr)
        raise ProtocolError("unknown bus operation %r" % (op,))

    def expected_response(self, request):
        """The response type the protocol requires for ``request``."""
        return _required_answer(request)[0]

    def check_response(self, request, response):
        """Raise :class:`ProtocolError` if ``response`` is malformed.

        Runs once per device transaction. Messages match by exact type,
        as the device's own dispatch does: the protocol has no message
        subclasses.
        """
        expected, granted = _required_answer(request)
        if type(response) is not expected:
            raise ProtocolError(
                "%s answered with %s, protocol requires %s"
                % (request.name, response.name, expected.__name__))
        if response.addr != request.addr:
            raise ProtocolError(
                "response address 0x%x does not match request 0x%x"
                % (response.addr, request.addr))
        if granted is not None and response.state != granted:
            raise ProtocolError("%s must be granted %s, got %s"
                                % (request.name, granted, response.state))
        return response
