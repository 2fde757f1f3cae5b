"""CXL message vocabulary: validation, wire sizes and response checks."""

import pytest

from repro.cxl import messages as msg
from repro.cxl.adapter import CxlAdapter
from repro.errors import ProtocolError


class TestValidation:
    def test_unaligned_addr_rejected(self):
        with pytest.raises(ProtocolError):
            msg.RdShared(0x41)
        with pytest.raises(ProtocolError):
            msg.SnpData(100)

    def test_aligned_ok(self):
        assert msg.RdShared(0x40).addr == 0x40

    def test_dirty_evict_needs_full_line(self):
        with pytest.raises(ProtocolError):
            msg.DirtyEvict(0x40, b"short")
        assert msg.DirtyEvict(0x40, b"\x00" * 64).wire_bytes == msg.DATA_BYTES

    def test_data_response_state_checked(self):
        with pytest.raises(ProtocolError):
            msg.DataResponse(0x40, b"\x00" * 64, "E")
        assert msg.DataResponse(0x40, b"\x00" * 64, "S").state == "S"

    def test_snp_response_sizes(self):
        empty = msg.SnpResponse(0x40)
        full = msg.SnpResponse(0x40, b"\x00" * 64)
        assert empty.wire_bytes == msg.HEADER_BYTES
        assert full.wire_bytes == msg.DATA_BYTES
        assert not empty.was_dirty
        assert full.was_dirty

    def test_snp_response_partial_data_rejected(self):
        with pytest.raises(ProtocolError):
            msg.SnpResponse(0x40, b"half")


class TestWireSizes:
    def test_address_only_smaller_than_data(self):
        assert msg.RdShared(0x40).wire_bytes < msg.DirtyEvict(
            0x40, b"\x00" * 64).wire_bytes

    def test_rd_own_is_address_only(self):
        assert msg.RdOwn(0x40).wire_bytes == msg.HEADER_BYTES

    def test_names(self):
        assert msg.RdShared(0x40).name == "RdShared"
        assert msg.Go(0x40).name == "Go"


LINE = b"\x00" * 64
DIRTY = b"\x5a" * 64

#: One constructor per message class, taking the address.
MAKERS = {
    "RdShared": lambda addr: msg.RdShared(addr),
    "RdOwn": lambda addr: msg.RdOwn(addr),
    "RdOwn.upgrade": lambda addr: msg.RdOwn(addr, need_data=False),
    "DirtyEvict": lambda addr: msg.DirtyEvict(addr, LINE),
    "CleanEvict": lambda addr: msg.CleanEvict(addr),
    "MemRd": lambda addr: msg.MemRd(addr),
    "MemWr": lambda addr: msg.MemWr(addr, LINE),
    "DataResponse": lambda addr: msg.DataResponse(addr, LINE, "S"),
    "Go": lambda addr: msg.Go(addr),
    "SnpData": lambda addr: msg.SnpData(addr),
    "SnpInv": lambda addr: msg.SnpInv(addr),
    "SnpResponse": lambda addr: msg.SnpResponse(addr),
    "SnpResponse.dirty": lambda addr: msg.SnpResponse(addr, DIRTY),
}


class TestEveryMessageClass:
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("addr", [0x41, 0x7f, 0x20, -1])
    def test_unaligned_addr_rejected(self, kind, addr):
        with pytest.raises(ProtocolError):
            MAKERS[kind](addr)

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_equality_by_class_and_fields(self, kind):
        make = MAKERS[kind]
        assert make(0x40) == make(0x40)
        assert not make(0x40) != make(0x40)
        assert make(0x40) != make(0x80)
        assert make(0x40).name == kind.split(".")[0]
        with pytest.raises(TypeError):
            hash(make(0x40))

    def test_equality_needs_the_same_class(self):
        assert msg.RdShared(0x40) != msg.CleanEvict(0x40)
        assert msg.MemWr(0x40, LINE) != msg.DirtyEvict(0x40, LINE)
        assert msg.DirtyEvict(0x40, LINE) != msg.DirtyEvict(0x40, DIRTY)
        assert msg.RdOwn(0x40) != msg.RdOwn(0x40, need_data=False)
        assert msg.Go(0x40) != msg.Go(0x40, "M")

    def test_repr_lists_fields(self):
        assert repr(msg.RdShared(0x40)) == "RdShared(addr=64)"
        assert repr(msg.RdOwn(0x40, need_data=False)) \
            == "RdOwn(addr=64, need_data=False)"
        assert repr(msg.Go(0x40, "M")) == "Go(addr=64, state='M')"
        assert repr(msg.SnpResponse(0x40)) == "SnpResponse(addr=64, data=None)"

    @pytest.mark.parametrize("kind,size", [
        ("RdShared", msg.HEADER_BYTES), ("RdOwn", msg.HEADER_BYTES),
        ("RdOwn.upgrade", msg.HEADER_BYTES),
        ("DirtyEvict", msg.DATA_BYTES), ("CleanEvict", msg.HEADER_BYTES),
        ("MemRd", msg.HEADER_BYTES), ("MemWr", msg.DATA_BYTES),
        ("DataResponse", msg.DATA_BYTES), ("Go", msg.HEADER_BYTES),
        ("SnpData", msg.HEADER_BYTES), ("SnpInv", msg.HEADER_BYTES),
        ("SnpResponse", msg.HEADER_BYTES),
        ("SnpResponse.dirty", msg.DATA_BYTES),
    ])
    def test_wire_bytes(self, kind, size):
        assert MAKERS[kind](0x40).wire_bytes == size

    def test_was_dirty(self):
        assert msg.SnpResponse(0x40, DIRTY).was_dirty
        assert not msg.SnpResponse(0x40).was_dirty

    def test_data_is_copied_to_bytes(self):
        data = bytearray(DIRTY)
        for message in (msg.DirtyEvict(0x40, data), msg.MemWr(0x40, data),
                        msg.DataResponse(0x40, data, "M"),
                        msg.SnpResponse(0x40, data)):
            assert type(message.data) is bytes and message.data == DIRTY

    @pytest.mark.parametrize("make", [
        lambda: msg.MemWr(0x40, b"short"),
        lambda: msg.DataResponse(0x40, b"short", "S"),
        lambda: msg.DataResponse(0x40, LINE, None),
        lambda: msg.DataResponse(0x40, LINE, "I"),
    ])
    def test_malformed_payload_rejected(self, make):
        with pytest.raises(ProtocolError):
            make()


#: Each request kind with its one well-formed answer.
WELL_FORMED = {
    "RdShared": (msg.RdShared(0x40), msg.DataResponse(0x40, LINE, "S")),
    "RdOwn": (msg.RdOwn(0x40), msg.DataResponse(0x40, LINE, "M")),
    "RdOwn.upgrade": (msg.RdOwn(0x40, need_data=False), msg.Go(0x40, "M")),
    "DirtyEvict": (msg.DirtyEvict(0x40, LINE), msg.Go(0x40)),
    "CleanEvict": (msg.CleanEvict(0x40), msg.Go(0x40)),
}

#: Malformed answers: (request kind, defect, response).
MALFORMED = [
    ("RdShared", "type", msg.Go(0x40)),
    ("RdShared", "type", msg.SnpResponse(0x40, LINE)),
    ("RdShared", "addr", msg.DataResponse(0x80, LINE, "S")),
    ("RdShared", "state", msg.DataResponse(0x40, LINE, "M")),
    ("RdOwn", "type", msg.Go(0x40, "M")),
    ("RdOwn", "addr", msg.DataResponse(0x80, LINE, "M")),
    ("RdOwn", "state", msg.DataResponse(0x40, LINE, "S")),
    ("RdOwn.upgrade", "type", msg.DataResponse(0x40, LINE, "M")),
    ("RdOwn.upgrade", "addr", msg.Go(0x80, "M")),
    ("DirtyEvict", "type", msg.DataResponse(0x40, LINE, "S")),
    ("DirtyEvict", "addr", msg.Go(0x80)),
    ("CleanEvict", "type", msg.SnpData(0x40)),
    ("CleanEvict", "addr", msg.Go(0x80)),
]

#: The diagnostic each defect raises, worded as it always has been.
DIAGNOSTICS = {
    "type": r"^\w+ answered with \w+, protocol requires \w+$",
    "addr": r"^response address 0x80 does not match request 0x40$",
    "state": r"^Rd(Shared|Own) must be granted [SM], got [SM]$",
}


class TestResponseCheckParity:
    @pytest.mark.parametrize("kind", sorted(WELL_FORMED))
    def test_well_formed_answer_accepted(self, kind):
        request, response = WELL_FORMED[kind]
        assert CxlAdapter().check_response(request, response) is response

    @pytest.mark.parametrize("kind,defect,response", MALFORMED,
                             ids=["%s-%s-%s" % (kind, defect, resp.name)
                                  for kind, defect, resp in MALFORMED])
    def test_malformed_answer_raises(self, kind, defect, response):
        request = WELL_FORMED[kind][0]
        with pytest.raises(ProtocolError, match=DIAGNOSTICS[defect]):
            CxlAdapter().check_response(request, response)

    def test_every_request_kind_has_a_wrong_type_and_address_case(self):
        for kind in WELL_FORMED:
            defects = {defect for name, defect, _response in MALFORMED
                       if name == kind}
            assert {"type", "addr"} <= defects

    def test_unknown_request_rejected(self):
        with pytest.raises(ProtocolError):
            CxlAdapter().check_response(msg.SnpData(0x40), msg.Go(0x40))
