"""The batch blob codec refuses what is not exactly one batch, and a
coalescer counts every event frame it loses (``repro.bus.batch``)."""

import struct
import threading

import pytest

from repro.bus.batch import Coalescer, pack_batch, unpack_batch
from repro.errors import InjectedFault, TransportError
from repro.runtime import telemetry

GOOD = pack_batch([(b"wire", [("a", "inp", "")])])
# u32 wire count, u32 length, "wire", then the name table's u32 count.
NAME_TABLE = 4 + 4 + 4


def test_a_packed_batch_round_trips():
    assert unpack_batch(GOOD) == ([b"wire"], [("a", "inp", "", 0)])


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(GOOD[:2], id="count"),
        pytest.param(GOOD[:6], id="wire-table"),
        pytest.param(GOOD[: NAME_TABLE + 5], id="name-table"),
        pytest.param(GOOD[:-3], id="entries"),
    ],
)
def test_a_truncated_blob_is_refused(blob):
    with pytest.raises(TransportError):
        unpack_batch(blob)


def test_a_wire_running_past_the_end_is_refused():
    blob = struct.pack(">II", 1, 100) + b"abc"
    with pytest.raises(TransportError, match="truncated"):
        unpack_batch(blob)


def test_trailing_bytes_are_refused():
    with pytest.raises(TransportError):
        unpack_batch(GOOD + b"\x00")


def test_a_name_that_is_not_utf8_is_refused():
    blob = GOOD.replace(b"\x00\x01a", b"\x00\x01\xff", 1)
    with pytest.raises(TransportError, match="UTF-8"):
        unpack_batch(blob)


def test_a_lost_send_is_counted_and_only_a_real_failure_flares():
    rec = telemetry.enable(capacity=256)
    failures = [InjectedFault("link.send"), TransportError("peer gone")]

    def ship(command):
        raise failures.pop(0) if failures else TransportError("still gone")

    coalescer = Coalescer("unit-host", "deliver_batch", ship, threading.Lock())
    try:
        for _ in range(3):
            coalescer.send(["install_packet", "m", b"x"])
        assert rec.counter("link.events_dropped", key="unit-host") == 3
        flares = [e for e in rec.events() if e.get("kind") == "link.send_failed"]
        assert [f["attrs"]["error"] for f in flares] == [
            "TransportError: peer gone"
        ]
    finally:
        coalescer.close()
        telemetry.disable()
