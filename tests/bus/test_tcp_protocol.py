"""Unit tests for the TCP wire protocol helpers (repro.bus.tcp)."""

import socket
import threading

import pytest

from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.spec import ModuleSpec, spec_from_abstract
from repro.bus.tcp import _MAX_FRAME, recv_frame, send_frame
from repro.errors import TransportError
from repro.state.machine import MACHINES, profile_from_abstract


@pytest.fixture
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip(self, sock_pair):
        left, right = sock_pair
        send_frame(left, ["req", 1, "ping"])
        assert recv_frame(right) == ["req", 1, "ping"]

    def test_binary_payload(self, sock_pair):
        left, right = sock_pair
        packet = bytes(range(256)) * 10
        send_frame(left, ["evt", 0, "deliver_batch", packet])
        frame = recv_frame(right)
        assert frame[3] == packet

    def test_multiple_frames_in_order(self, sock_pair):
        left, right = sock_pair
        for i in range(5):
            send_frame(left, ["req", i, "n"])
        assert [recv_frame(right)[1] for _ in range(5)] == list(range(5))

    def test_closed_connection(self, sock_pair):
        left, right = sock_pair
        left.close()
        with pytest.raises(TransportError, match="closed"):
            recv_frame(right)

    def test_partial_frame(self, sock_pair):
        left, right = sock_pair
        left.sendall(b"\x00\x00\x00\x10abc")  # announces 16, sends 3
        left.close()
        with pytest.raises(TransportError):
            recv_frame(right)

    def test_oversized_announcement_rejected(self, sock_pair):
        left, right = sock_pair
        left.sendall((_MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(TransportError, match="oversized"):
            recv_frame(right)

    def test_concurrent_reader(self, sock_pair):
        left, right = sock_pair
        received = []

        def reader():
            received.append(recv_frame(right))

        thread = threading.Thread(target=reader)
        thread.start()
        send_frame(left, ["rep", 9, True])
        thread.join(5)
        assert received == [["rep", 9, True]]


class TestSpecSerialization:
    def make_spec(self):
        return ModuleSpec(
            name="compute",
            inline_source="def main():\n    pass\n",
            interfaces=[
                InterfaceDecl("display", Role.SERVER, pattern="i", returns="f"),
                InterfaceDecl("sensor", Role.USE, pattern="i"),
            ],
            reconfig_points=["R"],
            attributes={"machine": "alpha"},
        )

    def test_roundtrip(self):
        spec = self.make_spec()
        raw = spec.to_abstract(prepared_source="PREPARED")
        back = spec_from_abstract(raw)
        assert back.name == "compute"
        assert back.inline_source == "PREPARED"
        assert back.interface("display").role is Role.SERVER
        assert back.interface("display").returns == "f"
        assert back.interface("sensor").role is Role.USE
        assert back.attributes == {"machine": "alpha"}
        # Daemons receive already-prepared source: never re-transform.
        assert back.reconfig_points == []

    def test_survives_canonical_encoding(self):
        from repro.state.encoding import decode_any, encode_any

        raw = self.make_spec().to_abstract("SRC")
        assert spec_from_abstract(decode_any(encode_any(raw))).name == "compute"


class TestProfileSerialization:
    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_roundtrip(self, name):
        profile = MACHINES[name]
        back = profile_from_abstract(profile.to_abstract())
        assert back == profile
