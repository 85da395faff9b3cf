"""Machine daemons: genuine multi-process distributed operation over TCP.

The in-process placement simulates machines as threads.  A *machine
daemon* is one simulated machine as a real OS process, connected to the
bus process over TCP — the closest a single host gets to the paper's
heterogeneous network of workstations:

- every message and state packet crossing machines travels as canonical
  abstract bytes over a real socket;
- each daemon decodes with its own :class:`MachineProfile`, so moving a
  module between daemons with different simulated architectures
  exercises the full native -> canonical -> native path across process
  boundaries;
- module preparation (the source transformation) happens once, in the
  bus process, ahead of time; daemons receive the already-prepared
  source, mirroring the paper's "prepare when the original program is
  compiled".

This module owns what is TCP-specific: the length-prefixed framing,
:class:`SocketChannel` (a socket as the frame channel
:class:`~repro.bus.link.Link` and :func:`~repro.bus.host.serve_host`
speak over), the daemon's ``hello`` handshake, and the
``python -m repro.bus.tcp`` entry point.  The module hosting inside the
daemon is the same :class:`~repro.bus.host.ModuleHost` serve loop pipe
workers run, and a daemon imports nothing of the bus side: the client
is :class:`~repro.bus.transport.TcpTransport`
(``placement="tcp:<machine>"`` on an ordinary ``SoftwareBus``), which
imports this file, not the other way round.

Wire protocol: frames whose payload is one self-described value in our
own canonical encoding (dogfooding ``repro.state.encoding``).  Each
frame is ``[kind, seq, command, args...]`` with ``kind`` in
``req``/``rep``/``err``/``evt``.  Deliveries and tunneled writes ride
coalesced ``deliver_batch``/``write_batch`` event frames — see
:mod:`repro.bus.batch` and docs/tcp-protocol.md.
"""

from __future__ import annotations

import socket
import struct
import sys
from typing import List, Tuple

from repro.bus.host import serve_host
from repro.errors import TransportError
from repro.runtime import faults, telemetry
from repro.state.encoding import decode_any, encode_any
from repro.state.machine import MachineProfile, profile_from_abstract

__all__ = [
    "SocketChannel",
    "daemon_entry",
    "recv_frame",
    "send_frame",
]

_FRAME_HEADER = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, value: object) -> None:
    # An injected fault (a drop is a crash here) fails the send before
    # any byte is written: a connection delivers each frame or fails.
    faults.fire_hard("tcp.send_frame")
    with telemetry.span("tcp.send_frame") as span:
        payload = encode_any(value)
        if len(payload) > _MAX_FRAME:
            raise TransportError(f"frame too large ({len(payload)} bytes)")
        span.set(bytes=len(payload))
        header = _FRAME_HEADER.pack(len(payload))
        try:
            # Gather write: header and payload leave in one syscall with
            # no concatenation copy of the payload (frames carry whole
            # state packets, so the copy was O(packet) per send).
            sent = sock.sendmsg([header, payload])
            total = len(header) + len(payload)
            if sent < total:  # pragma: no cover - tiny socket buffers only
                sock.sendall(memoryview(header + payload)[sent:])
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
    rec = telemetry.recorder
    if rec is not None:
        rec.count("tcp.frames_sent")
        rec.count("tcp.bytes_sent", n=len(payload))


def recv_frame(sock: socket.socket) -> object:
    # An injected fault (a drop is a crash here) fails the receive before
    # any byte is read, so the frame is still there for the next one.
    faults.fire_hard("tcp.recv_frame")
    header = _recv_exact(sock, _FRAME_HEADER.size)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise TransportError(f"oversized frame announced ({length} bytes)")
    # The span covers payload read + decode, not the idle wait for
    # the header — a listener parked between frames is not "receiving".
    with telemetry.span("tcp.recv_frame", bytes=length):
        value = decode_any(_recv_exact(sock, length))
    rec = telemetry.recorder
    if rec is not None:
        rec.count("tcp.frames_received")
        rec.count("tcp.bytes_received", n=length)
    return value


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class SocketChannel:
    """A connected socket as a frame channel.

    Adapts the length-prefixed framing above to the channel protocol
    consumed by :class:`~repro.bus.link.Link` (``send``/``recv``/
    ``close``), so TCP machine daemons and pipe workers speak to the bus
    through the same link machinery.
    """

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def send(self, value: object) -> None:
        send_frame(self.sock, value)

    def recv(self) -> object:
        return recv_frame(self.sock)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Machine daemon (runs in its own OS process)
# ---------------------------------------------------------------------------


def daemon_entry(
    machine_name: str,
    profile_raw: dict,
    bus_host: str,
    bus_port: int,
    sleep_scale: float,
) -> None:
    """Entry point for the daemon process: connect, say hello, serve."""
    profile = profile_from_abstract(profile_raw)
    sock = socket.create_connection((bus_host, bus_port), timeout=30)
    sock.settimeout(None)
    # Frames are small and latency-bound (request/reply round-trips
    # gate every reconfiguration stage): never wait for Nagle.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = SocketChannel(sock)
    try:
        channel.send(["evt", 0, "hello", machine_name, profile.to_abstract()])
        serve_host(channel, machine_name, profile, sleep_scale)
    finally:
        channel.close()


def _daemon_argv(
    machine_name: str,
    profile: MachineProfile,
    address: Tuple[str, int],
    sleep_scale: float,
) -> List[str]:
    """Command line for ``python -m repro.bus.tcp`` daemon processes."""
    return [
        sys.executable,
        "-m",
        "repro.bus.tcp",
        machine_name,
        profile.endianness.value,
        str(profile.int_bits),
        str(profile.long_bits),
        str(profile.float_bits),
        address[0],
        str(address[1]),
        str(sleep_scale),
    ]


if __name__ == "__main__":
    # Daemon process entry: python -m repro.bus.tcp NAME ENDIAN I L F HOST PORT SCALE
    _name, _endian, _i, _l, _f, _host, _port, _scale = sys.argv[1:9]
    daemon_entry(
        _name,
        {
            "name": _name,
            "endianness": _endian,
            "int_bits": int(_i),
            "long_bits": int(_l),
            "float_bits": int(_f),
        },
        _host,
        int(_port),
        float(_scale),
    )
