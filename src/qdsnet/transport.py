"""Frame transports: in-memory deques and real sockets.

Both paths serialize every frame with the same codec, so protocol
behavior cannot depend on the transport.  Endpoints send and receive
whole frames, and one thread can send on one end of a pair and then
receive on the other, whatever the frame size.  Nothing else can send
while that thread waits, so recv never blocks: on an empty channel it
raises TransportError at once.  A recording wrapper
captures per-message transcript entries for leakage audits and
protocol forensics.
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from dataclasses import dataclass

from .framing import (HEADER_LEN, MAGIC, Frame, MsgType, decode_frame,
                      encode_frame)


class TransportError(RuntimeError):
    """Endpoint closed or stream corrupted."""


_CLOSED = object()
_CHUNK = 1 << 16


class MemoryEndpoint:
    """One end of an in-process bidirectional frame channel."""

    def __init__(self, rx: deque, tx: deque):
        self._rx = rx
        self._tx = tx

    def send(self, frame: Frame) -> None:
        self._tx.append(encode_frame(frame))

    def recv(self) -> Frame:
        if not self._rx:
            raise TransportError("no frame to receive")
        data = self._rx.popleft()
        if data is _CLOSED:
            raise TransportError("endpoint closed")
        frame, used = decode_frame(data)
        if used != len(data):
            raise TransportError("trailing bytes in frame")
        return frame

    def close(self) -> None:
        self._tx.append(_CLOSED)


def memory_pair() -> tuple[MemoryEndpoint, MemoryEndpoint]:
    a_to_b: deque = deque()
    b_to_a: deque = deque()
    return (MemoryEndpoint(rx=b_to_a, tx=a_to_b),
            MemoryEndpoint(rx=a_to_b, tx=b_to_a))


class SocketEndpoint:
    """Frame channel over a connected, non-blocking stream socket.  When
    the socket buffer is full, send drains the linked peer's socket into
    the peer's read buffer, which recv reads first, so one thread can
    pass a frame of any size.  Both ends of a linked pair belong to that
    one thread."""

    _peer: SocketEndpoint  # set by socket_pair

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        self._sock = sock
        self._rbuf = bytearray()

    def _drain(self) -> None:
        try:
            while chunk := self._sock.recv(_CHUNK):
                self._rbuf += chunk
        except BlockingIOError:
            pass

    def _read_exact(self, n: int) -> bytes:
        while len(self._rbuf) < n:
            try:
                chunk = self._sock.recv(max(n - len(self._rbuf), _CHUNK))
            except BlockingIOError:
                raise TransportError("frame incomplete" if self._rbuf
                                     else "no frame to receive") from None
            if not chunk:
                raise TransportError("connection closed mid-frame"
                                     if self._rbuf else "connection closed")
            self._rbuf += chunk
        data = bytes(self._rbuf[:n])
        del self._rbuf[:n]
        return data

    def send(self, frame: Frame) -> None:
        data = memoryview(encode_frame(frame))
        try:
            while data:
                try:
                    data = data[self._sock.send(data):]
                except BlockingIOError:
                    self._peer._drain()
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from None

    def recv(self) -> Frame:
        try:
            header = self._read_exact(HEADER_LEN)
            if header[:4] != MAGIC:
                raise TransportError(f"bad magic {header[:4]!r}")
            (length,) = struct.unpack(">I", header[5:])
            payload = self._read_exact(length)
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from None
        frame, _ = decode_frame(header + payload)
        return frame

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def socket_pair() -> tuple[SocketEndpoint, SocketEndpoint]:
    """Connected local socket pair speaking the frame protocol."""
    a, b = (SocketEndpoint(s) for s in socket.socketpair())
    a._peer, b._peer = b, a
    return a, b


@dataclass(frozen=True)
class TranscriptEntry:
    """One classical message as seen by one party."""

    direction: str  # "send" or "recv"
    msg_type: str
    payload_len: int
    detail: int | None = None  # parity bits answered, request items, tag bits

    def to_dict(self) -> dict:
        return {"direction": self.direction, "msg_type": self.msg_type,
                "payload_len": self.payload_len, "detail": self.detail}


def _detail_of(frame: Frame) -> int | None:
    """Count field of a parity or tag frame; None if it has none."""
    if (frame.msg_type in (MsgType.PARITY_ANSWER, MsgType.PARITY_REQUEST)
            and len(frame.payload) >= 4):
        return struct.unpack_from(">I", frame.payload, 0)[0]
    if frame.msg_type == MsgType.TAG_EXCHANGE and frame.payload:
        return frame.payload[0]
    return None


class RecordingEndpoint:
    """Wraps an endpoint, appending TranscriptEntry per message."""

    def __init__(self, inner, log: list):
        self._inner = inner
        self.log = log

    def send(self, frame: Frame) -> None:
        self.log.append(TranscriptEntry("send", frame.msg_type.name,
                                        len(frame.payload), _detail_of(frame)))
        self._inner.send(frame)

    def recv(self) -> Frame:
        frame = self._inner.recv()
        self.log.append(TranscriptEntry("recv", frame.msg_type.name,
                                        len(frame.payload), _detail_of(frame)))
        return frame

    def close(self) -> None:
        self._inner.close()
