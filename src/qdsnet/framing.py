"""Binary wire format for all role-to-role classical messages.

Every message travels as one frame: 4-byte magic "QDS1", a 1-byte
message type, a 4-byte big-endian payload length, then the payload.
Payload layouts are fixed-width big-endian structs defined here next to
their dataclasses, so the layer stays bit-exact across transports and
store files reuse the same encoding.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

MAGIC = b"QDS1"
HEADER_LEN = 9


class FrameError(ValueError):
    """Malformed frame or payload."""


class MsgType(IntEnum):
    PARITY_REQUEST = 1
    PARITY_ANSWER = 2
    TAG_EXCHANGE = 3
    POSITION_ANNOUNCEMENT = 4
    SIGNATURE_BUNDLE = 5
    KEY_SHARE = 6
    DECISION = 7
    CONTROL = 8


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    payload: bytes


def encode_frame(frame: Frame) -> bytes:
    return MAGIC + struct.pack(">BI", frame.msg_type, len(frame.payload)) \
        + frame.payload


def decode_frame(data: bytes) -> tuple[Frame, int]:
    """Parse one frame from the head of data; returns (frame, bytes used).

    Raises FrameError on bad magic, unknown type, or truncation.
    """
    if len(data) < HEADER_LEN:
        raise FrameError("frame header truncated")
    if data[:4] != MAGIC:
        raise FrameError(f"bad magic {data[:4]!r}")
    type_byte, length = struct.unpack(">BI", data[4:HEADER_LEN])
    try:
        msg_type = MsgType(type_byte)
    except ValueError:
        raise FrameError(f"unknown msg_type {type_byte}") from None
    end = HEADER_LEN + length
    if len(data) < end:
        raise FrameError("frame payload truncated")
    return Frame(msg_type, bytes(data[HEADER_LEN:end])), end


def pack_bits(bits) -> bytes:
    """0/1 array to bytes, big-endian within each byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(data: bytes, n: int) -> np.ndarray:
    """First n bits of data as a uint8 0/1 array."""
    if len(data) * 8 < n:
        raise FrameError(f"need {n} bits, got {len(data) * 8}")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


# --- typed payloads -------------------------------------------------------

@dataclass(frozen=True)
class ParityRequest:
    """Batch of half-open index ranges, in permuted coordinates."""

    items: tuple  # of (chunk, pass_id, lo, hi)

    def encode(self) -> Frame:
        parts = [struct.pack(">I", len(self.items))]
        parts += [struct.pack(">HHII", c, p, lo, hi)
                  for (c, p, lo, hi) in self.items]
        return Frame(MsgType.PARITY_REQUEST, b"".join(parts))

    @classmethod
    def decode(cls, payload: bytes) -> "ParityRequest":
        (count,) = struct.unpack_from(">I", payload, 0)
        if len(payload) != 4 + 12 * count:
            raise FrameError("parity request length does not match count")
        return cls(items=tuple(struct.iter_unpack(">HHII", payload[4:])))


@dataclass(frozen=True)
class ParityAnswer:
    """One parity bit per requested range, in request order."""

    bits: tuple

    def encode(self) -> Frame:
        payload = struct.pack(">I", len(self.bits)) + pack_bits(list(self.bits))
        return Frame(MsgType.PARITY_ANSWER, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "ParityAnswer":
        (count,) = struct.unpack_from(">I", payload, 0)
        bits = unpack_bits(payload[4:], count)
        return cls(bits=tuple(int(b) for b in bits))


@dataclass(frozen=True)
class TagExchange:
    """Verification tag: n_bits of universal hash output."""

    n_bits: int
    tag: bytes

    def encode(self) -> Frame:
        return Frame(MsgType.TAG_EXCHANGE,
                     struct.pack(">B", self.n_bits) + self.tag)

    @classmethod
    def decode(cls, payload: bytes) -> "TagExchange":
        n_bits = payload[0]
        tag = payload[1:]
        if len(tag) != (n_bits + 7) // 8:
            raise FrameError("tag length does not match n_bits")
        return cls(n_bits=n_bits, tag=tag)


@dataclass(frozen=True)
class PositionList:
    """The 2L selected key positions; first half X, second half Y."""

    positions: tuple

    def encode(self) -> Frame:
        payload = struct.pack(">I", len(self.positions)) + \
            np.asarray(self.positions, dtype=">u4").tobytes()
        return Frame(MsgType.POSITION_ANNOUNCEMENT, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "PositionList":
        (count,) = struct.unpack_from(">I", payload, 0)
        if len(payload) != 4 + 4 * count:
            raise FrameError("position list length does not match count")
        arr = np.frombuffer(payload, dtype=">u4", offset=4)
        return cls(positions=tuple(int(p) for p in arr))


@dataclass(frozen=True)
class BundleMsg:
    """Signature transfer: {Sig, M, P_a}."""

    sig: bytes
    message: bytes
    p_a: bytes

    def encode(self) -> Frame:
        if len(self.sig) != len(self.p_a):
            raise FrameError("sig and p_a must have equal length")
        payload = struct.pack(">II", len(self.sig), len(self.message)) \
            + self.sig + self.message + self.p_a
        return Frame(MsgType.SIGNATURE_BUNDLE, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "BundleMsg":
        sig_len, msg_len = struct.unpack_from(">II", payload, 0)
        off = 8
        sig = payload[off:off + sig_len]
        off += sig_len
        message = payload[off:off + msg_len]
        off += msg_len
        p_a = payload[off:off + sig_len]
        if len(sig) != sig_len or len(message) != msg_len or len(p_a) != sig_len:
            raise FrameError("bundle payload truncated")
        return cls(sig=sig, message=message, p_a=p_a)


ROLE_CODES = {"alice": 0, "bob": 1, "charlie": 2}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}


@dataclass(frozen=True)
class KeyShareMsg:
    """One verifier's extracted X/Y key halves."""

    role: str
    x_key: bytes
    y_key: bytes

    def encode(self) -> Frame:
        if len(self.x_key) != len(self.y_key):
            raise FrameError("x_key and y_key must have equal length")
        payload = struct.pack(">BI", ROLE_CODES[self.role], len(self.x_key)) \
            + self.x_key + self.y_key
        return Frame(MsgType.KEY_SHARE, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "KeyShareMsg":
        code, klen = struct.unpack_from(">BI", payload, 0)
        if code not in ROLE_NAMES:
            raise FrameError(f"unknown role code {code}")
        x = payload[5:5 + klen]
        y = payload[5 + klen:5 + 2 * klen]
        if len(x) != klen or len(y) != klen:
            raise FrameError("key share payload truncated")
        return cls(role=ROLE_NAMES[code], x_key=x, y_key=y)


_DECISIONS = {"accept": 0, "reject": 1, "skipped": 2}
_DECISION_NAMES = {v: k for k, v in _DECISIONS.items()}


@dataclass(frozen=True)
class DecisionMsg:
    decision: str
    reason: str = ""

    def encode(self) -> Frame:
        reason = self.reason.encode()
        payload = struct.pack(">BH", _DECISIONS[self.decision], len(reason)) \
            + reason
        return Frame(MsgType.DECISION, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "DecisionMsg":
        code, rlen = struct.unpack_from(">BH", payload, 0)
        if code not in _DECISION_NAMES:
            raise FrameError(f"unknown decision code {code}")
        if len(payload) != 3 + rlen:
            raise FrameError("decision reason length does not match")
        reason = payload[3:].decode()
        return cls(decision=_DECISION_NAMES[code], reason=reason)


@dataclass(frozen=True)
class ControlMsg:
    """Low-rate control plane: hellos, session markers, aborts."""

    kind: str
    fields: dict = field(default_factory=dict)

    def encode(self) -> Frame:
        payload = json.dumps({"kind": self.kind, **self.fields},
                             sort_keys=True).encode()
        return Frame(MsgType.CONTROL, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "ControlMsg":
        obj = json.loads(payload.decode())  # parse_payload maps errors
        if not isinstance(obj, dict):
            raise FrameError("control payload is not an object")
        kind = obj.pop("kind", None)
        if not isinstance(kind, str):
            raise FrameError("control payload missing kind")
        return cls(kind=kind, fields=obj)


_DECODERS = {
    MsgType.PARITY_REQUEST: ParityRequest.decode,
    MsgType.PARITY_ANSWER: ParityAnswer.decode,
    MsgType.TAG_EXCHANGE: TagExchange.decode,
    MsgType.POSITION_ANNOUNCEMENT: PositionList.decode,
    MsgType.SIGNATURE_BUNDLE: BundleMsg.decode,
    MsgType.KEY_SHARE: KeyShareMsg.decode,
    MsgType.DECISION: DecisionMsg.decode,
    MsgType.CONTROL: ControlMsg.decode,
}


def parse_payload(frame: Frame):
    """Frame to its typed message object; malformed payloads raise
    FrameError, whatever the decoder trips over."""
    try:
        return _DECODERS[frame.msg_type](frame.payload)
    except FrameError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        raise FrameError(f"malformed {frame.msg_type.name} payload: "
                         f"{exc}") from None
