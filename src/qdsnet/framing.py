"""Binary wire format for all role-to-role classical messages.

Every message travels as one frame: 4-byte magic "QDS1", a 1-byte
message type, a 4-byte big-endian payload length, then the payload.
Each message is one frozen dataclass that is also its own codec
(encode() -> Frame, decode(payload)): the parity request, parity answer
and tag of reconciliation, and the position announcement, signature
bundle, key share and decision of a signing round, which protocol uses
and re-exports.  Payload layouts are fixed-width big-endian structs (a
parity request is an array of them, its answer packed bits), so the
layer stays bit-exact across transports, and bundle, announcement and
share files hold the same frames.  Array fields compare by value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
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


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or (arr.size and arr.max() > 1):
        raise ValueError("expected a flat 0/1 bit array")
    return arr


class _FieldwiseEq:
    """== over the dataclass fields; array fields compare by value."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = [(getattr(self, f.name), getattr(other, f.name))
                  for f in fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                   else a == b for a, b in values)


# --- typed payloads -------------------------------------------------------

_PARITY_ROW = np.dtype([("chunk", ">u2"), ("pass_id", ">u2"),
                        ("lo", ">u4"), ("hi", ">u4")])


@dataclass(frozen=True, eq=False)
class ParityRequest(_FieldwiseEq):
    """Half-open index ranges in permuted coordinates: an (n, 4) int64
    array of (chunk, pass_id, lo, hi) rows."""

    items: np.ndarray

    def __post_init__(self):
        items = np.asarray(self.items, dtype=np.int64).reshape(-1, 4)
        object.__setattr__(self, "items", items)

    def encode(self) -> Frame:
        rows = np.empty(len(self.items), dtype=_PARITY_ROW)
        for name, column in zip(_PARITY_ROW.names, self.items.T):
            rows[name] = column
            if not np.array_equal(rows[name], column):
                raise ValueError(f"parity request {name} out of wire range")
        payload = struct.pack(">I", len(rows)) + rows.tobytes()
        return Frame(MsgType.PARITY_REQUEST, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "ParityRequest":
        (count,) = struct.unpack_from(">I", payload, 0)
        if len(payload) != 4 + _PARITY_ROW.itemsize * count:
            raise FrameError("parity request length does not match count")
        rows = np.frombuffer(payload, dtype=_PARITY_ROW, offset=4)
        return cls(np.column_stack([rows[f] for f in _PARITY_ROW.names]))


@dataclass(frozen=True, eq=False)
class ParityAnswer(_FieldwiseEq):
    """One parity bit per requested range, in request order (uint8)."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _as_bits(self.bits))

    def encode(self) -> Frame:
        payload = struct.pack(">I", len(self.bits)) + pack_bits(self.bits)
        return Frame(MsgType.PARITY_ANSWER, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "ParityAnswer":
        (count,) = struct.unpack_from(">I", payload, 0)
        if len(payload) != 4 + (count + 7) // 8:
            raise FrameError("parity answer length does not match count")
        return cls(unpack_bits(payload[4:], count))


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


ROLE_CODES = {"alice": 0, "bob": 1, "charlie": 2}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}


@dataclass(frozen=True)
class PositionAnnouncement:
    """Ordered 2L key positions, the first half indexing the X-keys, and
    the byte length of the message they sign."""

    positions: tuple
    message_len: int

    def __post_init__(self):
        if len(self.positions) % 2:
            raise ValueError("announcement must hold 2L positions")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("announced positions must be distinct")

    @property
    def half(self) -> int:
        return len(self.positions) // 2

    def encode(self) -> Frame:
        payload = struct.pack(">II", len(self.positions), self.message_len) \
            + np.asarray(self.positions, dtype=">u4").tobytes()
        return Frame(MsgType.POSITION_ANNOUNCEMENT, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "PositionAnnouncement":
        count, message_len = struct.unpack_from(">II", payload, 0)
        if len(payload) != 8 + 4 * count:
            raise FrameError("position list length does not match count")
        arr = np.frombuffer(payload, dtype=">u4", offset=8)
        return cls(tuple(int(p) for p in arr), message_len)


@dataclass(frozen=True, eq=False)
class SignatureBundle(_FieldwiseEq):
    """{Sig, M, P_a} as transmitted from the signer to the first receiver."""

    sig: np.ndarray
    message: bytes
    p_a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sig", _as_bits(self.sig))
        object.__setattr__(self, "p_a", _as_bits(self.p_a))
        if len(self.sig) != len(self.p_a):
            raise ValueError("sig and p_a must have equal bit length")

    @property
    def signature_len_bits(self) -> int:
        return len(self.sig)

    def encode(self) -> Frame:
        sig, p_a = pack_bits(self.sig), pack_bits(self.p_a)
        payload = struct.pack(">II", len(sig), len(self.message)) \
            + sig + self.message + p_a
        return Frame(MsgType.SIGNATURE_BUNDLE, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "SignatureBundle":
        sig_len, msg_len = struct.unpack_from(">II", payload, 0)
        if len(payload) != 8 + 2 * sig_len + msg_len:
            raise FrameError("bundle length does not match its fields")
        msg_end = 8 + sig_len + msg_len
        n = 8 * sig_len
        return cls(unpack_bits(payload[8:8 + sig_len], n),
                   payload[8 + sig_len:msg_end],
                   unpack_bits(payload[msg_end:], n))


@dataclass(frozen=True, eq=False)
class KeyShare(_FieldwiseEq):
    """One receiver's halves of the announced positions."""

    x_key: np.ndarray
    y_key: np.ndarray
    role: str

    def __post_init__(self):
        object.__setattr__(self, "x_key", _as_bits(self.x_key))
        object.__setattr__(self, "y_key", _as_bits(self.y_key))
        if len(self.x_key) != len(self.y_key):
            raise ValueError("x and y halves must have equal length")

    def encode(self) -> Frame:
        x, y = pack_bits(self.x_key), pack_bits(self.y_key)
        payload = struct.pack(">BI", ROLE_CODES[self.role], len(x)) + x + y
        return Frame(MsgType.KEY_SHARE, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "KeyShare":
        code, klen = struct.unpack_from(">BI", payload, 0)
        if code not in ROLE_NAMES:
            raise FrameError(f"unknown role code {code}")
        if len(payload) != 5 + 2 * klen:
            raise FrameError("key share length does not match its fields")
        n = 8 * klen
        return cls(unpack_bits(payload[5:5 + klen], n),
                   unpack_bits(payload[5 + klen:], n), ROLE_NAMES[code])


@dataclass(frozen=True)
class VerifyDecision:
    """A receiver's verdict; on the wire, code 0 accepts and 1 rejects."""

    accept: bool
    reason: str

    @property
    def decision(self) -> str:
        return "accept" if self.accept else "reject"

    def encode(self) -> Frame:
        reason = self.reason.encode()
        payload = struct.pack(">BH", 0 if self.accept else 1, len(reason)) \
            + reason
        return Frame(MsgType.DECISION, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "VerifyDecision":
        code, rlen = struct.unpack_from(">BH", payload, 0)
        if code > 1:
            raise FrameError(f"unknown decision code {code}")
        if len(payload) != 3 + rlen:
            raise FrameError("decision reason length does not match")
        return cls(accept=code == 0, reason=payload[3:].decode())


_DECODERS = {
    MsgType.PARITY_REQUEST: ParityRequest.decode,
    MsgType.PARITY_ANSWER: ParityAnswer.decode,
    MsgType.TAG_EXCHANGE: TagExchange.decode,
    MsgType.POSITION_ANNOUNCEMENT: PositionAnnouncement.decode,
    MsgType.SIGNATURE_BUNDLE: SignatureBundle.decode,
    MsgType.KEY_SHARE: KeyShare.decode,
    MsgType.DECISION: VerifyDecision.decode,
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
