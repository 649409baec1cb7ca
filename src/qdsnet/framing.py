"""Binary wire format for all role-to-role classical messages.

Every message travels as one frame: 4-byte magic "QDS1", a 1-byte
message type, a 4-byte big-endian payload length, then the payload.
Each message is one frozen dataclass that is also its own codec
(encode() -> Frame, decode(payload)): the parity request, parity answer
and tag of reconciliation, and the position announcement, signature
bundle, key share and decision of a signing round, which protocol uses
and re-exports.  Payload layouts are fixed-width big-endian structs, so
the layer stays bit-exact across transports, and bundle, announcement
and share files hold the same frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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


ROLE_CODES = {"alice": 0, "bob": 1, "charlie": 2}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or (arr.size and arr.max() > 1):
        raise ValueError("expected a flat 0/1 bit array")
    return arr


@dataclass(frozen=True)
class PositionAnnouncement:
    """Ordered 2L key positions; the first half indexes the X-keys."""

    positions: tuple

    def __post_init__(self):
        if len(self.positions) % 2:
            raise ValueError("announcement must hold 2L positions")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("announced positions must be distinct")

    @property
    def half(self) -> int:
        return len(self.positions) // 2

    def encode(self) -> Frame:
        payload = struct.pack(">I", len(self.positions)) + \
            np.asarray(self.positions, dtype=">u4").tobytes()
        return Frame(MsgType.POSITION_ANNOUNCEMENT, payload)

    @classmethod
    def decode(cls, payload: bytes) -> "PositionAnnouncement":
        (count,) = struct.unpack_from(">I", payload, 0)
        if len(payload) != 4 + 4 * count:
            raise FrameError("position list length does not match count")
        arr = np.frombuffer(payload, dtype=">u4", offset=4)
        return cls(positions=tuple(int(p) for p in arr))


@dataclass(frozen=True)
class SignatureBundle:
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
        off = 8
        sig = payload[off:off + sig_len]
        off += sig_len
        message = payload[off:off + msg_len]
        off += msg_len
        p_a = payload[off:off + sig_len]
        if len(sig) != sig_len or len(message) != msg_len or len(p_a) != sig_len:
            raise FrameError("bundle payload truncated")
        n = 8 * sig_len
        return cls(unpack_bits(sig, n), message, unpack_bits(p_a, n))


@dataclass(frozen=True)
class KeyShare:
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
        x = payload[5:5 + klen]
        y = payload[5 + klen:5 + 2 * klen]
        if len(x) != klen or len(y) != klen:
            raise FrameError("key share payload truncated")
        n = 8 * klen
        return cls(unpack_bits(x, n), unpack_bits(y, n), ROLE_NAMES[code])


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
