import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsnet.framing import (Frame, FrameError, KeyShare, MsgType,
                            ParityAnswer, ParityRequest, PositionAnnouncement,
                            SignatureBundle, TagExchange, VerifyDecision,
                            decode_frame, encode_frame, pack_bits,
                            parse_payload, unpack_bits)

payload_bytes = st.binary(min_size=0, max_size=300)


@given(msg_type=st.sampled_from(list(MsgType)), payload=payload_bytes)
def test_frame_roundtrip(msg_type, payload):
    raw = encode_frame(Frame(msg_type, payload))
    frame, used = decode_frame(raw)
    assert used == len(raw)
    assert frame.msg_type == msg_type
    assert frame.payload == payload


@given(msg_type=st.sampled_from(list(MsgType)), payload=payload_bytes,
       extra=st.binary(min_size=1, max_size=20))
def test_frame_decode_leaves_trailing_data(msg_type, payload, extra):
    raw = encode_frame(Frame(msg_type, payload))
    frame, used = decode_frame(raw + extra)
    assert used == len(raw)
    assert frame.payload == payload


def test_frame_error_cases():
    with pytest.raises(FrameError):
        decode_frame(b"XXXX\x01\x00\x00\x00\x00")     # bad magic
    with pytest.raises(FrameError):
        decode_frame(b"QD")                           # short header
    raw = encode_frame(Frame(MsgType.DECISION, b"\x00\x00\x00"))
    with pytest.raises(FrameError):
        decode_frame(raw[:-1])                        # truncated payload
    with pytest.raises(FrameError):
        decode_frame(b"QDS1\xee\x00\x00\x00\x00")     # unknown type
    with pytest.raises(FrameError):
        decode_frame(b"QDS1\x08\x00\x00\x00\x02{}")   # retired CONTROL type


@given(bits=st.lists(st.integers(0, 1), min_size=0, max_size=200))
def test_pack_unpack_bits(bits):
    packed = pack_bits(bits)
    assert len(packed) == (len(bits) + 7) // 8
    back = unpack_bits(packed, len(bits))
    assert list(back) == bits


@given(items=st.lists(st.tuples(st.integers(0, 65535), st.integers(0, 65535),
                                st.integers(0, 2**32 - 1),
                                st.integers(0, 2**32 - 1)),
                      min_size=0, max_size=40))
def test_parity_request_roundtrip(items):
    msg = ParityRequest(items=tuple(items))
    back = parse_payload(msg.encode())
    assert back == msg


@given(bits=st.lists(st.integers(0, 1), min_size=0, max_size=100))
def test_parity_answer_roundtrip(bits):
    msg = ParityAnswer(bits=tuple(bits))
    assert parse_payload(msg.encode()) == msg


@given(n_bits=st.integers(1, 64), data=st.data())
def test_tag_exchange_roundtrip(n_bits, data):
    tag = data.draw(st.binary(min_size=(n_bits + 7) // 8,
                              max_size=(n_bits + 7) // 8))
    msg = TagExchange(n_bits=n_bits, tag=tag)
    assert parse_payload(msg.encode()) == msg


bit_lists = st.integers(0, 64).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=8 * n, max_size=8 * n))


@given(positions=st.lists(st.integers(0, 2**32 - 1), min_size=0,
                          max_size=120, unique=True))
def test_position_list_roundtrip(positions):
    even = positions[:len(positions) - len(positions) % 2]
    msg = PositionAnnouncement(positions=tuple(even))
    assert parse_payload(msg.encode()) == msg


@given(sig=bit_lists, message=st.binary(min_size=0, max_size=200))
def test_bundle_roundtrip(sig, message):
    msg = SignatureBundle(sig=sig, message=message, p_a=sig[::-1])
    back = parse_payload(msg.encode())
    assert list(back.sig) == sig and list(back.p_a) == sig[::-1]
    assert back.message == message


def test_bundle_length_mismatch_rejected():
    with pytest.raises(ValueError):
        SignatureBundle(sig=[1] * 16, message=b"m", p_a=[1] * 8)


@given(role=st.sampled_from(["alice", "bob", "charlie"]), x=bit_lists)
def test_key_share_roundtrip(role, x):
    msg = KeyShare(x_key=x, y_key=[1 - b for b in x], role=role)
    back = parse_payload(msg.encode())
    assert back.role == role
    assert list(back.x_key) == x and list(back.y_key) == [1 - b for b in x]


@given(accept=st.booleans(), reason=st.text(max_size=100))
def test_decision_roundtrip(accept, reason):
    msg = VerifyDecision(accept=accept, reason=reason)
    assert parse_payload(msg.encode()) == msg


def test_decision_codes_are_accept_and_reject_only():
    assert VerifyDecision(True, "").encode().payload[0] == 0
    assert VerifyDecision(False, "").encode().payload[0] == 1
    with pytest.raises(FrameError, match="decision code 2"):
        parse_payload(Frame(MsgType.DECISION, b"\x02\x00\x00"))


def test_announcement_rules_hold_on_the_wire():
    for positions in ((1, 2, 3), (4, 4)):
        count = len(positions).to_bytes(4, "big")
        payload = count + b"".join(p.to_bytes(4, "big") for p in positions)
        with pytest.raises(FrameError):
            parse_payload(Frame(MsgType.POSITION_ANNOUNCEMENT, payload))


def test_parse_payload_dispatch_covers_every_type():
    samples = [
        ParityRequest(items=((0, 1, 2, 3),)),
        ParityAnswer(bits=(1, 0, 1)),
        TagExchange(n_bits=8, tag=b"\xab"),
        PositionAnnouncement(positions=(5, 6)),
        SignatureBundle(sig=[1] * 8, message=b"m", p_a=[0, 1] * 4),
        KeyShare(x_key=[0, 1] * 4, y_key=[1] * 8, role="bob"),
        VerifyDecision(accept=True, reason=""),
    ]
    seen_types = {s.encode().msg_type for s in samples}
    assert seen_types == set(MsgType)
    assert len(MsgType) == 7
    for s in samples:
        # the signing messages hold numpy arrays, so compare the frames
        frame = s.encode()
        assert parse_payload(frame).encode() == frame


# frames recorded from the separate wire classes that the signing
# messages replaced; the byte layouts must not move
@pytest.mark.parametrize("msg, wire", [
    (PositionAnnouncement((7, 0, 300, 65536, 4294967295, 12)),
     "51445331040000001c0000000600000007000000000000012c00010000ffffffff"
     "0000000c"),
    (SignatureBundle([1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1],
                     b"doc",
                     [0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0]),
     "51445331050000000f0000000200000003b271646f6355ca"),
    (KeyShare([1, 1, 0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 1, 1, 1, 0], "charlie"),
     "5144533106000000070200000001d12e"),
    (VerifyDecision(True, "digest match"),
     "51445331070000000f00000c646967657374206d61746368"),
    (VerifyDecision(False, "digest mismatch"),
     "51445331070000001201000f646967657374206d69736d61746368"),
], ids=["announcement", "bundle", "share", "accept", "reject"])
def test_signing_messages_keep_their_wire_bytes(msg, wire):
    raw = bytes.fromhex(wire)
    assert encode_frame(msg.encode()) == raw
    assert parse_payload(decode_frame(raw)[0]).encode() == msg.encode()


@settings(max_examples=300)
@given(msg_type=st.sampled_from(list(MsgType)),
       payload=st.binary(min_size=0, max_size=64))
def test_every_decoder_fails_only_with_frame_error(msg_type, payload):
    try:
        parse_payload(Frame(msg_type, payload))
    except FrameError:
        pass


@pytest.mark.parametrize("msg_type", list(MsgType))
def test_empty_payload_is_a_frame_error(msg_type):
    with pytest.raises(FrameError):
        parse_payload(Frame(msg_type, b""))


def test_short_position_list_is_a_frame_error():
    frame = PositionAnnouncement(positions=(1, 2, 3, 4)).encode()
    with pytest.raises(FrameError):
        parse_payload(Frame(frame.msg_type, frame.payload[:-1]))


@pytest.mark.parametrize("msg", [ParityRequest(items=((0, 1, 2, 3),)),
                                 PositionAnnouncement(positions=(5, 6)),
                                 VerifyDecision(accept=False, reason="no")])
def test_trailing_payload_bytes_rejected(msg):
    frame = msg.encode()
    with pytest.raises(FrameError):
        parse_payload(Frame(frame.msg_type, frame.payload + b"\x00"))
