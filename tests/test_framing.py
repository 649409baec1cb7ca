import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsnet.framing import (BundleMsg, ControlMsg, DecisionMsg, Frame,
                            FrameError, KeyShareMsg, MsgType, ParityAnswer,
                            ParityRequest, PositionList, TagExchange,
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
    raw = encode_frame(Frame(MsgType.CONTROL, b"{}"))
    with pytest.raises(FrameError):
        decode_frame(raw[:-1])                        # truncated payload
    with pytest.raises(FrameError):
        decode_frame(b"QDS1\xee\x00\x00\x00\x00")     # unknown type


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


@given(positions=st.lists(st.integers(0, 2**32 - 1), min_size=0,
                          max_size=120))
def test_position_list_roundtrip(positions):
    msg = PositionList(positions=tuple(positions))
    assert parse_payload(msg.encode()) == msg


@given(sig=st.binary(min_size=0, max_size=64),
       message=st.binary(min_size=0, max_size=200))
def test_bundle_roundtrip(sig, message):
    msg = BundleMsg(sig=sig, message=message, p_a=bytes(len(sig)))
    assert parse_payload(msg.encode()) == msg


def test_bundle_length_mismatch_rejected():
    with pytest.raises(FrameError):
        BundleMsg(sig=b"\x01\x02", message=b"m", p_a=b"\x01").encode()


@given(role=st.sampled_from(["alice", "bob", "charlie"]),
       x=st.binary(min_size=0, max_size=64))
def test_key_share_roundtrip(role, x):
    msg = KeyShareMsg(role=role, x_key=x, y_key=bytes(len(x)))
    assert parse_payload(msg.encode()) == msg


@given(decision=st.sampled_from(["accept", "reject", "skipped"]),
       reason=st.text(max_size=100))
def test_decision_roundtrip(decision, reason):
    msg = DecisionMsg(decision=decision, reason=reason)
    assert parse_payload(msg.encode()) == msg


@given(kind=st.text(min_size=1, max_size=20),
       fields=st.dictionaries(
           st.text(min_size=1, max_size=10).filter(lambda s: s != "kind"),
           st.one_of(st.integers(-2**31, 2**31), st.text(max_size=20)),
           max_size=5))
def test_control_roundtrip(kind, fields):
    msg = ControlMsg(kind=kind, fields=fields)
    assert parse_payload(msg.encode()) == msg


def test_parse_payload_dispatch_covers_every_type():
    samples = [
        ParityRequest(items=((0, 1, 2, 3),)),
        ParityAnswer(bits=(1, 0, 1)),
        TagExchange(n_bits=8, tag=b"\xab"),
        PositionList(positions=(5, 6)),
        BundleMsg(sig=b"\x01", message=b"m", p_a=b"\x02"),
        KeyShareMsg(role="bob", x_key=b"\x01", y_key=b"\x02"),
        DecisionMsg(decision="accept", reason=""),
        ControlMsg(kind="hello"),
    ]
    seen_types = {s.encode().msg_type for s in samples}
    assert seen_types == set(MsgType)
    for s in samples:
        assert parse_payload(s.encode()) == s


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


@pytest.mark.parametrize("payload", [
    b"[1]", b'"kind"', b"\xff", b"{",
    # well-formed objects, but not UTF-8
    '{"kind": "x"}'.encode("utf-16"), '{"kind": "x"}'.encode("utf-32")])
def test_control_rejects_non_objects(payload):
    with pytest.raises(FrameError):
        parse_payload(Frame(MsgType.CONTROL, payload))


def test_short_position_list_is_a_frame_error():
    frame = PositionList(positions=(1, 2, 3)).encode()
    with pytest.raises(FrameError):
        parse_payload(Frame(frame.msg_type, frame.payload[:-1]))


@pytest.mark.parametrize("msg", [ParityRequest(items=((0, 1, 2, 3),)),
                                 PositionList(positions=(5, 6)),
                                 DecisionMsg(decision="reject", reason="no")])
def test_trailing_payload_bytes_rejected(msg):
    frame = msg.encode()
    with pytest.raises(FrameError):
        parse_payload(Frame(frame.msg_type, frame.payload + b"\x00"))
