import time

import pytest

from qdsnet.framing import Frame, MsgType, VerifyDecision, parse_payload
from qdsnet.transport import (RecordingEndpoint, TransportError, memory_pair,
                              socket_pair)


def _frame(i):
    return VerifyDecision(accept=True, reason=f"ping {i}").encode()


def _reason(frame):
    return parse_payload(frame).reason


@pytest.fixture(params=["memory", "socket"])
def pair(request):
    a, b = memory_pair() if request.param == "memory" else socket_pair()
    yield a, b
    a.close()
    b.close()


def test_memory_pair_bidirectional_fifo():
    a, b = memory_pair()
    for i in range(5):
        a.send(_frame(i))
    for i in range(5):
        assert _reason(b.recv()) == f"ping {i}"
    b.send(_frame(99))
    assert _reason(a.recv()) == "ping 99"


def test_memory_recv_on_empty_channel():
    a, _ = memory_pair()
    start = time.monotonic()
    with pytest.raises(TransportError, match="no frame"):
        a.recv()
    assert time.monotonic() - start < 1.0


def test_memory_close_unblocks_peer():
    # the peer's recv fails as closed, not as an empty channel
    a, b = memory_pair()
    a.send(_frame(1))
    a.close()
    assert _reason(b.recv()) == "ping 1"
    with pytest.raises(TransportError, match="closed"):
        b.recv()


def test_socket_pair_transparency():
    a, b = socket_pair()
    try:
        for i in range(3):
            a.send(_frame(i))
        for i in range(3):
            assert _reason(b.recv()) == f"ping {i}"
        b.send(_frame(7))
        assert _reason(a.recv()) == "ping 7"
    finally:
        a.close()
        b.close()


def test_socket_large_payload():
    # a frame bigger than the kernel socket buffer: the send drains the
    # peer's socket into the peer's read buffer, so one thread can send
    # it and then receive it
    a, b = socket_pair()
    payload = bytes(range(256)) * 2000   # 512 KB
    try:
        a.send(Frame(MsgType.SIGNATURE_BUNDLE, payload))
        a.send(_frame(1))
        assert b.recv().payload == payload
        assert _reason(b.recv()) == "ping 1"
        b.send(Frame(MsgType.SIGNATURE_BUNDLE, payload[::-1]))
        assert a.recv().payload == payload[::-1]
    finally:
        a.close()
        b.close()


def test_socket_recv_on_empty_channel():
    a, b = socket_pair()
    try:
        start = time.monotonic()
        with pytest.raises(TransportError, match="no frame"):
            a.recv()
        assert time.monotonic() - start < 1.0
    finally:
        a.close()
        b.close()


def test_socket_close_breaks_recv():
    a, b = socket_pair()
    a.close()
    with pytest.raises(TransportError):
        b.recv()
    b.close()


def test_ping_pong(pair):
    a, b = pair
    for i in range(50):
        a.send(_frame(i))
        b.send(b.recv())
        assert _reason(a.recv()) == f"ping {i}"
    with pytest.raises(TransportError, match="no frame"):
        b.recv()


def test_recording_endpoint_transcript():
    a, b = memory_pair()
    ra = RecordingEndpoint(a, [])
    rb = RecordingEndpoint(b, [])
    ra.send(_frame(1))
    rb.recv()
    rb.send(_frame(2))
    ra.recv()

    assert [e.direction for e in ra.log] == ["send", "recv"]
    assert [e.direction for e in rb.log] == ["recv", "send"]
    assert all(e.msg_type == "DECISION" for e in ra.log)
    assert all(e.payload_len > 0 for e in ra.log)
    d = ra.log[0].to_dict()
    assert set(d) >= {"direction", "msg_type", "payload_len"}


def test_recording_endpoint_details():
    from qdsnet.framing import ParityAnswer, ParityRequest, TagExchange
    a, b = memory_pair()
    ra = RecordingEndpoint(a, [])
    ra.send(ParityRequest(items=((0, 1, 0, 10), (0, 1, 10, 20))).encode())
    ra.send(ParityAnswer(bits=(1, 0, 1)).encode())
    ra.send(TagExchange(n_bits=34, tag=bytes(5)).encode())
    details = [e.detail for e in ra.log]
    assert details == [2, 3, 34]
    b.close()
    a.close()


def test_recording_endpoint_tolerates_short_payloads():
    a, b = memory_pair()
    rb = RecordingEndpoint(b, [])
    for msg_type in (MsgType.PARITY_ANSWER, MsgType.PARITY_REQUEST,
                     MsgType.TAG_EXCHANGE):
        a.send(Frame(msg_type, b""))
        assert rb.recv().payload == b""
    assert [e.detail for e in rb.log] == [None, None, None]
