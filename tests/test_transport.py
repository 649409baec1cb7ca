import threading

import pytest

from qdsnet.framing import ControlMsg, Frame, MsgType, parse_payload
from qdsnet.transport import (MemoryEndpoint, RecordingEndpoint,
                              TransportError, memory_pair, socket_pair)


def _frame(i):
    return ControlMsg(kind="ping", fields={"i": i}).encode()


def test_memory_pair_bidirectional_fifo():
    a, b = memory_pair()
    for i in range(5):
        a.send(_frame(i))
    for i in range(5):
        got = parse_payload(b.recv(timeout=1.0))
        assert got.fields["i"] == i
    b.send(_frame(99))
    assert parse_payload(a.recv(timeout=1.0)).fields["i"] == 99


def test_memory_recv_timeout():
    a, _ = memory_pair()
    with pytest.raises(TransportError, match="timed out"):
        a.recv(timeout=0.05)


def test_memory_close_unblocks_peer():
    a, b = memory_pair()
    errors = []

    def wait():
        try:
            b.recv(timeout=5.0)
        except TransportError as exc:
            errors.append(str(exc))

    t = threading.Thread(target=wait)
    t.start()
    a.close()
    t.join(timeout=2.0)
    assert not t.is_alive()
    assert errors and "closed" in errors[0]


def test_socket_pair_transparency():
    a, b = socket_pair()
    try:
        for i in range(3):
            a.send(_frame(i))
        for i in range(3):
            assert parse_payload(b.recv(timeout=2.0)).fields["i"] == i
        b.send(_frame(7))
        assert parse_payload(a.recv(timeout=2.0)).fields["i"] == 7
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
        a.send(Frame(MsgType.CONTROL, payload))
        a.send(_frame(1))
        assert b.recv(timeout=5.0).payload == payload
        assert parse_payload(b.recv(timeout=1.0)).fields["i"] == 1
        b.send(Frame(MsgType.CONTROL, payload[::-1]))
        assert a.recv(timeout=5.0).payload == payload[::-1]
    finally:
        a.close()
        b.close()


def test_socket_recv_timeout():
    a, b = socket_pair()
    try:
        with pytest.raises(TransportError, match="timed out"):
            a.recv(timeout=0.05)
    finally:
        a.close()
        b.close()


def test_socket_close_breaks_recv():
    a, b = socket_pair()
    a.close()
    with pytest.raises(TransportError):
        b.recv(timeout=1.0)
    b.close()


def test_recording_endpoint_transcript():
    a, b = memory_pair()
    ra = RecordingEndpoint(a, [])
    rb = RecordingEndpoint(b, [])
    ra.send(_frame(1))
    rb.recv(timeout=1.0)
    rb.send(_frame(2))
    ra.recv(timeout=1.0)

    assert [e.direction for e in ra.log] == ["send", "recv"]
    assert [e.direction for e in rb.log] == ["recv", "send"]
    assert all(e.msg_type == "CONTROL" for e in ra.log)
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


def test_threaded_ping_pong():
    a, b = memory_pair()
    n = 50

    def echo():
        for _ in range(n):
            frame = b.recv(timeout=2.0)
            b.send(frame)

    t = threading.Thread(target=echo)
    t.start()
    for i in range(n):
        a.send(_frame(i))
        assert parse_payload(a.recv(timeout=2.0)).fields["i"] == i
    t.join(timeout=2.0)
    assert not t.is_alive()


def test_recording_endpoint_tolerates_short_payloads():
    a, b = memory_pair()
    rb = RecordingEndpoint(b, [])
    for msg_type in (MsgType.PARITY_ANSWER, MsgType.PARITY_REQUEST,
                     MsgType.TAG_EXCHANGE):
        a.send(Frame(msg_type, b""))
        assert rb.recv(timeout=1.0).payload == b""
    assert [e.detail for e in rb.log] == [None, None, None]
