import numpy as np
import pytest

from qdsnet.files import (FileFormatError, read_message, read_store,
                          store_from_bytes, store_to_bytes, write_message,
                          write_store)
from qdsnet.protocol import (KeyShare, KeyStore, PositionAnnouncement,
                             SignatureBundle)


def _store():
    rng = np.random.default_rng(60)
    store = KeyStore.from_bits(rng.integers(0, 2, 300, np.uint8), "charlie")
    store.consume([5, 17, 99])
    return store


def test_store_bytes_roundtrip():
    store = _store()
    back = store_from_bytes(store_to_bytes(store))
    assert back.owner == store.owner
    assert np.array_equal(back.key_bits, store.key_bits)
    assert np.array_equal(back.used_mask, store.used_mask)
    assert back.available == store.available


def test_store_file_roundtrip(tmp_path):
    store = _store()
    path = tmp_path / "c.store"
    write_store(store, str(path))
    back = read_store(str(path))
    assert np.array_equal(back.key_bits, store.key_bits)
    assert np.array_equal(back.used_mask, store.used_mask)


def test_store_checksum_detects_corruption(tmp_path):
    path = tmp_path / "c.store"
    write_store(_store(), str(path))
    blob = bytearray(path.read_bytes())
    blob[12] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="checksum"):
        read_store(str(path))


def test_store_rejects_bad_magic_and_version():
    store = _store()
    blob = bytearray(store_to_bytes(store))
    wrong_magic = bytes(b"XXXX") + bytes(blob[4:])
    with pytest.raises(FileFormatError):
        store_from_bytes(wrong_magic)
    blob[4] = 99   # version byte
    with pytest.raises(FileFormatError):
        store_from_bytes(bytes(blob))


def test_store_rejects_unknown_role_code():
    import hashlib
    body = bytearray(store_to_bytes(_store())[:-32])
    body[5] = 9   # role byte, with the checksum recomputed to match
    blob = bytes(body) + hashlib.sha256(bytes(body)).digest()
    with pytest.raises(FileFormatError, match="role"):
        store_from_bytes(blob)


def test_corrupt_frame_file_is_a_format_error(tmp_path):
    path = tmp_path / "b.bin"
    path.write_bytes(b"QDS1\x05\x00\x00\x00\x02\xff\xff")
    with pytest.raises(FileFormatError):
        read_message(str(path), SignatureBundle)


def test_store_rejects_truncation():
    blob = store_to_bytes(_store())
    with pytest.raises(FileFormatError):
        store_from_bytes(blob[:20])


def test_write_store_is_atomic(tmp_path):
    # a failed write must leave the original intact: simulate by
    # checking that the target is replaced, never truncated in place
    path = tmp_path / "a.store"
    first = _store()
    write_store(first, str(path))
    before = path.read_bytes()
    second = KeyStore.from_bits(np.ones(64, np.uint8), "alice")
    write_store(second, str(path))
    after = path.read_bytes()
    assert after != before
    assert read_store(str(path)).owner == "alice"
    assert not list(tmp_path.glob("*.tmp*"))   # no droppings


def test_bundle_file_roundtrip(tmp_path):
    rng = np.random.default_rng(61)
    bundle = SignatureBundle(sig=rng.integers(0, 2, 64, np.uint8),
                             message=b"doc body",
                             p_a=rng.integers(0, 2, 64, np.uint8))
    path = tmp_path / "b.bin"
    write_message(bundle, str(path))
    back = read_message(str(path), SignatureBundle)
    assert back.message == bundle.message
    assert np.array_equal(back.sig, bundle.sig)
    assert np.array_equal(back.p_a, bundle.p_a)
    assert back.signature_len_bits == 64


def test_announcement_file_roundtrip(tmp_path):
    ann = PositionAnnouncement(positions=tuple(range(0, 512, 2)),
                               message_len=125_000)
    path = tmp_path / "a.bin"
    write_message(ann, str(path))
    assert read_message(str(path), PositionAnnouncement) == ann


def test_share_file_roundtrip(tmp_path):
    share = KeyShare(x_key=np.array([1, 0, 1, 1, 0, 0, 1, 0], np.uint8),
                     y_key=np.array([0, 1, 1, 0, 1, 0, 0, 1], np.uint8),
                     role="bob")
    path = tmp_path / "s.bin"
    write_message(share, str(path))
    back = read_message(str(path), KeyShare)
    assert back.role == "bob"
    assert np.array_equal(back.x_key, share.x_key)
    assert np.array_equal(back.y_key, share.y_key)


def test_frame_files_reject_wrong_type(tmp_path):
    # every mismatched pair of the three message files
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], np.uint8)
    messages = [PositionAnnouncement(positions=tuple(range(16)),
                                     message_len=3),
                SignatureBundle(sig=bits, message=b"doc", p_a=bits),
                KeyShare(x_key=bits, y_key=bits, role="bob")]
    path = tmp_path / "m.bin"
    for written in messages:
        write_message(written, str(path))
        for expected in {type(m) for m in messages} - {type(written)}:
            with pytest.raises(FileFormatError) as info:
                read_message(str(path), expected)
            assert type(written).__name__ in str(info.value)
            assert expected.__name__ in str(info.value)


def test_frame_files_reject_trailing_garbage(tmp_path):
    ann = PositionAnnouncement(positions=tuple(range(16)), message_len=3)
    path = tmp_path / "a.bin"
    write_message(ann, str(path))
    with open(path, "ab") as fh:
        fh.write(b"JUNK")
    with pytest.raises(FileFormatError):
        read_message(str(path), PositionAnnouncement)
