"""On-disk formats: key stores, bundles, announcements, shares.

Key stores are binary and checksummed; consumption rewrites the store
through a temp file and os.replace, so a crash can never leave a store
half-updated (either the old mask or the new one, never a torn file).
The CLI writes the store before the bundle, announcement or share that
reveals the consumed positions, so a crash between the two writes
leaves those positions spent, never reusable.  It holds store_lock from
reading a store to writing it back, so concurrent runs never share a mask.
Bundles, announcements, and shares are the frames the in-process round
sends, written to disk unchanged by write_message and read back by
read_message, so files and network traffic share one codec.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import os
import struct
import tempfile

from .framing import (ROLE_CODES, ROLE_NAMES, decode_frame, encode_frame,
                      pack_bits, parse_payload, unpack_bits)
from .protocol import KeyStore

STORE_MAGIC = b"QDSK"


class FileFormatError(ValueError):
    pass


def store_to_bytes(store: KeyStore) -> bytes:
    n = len(store.key_bits)
    body = (STORE_MAGIC + bytes([1, ROLE_CODES[store.owner]])
            + struct.pack(">I", n)
            + pack_bits(store.key_bits) + pack_bits(store.used_mask))
    return body + hashlib.sha256(body).digest()


def store_from_bytes(data: bytes) -> KeyStore:
    if len(data) < 42 or data[:4] != STORE_MAGIC:
        raise FileFormatError("not a key store file")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FileFormatError("key store checksum mismatch (corrupted file)")
    version, role_code = body[4], body[5]
    if version != 1:
        raise FileFormatError(f"unsupported store version {version}")
    if role_code not in ROLE_NAMES:
        raise FileFormatError(f"unknown role code {role_code}")
    (n,) = struct.unpack(">I", body[6:10])
    packed_len = (n + 7) // 8
    if len(body) != 10 + 2 * packed_len:
        raise FileFormatError("key store length mismatch")
    keys = unpack_bits(body[10:10 + packed_len], n)
    used = unpack_bits(body[10 + packed_len:], n).astype(bool)
    return KeyStore(keys, used, ROLE_NAMES[role_code])


def write_store(store: KeyStore, path: str) -> None:
    """Atomic write: temp file in the same directory, then replace."""
    data = store_to_bytes(store)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".store-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def store_lock(path: str):
    """Exclusive lock on the sidecar file <path>.lock, held until exit.

    The lock is not on the store itself because write_store replaces
    the store's inode, and a lock on the old inode guards nothing.
    """
    with open(path + ".lock", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def read_store(path: str) -> KeyStore:
    with open(path, "rb") as fh:
        return store_from_bytes(fh.read())


def write_message(message, path: str) -> None:
    """Write one protocol message as the frame the in-process round sends."""
    with open(path, "wb") as fh:
        fh.write(encode_frame(message.encode()))


def read_message(path: str, expected: type):
    """Read a file holding exactly one frame that parses as expected."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        frame, used = decode_frame(data)
        if used != len(data):
            raise FileFormatError("trailing bytes after frame")
        message = parse_payload(frame)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    if not isinstance(message, expected):
        raise FileFormatError(f"{path}: expected a {expected.__name__}, "
                              f"found a {type(message).__name__}")
    return message
