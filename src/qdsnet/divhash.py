"""One-time digest of a document under a shared secret seed.

The digest of a message M under an L-bit seed P is the remainder of
M(x) * x^(L/8) modulo p(x), where M's bytes are the coefficients of a
polynomial over GF(256) and p is a monic irreducible polynomial of
degree L/8 derived deterministically from P.  Leading zero bytes leave
M(x) unchanged, so M and 0x00 || M collide under every seed, and the
digest binds a message only together with its length, which the
signer announces.  Two distinct messages of one length collide only
when p divides their difference times x^(L/8), so for a random seed the
collision probability falls like the message length divided by the
count of degree-L/8 irreducibles.

Seeds are consumed once per signature: the signer transmits P masked by
a one-time key, and both receiving ends re-derive the same p, so
derive_modulus must be a pure deterministic function of the seed.  A
seed is P packed big-endian into L/8 bytes, as framing.pack_bits does.

hash_document runs Horner's rule a block of L/8 bytes at a time, with
a table of the products of every byte value and x^(L/8) .. x^(2L/8 - 1)
modulo p; tests/helpers.py keeps the one-byte-per-step form as
slow_hash_document, the reference it is checked against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf256 import MUL, Poly, _x_powers, is_irreducible

_WALK_CAP = 1 << 24


@lru_cache(maxsize=64)
def derive_modulus(seed: bytes) -> Poly:
    """Deterministic monic irreducible polynomial of degree d = len(seed).

    The seed bytes become the non-leading coefficients (first byte is the
    x^(d-1) coefficient, last byte the constant term).  If the candidate
    is reducible, walk forward: treat the coefficient bytes as a
    little-endian base-256 counter (constant term least significant),
    increment with carry, skip any candidate with zero constant term
    (always divisible by x), and wrap past the top coefficient.
    """
    d = len(seed)
    if not d:
        raise ValueError("the hash seed must not be empty")
    digits = bytearray(reversed(seed))
    if digits[0] == 0:
        digits[0] = 1
    for _ in range(_WALK_CAP):
        cand = Poly([1, *reversed(digits)])
        if is_irreducible(cand):
            return cand
        i = 0
        while i < d:
            digits[i] = (digits[i] + 1) & 0xFF
            if digits[i]:
                break
            i += 1
        if digits[0] == 0:
            digits[0] = 1
    raise RuntimeError("no irreducible modulus found; walk cap exceeded")


def hash_document(message: bytes, seed: bytes) -> bytes:
    """Digest of message under seed, as L/8 bytes.

    Blockwise Horner evaluation with d = L/8: the message is left-padded
    with zeros to whole blocks of d bytes (leading zero coefficients
    leave M(x) unchanged) and one zero block is appended for the
    trailing x^d.  With the remainder s as d coefficients, highest
    first, each block B folds in as s <- s * x^d + B modulo p, where
    s * x^d is the XOR over j of s_j * x^(2d-1-j) mod p: one lookup per
    coefficient in a byte-lane table built on every call (1.9 MB at
    d = 86, 5.7 MB at d = 146), then one XOR reduction.  The digest
    serializes the remainder highest-order coefficient first.
    """
    if not message:
        raise ValueError("cannot hash an empty message")
    p = derive_modulus(seed)
    d = p.degree
    words = -(-d // 8)
    # lanes[256 j + v] = v * x^(2d-1-j) mod p, padded to whole uint64 words
    lanes = np.zeros((d, 256, 8 * words), dtype=np.uint8)
    lanes[:, :, :d] = MUL[:, _x_powers(p, 2 * d)[d:][::-1]].transpose(1, 0, 2)
    lanes = lanes.view(np.uint64).reshape(d * 256, words)
    rows = np.arange(0, 256 * d, 256)

    data = np.zeros(-(-len(message) // d) * d + d, dtype=np.uint8)
    data[-d - len(message):-d] = np.frombuffer(message, dtype=np.uint8)
    state = np.zeros(d, dtype=np.uint8)
    for block in data.reshape(-1, d):
        folded = np.bitwise_xor.reduce(lanes.take(rows + state, axis=0))
        state = folded.view(np.uint8)[:d] ^ block
    return bytes(state)
