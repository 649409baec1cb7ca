"""One-time digest of a document under a shared secret seed.

The digest of a message M under an L-bit seed P is the remainder of
M(x) * x^(L/8) modulo p(x), where M's bytes are the coefficients of a
polynomial over GF(256) and p is a monic irreducible polynomial of
degree L/8 derived deterministically from P.  Two distinct messages
collide only when p divides their difference times x^(L/8), so for a
random seed the collision probability falls like the message length
divided by the count of degree-L/8 irreducibles.

Seeds are consumed once per signature: the signer transmits P masked by
a one-time key, and both receiving ends re-derive the same p, so
derive_modulus must be a pure deterministic function of the seed bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf256 import MUL, Poly, is_irreducible

_WALK_CAP = 1 << 24


@dataclass(frozen=True)
class HashSeed:
    """L-bit seed string; bits are packed big-endian into L/8 bytes."""

    bits: bytes
    digest_len_bits: int

    def __post_init__(self):
        if self.digest_len_bits < 8 or self.digest_len_bits % 8:
            raise ValueError("digest length must be a positive multiple of 8 bits")
        if len(self.bits) * 8 != self.digest_len_bits:
            raise ValueError(
                f"seed is {len(self.bits) * 8} bits, expected {self.digest_len_bits}"
            )


@lru_cache(maxsize=64)
def derive_modulus(seed: HashSeed) -> Poly:
    """Deterministic monic irreducible polynomial of degree L/8 from a seed.

    The seed bytes become the non-leading coefficients (first byte is the
    x^(d-1) coefficient, last byte the constant term).  If the candidate
    is reducible, walk forward: treat the coefficient bytes as a
    little-endian base-256 counter (constant term least significant),
    increment with carry, skip any candidate with zero constant term
    (always divisible by x), and wrap past the top coefficient.
    """
    d = seed.digest_len_bits // 8
    digits = bytearray(reversed(seed.bits))
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


def hash_document(message: bytes, seed: HashSeed) -> bytes:
    """Digest of message under seed, as L/8 bytes.

    Streaming Horner evaluation: each message byte extends the dividend
    polynomial by one coefficient and the remainder modulo p is carried
    along; the trailing multiplication by x^(L/8) is L/8 zero steps.  The
    digest serializes the remainder highest-order coefficient first.
    """
    if not message:
        raise ValueError("cannot hash an empty message")
    p = derive_modulus(seed)
    d = p.degree
    p_low = p.coeffs[1:]

    state = np.zeros(d, dtype=np.uint8)
    nxt = np.empty(d, dtype=np.uint8)
    data = np.frombuffer(message, dtype=np.uint8)
    tail = np.zeros(d, dtype=np.uint8)
    for block in (data, tail):
        for b in block:
            lead = state[0]
            nxt[:d - 1] = state[1:]
            nxt[d - 1] = b
            if lead:
                nxt ^= MUL[lead, p_low]
            state, nxt = nxt, state
    return bytes(state)
