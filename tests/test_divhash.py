import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsnet.divhash import derive_modulus, hash_document
from qdsnet.gf256 import Poly, is_irreducible

from helpers import (batch_hash_deg2, slow_hash_document,
                     slow_irreducible_low_degree, slow_poly_divmod)


def _seed(rng, L):
    return bytes(rng.integers(0, 256, L // 8, dtype=np.uint8))


def test_seed_validation():
    # a seed of d bytes is an 8d-bit seed, so only the empty one is invalid
    with pytest.raises(ValueError):
        derive_modulus(b"")
    with pytest.raises(ValueError):
        hash_document(b"doc", b"")
    assert derive_modulus(b"\x01\x02").degree == 2


def test_modulus_is_monic_irreducible_right_degree():
    rng = np.random.default_rng(10)
    for L in (16, 24):
        for _ in range(25):
            p = derive_modulus(_seed(rng, L))
            assert p.is_monic()
            assert p.degree == L // 8
            assert is_irreducible(p)
            coeffs = [int(c) for c in p.coeffs]
            assert slow_irreducible_low_degree(coeffs)
            assert coeffs[-1] != 0   # never divisible by x


def test_modulus_deterministic():
    assert derive_modulus(b"\x12\x34") == derive_modulus(bytes([0x12, 0x34]))


def test_modulus_uses_seed_directly_when_irreducible():
    # find a seed whose direct candidate is already irreducible, then
    # the walk must not move at all
    rng = np.random.default_rng(11)
    hits = 0
    while hits < 10:
        raw = bytes(rng.integers(0, 256, 2, dtype=np.uint8))
        cand = [1, raw[0], raw[1]]
        if raw[1] != 0 and slow_irreducible_low_degree(cand):
            p = derive_modulus(raw)
            assert [int(c) for c in p.coeffs] == cand
            hits += 1


def test_modulus_walk_skips_zero_constant():
    # all-zero seed forces the constant-term fixup before the walk
    p = derive_modulus(b"\x00\x00")
    assert int(p.coeffs[-1]) != 0


def test_hash_against_long_division_oracle():
    rng = np.random.default_rng(12)
    for L in (16, 24, 32):
        d = L // 8
        for _ in range(20):
            msg = bytes(rng.integers(0, 256, rng.integers(1, 40),
                                     dtype=np.uint8))
            seed = _seed(rng, L)
            got = hash_document(msg, seed)
            p = [int(c) for c in derive_modulus(seed).coeffs]
            num = [int(b) for b in msg] + [0] * d      # M(x) * x^d
            _, rem = slow_poly_divmod(num, p)
            want = bytes([0] * (d - len(rem)) + rem)   # fixed width
            assert got == want


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 146).map(lambda k: 8 * k),
       root=st.integers(0, 2**64 - 1), data=st.data())
def test_blockwise_hash_matches_per_byte_reference(L, root, data):
    # block edges: one byte short of a block, a block, one byte over
    d = L // 8
    n = data.draw(st.integers(1, 3 * d + 1), label="message length")
    rng = np.random.default_rng(root)
    seed = _seed(rng, L)
    p = derive_modulus(seed)
    for size in {n, max(d - 1, 1), d, d + 1}:
        msg = rng.bytes(size)
        assert hash_document(msg, seed) == slow_hash_document(msg, p)


def test_hash_deterministic_and_length():
    seed = b"\xaa\xbb\xcc"
    d1 = hash_document(b"hello world", seed)
    d2 = hash_document(b"hello world", seed)
    assert d1 == d2
    assert len(d1) == 3


def test_empty_message_rejected():
    with pytest.raises(ValueError):
        hash_document(b"", b"\x01\x02")


def test_planted_collision_positive_control():
    # adding p(x) * x^k to the message cannot change the remainder, so
    # xoring p's coefficients into three consecutive bytes must collide
    rng = np.random.default_rng(13)
    seed = _seed(rng, 16)
    p = [int(c) for c in derive_modulus(seed).coeffs]
    msg = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
    base = hash_document(msg, seed)
    for k in (0, 7, 29):
        forged = bytearray(msg)
        for i, c in enumerate(p):
            forged[k + i] ^= c
        assert bytes(forged) != msg
        assert hash_document(bytes(forged), seed) == base


def test_single_byte_change_never_collides():
    # a one-byte difference is delta * x^j; an irreducible modulus of
    # degree >= 2 can never divide it
    rng = np.random.default_rng(14)
    seed = _seed(rng, 16)
    msg = bytes(rng.integers(0, 256, 24, dtype=np.uint8))
    base = hash_document(msg, seed)
    for j in range(len(msg)):
        mutated = bytearray(msg)
        mutated[j] ^= int(rng.integers(1, 256))
        assert hash_document(bytes(mutated), seed) != base


def test_batch_hasher_matches_streaming():
    rng = np.random.default_rng(15)
    seed = _seed(rng, 16)
    p = [int(c) for c in derive_modulus(seed).coeffs]
    msgs = rng.integers(0, 256, (40, 17), dtype=np.uint8)
    digests = batch_hash_deg2(msgs, p[1], p[2])
    for i in range(len(msgs)):
        assert bytes(digests[i]) == hash_document(msgs[i].tobytes(), seed)


def test_moduli_unchanged_at_signing_lengths():
    # the moduli the 10 dB demo signs with, recorded from the original
    # squaring-chain Rabin test; each walk asks for about d verdicts,
    # so a changed verdict anywhere along them shows here
    digest = hashlib.sha256()
    for L in (688, 712):
        for s in range(3):
            bits = np.random.default_rng([L, s]).bytes(L // 8)
            digest.update(bytes(derive_modulus(bits).coeffs))
    assert digest.hexdigest() == (
        "b6476d97615f24d730cb615ebf30f1569b28041736141d611743bf016c17d835")
