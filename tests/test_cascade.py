import math

import numpy as np
import pytest

from qdsnet.cascade import (MAX_TOTAL_PASSES, ReconciliationConfig,
                            ReferenceRole, block_length, reconcile,
                            tag_bit_count, verify)
from qdsnet.finitekey import binary_entropy
from qdsnet.framing import (FrameError, ParityRequest, TagExchange,
                            VerifyDecision, parse_payload)


def _pair(n, n_err, seed):
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, 2, n, dtype=np.uint8)
    noisy = ref.copy()
    if n_err:
        pos = rng.choice(n, n_err, replace=False)
        noisy[pos] ^= 1
    return noisy, ref


def test_block_length_schedule():
    assert block_length(0.0) == 1_000_000
    assert block_length(0.0, 4096) == 4096
    assert block_length(0.01) == 73
    assert block_length(0.5) == 2
    assert block_length(0.4) == 2          # floor at 2
    with pytest.raises(ValueError):
        block_length(-0.1)
    with pytest.raises(ValueError):
        block_length(0.6)


def test_tag_bit_count():
    assert tag_bit_count(1e-10) == 34
    assert tag_bit_count(0.5) == 1
    assert tag_bit_count(1e-19) == 64
    with pytest.raises(ValueError):
        tag_bit_count(1e-20)               # would exceed 64 bits
    with pytest.raises(ValueError):
        tag_bit_count(1.5)


def test_verify_tag_properties():
    rng = np.random.default_rng(30)
    key = rng.integers(0, 2, 5000, dtype=np.uint8)
    equal, n_bits = verify(key, key.copy(), 1e-10, seed=1)
    assert equal and n_bits == 34
    flipped = key.copy()
    flipped[1234] ^= 1
    equal, _ = verify(key, flipped, 1e-10, seed=1)
    assert not equal


def test_verify_seed_dependence():
    rng = np.random.default_rng(31)
    key = rng.integers(0, 2, 2000, dtype=np.uint8)
    # same inputs stay equal under every seed
    for seed in range(5):
        assert verify(key, key.copy(), 1e-10, seed)[0]


def test_identical_inputs_leakage_identity():
    n = 100_000
    cfg = ReconciliationConfig(round_key_len=1_000_000, passes=2,
                               eps_cor=1e-10, seed=3)
    noisy, ref = _pair(n, 0, seed=32)
    cor, srv = reconcile(noisy, ref, cfg)
    assert cor.verified and srv.verified
    # pass 1 sees a zero estimate -> one block; pass 2 floors the rate
    # at 0.1% -> k=730; pass 3 doubles it; plus the 34 tag bits
    want = 1 + math.ceil(n / 730) + math.ceil(n / 1460) + 34
    assert cor.leakage_bits == want
    assert srv.leakage_bits == want
    assert cor.rounds_used == srv.rounds_used == 3


@pytest.mark.parametrize("rate", [0.005, 0.01, 0.02])
def test_planted_errors_corrected(rate):
    n = 100_000
    cfg = ReconciliationConfig(round_key_len=1_000_000, passes=2,
                               eps_cor=1e-10, seed=4)
    noisy, ref = _pair(n, int(rate * n), seed=hash(rate) % 2**32)
    cor, srv = reconcile(noisy, ref, cfg)
    assert cor.verified and srv.verified
    assert np.array_equal(cor.corrected_key, ref)
    assert np.array_equal(srv.corrected_key, ref)
    assert cor.leakage_bits == srv.leakage_bits
    assert cor.rounds_used == srv.rounds_used


def test_high_error_rate_needs_extra_passes_but_converges():
    n = 50_000
    cfg = ReconciliationConfig(round_key_len=1_000_000, passes=2,
                               eps_cor=1e-10, seed=5)
    noisy, ref = _pair(n, int(0.05 * n), seed=33)
    cor, srv = reconcile(noisy, ref, cfg)
    assert cor.verified and srv.verified
    assert np.array_equal(cor.corrected_key, ref)


def test_efficiency_reasonable_at_one_percent():
    n = 200_000
    cfg = ReconciliationConfig(round_key_len=1_000_000, passes=2,
                               eps_cor=1e-10, seed=6)
    noisy, ref = _pair(n, int(0.01 * n), seed=34)
    cor, _ = reconcile(noisy, ref, cfg)
    f = (cor.leakage_bits - 34) / (n * binary_entropy(0.01))
    assert f <= 1.35    # small-block regime; 1e6 keys run under 1.2


def test_transcript_parity_audit():
    n = 60_000
    cfg = ReconciliationConfig(round_key_len=1_000_000, passes=2,
                               eps_cor=1e-10, seed=7)
    noisy, ref = _pair(n, 600, seed=35)
    transcript = []
    cor, srv = reconcile(noisy, ref, cfg, transcript=transcript)
    parity_bits = sum(e.detail for e in transcript
                      if e.direction == "recv"
                      and e.msg_type == "PARITY_ANSWER")
    tag_bits = [e.detail for e in transcript
                if e.msg_type == "TAG_EXCHANGE"]
    assert cor.leakage_bits == parity_bits + 34
    assert tag_bits and all(t == 34 for t in tag_bits)
    assert cor.verified and srv.verified


def test_multichunk_round_key_segmentation():
    n = 30_000
    cfg = ReconciliationConfig(round_key_len=10_000, passes=2,
                               eps_cor=1e-10, seed=8)
    noisy, ref = _pair(n, 300, seed=36)
    cor, srv = reconcile(noisy, ref, cfg)
    assert cor.verified and srv.verified
    assert np.array_equal(cor.corrected_key, ref)
    assert cor.leakage_bits == srv.leakage_bits


def test_determinism_across_runs():
    n = 40_000
    cfg = ReconciliationConfig(round_key_len=1_000_000, passes=2,
                               eps_cor=1e-10, seed=9)
    noisy, ref = _pair(n, 400, seed=37)
    r1 = reconcile(noisy.copy(), ref.copy(), cfg)
    r2 = reconcile(noisy.copy(), ref.copy(), cfg)
    assert r1[0].leakage_bits == r2[0].leakage_bits
    assert r1[0].rounds_used == r2[0].rounds_used
    assert np.array_equal(r1[0].corrected_key, r2[0].corrected_key)


def test_config_validation():
    with pytest.raises(ValueError):
        ReconciliationConfig(round_key_len=0, passes=2, eps_cor=1e-10, seed=0)
    with pytest.raises(ValueError):
        ReconciliationConfig(round_key_len=1000, passes=1, eps_cor=1e-10,
                             seed=0)
    with pytest.raises(ValueError):
        ReconciliationConfig(round_key_len=1000, passes=2, eps_cor=0.0,
                             seed=0)


def test_reconcile_rejects_length_mismatch():
    with pytest.raises(ValueError):
        reconcile(np.zeros(10, np.uint8), np.zeros(11, np.uint8),
                  ReconciliationConfig(round_key_len=1000, passes=2,
                                       eps_cor=1e-10, seed=0))


def _request(*items):
    return ParityRequest(items=tuple(items)).encode()


@pytest.mark.parametrize("item", [
    (2, 1, 0, 10),                        # chunk out of range
    (0, 0, 0, 10),                        # pass 0 does not exist
    (0, MAX_TOTAL_PASSES + 1, 0, 10),     # beyond the pass limit
    (0, 7, 0, 10),                        # pass 7 before passes 1..6
    (0, 1, 0, 0),                         # hi = 0 would read prefix[-1]
    (0, 1, 5, 5),                         # empty range
    (0, 1, 9, 3),                         # reversed range
    (0, 1, 0, 5000),                      # hi beyond the 1000-bit chunk
    (1, 1, 0, 1001),                      # hi beyond the short last chunk
])
def test_reference_rejects_hostile_requests(item):
    key = np.random.default_rng(38).integers(0, 2, 2000, dtype=np.uint8)
    ref = ReferenceRole(key, ReconciliationConfig(round_key_len=1000))
    with pytest.raises(FrameError):
        ref.answer(_request((0, 1, 0, 4), item))
    assert ref._prefix_cache == {}
    assert ref.leakage == 0
    # the session stays usable for honest requests
    bits = parse_payload(ref.answer(_request((0, 1, 0, 1000)))).bits
    assert len(bits) == 1 and ref.leakage == 1


def test_reference_passes_advance_one_at_a_time():
    key = np.random.default_rng(39).integers(0, 2, 1000, dtype=np.uint8)
    ref = ReferenceRole(key, ReconciliationConfig(round_key_len=1000))
    for pass_id in range(1, MAX_TOTAL_PASSES + 1):
        ref.answer(_request((0, pass_id, 0, 10), (0, 1, 10, 20)))
    with pytest.raises(FrameError):
        ref.answer(_request((0, MAX_TOTAL_PASSES + 1, 0, 10)))
    assert ref.result().rounds_used == MAX_TOTAL_PASSES


def test_reference_rejects_other_frames_and_a_closed_session():
    key = np.zeros(100, dtype=np.uint8)
    cfg = ReconciliationConfig(round_key_len=100)
    ref = ReferenceRole(key, cfg)
    with pytest.raises(FrameError):
        ref.answer(VerifyDecision(False, "abort").encode())
    n_bits, tag = 34, bytes(5)
    reply = parse_payload(ref.answer(TagExchange(n_bits, tag).encode()))
    assert reply.n_bits == 34
    assert ref.result().leakage_bits == 34
    with pytest.raises(FrameError):
        ref.answer(_request((0, 1, 0, 10)))
