import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdsnet.cascade import (MAX_TOTAL_PASSES, CorrectorRole,
                            InconsistentParitiesError, ReconciliationConfig,
                            ReferenceRole, _hash_tag, _pass_permutation,
                            _prefix_parities, block_length, reconcile,
                            tag_bit_count)
from qdsnet.finitekey import binary_entropy
from qdsnet.framing import (FrameError, ParityAnswer, ParityRequest,
                            TagExchange, VerifyDecision, parse_payload)

from helpers import (FullPrefixCorrector, drive_session, slow_hash_tag,
                     slow_parities)


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
    n_bits, tag = _hash_tag(key, 1e-10, seed=1)
    assert n_bits == 34 and _hash_tag(key.copy(), 1e-10, seed=1)[1] == tag
    flipped = key.copy()
    flipped[1234] ^= 1
    other = _hash_tag(flipped, 1e-10, seed=1)[1]
    assert other != tag
    # the reference accepts only the corrector tag that matches its own
    for theirs, verified in ((tag, True), (other, False)):
        ref = ReferenceRole(key, ReconciliationConfig(eps_cor=1e-10, seed=1))
        ref.answer(TagExchange(n_bits, theirs).encode())
        assert ref.result().verified is verified


def test_verify_seed_dependence():
    rng = np.random.default_rng(31)
    key = rng.integers(0, 2, 2000, dtype=np.uint8)
    # same inputs stay equal under every seed, and each seed keys its own tag
    tags = [_hash_tag(key, 1e-10, seed) for seed in range(5)]
    assert tags == [_hash_tag(key.copy(), 1e-10, seed) for seed in range(5)]
    assert len(set(tags)) == 5


def test_identical_inputs_leakage_identity():
    n = 100_000
    cfg = ReconciliationConfig(round_key_len=1_000_000,
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
    cfg = ReconciliationConfig(round_key_len=1_000_000,
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
    cfg = ReconciliationConfig(round_key_len=1_000_000,
                               eps_cor=1e-10, seed=5)
    noisy, ref = _pair(n, int(0.05 * n), seed=33)
    cor, srv = reconcile(noisy, ref, cfg)
    assert cor.verified and srv.verified
    assert np.array_equal(cor.corrected_key, ref)


def test_efficiency_reasonable_at_one_percent():
    n = 200_000
    cfg = ReconciliationConfig(round_key_len=1_000_000,
                               eps_cor=1e-10, seed=6)
    noisy, ref = _pair(n, int(0.01 * n), seed=34)
    cor, _ = reconcile(noisy, ref, cfg)
    f = (cor.leakage_bits - 34) / (n * binary_entropy(0.01))
    assert f <= 1.35    # small-block regime; 1e6 keys run under 1.2


def test_transcript_parity_audit():
    n = 60_000
    cfg = ReconciliationConfig(round_key_len=1_000_000,
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
    cfg = ReconciliationConfig(round_key_len=10_000,
                               eps_cor=1e-10, seed=8)
    noisy, ref = _pair(n, 300, seed=36)
    cor, srv = reconcile(noisy, ref, cfg)
    assert cor.verified and srv.verified
    assert np.array_equal(cor.corrected_key, ref)
    assert cor.leakage_bits == srv.leakage_bits


def test_determinism_across_runs():
    n = 40_000
    cfg = ReconciliationConfig(round_key_len=1_000_000,
                               eps_cor=1e-10, seed=9)
    noisy, ref = _pair(n, 400, seed=37)
    r1 = reconcile(noisy.copy(), ref.copy(), cfg)
    r2 = reconcile(noisy.copy(), ref.copy(), cfg)
    assert r1[0].leakage_bits == r2[0].leakage_bits
    assert r1[0].rounds_used == r2[0].rounds_used
    assert np.array_equal(r1[0].corrected_key, r2[0].corrected_key)


def test_short_last_chunk_with_errors():
    # the 1-bit last chunk is wrong, so pass 1 finds all of it wrong
    ref = np.zeros(1001, dtype=np.uint8)
    noisy = ref.copy()
    noisy[[0, 1, 2, 1000]] = 1
    cor, srv = reconcile(noisy, ref, ReconciliationConfig(round_key_len=1000))
    assert cor.verified and srv.verified
    assert np.array_equal(cor.corrected_key, ref)


def test_config_validation():
    with pytest.raises(ValueError):
        ReconciliationConfig(round_key_len=0, eps_cor=1e-10, seed=0)
    with pytest.raises(ValueError):
        ReconciliationConfig(round_key_len=1000, eps_cor=0.0,
                             seed=0)


def test_reconcile_rejects_length_mismatch():
    with pytest.raises(ValueError):
        reconcile(np.zeros(10, np.uint8), np.zeros(11, np.uint8),
                  ReconciliationConfig(round_key_len=1000,
                                       eps_cor=1e-10, seed=0))


def _request(*items):
    return ParityRequest(items=tuple(items)).encode()


# hostile rows for a 2000-bit key in 1000-bit chunks
HOSTILE_ROWS = [
    (2, 1, 0, 10),                        # chunk out of range
    (0, 0, 0, 10),                        # pass 0 does not exist
    (0, MAX_TOTAL_PASSES + 1, 0, 10),     # beyond the pass limit
    (0, 7, 0, 10),                        # pass 7 before passes 1..6
    (0, 1, 0, 0),                         # hi = 0 would read prefix[-1]
    (0, 1, 5, 5),                         # empty range
    (0, 1, 9, 3),                         # reversed range
    (0, 1, 0, 5000),                      # hi beyond the 1000-bit chunk
    (1, 1, 0, 1001),                      # hi beyond the short last chunk
]


@pytest.mark.parametrize("item", HOSTILE_ROWS)
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


def test_corrector_stops_on_answers_that_fit_no_key():
    # every range answered 1: no key has that parity on a range and on
    # both its halves, so flipping never settles; an honest reference
    # fixes one error per flip, so a chunk may flip at most m bits
    key = np.random.default_rng(40).integers(0, 2, 200, dtype=np.uint8)
    steps = CorrectorRole(key, ReconciliationConfig(), 0.05).run()
    start = time.perf_counter()
    with pytest.raises(InconsistentParitiesError):
        request = next(steps)
        while True:
            rows = parse_payload(request).items
            request = steps.send(ParityAnswer(np.ones(len(rows))).encode())
    assert time.perf_counter() - start < 1.0


@st.composite
def _session(draw):
    """A key, its config and a few requests: honest ones on reachable
    passes, mixing (chunk, pass) pairs, and ones with a hostile row."""
    n, step = draw(st.one_of(st.just((2000, 1000)),
                             st.tuples(st.integers(1, 400),
                                       st.integers(1, 150))))
    n_chunks = -(-n // step)
    seed = draw(st.integers(0, 2**32 - 1))
    last_pass = [0] * n_chunks
    requests = []
    for _ in range(draw(st.integers(1, 6))):
        rows = []
        for _ in range(draw(st.integers(0, 8))):
            chunk = draw(st.integers(0, n_chunks - 1))
            size = min(step, n - chunk * step)
            lo = draw(st.integers(0, size - 1))
            hi = draw(st.integers(lo + 1, size))
            pass_id = draw(st.integers(1, last_pass[chunk] + 1))
            rows.append((chunk, pass_id, lo, hi))
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))),
                        draw(st.sampled_from(HOSTILE_ROWS)))
        else:
            for chunk, pass_id, _, _ in rows:
                last_pass[chunk] = max(last_pass[chunk], pass_id)
        requests.append(rows)
    return n, step, seed, requests


@settings(max_examples=80, deadline=None)
@given(session=_session())
def test_array_answer_matches_per_item_reference(session):
    n, step, seed, requests = session
    key = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    cfg = ReconciliationConfig(round_key_len=step, seed=seed)
    ref = ReferenceRole(key, cfg)
    opened = set()
    for rows in requests:
        built, leaked = set(ref._prefix_cache), ref.leakage
        try:
            want = slow_parities(key, cfg, opened, rows)
        except FrameError:
            with pytest.raises(FrameError):
                ref.answer(_request(*rows))
            assert set(ref._prefix_cache) == built
            assert ref.leakage == leaked
            continue
        bits = parse_payload(ref.answer(_request(*rows))).bits
        assert bits.tolist() == want
        assert ref.leakage == leaked + len(want)
        assert set(ref._prefix_cache) == opened


# chunks of lengths that are no multiple of 8, so the packed prefix of
# m + 1 bits ends inside a byte, and a short last chunk
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), step=st.integers(1, 100).filter(lambda s: s % 8),
       seed=st.integers(0, 2**32 - 1), hostile=st.integers(0, 3))
@example(n=203, step=50, seed=1, hostile=0)
@example(n=7, step=7, seed=2, hostile=3)
def test_packed_prefix_answers_match_unpacked_prefix(n, step, seed, hostile):
    rng = np.random.default_rng(seed)
    key = rng.integers(0, 2, n, dtype=np.uint8)
    ref = ReferenceRole(key, ReconciliationConfig(round_key_len=step,
                                                  seed=seed))
    bounds = [(s, min(s + step, n)) for s in range(0, n, step)]

    # a hostile row fails the first request before any prefix is built
    chunk = int(rng.integers(len(bounds)))
    m = bounds[chunk][1] - bounds[chunk][0]
    row = [(chunk, 1, 0, m + 1), (len(bounds), 1, 0, 1), (chunk, 1, m, m),
           (chunk, 2, 0, 1)][hostile]
    with pytest.raises(FrameError):
        ref.answer(_request((chunk, 1, 0, m), row))
    assert ref._prefix_cache == {}

    for pass_id in range(1, 4):
        rows, prefixes = [], {}
        for chunk, (start, end) in enumerate(bounds):
            m = end - start
            perm = np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(chunk, pass_id))).permutation(m)
            prefixes[chunk] = _prefix_parities(key[start:end][perm])
            lo = int(rng.integers(m))
            hi = int(rng.integers(lo + 1, m + 1))
            rows += [(chunk, pass_id, 0, m), (chunk, pass_id, lo, hi),
                     (chunk, pass_id, lo, m), (chunk, pass_id, 0, hi)]
        bits = parse_payload(ref.answer(_request(*rows))).bits
        want = [prefixes[c][hi] ^ prefixes[c][lo] for c, _, lo, hi in rows]
        assert bits.tolist() == want
        for chunk, prefix in prefixes.items():
            packed = ref._prefix_cache[chunk, pass_id]
            assert np.array_equal(
                np.unpackbits(packed, count=len(prefix)), prefix)


def test_reconcile_memory_budget():
    # an open pass keeps a narrowed shuffle and a block index per bit,
    # and the reference one packed prefix bit; with an int64 shuffle and
    # inverse per pass and a byte per prefix, this peaked at 61 B per bit
    n = 200_000
    noisy, ref = _pair(n, n // 100, seed=43)
    cfg = ReconciliationConfig(round_key_len=n, seed=15)
    _pass_permutation.cache_clear()
    tracemalloc.start()
    try:
        cor, srv = reconcile(noisy, ref, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cor.verified and srv.verified
    assert peak <= 40 * n


# 4096 bits are one block of 64 words; the other lengths end inside a
# word, inside a block, or one word past a block
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 5000),
       seed=st.one_of(st.just(2**63 + 5), st.integers(0, 2**64 - 1)),
       eps_cor=st.sampled_from([1e-10, 1e-19]))
@example(n=0, seed=0, eps_cor=1e-10)
@example(n=4096, seed=2**63 + 5, eps_cor=1e-19)
@example(n=4097, seed=1, eps_cor=1e-10)
@example(n=4160, seed=2, eps_cor=1e-19)
@example(n=63, seed=3, eps_cor=1e-10)
def test_hash_tag_matches_per_word_loop(n, seed, eps_cor):
    key = np.random.default_rng([n, seed]).integers(0, 2, n, dtype=np.uint8)
    assert _hash_tag(key, eps_cor, seed) == slow_hash_tag(key, eps_cor, seed)


def _summary(res):
    return (res.corrected_key.tolist(), res.leakage_bits, res.verified,
            res.rounds_used)


# up to 10% errors, so extra passes and back-propagation run, and chunks
# from a few bits (blocks cut short at the chunk end) to the whole key
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3000), error_rate=st.floats(0.0, 0.1),
       round_key_len=st.integers(1, 4000), seed=st.integers(0, 2**32 - 1))
@example(n=3000, error_rate=0.08, round_key_len=4000, seed=1)
@example(n=2999, error_rate=0.05, round_key_len=700, seed=2)
def test_block_local_search_matches_full_prefix(n, error_rate,
                                                round_key_len, seed):
    noisy, ref = _pair(n, int(error_rate * n), seed)
    estimate = float(np.count_nonzero(noisy != ref)) / n
    cfg = ReconciliationConfig(round_key_len=round_key_len, seed=seed)
    runs = []
    for cls in (CorrectorRole, FullPrefixCorrector):
        reference = ReferenceRole(ref, cfg)
        frames, cor = drive_session(cls(noisy, cfg, estimate), reference)
        runs.append((frames, _summary(cor), _summary(reference.result())))
    assert runs[0] == runs[1]


def test_one_permutation_draw_per_pass():
    # 6% errors in three chunks: some chunk runs an extra pass
    noisy, ref = _pair(60_000, 3_600, seed=41)
    cfg = ReconciliationConfig(round_key_len=20_000, seed=12)
    _pass_permutation.cache_clear()
    _, srv = reconcile(noisy, ref, cfg)
    assert srv.rounds_used > 3 * 3
    # the corrector draws each pass; the reference reuses that draw
    info = _pass_permutation.cache_info()
    assert info.misses == info.hits == srv.rounds_used


def test_permutation_is_read_only():
    perm = _pass_permutation(13, 0, 1, 100)
    with pytest.raises(ValueError):
        perm[0] = 1
    assert np.array_equal(np.sort(perm), np.arange(100))


def test_reference_replay_needs_no_shared_draw():
    # a reference that draws every permutation itself answers alike
    noisy, ref = _pair(20_000, 600, seed=42)
    cfg = ReconciliationConfig(round_key_len=8_000, seed=14)
    frames, cor = drive_session(CorrectorRole(noisy, cfg, 0.03),
                                ReferenceRole(ref, cfg))
    assert cor.verified
    replay = ReferenceRole(ref, cfg)
    for request, reply in frames:
        _pass_permutation.cache_clear()
        assert replay.answer(request) == reply
    assert _summary(replay.result())[1:] == _summary(cor)[1:]
