"""Interactive parity-exchange error correction with exact leakage audit.

Two roles reconcile correlated bit strings over a frame channel.  The
reference role (Bob or Charlie) holds the authoritative key and answers
parity queries; the corrector role (Alice) locates errors by comparing
block parities and binary-searching mismatched blocks, flipping her own
bits.  Both parties derive each pass's shuffle from the shared seed, so
no permutation ever crosses the wire.  A process-level memo of the
latest draw, returned read-only, lets both roles of an in-process
session share each draw: the corrector opens pass p just before the
reference first answers on it.  Neither role does I/O: the reference
maps each request frame to its reply, the corrector is a generator that
yields requests and is sent the replies, and reconcile() drives both
from the calling thread over a frame channel.

Each chunk runs MIN_PASSES passes, then more while the latest found
errors, up to MAX_TOTAL_PASSES; later passes reshuffle with larger
blocks.  The corrector keeps a mismatch flag per block of every pass.
Each flip toggles the flag of the block holding that position in every
pass, re-queueing blocks whose parity now mismatches (cross-pass error
back-propagation).  Per chunk bit, an open pass keeps its shuffle in the
narrowest unsigned type that indexes the chunk (4 bytes up to 2^32
bits) and the block of each position in the narrowest one that counts
its blocks (1 or 2 bytes at the usual block sizes); the reference keeps
one prefix-parity bit per position and pass, and the memo one 8-byte
draw.  Mismatched blocks of one pass are binary-searched in lockstep as
lo/hi arrays, one batched request of (chunk, pass, lo, hi) rows per
depth level, which keeps round-trips logarithmic while leaving the
per-bit disclosure count identical to sequential search.  Prefix
parities P with P[0] = 0 give [lo, hi) the parity P[hi] ^ P[lo]; the
reference keeps them bit-packed over each whole shuffled chunk, while
the corrector builds them per search from the mismatched blocks alone,
one row per block, so a late pass with a few open blocks touches a few
thousand bits rather than the whole chunk.

Verification exchanges a short universal-hash tag: a polynomial
evaluation hash over GF(2^64) keyed by the shared seed, followed by a
seeded multiplier and truncation to ceil(log2(1/eps_cor)) bits.  The
multiplier step makes the truncated family pairwise-uniform, so the
false-accept probability is about 2^-34 at eps_cor = 1e-10 regardless
of key length.  The key is hashed in blocks of _TAG_BLOCK words: zero
words padded in front leave the Horner value unchanged, each block's
sum of word * alpha^(B - t) is one numpy gather from byte-lane tables
of alpha^B ... alpha^1, and Horner then steps over blocks with alpha^B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .framing import (Frame, FrameError, MsgType, ParityAnswer,
                      ParityRequest, TagExchange, pack_bits, parse_payload)

MIN_PASSES = 3
MAX_TOTAL_PASSES = 20
_MASK64 = (1 << 64) - 1
_POLY64_LOW = 0x1B  # x^64 + x^4 + x^3 + x + 1
_TAG_BLOCK = 64  # words per Horner step of the tag hash


class InconsistentParitiesError(ValueError):
    """The reference's parity answers fit no key: a chunk of m bits
    needed more than m flips, while honest answers fix one error each."""


@dataclass(frozen=True)
class ReconciliationConfig:
    """Shared parameters of one reconciliation session."""

    round_key_len: int = 1_000_000
    eps_cor: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.round_key_len < 1:
            raise ValueError("round_key_len must be >= 1")
        if not 0 < self.eps_cor < 1:
            raise ValueError("eps_cor must be in (0, 1)")


@dataclass(frozen=True)
class ReconciliationResult:
    corrected_key: np.ndarray
    leakage_bits: int
    verified: bool
    rounds_used: int


def block_length(e_z: float, round_key_len: int = 1_000_000) -> int:
    """Initial block size for a QBER estimate: max(2, round(0.73/e_z))."""
    if e_z < 0 or e_z > 0.5:
        raise ValueError("e_z must be in [0, 0.5]")
    if e_z == 0:
        return round_key_len
    return max(2, round(0.73 / e_z))


# --- verification tag over GF(2^64) ---------------------------------------

def _xtime64(a: int) -> int:
    a <<= 1
    if a >> 64:
        a = (a & _MASK64) ^ _POLY64_LOW
    return a


def _gf64_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a = _xtime64(a)
    return r


@lru_cache(maxsize=4)
def _session_tables(seed: int) -> tuple[np.ndarray, tuple, int]:
    """Block-sum lanes, multiply-by-alpha^B tables and the output multiplier.

    lanes[(t * 8 + p) * 256 + b] is the product of byte b, at byte
    position p of a big-endian word, with alpha^(B - t), the weight of
    word t of a block.  They take 1 MB per seed, so few are kept.
    """
    rng = np.random.default_rng(seed)
    alpha = 0
    while alpha == 0:
        alpha = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    beta = 0
    while beta == 0:
        beta = int(rng.integers(0, 1 << 64, dtype=np.uint64))

    powers = [alpha]  # alpha^1 .. alpha^B
    for _ in range(_TAG_BLOCK - 1):
        powers.append(_gf64_mul(powers[-1], alpha))
    basis = np.empty((64, _TAG_BLOCK), dtype=np.uint64)
    basis[0] = powers[::-1]  # basis[i, t] = x^i alpha^(B - t)
    for i in range(1, 64):
        prev = basis[i - 1]
        basis[i] = (prev << 1) ^ (prev >> 63) * _POLY64_LOW
    # entry b of lane j is the product of byte b, as bits 8j .. 8j + 7,
    # with the word's power
    lanes = np.zeros((_TAG_BLOCK, 8, 1), dtype=np.uint64)
    for i in range(8):
        lanes = np.concatenate([lanes, lanes ^ basis[i::8].T[:, :, None]],
                               axis=2)
    horner = tuple(lane.tolist() for lane in lanes[0])
    # a big-endian word holds lane 7 - p at byte position p
    return lanes[:, ::-1].reshape(-1), horner, beta


def tag_bit_count(eps_cor: float) -> int:
    n_bits = math.ceil(-math.log2(eps_cor))
    if not 1 <= n_bits <= 64:
        raise ValueError("eps_cor out of the supported tag range")
    return n_bits


def _hash_tag(key_bits: np.ndarray, eps_cor: float, seed: int
              ) -> tuple[int, bytes]:
    """(n_bits, tag) for one key string under the shared seed."""
    n_bits = tag_bit_count(eps_cor)
    lanes, horner, beta = _session_tables(seed)
    t0, t1, t2, t3, t4, t5, t6, t7 = horner

    data = pack_bits(key_bits)
    n_words = -(-len(data) // 8)
    n_blocks = -(-n_words // _TAG_BLOCK)
    # zero words in front leave the Horner value unchanged; zero bytes
    # behind complete the last word
    padded = np.zeros(n_blocks * _TAG_BLOCK * 8, dtype=np.uint8)
    front = (n_blocks * _TAG_BLOCK - n_words) * 8
    padded[front:front + len(data)] = np.frombuffer(data, dtype=np.uint8)
    index = (padded.reshape(n_blocks, _TAG_BLOCK * 8)
             + np.arange(0, _TAG_BLOCK * 8 * 256, 256))
    sums = np.bitwise_xor.reduce(lanes[index], axis=1).tolist()

    acc = 0
    for s in sums:
        acc = (t0[acc & 0xFF] ^ t1[(acc >> 8) & 0xFF] ^ t2[(acc >> 16) & 0xFF]
               ^ t3[(acc >> 24) & 0xFF] ^ t4[(acc >> 32) & 0xFF]
               ^ t5[(acc >> 40) & 0xFF] ^ t6[(acc >> 48) & 0xFF]
               ^ t7[(acc >> 56) & 0xFF] ^ s)
    acc = _gf64_mul(acc, beta)
    tag_int = acc & ((1 << n_bits) - 1)
    return n_bits, tag_int.to_bytes((n_bits + 7) // 8, "big")


# --- shared permutation derivation -----------------------------------------

@lru_cache(maxsize=1)
def _pass_permutation(seed: int, chunk: int, pass_id: int, m: int) -> np.ndarray:
    """The read-only int64 shuffle of one (chunk, pass).  Only the
    latest draw is kept: a reference answering in the corrector's
    process first asks about a pass right after the corrector draws it,
    and reuses that draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(chunk, pass_id)))
    perm = rng.permutation(m)
    perm.flags.writeable = False
    return perm


def _chunk_bounds(n: int, round_key_len: int) -> list[tuple[int, int]]:
    return [(s, min(s + round_key_len, n))
            for s in range(0, n, round_key_len)] or [(0, 0)]


def _prefix_parities(bits: np.ndarray) -> np.ndarray:
    """P with P[0] = 0 and P[i] the parity of bits[:i]."""
    prefix = np.zeros(len(bits) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(bits, out=prefix[1:])
    return prefix


def _packed_bits_at(packed: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Bits i of a np.packbits array, big-endian within each byte."""
    return (packed[i >> 3] >> (7 - (i & 7))) & 1


# --- party roles ------------------------------------------------------------

class ReferenceRole:
    """Parity server for the authoritative key; never mutates it.

    answer maps one request frame to its reply.  A request naming a
    missing chunk, a pass not yet reachable or a range outside its chunk
    is a FrameError, raised before any prefix array is built.
    """

    def __init__(self, key_bits, cfg: ReconciliationConfig):
        self.key = np.asarray(key_bits, dtype=np.uint8).copy()
        self.cfg = cfg
        self._bounds = _chunk_bounds(len(self.key), cfg.round_key_len)
        # bit-packed prefix parities of each (chunk, pass) answered on
        self._prefix_cache: dict[tuple[int, int], np.ndarray] = {}
        self.leakage = 0
        self.verified = False
        self._done = False

    def _prefix(self, chunk: int, pass_id: int) -> np.ndarray:
        cached = self._prefix_cache.get((chunk, pass_id))
        if cached is None:
            start, end = self._bounds[chunk]
            perm = _pass_permutation(self.cfg.seed, chunk, pass_id, end - start)
            cached = np.packbits(_prefix_parities(self.key[start:end][perm]))
            self._prefix_cache[(chunk, pass_id)] = cached
        return cached

    def _limit(self, chunk: int, pass_id: int) -> int:
        """Largest hi a request may name on this pair; 0 if none."""
        # passes open in order: pass p follows a request on pass p - 1
        reachable = (pass_id == 1
                     or (chunk, pass_id - 1) in self._prefix_cache)
        if not (chunk < len(self._bounds) and reachable
                and pass_id <= MAX_TOTAL_PASSES):
            return 0
        start, end = self._bounds[chunk]
        return end - start

    def _parities(self, items: np.ndarray) -> np.ndarray:
        # (chunk, pass) as one key; both fields are 16-bit on the wire
        keys, pair_of = np.unique(items[:, 0] << 16 | items[:, 1],
                                  return_inverse=True)
        pairs = [divmod(key, 1 << 16) for key in keys.tolist()]
        limits = np.array([self._limit(c, p) for c, p in pairs],
                          dtype=np.int64)
        lo, hi = items[:, 2], items[:, 3]
        bad = ~((lo < hi) & (hi <= limits[pair_of]))
        if bad.any():
            row = items[bad.argmax()].tolist()
            raise FrameError(f"parity request {row} out of range")
        bits = np.empty(len(items), dtype=np.uint8)
        for j, (chunk, pass_id) in enumerate(pairs):
            rows = pair_of == j
            prefix = self._prefix(chunk, pass_id)
            bits[rows] = (_packed_bits_at(prefix, hi[rows])
                          ^ _packed_bits_at(prefix, lo[rows]))
        return bits

    def answer(self, frame: Frame) -> Frame:
        """Reply to one PARITY_REQUEST or the closing TAG_EXCHANGE."""
        if self._done:
            raise FrameError("session already verified")
        if frame.msg_type == MsgType.PARITY_REQUEST:
            bits = self._parities(parse_payload(frame).items)
            self.leakage += len(bits)
            return ParityAnswer(bits).encode()
        if frame.msg_type == MsgType.TAG_EXCHANGE:
            theirs = parse_payload(frame)
            n_bits, tag = _hash_tag(self.key, self.cfg.eps_cor, self.cfg.seed)
            self.leakage += n_bits
            self.verified = theirs.n_bits == n_bits and theirs.tag == tag
            self._done = True
            return TagExchange(n_bits, tag).encode()
        raise FrameError(f"unexpected frame {frame.msg_type.name}")

    def result(self) -> ReconciliationResult:
        return ReconciliationResult(self.key, self.leakage, self.verified,
                                    rounds_used=len(self._prefix_cache))


class CorrectorRole:
    """Locates and flips errors in its key by querying the reference role."""

    def __init__(self, key_bits, cfg: ReconciliationConfig,
                 qber_estimate: float):
        self.key = np.asarray(key_bits, dtype=np.uint8).copy()
        self.cfg = cfg
        self.estimate = qber_estimate
        self.leakage = 0

    def _ask(self, chunk: int, pass_id: int, lo, hi):
        """Reference parities of the ranges [lo, hi) of one pass."""
        rows = np.column_stack(np.broadcast_arrays(chunk, pass_id, lo, hi))
        answer = parse_payload((yield ParityRequest(rows).encode()))
        if len(answer.bits) != len(rows):
            raise ValueError("parity answer count mismatch")
        self.leakage += len(answer.bits)
        return answer.bits

    def _wave(self, chunk_idx: int, passes: list, q: int,
              key_chunk: np.ndarray):
        """Binary-search every mismatched block of pass q in lockstep.

        Blocks of one pass are disjoint, so the searches interact only
        through the flips applied after every search has resolved.
        Returns the number of bits flipped.
        """
        perm, _, k, mismatch = passes[q]
        m = len(perm)
        start = np.flatnonzero(mismatch) * k
        lo, hi = start.copy(), np.minimum(start + k, m)
        # prefix parities of the searched blocks only, one row per block;
        # the clamped cells past the chunk's end are never read
        cells = np.minimum(start[:, None] + np.arange(k), m - 1)
        prefix = np.zeros((len(start), k + 1), dtype=np.uint8)
        np.bitwise_xor.accumulate(key_chunk[perm[cells]], axis=1,
                                  out=prefix[:, 1:])
        active = np.flatnonzero(hi - lo > 1)
        while active.size:
            a_lo, a_hi = lo[active], hi[active]
            mid = (a_lo + a_hi) // 2
            ref_left = yield from self._ask(chunk_idx, q + 1, a_lo, mid)
            base = start[active]
            own_left = (prefix[active, mid - base]
                        ^ prefix[active, a_lo - base])
            left_has_error = own_left != ref_left
            hi[active] = np.where(left_has_error, mid, a_hi)
            lo[active] = np.where(left_has_error, a_lo, mid)
            active = active[hi[active] - lo[active] > 1]

        rel = perm[lo]
        key_chunk[rel] ^= 1
        for _, block_r, _, mismatch_r in passes:
            np.logical_xor.at(mismatch_r, block_r[rel], True)
        return len(rel)

    def _run_chunk(self, chunk_idx: int, start: int, end: int):
        m = end - start
        if m == 0:
            return 0
        key_chunk = self.key[start:end]
        # per pass: (perm, block of each position, k, block mismatch flags)
        passes = []
        found_pass1 = chunk_flips = 0
        while True:
            pass_id = len(passes) + 1
            if pass_id == 1:
                k = block_length(self.estimate, self.cfg.round_key_len)
            elif pass_id == 2:
                # a chunk of a few bits can find more than half wrong
                rate = min(max(found_pass1 / m, 0.001), 0.5)
                k = block_length(rate, self.cfg.round_key_len)
            else:
                k = 2 * passes[-1][2]
            k = max(1, min(k, m))

            # the int64 draw serves the two gathers that open the pass;
            # the pass keeps it narrowed
            perm = _pass_permutation(self.cfg.seed, chunk_idx, pass_id, m)
            starts = np.arange(0, m, k)
            ref_par = yield from self._ask(chunk_idx, pass_id, starts,
                                           np.minimum(starts + k, m))
            own = np.bitwise_xor.reduceat(key_chunk[perm], starts)
            n_blocks = len(starts)
            block = np.empty(m, dtype=np.min_scalar_type(n_blocks - 1))
            block[perm] = np.repeat(np.arange(n_blocks, dtype=block.dtype),
                                    k)[:m]
            passes.append((perm.astype(np.min_scalar_type(m - 1)), block, k,
                           own != ref_par))

            flips = 0
            while pending := [r for r, p in enumerate(passes) if p[3].any()]:
                # smallest blocks first; ties go to the earlier pass
                q = min(pending, key=lambda r: passes[r][2])
                flips += yield from self._wave(chunk_idx, passes, q, key_chunk)
                if chunk_flips + flips > m:
                    raise InconsistentParitiesError(
                        f"chunk {chunk_idx}: more than {m} flips")
            chunk_flips += flips
            if pass_id == 1:
                found_pass1 = flips
            if (pass_id >= MIN_PASSES and flips == 0) \
                    or pass_id >= MAX_TOTAL_PASSES:
                return pass_id

    def run(self):
        """Reconcile every chunk, then exchange verification tags.

        Yields each request frame, is sent the reply, and returns the
        ReconciliationResult.
        """
        rounds = 0
        bounds = _chunk_bounds(len(self.key), self.cfg.round_key_len)
        for chunk_idx, (start, end) in enumerate(bounds):
            rounds += yield from self._run_chunk(chunk_idx, start, end)
        n_bits, tag = _hash_tag(self.key, self.cfg.eps_cor, self.cfg.seed)
        theirs = parse_payload((yield TagExchange(n_bits, tag).encode()))
        self.leakage += n_bits
        verified = theirs.n_bits == n_bits and theirs.tag == tag
        return ReconciliationResult(self.key, self.leakage, verified,
                                    rounds_used=rounds)


def reconcile(key_a, key_b, cfg: ReconciliationConfig,
              transcript: list | None = None
              ) -> tuple[ReconciliationResult, ReconciliationResult]:
    """Run a full two-party reconciliation in-process.

    key_a is the corrector's (Alice's) string, key_b the reference.  No
    other code runs the two roles, and this seeds pass 1 with the exact
    mismatch fraction of the two keys, which neither role could know:
    the leakage it reports rests on that oracle.  If transcript is a
    list it receives the corrector-side message log.
    """
    from .transport import RecordingEndpoint, memory_pair

    a = np.asarray(key_a, dtype=np.uint8)
    b = np.asarray(key_b, dtype=np.uint8)
    if len(a) != len(b):
        raise ValueError("keys must have equal length")
    # sampling noise can push the fraction past block_length's 0.5
    estimate = min(np.count_nonzero(a != b) / len(a), 0.5) if len(a) else 0.0

    ep_a, ep_b = memory_pair()
    if transcript is not None:
        ep_a = RecordingEndpoint(ep_a, transcript)

    reference = ReferenceRole(b, cfg)
    steps = CorrectorRole(a, cfg, estimate).run()
    request = next(steps)
    try:
        while True:
            ep_a.send(request)
            ep_b.send(reference.answer(ep_b.recv()))
            request = steps.send(ep_a.recv())
    except StopIteration as done:
        return done.value, reference.result()
