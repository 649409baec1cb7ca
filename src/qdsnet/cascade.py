"""Interactive parity-exchange error correction with exact leakage audit.

Two roles reconcile correlated bit strings over a frame channel.  The
reference role (Bob or Charlie) holds the authoritative key and answers
parity queries; the corrector role (Alice) locates errors by comparing
block parities and binary-searching mismatched blocks, flipping her own
bits.  Both parties derive each pass's shuffle from the shared seed, so
no permutation ever crosses the wire.  Neither role does I/O: the
reference maps each request frame to its reply, the corrector is a
generator that yields requests and is sent the replies, and reconcile()
drives both from the calling thread over a frame channel.

Passes after the first reshuffle with larger blocks; each flip toggles
the bookkeeping of every earlier pass's block containing that position,
re-queueing blocks whose parity now mismatches (cross-pass error
back-propagation).  Mismatched blocks of one pass are binary-searched in
lockstep, one batched parity request per depth level, which keeps
round-trips logarithmic while leaving the per-bit disclosure count
identical to sequential search.

Verification exchanges a short universal-hash tag: a polynomial
evaluation hash over GF(2^64) keyed by the shared seed, followed by a
seeded multiplier and truncation to ceil(log2(1/eps_cor)) bits.  The
multiplier step makes the truncated family pairwise-uniform, so the
false-accept probability is about 2^-34 at eps_cor = 1e-10 regardless
of key length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .framing import (Frame, FrameError, MsgType, ParityAnswer,
                      ParityRequest, TagExchange, pack_bits, parse_payload)

MAX_TOTAL_PASSES = 20
_MASK64 = (1 << 64) - 1
_POLY64_LOW = 0x1B  # x^64 + x^4 + x^3 + x + 1


@dataclass(frozen=True)
class ReconciliationConfig:
    """Shared parameters of one reconciliation session.

    passes counts the shuffled passes after the first (the default 2
    gives 3 passes total).  Extra passes beyond the minimum keep running
    while the latest pass still found errors, up to MAX_TOTAL_PASSES.
    """

    round_key_len: int = 1_000_000
    passes: int = 2
    eps_cor: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.round_key_len < 1:
            raise ValueError("round_key_len must be >= 1")
        if self.passes < 2:
            raise ValueError("passes must be >= 2")
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


@lru_cache(maxsize=256)
def _session_tables(seed: int) -> tuple[tuple, int]:
    """Byte-windowed multiply-by-alpha tables and the output multiplier."""
    rng = np.random.default_rng(seed)
    alpha = 0
    while alpha == 0:
        alpha = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    beta = 0
    while beta == 0:
        beta = int(rng.integers(0, 1 << 64, dtype=np.uint64))

    pows = []
    x = alpha
    for _ in range(8):
        pows.append(x)
        x = _xtime64(x)
    t0 = []
    for b in range(256):
        acc = 0
        for i in range(8):
            if (b >> i) & 1:
                acc ^= pows[i]
        t0.append(acc)
    tables = [t0]
    for _ in range(7):
        prev = tables[-1]
        nxt = []
        for v in prev:
            for _ in range(8):
                v = _xtime64(v)
            nxt.append(v)
        tables.append(nxt)
    return tuple(tuple(t) for t in tables), beta


def tag_bit_count(eps_cor: float) -> int:
    n_bits = math.ceil(math.log2(1.0 / eps_cor))
    if not 1 <= n_bits <= 64:
        raise ValueError("eps_cor out of the supported tag range")
    return n_bits


def _hash_tag(key_bits: np.ndarray, eps_cor: float, seed: int
              ) -> tuple[int, bytes]:
    """(n_bits, tag) for one key string under the shared seed."""
    n_bits = tag_bit_count(eps_cor)
    tables, beta = _session_tables(seed)
    t0, t1, t2, t3, t4, t5, t6, t7 = tables

    data = pack_bits(key_bits)
    pad = (-len(data)) % 8
    words = np.frombuffer(data + b"\x00" * pad, dtype=">u8").tolist()

    acc = 0
    for c in words:
        a = acc ^ c
        acc = (t0[a & 0xFF] ^ t1[(a >> 8) & 0xFF] ^ t2[(a >> 16) & 0xFF]
               ^ t3[(a >> 24) & 0xFF] ^ t4[(a >> 32) & 0xFF]
               ^ t5[(a >> 40) & 0xFF] ^ t6[(a >> 48) & 0xFF]
               ^ t7[(a >> 56) & 0xFF])
    acc = _gf64_mul(acc, beta)
    tag_int = acc & ((1 << n_bits) - 1)
    return n_bits, tag_int.to_bytes((n_bits + 7) // 8, "big")


def verify(key_a, key_b, eps_cor: float, seed: int) -> tuple[bool, int]:
    """Compare universal-hash tags; returns (equal, disclosed bit count)."""
    a = np.asarray(key_a, dtype=np.uint8)
    b = np.asarray(key_b, dtype=np.uint8)
    if len(a) != len(b):
        raise ValueError("keys must have equal length")
    n_bits, tag_a = _hash_tag(a, eps_cor, seed)
    _, tag_b = _hash_tag(b, eps_cor, seed)
    return tag_a == tag_b, n_bits


# --- shared permutation derivation -----------------------------------------

def _pass_permutation(seed: int, chunk: int, pass_id: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(chunk, pass_id)))
    return rng.permutation(m).astype(np.int64)


def _chunk_bounds(n: int, round_key_len: int) -> list[tuple[int, int]]:
    return [(s, min(s + round_key_len, n))
            for s in range(0, n, round_key_len)] or [(0, 0)]


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
        self._prefix_cache: dict[tuple[int, int], np.ndarray] = {}
        self.leakage = 0
        self.verified = False
        self._done = False

    def _prefix(self, chunk: int, pass_id: int) -> np.ndarray:
        cached = self._prefix_cache.get((chunk, pass_id))
        if cached is None:
            start, end = self._bounds[chunk]
            perm = _pass_permutation(self.cfg.seed, chunk, pass_id, end - start)
            cached = np.bitwise_xor.accumulate(self.key[start:end][perm])
            self._prefix_cache[(chunk, pass_id)] = cached
        return cached

    def _check(self, items) -> None:
        for item in items:
            chunk, pass_id, lo, hi = item
            start, end = (self._bounds[chunk] if chunk < len(self._bounds)
                          else (0, 0))
            # passes open in order: pass p follows a request on pass p - 1
            reachable = (pass_id == 1
                         or (chunk, pass_id - 1) in self._prefix_cache)
            if not (reachable and pass_id <= MAX_TOTAL_PASSES
                    and lo < hi <= end - start):
                raise FrameError(f"parity request {item} out of range")

    def answer(self, frame: Frame) -> Frame:
        """Reply to one PARITY_REQUEST or the closing TAG_EXCHANGE."""
        if self._done:
            raise FrameError("session already verified")
        if frame.msg_type == MsgType.PARITY_REQUEST:
            items = parse_payload(frame).items
            self._check(items)
            bits = []
            for (chunk, pass_id, lo, hi) in items:
                prefix = self._prefix(chunk, pass_id)
                par = prefix[hi - 1]
                if lo:
                    par ^= prefix[lo - 1]
                bits.append(int(par))
            self.leakage += len(bits)
            return ParityAnswer(tuple(bits)).encode()
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

    def _ask(self, items: list):
        answer = parse_payload((yield ParityRequest(tuple(items)).encode()))
        if len(answer.bits) != len(items):
            raise ValueError("parity answer count mismatch")
        self.leakage += len(answer.bits)
        return answer.bits

    def _wave(self, chunk_idx: int, pass_id: int, blocks: list,
              key_chunk: np.ndarray, passes_info: dict, diff_sets: dict):
        """Binary-search every listed block of one pass in lockstep.

        All listed blocks currently have odd parity mismatch; blocks of
        one pass are disjoint, so the searches interact only through the
        flips applied after every search has resolved.
        """
        info = passes_info[pass_id]
        perm, k = info["perm"], info["k"]
        m = len(perm)
        prefix = np.bitwise_xor.accumulate(key_chunk[perm])

        def own(lo: int, hi: int) -> int:
            p = int(prefix[hi - 1])
            if lo:
                p ^= int(prefix[lo - 1])
            return p

        intervals = [[b * k, min((b + 1) * k, m)] for b in blocks]
        active = [iv for iv in intervals if iv[1] - iv[0] > 1]
        while active:
            items = [(chunk_idx, pass_id, iv[0], (iv[0] + iv[1]) // 2)
                     for iv in active]
            answers = yield from self._ask(items)
            for iv, ref_left in zip(active, answers):
                mid = (iv[0] + iv[1]) // 2
                if own(iv[0], mid) != ref_left:
                    iv[1] = mid
                else:
                    iv[0] = mid
            active = [iv for iv in active if iv[1] - iv[0] > 1]

        for iv in intervals:
            rel = int(perm[iv[0]])
            key_chunk[rel] ^= 1
            for r, rinfo in passes_info.items():
                blk = int(rinfo["inv"][rel]) // rinfo["k"]
                s = diff_sets[r]
                if blk in s:
                    s.discard(blk)
                else:
                    s.add(blk)
        return len(intervals)

    def _run_chunk(self, chunk_idx: int, start: int, end: int):
        m = end - start
        if m == 0:
            return 0
        key_chunk = self.key[start:end]
        passes_info: dict[int, dict] = {}
        diff_sets: dict[int, set] = {}
        min_total = self.cfg.passes + 1
        pass_id = 0
        k_prev = 0
        found_pass1 = 0
        while True:
            pass_id += 1
            if pass_id == 1:
                k = block_length(self.estimate, self.cfg.round_key_len)
            elif pass_id == 2:
                k = block_length(max(found_pass1 / m, 0.001),
                                 self.cfg.round_key_len)
            else:
                k = 2 * k_prev
            k = max(1, min(k, m))
            k_prev = k

            perm = _pass_permutation(self.cfg.seed, chunk_idx, pass_id, m)
            starts = np.arange(0, m, k)
            items = [(chunk_idx, pass_id, int(s), int(min(s + k, m)))
                     for s in starts]
            ref_par = yield from self._ask(items)
            own = np.bitwise_xor.reduceat(key_chunk[perm], starts)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(m)
            passes_info[pass_id] = {"perm": perm, "inv": inv, "k": k}
            diff_sets[pass_id] = {i for i in range(len(starts))
                                  if int(own[i]) != ref_par[i]}

            flips = 0
            while True:
                pending = [r for r, s in diff_sets.items() if s]
                if not pending:
                    break
                q = min(pending, key=lambda r: passes_info[r]["k"])
                flips += yield from self._wave(chunk_idx, q,
                                               sorted(diff_sets[q]),
                                               key_chunk, passes_info,
                                               diff_sets)
            if pass_id == 1:
                found_pass1 = flips
            if pass_id >= min_total and flips == 0:
                break
            if pass_id >= MAX_TOTAL_PASSES:
                break
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

    key_a is the corrector's (Alice's) string, key_b the reference.  The
    initial QBER estimate is the exact mismatch fraction, which the
    harness can see even though neither role could; protocol callers
    drive the roles directly and pass their own estimate.  If transcript
    is a list it receives the corrector-side message log.
    """
    from .transport import RecordingEndpoint, memory_pair

    a = np.asarray(key_a, dtype=np.uint8)
    b = np.asarray(key_b, dtype=np.uint8)
    if len(a) != len(b):
        raise ValueError("keys must have equal length")
    estimate = float(np.count_nonzero(a != b)) / len(a) if len(a) else 0.0

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
