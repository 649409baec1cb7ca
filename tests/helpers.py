"""Independent oracles shared across the test modules.

Everything here is deliberately written from scratch with plain Python
integers (or numpy only for batching), so it cannot share a bug with
the package's table-driven implementations.
"""

from __future__ import annotations

import math

import numpy as np

from qdsnet.cascade import CorrectorRole, _prefix_parities

# ---------------------------------------------------------------------------
# GF(256) scalar arithmetic, shift-and-add with explicit reduction


def slow_gf_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
    return acc


def build_log_tables() -> tuple[list[int], list[int]]:
    """exp/log tables from the generator 3; exp has period 255."""
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = slow_gf_mul(x, 3)
    return exp, log


def log_table_mul(a: int, b: int, exp: list, log: list) -> int:
    if a == 0 or b == 0:
        return 0
    return exp[(log[a] + log[b]) % 255]


# ---------------------------------------------------------------------------
# Polynomials over GF(256) as plain coefficient lists, highest first


def _trim(c: list[int]) -> list[int]:
    i = 0
    while i < len(c) and c[i] == 0:
        i += 1
    return c[i:]


def slow_poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] ^= slow_gf_mul(ca, cb)
    return _trim(out)


def slow_poly_divmod(num: list[int], den: list[int]) -> tuple[list, list]:
    """Classic long division; den must be nonzero."""
    num = _trim(list(num))
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError
    if len(num) < len(den):
        return [], num
    inv_lead = pow_inverse(den[0])
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot)):
        factor = slow_gf_mul(rem[i], inv_lead)
        quot[i] = factor
        if factor:
            for j, dc in enumerate(den):
                rem[i + j] ^= slow_gf_mul(factor, dc)
    return _trim(quot), _trim(rem[len(quot):])


def pow_inverse(a: int) -> int:
    # a^254 by square-and-multiply; valid for a != 0
    acc = 1
    base = a
    e = 254
    while e:
        if e & 1:
            acc = slow_gf_mul(acc, base)
        base = slow_gf_mul(base, base)
        e >>= 1
    return acc


def has_root(coeffs: list[int]) -> bool:
    """True when the polynomial vanishes at some field element."""
    for r in range(256):
        acc = 0
        for c in coeffs:
            acc = slow_gf_mul(acc, r) ^ c
        if acc == 0:
            return True
    return False


def slow_irreducible_low_degree(coeffs: list[int]) -> bool:
    """Trial-division irreducibility, valid for degree <= 3.

    Degrees 2 and 3 are reducible exactly when a linear factor exists,
    i.e. when the polynomial has a root in the field.
    """
    c = _trim(list(coeffs))
    deg = len(c) - 1
    if deg > 3:
        raise ValueError("oracle only valid up to degree 3")
    if deg <= 0:
        return False
    if deg == 1:
        return True
    return not has_root(c)


def slow_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Greatest common divisor, up to a scalar factor."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, slow_poly_divmod(a, b)[1]
    return a


def ben_or_irreducible(coeffs: list[int]) -> bool:
    """Ben-Or's test, valid for every degree >= 1 (slow beyond ~10).

    p of degree d is irreducible iff gcd(x^(256^k) - x, p) == 1 for
    k = 1 .. d // 2: no factor of degree k divides it.  A different
    criterion from the package's Rabin test, on plain integer lists.
    """
    p = _trim(list(coeffs))
    d = len(p) - 1
    h = [1, 0]  # x
    for _ in range(d // 2):
        for _ in range(8):
            h = slow_poly_divmod(slow_poly_mul(h, h), p)[1]
        diff = [0] * max(0, 2 - len(h)) + list(h)
        diff[-2] ^= 1
        if len(slow_poly_gcd(p, diff)) > 1:
            return False
    return True


def count_irreducible_degree2() -> int:
    """Vectorized count of monic irreducible x^2 + b x + c.

    x^2 + b x + c has a root r iff c == r^2 + b r, so mark every (b, c)
    reachable that way and count the complement.
    """
    from qdsnet.gf256 import MUL
    reducible = np.zeros((256, 256), dtype=bool)
    sq = MUL.diagonal()
    b = np.arange(256)
    for r in range(256):
        reducible[b, int(sq[r]) ^ MUL[r, b].astype(int)] = True
    return int((~reducible).sum())


# ---------------------------------------------------------------------------
# Per-pulse link simulation, the reference for the click-only sampler


def slow_simulate_kgp(n_pulses: int, cfg, p_z: float, model, seed: int):
    """Sample every pulse: intensity, both bases, bit, click and error.

    Same shards and substreams as qdsnet.channel.simulate_kgp, but six
    per-pulse draws for every pulse, so its tallies follow the physical
    model directly.  Returns a SiftedBatch.
    """
    from qdsnet.channel import (SHARD_PULSES, SiftedBatch,
                                click_probability, error_probability)
    from qdsnet.finitekey import DetectionTally
    p_click = {"mu": click_probability(cfg.mu, model),
               "nu": click_probability(cfg.nu, model)}
    p_err = {"mu": error_probability(cfg.mu, model),
             "nu": error_probability(cfg.nu, model)}
    counts = dict.fromkeys(("n_z_mu", "n_z_nu", "m_z_mu", "m_z_nu",
                            "n_x_mu", "n_x_nu", "m_x_mu", "m_x_nu"), 0)
    sender_chunks = [np.zeros(0, dtype=np.uint8)]
    alice_chunks = [np.zeros(0, dtype=np.uint8)]
    n_shards = (n_pulses + SHARD_PULSES - 1) // SHARD_PULSES
    for shard in range(n_shards):
        n = min(SHARD_PULSES, n_pulses - shard * SHARD_PULSES)
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(shard,)))
        is_mu = rng.random(n) < cfg.p_mu
        sender_z = rng.random(n) < p_z
        receiver_z = rng.random(n) < p_z
        sender_bit = rng.integers(0, 2, size=n, dtype=np.uint8)
        u_click = rng.random(n)
        u_err = rng.random(n)

        clicked = np.where(is_mu, u_click < p_click["mu"],
                           u_click < p_click["nu"])
        erred = np.where(is_mu, u_err < p_err["mu"], u_err < p_err["nu"])
        matched = sender_z == receiver_z
        kept_z = clicked & matched & sender_z
        kept_x = clicked & matched & ~sender_z

        for inten, sel in (("mu", is_mu), ("nu", ~is_mu)):
            counts[f"n_z_{inten}"] += int(np.count_nonzero(kept_z & sel))
            counts[f"m_z_{inten}"] += int(np.count_nonzero(kept_z & sel & erred))
            counts[f"n_x_{inten}"] += int(np.count_nonzero(kept_x & sel))
            counts[f"m_x_{inten}"] += int(np.count_nonzero(kept_x & sel & erred))
        sender_chunks.append(sender_bit[kept_z])
        alice_chunks.append(sender_bit[kept_z] ^ erred[kept_z])

    tally = DetectionTally(n_z_total=counts["n_z_mu"] + counts["n_z_nu"],
                           accumulation_time_s=n_pulses / model.pulse_rate_hz,
                           **counts)
    return SiftedBatch(tally=tally, alice_bits=np.concatenate(alice_chunks),
                       sender_bits=np.concatenate(sender_chunks))


# ---------------------------------------------------------------------------
# Photon-number-resolved link, the ground truth for the decoy bounds

# photon numbers from here up share one yield
PHOTON_CAP = 12


def photon_resolved_link(n_pulses: int, cfg, p_z: float, model, rng):
    """One link's tally together with the photon-number truth behind it.

    The physics of qdsnet.channel resolved by photon number: a pulse of
    intensity k (nu with probability 1 - p_mu) sent and measured in
    basis b (each end Z with probability p_z) carries n ~ Poisson(k)
    photons, clicks with Y_n = 1 - (1 - 2 p_dark)(1 - eta)^n and errs
    given a click with (p_dark (1 - eta)^n + e_d (1 - (1 - eta)^n)) / Y_n;
    averaged over n these are channel's click and error probabilities.
    Photon numbers from PHOTON_CAP up share its yield, which is still a
    yield sequence the decoy bounds must cover.  A single-photon Z
    detection has a phase error with the single-photon error rate.

    Returns (DetectionTally, truth): truth holds the realized vacuum and
    single-photon Z detections z0 and z1, the single-photon X detections
    x1 and their errors x1_errors, and z1_phase_errors.
    """
    from qdsnet.finitekey import DetectionTally
    n = np.arange(PHOTON_CAP + 1)
    miss = (1 - model.eta) ** n
    yields = 1 - (1 - 2 * model.dark_count_prob) * miss
    err = np.divide(model.dark_count_prob * miss
                    + model.misalignment * (1 - miss), yields,
                    out=np.full(len(n), 0.5), where=yields > 0)
    cells = [(basis, inten) for basis in ("z", "x") for inten in ("mu", "nu")]
    sources = {"mu": (cfg.mu, cfg.p_mu), "nu": (cfg.nu, 1 - cfg.p_mu)}
    bases = {"z": p_z, "x": 1 - p_z}
    keep = [sources[inten][1] * bases[basis] ** 2 for basis, inten in cells]
    sent = rng.multinomial(n_pulses, keep + [max(1 - sum(keep), 0.0)])
    counts, truth = {}, dict.fromkeys(("z0", "z1", "x1", "x1_errors"), 0)
    for (basis, inten), n_sent in zip(cells, sent):
        k = sources[inten][0]
        pmf = [math.exp(-k) * k ** j / math.factorial(j) for j in n[:-1]]
        by_n = rng.multinomial(n_sent, pmf + [max(1 - sum(pmf), 0.0)])
        clicks = rng.binomial(by_n, yields)
        errors = rng.binomial(clicks, err)
        counts[f"n_{basis}_{inten}"] = int(clicks.sum())
        counts[f"m_{basis}_{inten}"] = int(errors.sum())
        if basis == "z":
            truth["z0"] += int(clicks[0])
            truth["z1"] += int(clicks[1])
        else:
            truth["x1"] += int(clicks[1])
            truth["x1_errors"] += int(errors[1])
    truth["z1_phase_errors"] = int(rng.binomial(truth["z1"], err[1]))
    tally = DetectionTally(n_z_total=counts["n_z_mu"] + counts["n_z_nu"],
                           accumulation_time_s=n_pulses / model.pulse_rate_hz,
                           **counts)
    return tally, truth


# ---------------------------------------------------------------------------
# Per-byte division hash, the reference for the blockwise hash_document


def slow_hash_document(message: bytes, p) -> bytes:
    """Digest of message modulo the Poly p, one Horner step per byte.

    Each message byte extends the dividend polynomial by one
    coefficient and the remainder modulo p is carried along; the
    trailing multiplication by x^d is d zero steps.  The digest
    serializes the remainder highest-order coefficient first.
    """
    from qdsnet.gf256 import MUL
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


# ---------------------------------------------------------------------------
# Batched degree-2 division hash (for the exhaustive perturbation sweep)


def batch_hash_deg2(messages: np.ndarray, p1: int, p0: int) -> np.ndarray:
    """Digest of each row of a (k, n_bytes) uint8 array, modulus
    x^2 + p1 x + p0, including the trailing x^2 multiplication.

    Returns a (k, 2) uint8 array, highest coefficient first.  Pure
    numpy Horner recurrence, independent of the package's streaming
    implementation.
    """
    from qdsnet.gf256 import MUL
    msgs = np.asarray(messages, dtype=np.uint8)
    k, n = msgs.shape
    a1 = np.zeros(k, dtype=np.uint8)
    a0 = np.zeros(k, dtype=np.uint8)
    zeros = np.zeros(k, dtype=np.uint8)
    cols = [msgs[:, j] for j in range(n)] + [zeros, zeros]
    for c in cols:
        # (a1 x + a0) * x + c, with x^2 == p1 x + p0
        new_a1 = MUL[a1, p1] ^ a0
        new_a0 = MUL[a1, p0] ^ c
        a1, a0 = new_a1, new_a0
    return np.stack([a1, a0], axis=1)


# ---------------------------------------------------------------------------
# Synthetic key material for protocol-level tests


def synthetic_stores(n_bits: int, seed: int):
    """Key stores satisfying the distribution identity K_a = K_b ^ K_c."""
    from qdsnet.protocol import KeyStore
    rng = np.random.default_rng(seed)
    k_b = rng.integers(0, 2, n_bits, dtype=np.uint8)
    k_c = rng.integers(0, 2, n_bits, dtype=np.uint8)
    return (KeyStore.from_bits(k_b ^ k_c, "alice"),
            KeyStore.from_bits(k_b, "bob"),
            KeyStore.from_bits(k_c, "charlie"))


def keyed_tally(name: str):
    """One bundled reference row's inputs by distance/link name."""
    from qdsnet.table2 import load_rows, row_inputs
    for row in load_rows():
        if row["distance_km"] == int(name.split("km")[0]) and \
                row["link"].replace("-", "") == name.split("_")[1]:
            return row_inputs(row)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Per-item parity answers, the reference for ReferenceRole's array form


def slow_parities(key, cfg, opened: set, items) -> list[int]:
    """Parity of each (chunk, pass, lo, hi) row, one row at a time.

    opened holds the (chunk, pass) pairs answered by earlier requests
    and gains the pairs this one answers.  Every row is checked first:
    one naming a missing chunk, a pass not yet reachable or a range
    outside its chunk raises FrameError and leaves opened unchanged.
    """
    from qdsnet.cascade import MAX_TOTAL_PASSES
    from qdsnet.framing import FrameError
    n, step = len(key), cfg.round_key_len
    bounds = [(s, min(s + step, n)) for s in range(0, n, step)] or [(0, 0)]
    for item in items:
        chunk, pass_id, lo, hi = item
        start, end = bounds[chunk] if chunk < len(bounds) else (0, 0)
        # passes open in order: pass p follows a request on pass p - 1
        reachable = pass_id == 1 or (chunk, pass_id - 1) in opened
        if not (reachable and pass_id <= MAX_TOTAL_PASSES
                and lo < hi <= end - start):
            raise FrameError(f"parity request {item} out of range")
    prefixes = {}
    bits = []
    for chunk, pass_id, lo, hi in items:
        if (chunk, pass_id) not in prefixes:
            start, end = bounds[chunk]
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(chunk, pass_id)))
            shuffled = np.asarray(key[start:end])[rng.permutation(end - start)]
            prefixes[chunk, pass_id] = np.bitwise_xor.accumulate(shuffled)
        prefix = prefixes[chunk, pass_id]
        par = int(prefix[hi - 1])
        if lo:
            par ^= int(prefix[lo - 1])
        bits.append(par)
    opened.update(prefixes)
    return bits


# ---------------------------------------------------------------------------
# Reconciliation: the per-word tag hash, the whole-chunk bisection, and a
# driver that records every frame of a session


def slow_gf64_mul(a: int, b: int) -> int:
    """Shift-and-add product modulo x^64 + x^4 + x^3 + x + 1."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> 64:
            a ^= (1 << 64) | 0x1B
    return acc


def slow_hash_tag(key_bits, eps_cor: float, seed: int) -> tuple[int, bytes]:
    """(n_bits, tag) of the verification hash, one Horner step per word.

    The key's bits, packed big-endian and zero-padded to whole 64-bit
    big-endian words c_1 .. c_n, give sum(c_i alpha^(n + 1 - i)); that
    times beta, truncated to ceil(log2(1/eps_cor)) bits, is the tag.
    alpha and beta are the first nonzero 64-bit draws from the seed.
    """
    n_bits = math.ceil(math.log2(1.0 / eps_cor))
    rng = np.random.default_rng(seed)
    alpha = beta = 0
    while alpha == 0:
        alpha = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    while beta == 0:
        beta = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    data = np.packbits(np.asarray(key_bits, dtype=np.uint8)).tobytes()
    data += bytes(-len(data) % 8)
    acc = 0
    for i in range(0, len(data), 8):
        acc = slow_gf64_mul(acc ^ int.from_bytes(data[i:i + 8], "big"), alpha)
    tag = slow_gf64_mul(acc, beta) & ((1 << n_bits) - 1)
    return n_bits, tag.to_bytes((n_bits + 7) // 8, "big")


class FullPrefixCorrector(CorrectorRole):
    """CorrectorRole whose searches read prefix parities of the whole
    shuffled chunk, rebuilt for every wave."""

    def _wave(self, chunk_idx, passes, q, key_chunk):
        perm, _, k, mismatch = passes[q]
        m = len(perm)
        prefix = _prefix_parities(key_chunk[perm])
        lo = np.flatnonzero(mismatch) * k
        hi = np.minimum(lo + k, m)
        active = np.flatnonzero(hi - lo > 1)
        while active.size:
            a_lo, a_hi = lo[active], hi[active]
            mid = (a_lo + a_hi) // 2
            ref_left = yield from self._ask(chunk_idx, q + 1, a_lo, mid)
            left_has_error = (prefix[mid] ^ prefix[a_lo]) != ref_left
            hi[active] = np.where(left_has_error, mid, a_hi)
            lo[active] = np.where(left_has_error, a_lo, mid)
            active = active[hi[active] - lo[active] > 1]

        rel = perm[lo]
        key_chunk[rel] ^= 1
        for _, block_r, _, mismatch_r in passes:
            np.logical_xor.at(mismatch_r, block_r[rel], True)
        return len(rel)


def drive_session(corrector, reference) -> tuple[list, object]:
    """Run a corrector against a reference role directly.

    Returns every (request, reply) frame pair in order and the
    corrector's ReconciliationResult.
    """
    frames = []
    steps = corrector.run()
    request = next(steps)
    try:
        while True:
            reply = reference.answer(request)
            frames.append((request, reply))
            request = steps.send(reply)
    except StopIteration as done:
        return frames, done.value


# ---------------------------------------------------------------------------
# The minimal-length search without an early exit


def full_scan_min_signature_length(tally, cfg, targets):
    """finitekey.min_signature_length as a plain scan of every length.

    Walks L = 8, 16, ... n_z / 2 to the end when no length meets the
    target, so it is the reference for the scan's early exit.
    """
    from qdsnet.finitekey import (LinkInsecureError, _entropy_at,
                                  link_bounds, report_at_length,
                                  security_bounds)
    bounds = link_bounds(tally, cfg, targets)
    if 2 * targets.eps_cor > targets.eps_target:
        raise LinkInsecureError(
            "robustness floor 2*eps_cor exceeds the target", 2 * targets.eps_cor, None)
    best_eps = math.inf
    best_len: int | None = None
    for length in range(8, bounds.n_z // 2 + 1, 8):
        h_n = _entropy_at(bounds, length, targets)
        eps = security_bounds(h_n, targets.message_len_bits, targets.eps_cor)[3]
        if eps < best_eps:
            best_eps, best_len = eps, length
        if eps <= targets.eps_target:
            report = report_at_length(tally, cfg, targets, length,
                                      bounds=bounds)
            return length, report
    raise LinkInsecureError(
        f"no substring length reaches eps <= {targets.eps_target:g} "
        f"(best {best_eps:g} at L = {best_len})", best_eps, best_len)
