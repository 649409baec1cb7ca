"""Monte-Carlo stand-in for one quantum key-generation link.

Weak coherent pulses at two intensities cross a lossy channel to a
two-detector receiver.  The per-pulse click and error probabilities are
closed-form in the channel parameters.  The simulator samples only the
pulses that survive sifting (matched-basis clicks, about 2% of pulses
at 10 dB): a multinomial split of each shard into survivors and losses,
then intensity, bit and error for the Z-basis survivors alone.  It
returns the per-intensity detection tallies together with the
correlated Z-basis bit strings that become the raw signing keys.

Pulses are processed in fixed-size shards, each drawing from an
independent substream spawned from the master seed, so results are
byte-identical no matter how the shards are batched or distributed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finitekey import DetectionTally, IntensityConfig, require_real_fields

SHARD_PULSES = 1 << 20


@dataclass(frozen=True)
class ChannelModel:
    """Physical parameters of one link, receiver included."""

    loss_db: float
    detector_efficiency: float
    dark_count_prob: float
    misalignment: float
    pulse_rate_hz: float

    def __post_init__(self):
        require_real_fields(self)
        if self.loss_db < 0:
            raise ValueError("loss_db must be nonnegative")
        # past 1/2 the two-detector click_probability exceeds 1
        for name, top in (("detector_efficiency", 1), ("dark_count_prob", 0.5),
                          ("misalignment", 1)):
            if not 0 <= getattr(self, name) <= top:
                raise ValueError(f"{name} must be in [0, {top}]")
        if self.pulse_rate_hz <= 0:
            raise ValueError("pulse_rate_hz must be positive")

    @property
    def eta(self) -> float:
        """End-to-end transmittance including detector efficiency."""
        return self.detector_efficiency * 10.0 ** (-self.loss_db / 10.0)


def click_probability(intensity: float, model: ChannelModel) -> float:
    """Probability that a pulse of the given mean photon number clicks.

    The factor 2 on the dark term models the two detectors of the
    measured basis.
    """
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    return 1.0 - (1.0 - 2.0 * model.dark_count_prob) * math.exp(
        -intensity * model.eta)


def error_probability(intensity: float, model: ChannelModel) -> float:
    """Probability that a click carries the wrong bit.

    Dark-driven clicks are random (error rate 1/2); photon-driven clicks
    err at the misalignment rate.  A zero click probability degenerates
    to pure noise, 1/2.
    """
    p_click = click_probability(intensity, model)
    if p_click <= 0:
        return 0.5
    p_signal = 1.0 - math.exp(-intensity * model.eta)
    p_dark_part = p_click - p_signal
    e = (0.5 * p_dark_part + model.misalignment * p_signal) / p_click
    return min(max(e, 0.0), 0.5)


@dataclass(frozen=True)
class SiftedBatch:
    """One link's sifted output: tallies plus the correlated Z strings.

    alice_bits is the measurement-side string (to be corrected),
    sender_bits the preparation-side authoritative string; both are
    uint8 0/1 arrays of length tally.n_z_total in chronological order.
    """

    tally: DetectionTally
    alice_bits: np.ndarray
    sender_bits: np.ndarray

    def __post_init__(self):
        for name in ("alice_bits", "sender_bits"):
            if len(getattr(self, name)) != self.tally.n_z_total:
                raise ValueError(f"{name} length must equal n_z_total")


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard,)))


def _sift_probabilities(cfg: IntensityConfig, p_z: float, model: ChannelModel
                        ) -> tuple[dict[tuple[str, str], float],
                                   dict[str, float]]:
    """Per-pulse sifting probabilities, the one source for both the
    sampler and the expectation.

    Returns the probability that a pulse survives sifting, keyed by
    (basis, intensity), and the error probability of a survivor, keyed
    by intensity.  ν is sent with probability 1 − p_mu, so cfg.p_nu,
    which a printed table may round, never enters.  Sender and receiver
    pick the Z basis independently, each with probability p_z.
    """
    keep: dict[tuple[str, str], float] = {}
    p_err: dict[str, float] = {}
    for inten, i_val, p_i in (("mu", cfg.mu, cfg.p_mu),
                              ("nu", cfg.nu, 1.0 - cfg.p_mu)):
        p_click = click_probability(i_val, model)
        p_err[inten] = error_probability(i_val, model)
        for basis, p_b in (("z", p_z), ("x", 1.0 - p_z)):
            keep[basis, inten] = p_i * p_b * p_b * p_click
    return keep, p_err


def _simulate_shard(seed: int, shard: int, n: int,
                    keep: dict[tuple[str, str], float], p_err: dict[str, float]
                    ) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Tally, sender bits and Alice bits of one shard of n pulses.

    One multinomial draw splits the shard into Z survivors, X survivors
    per intensity and lost pulses.  Only the Z survivors get per-pulse
    draws (intensity, sender bit, error, in chronological order); the X
    error counts are binomial.  Pulses are i.i.d., so this is the joint
    distribution of sampling every pulse.
    """
    rng = _shard_rng(seed, shard)
    # fixed draw order is part of the determinism contract
    q_z = keep["z", "mu"] + keep["z", "nu"]
    q_x_mu, q_x_nu = keep["x", "mu"], keep["x", "nu"]
    n_z, n_x_mu, n_x_nu, _ = (int(c) for c in rng.multinomial(
        n, [q_z, q_x_mu, q_x_nu, 1.0 - q_z - q_x_mu - q_x_nu]))
    is_mu = rng.random(n_z) < (keep["z", "mu"] / q_z if q_z > 0 else 0.0)
    sender_bit = rng.integers(0, 2, size=n_z, dtype=np.uint8)
    erred = rng.random(n_z) < np.where(is_mu, p_err["mu"], p_err["nu"])
    n_z_mu = int(np.count_nonzero(is_mu))
    counts = {
        "n_z_mu": n_z_mu,
        "n_z_nu": n_z - n_z_mu,
        "m_z_mu": int(np.count_nonzero(erred & is_mu)),
        "m_z_nu": int(np.count_nonzero(erred & ~is_mu)),
        "n_x_mu": n_x_mu,
        "n_x_nu": n_x_nu,
        "m_x_mu": int(rng.binomial(n_x_mu, p_err["mu"])),
        "m_x_nu": int(rng.binomial(n_x_nu, p_err["nu"])),
    }
    return counts, sender_bit, sender_bit ^ erred


def simulate_kgp(n_pulses: int, cfg: IntensityConfig, p_z: float,
                 model: ChannelModel, seed: int) -> SiftedBatch:
    """Simulate one sender-to-Alice key generation session.

    Each pulse picks an intensity, a sender basis and a receiver basis
    (passive, each Z with probability p_z), clicks, and errs given a
    click.  Only matched-basis clicks survive sifting; Z-basis survivors
    contribute key bits, X-basis survivors only tallies.  Each shard
    samples the survivors directly (see _simulate_shard) from its own
    substream.  Deterministic for a fixed (seed, cfg, p_z, model).
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be nonnegative")
    keep, p_err = _sift_probabilities(cfg, p_z, model)

    counts = {k: 0 for k in ("n_z_mu", "n_z_nu", "m_z_mu", "m_z_nu",
                             "n_x_mu", "n_x_nu", "m_x_mu", "m_x_nu")}
    sender_chunks: list[np.ndarray] = []
    alice_chunks: list[np.ndarray] = []

    n_shards = (n_pulses + SHARD_PULSES - 1) // SHARD_PULSES
    for shard in range(n_shards):
        n = min(SHARD_PULSES, n_pulses - shard * SHARD_PULSES)
        shard_counts, sender, alice = _simulate_shard(seed, shard, n,
                                                      keep, p_err)
        for field, c in shard_counts.items():
            counts[field] += c
        sender_chunks.append(sender)
        alice_chunks.append(alice)

    sender_bits = np.concatenate(sender_chunks or [np.zeros(0, np.uint8)])
    alice_bits = np.concatenate(alice_chunks or [np.zeros(0, np.uint8)])
    tally = DetectionTally(
        n_z_total=counts["n_z_mu"] + counts["n_z_nu"],
        accumulation_time_s=n_pulses / model.pulse_rate_hz,
        **counts,
    )
    # exact bookkeeping: tally errors are the Hamming distance by construction
    assert int(np.count_nonzero(sender_bits != alice_bits)) == \
        counts["m_z_mu"] + counts["m_z_nu"]
    return SiftedBatch(tally=tally, alice_bits=alice_bits,
                       sender_bits=sender_bits)


def expected_rates(cfg: IntensityConfig, p_z: float,
                   model: ChannelModel) -> dict[str, float]:
    """Per-pulse expected rates for each tally field (exact, unrounded)."""
    keep, p_err = _sift_probabilities(cfg, p_z, model)
    out: dict[str, float] = {}
    for (basis, inten), q in keep.items():
        out[f"n_{basis}_{inten}"] = q
        out[f"m_{basis}_{inten}"] = q * p_err[inten]
    return out


def expected_tally(n_pulses: int, cfg: IntensityConfig, p_z: float,
                   model: ChannelModel) -> DetectionTally:
    """Expectation of simulate_kgp's tally, rounded to integer counts."""
    if n_pulses < 0:
        raise ValueError("n_pulses must be nonnegative")
    rates = expected_rates(cfg, p_z, model)
    counts = {k: round(n_pulses * v) for k, v in rates.items()}
    return DetectionTally(
        n_z_total=counts["n_z_mu"] + counts["n_z_nu"],
        accumulation_time_s=n_pulses / model.pulse_rate_hz,
        **counts,
    )
