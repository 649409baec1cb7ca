import numpy as np
import pytest

from qdsnet.channel import (ChannelModel, click_probability,
                            error_probability, expected_rates,
                            expected_tally, simulate_kgp)
from qdsnet.finitekey import IntensityConfig

CFG = IntensityConfig(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.3)
P_Z = 0.75
MODEL = ChannelModel(loss_db=10.0, detector_efficiency=1.0,
                     dark_count_prob=1e-7, misalignment=0.01,
                     pulse_rate_hz=1e9)


def test_click_probability_formula():
    # 1 - (1-2*pd) * exp(-eta * intensity): eta from total dB loss, the
    # dark term doubled for the two detectors of the measured basis
    eta = 1.0 * 10 ** (-10.0 / 10)
    want = 1 - (1 - 2e-7) * np.exp(-eta * 0.5)
    assert click_probability(0.5, MODEL) == pytest.approx(want, rel=1e-12)


def test_click_probability_monotone_in_intensity():
    probs = [click_probability(k, MODEL) for k in (0.0, 0.1, 0.5, 1.0)]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    assert probs[0] == pytest.approx(2e-7, rel=1e-6)   # dark counts only


def test_error_probability_bounded():
    for k in (0.05, 0.1, 0.5):
        e = error_probability(k, MODEL)
        assert 0.0 < e < 0.5
    # with zero misalignment and no darks, errors vanish
    clean = ChannelModel(loss_db=10.0, detector_efficiency=1.0,
                         dark_count_prob=0.0, misalignment=0.0,
                         pulse_rate_hz=1e9)
    assert error_probability(0.5, clean) == 0.0


def test_simulation_replay_byte_identity():
    b1 = simulate_kgp(200_000, CFG, P_Z, MODEL, seed=42)
    b2 = simulate_kgp(200_000, CFG, P_Z, MODEL, seed=42)
    assert b1.tally == b2.tally
    assert b1.alice_bits.tobytes() == b2.alice_bits.tobytes()
    assert b1.sender_bits.tobytes() == b2.sender_bits.tobytes()


def test_simulation_seed_sensitivity():
    b1 = simulate_kgp(200_000, CFG, P_Z, MODEL, seed=1)
    b2 = simulate_kgp(200_000, CFG, P_Z, MODEL, seed=2)
    assert b1.tally != b2.tally or \
        b1.alice_bits.tobytes() != b2.alice_bits.tobytes()


def test_batch_is_internally_consistent():
    b = simulate_kgp(300_000, CFG, P_Z, MODEL, seed=7)
    t = b.tally
    assert t.n_z_total == t.n_z_mu + t.n_z_nu
    assert len(b.alice_bits) == t.n_z_total
    assert len(b.sender_bits) == t.n_z_total
    assert t.m_z_mu <= t.n_z_mu and t.m_z_nu <= t.n_z_nu
    assert t.m_x_mu <= t.n_x_mu and t.m_x_nu <= t.n_x_nu
    assert set(np.unique(b.alice_bits)) <= {0, 1}


def test_mismatch_fraction_matches_error_tally():
    b = simulate_kgp(300_000, CFG, P_Z, MODEL, seed=9)
    mismatches = int((b.alice_bits != b.sender_bits).sum())
    assert mismatches == b.tally.m_z_mu + b.tally.m_z_nu


def test_statistics_agree_with_expectation():
    n = 2_000_000
    b = simulate_kgp(n, CFG, P_Z, MODEL, seed=11)
    want = expected_tally(n, CFG, P_Z, MODEL)
    for field in ("n_z_mu", "n_z_nu", "n_x_mu", "n_x_nu",
                  "m_z_mu", "m_z_nu", "m_x_mu", "m_x_nu"):
        mean = getattr(want, field)
        got = getattr(b.tally, field)
        # five-sigma binomial band around the expectation
        sigma = max(np.sqrt(mean), 1.0)
        assert abs(got - mean) <= 5 * sigma, (field, got, mean)


def test_expected_tally_tracks_rates():
    n = 1_000_000
    rates = expected_rates(CFG, P_Z, MODEL)
    t = expected_tally(n, CFG, P_Z, MODEL)
    assert t.n_z_mu == pytest.approx(n * rates["n_z_mu"], abs=1.0)
    assert t.n_z_total == t.n_z_mu + t.n_z_nu
    assert t.accumulation_time_s == pytest.approx(n / MODEL.pulse_rate_hz)


def test_zero_pulses():
    b = simulate_kgp(0, CFG, P_Z, MODEL, seed=3)
    assert b.tally.n_z_total == 0
    assert len(b.alice_bits) == 0


def test_loss_reduces_yield():
    low = simulate_kgp(400_000, CFG, P_Z, MODEL, seed=5)
    lossy = ChannelModel(loss_db=25.0, detector_efficiency=1.0,
                         dark_count_prob=1e-7, misalignment=0.01,
                         pulse_rate_hz=1e9)
    high = simulate_kgp(400_000, CFG, P_Z, lossy, seed=5)
    assert high.tally.n_z_total < low.tally.n_z_total
