"""The click-only sampler against the per-pulse model it replaced."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import slow_simulate_kgp
from qdsnet.channel import (SHARD_PULSES, ChannelModel, _sift_probabilities,
                            _simulate_shard, click_probability,
                            error_probability, expected_rates,
                            expected_tally, simulate_kgp)
from qdsnet.finitekey import DetectionTally, IntensityConfig

CFG = IntensityConfig(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.3)
# printed priors that do not sum to one, as in the 200 km A-C row
ROUNDED_CFG = IntensityConfig(mu=0.5, nu=0.1, p_mu=0.768, p_nu=0.233)
P_Z = 0.75
MODEL = ChannelModel(loss_db=10.0, detector_efficiency=1.0,
                     dark_count_prob=1e-7, misalignment=0.01,
                     pulse_rate_hz=1e9)
FIELDS = ("n_z_mu", "n_z_nu", "m_z_mu", "m_z_nu",
          "n_x_mu", "n_x_nu", "m_x_mu", "m_x_nu")


def _field_matrix(batches) -> np.ndarray:
    return np.array([[getattr(b.tally, f) for f in FIELDS] for b in batches],
                    dtype=float)


@pytest.mark.parametrize("cfg", [CFG, ROUNDED_CFG], ids=["exact", "rounded"])
def test_tally_means_agree_with_per_pulse_model(cfg):
    n, n_seeds = 500_000, 32
    fast = _field_matrix(simulate_kgp(n, cfg, P_Z, MODEL, seed=1000 + s)
                         for s in range(n_seeds))
    slow = _field_matrix(slow_simulate_kgp(n, cfg, P_Z, MODEL, seed=s)
                         for s in range(n_seeds))
    diff = fast.mean(axis=0) - slow.mean(axis=0)
    # standard error of the difference of two independent sample means
    se = np.sqrt((fast.var(axis=0, ddof=1) + slow.var(axis=0, ddof=1))
                 / n_seeds)
    for field, d, s in zip(FIELDS, diff, se):
        assert abs(d) <= 5 * max(s, 1.0 / n_seeds), (field, d, s)


def test_expected_rates_describe_the_sampled_priors():
    # nu is sent with 1 - p_mu, whatever the rounded p_nu says
    rates = expected_rates(ROUNDED_CFG, P_Z, MODEL)
    p_nu = 1 - ROUNDED_CFG.p_mu
    pc_nu = click_probability(ROUNDED_CFG.nu, MODEL)
    assert rates["n_z_nu"] == pytest.approx(
        p_nu * P_Z ** 2 * pc_nu, rel=1e-12)
    assert rates["m_x_nu"] == pytest.approx(
        p_nu * (1 - P_Z) ** 2 * pc_nu
        * error_probability(ROUNDED_CFG.nu, MODEL), rel=1e-12)
    keep, _ = _sift_probabilities(ROUNDED_CFG, P_Z, MODEL)
    for (basis, inten), q in keep.items():
        assert rates[f"n_{basis}_{inten}"] == q

    n = 20_000_000
    got = simulate_kgp(n, ROUNDED_CFG, P_Z, MODEL, seed=5).tally
    want = expected_tally(n, ROUNDED_CFG, P_Z, MODEL)
    for field in FIELDS:
        mean = getattr(want, field)
        assert abs(getattr(got, field) - mean) <= 5 * max(np.sqrt(mean), 1.0), \
            field


@settings(max_examples=15, deadline=None)
@given(k=st.integers(0, 2), r=st.integers(1, SHARD_PULSES - 1),
       seed=st.integers(0, 2**32 - 1))
def test_shard_prefix(k, r, seed):
    short = simulate_kgp(k * SHARD_PULSES, CFG, P_Z, MODEL, seed)
    long = simulate_kgp(k * SHARD_PULSES + r, CFG, P_Z, MODEL, seed)
    n_short = short.tally.n_z_total
    assert long.sender_bits[:n_short].tobytes() == short.sender_bits.tobytes()
    assert long.alice_bits[:n_short].tobytes() == short.alice_bits.tobytes()

    keep, p_err = _sift_probabilities(CFG, P_Z, MODEL)
    shard_counts = [_simulate_shard(seed, j, SHARD_PULSES, keep, p_err)[0]
                    for j in range(k)]
    shard_counts.append(_simulate_shard(seed, k, r, keep, p_err)[0])
    for batch, counts in ((short, shard_counts[:k]), (long, shard_counts)):
        for field in FIELDS:
            assert getattr(batch.tally, field) == sum(c[field] for c in counts)


def test_tally_fields_are_python_ints():
    t = simulate_kgp(3 * SHARD_PULSES // 2, CFG, P_Z, MODEL, seed=4).tally
    for field in FIELDS + ("n_z_total",):
        assert type(getattr(t, field)) is int, field
    assert DetectionTally(**json.loads(json.dumps(t.__dict__))) == t
