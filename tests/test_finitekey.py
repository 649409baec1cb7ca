import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from qdsnet.channel import ChannelModel
from qdsnet.finitekey import (DetectionTally, IntensityConfig,
                              InsufficientDataError, LinkInsecureError,
                              SecurityReport, SecurityTargets, _entropy_at,
                              _entropy_rate, binary_entropy,
                              gamma_upper, link_bounds, min_signature_length,
                              phase_error_upper, report_at_length,
                              security_bounds, signature_rate, tau)
from qdsnet.table2 import load_rows, row_inputs

from helpers import (full_scan_min_signature_length, keyed_tally,
                     photon_resolved_link)


def test_tau_against_scipy_poisson_mixture():
    cfg = IntensityConfig(mu=0.479, nu=0.127, p_mu=0.775, p_nu=0.225)
    for n in range(6):
        want = cfg.p_mu * poisson.pmf(n, cfg.mu) + \
            cfg.p_nu * poisson.pmf(n, cfg.nu)
        assert tau(n, cfg) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        tau(-1, cfg)


def test_tau_sums_to_one():
    cfg = IntensityConfig(mu=0.6, nu=0.15, p_mu=0.7, p_nu=0.3)
    assert sum(tau(n, cfg) for n in range(60)) == pytest.approx(1.0)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89))
    assert binary_entropy(0.11) == pytest.approx(0.49991, abs=1e-4)


def _gamma_oracle(n, k, eps, lam):
    # fresh transcription of the without-replacement tail correction
    total = n + k
    a = max(n, k)
    g = (total / (n * k)) * math.log(
        total / (2 * math.pi * n * k * lam * (1 - lam) * eps ** 2))
    g = max(g, 0.0)
    num = (1 - 2 * lam) * a * g / total + math.sqrt(
        a ** 2 * g ** 2 / total ** 2 + 4 * lam * (1 - lam) * g)
    return num / (2 + 2 * a ** 2 * g / total ** 2)


def test_gamma_upper_matches_formula():
    rng = np.random.default_rng(20)
    for _ in range(200):
        n = float(rng.integers(100, 10_000_000))
        k = float(rng.integers(100, 10_000_000))
        eps = 10.0 ** rng.uniform(-12, -4)
        lam = rng.uniform(0.01, 0.49)
        assert gamma_upper(n, k, eps, lam) == \
            pytest.approx(_gamma_oracle(n, k, eps, lam), rel=1e-12)


def test_gamma_upper_monotone_in_eps():
    # smaller failure probability must cost a larger correction
    g_tight = gamma_upper(1e6, 1e5, 1e-12, 0.02)
    g_loose = gamma_upper(1e6, 1e5, 1e-6, 0.02)
    assert g_tight > g_loose > 0


def test_gamma_upper_validates():
    with pytest.raises(ValueError):
        gamma_upper(0, 10, 1e-10, 0.1)
    with pytest.raises(ValueError):
        gamma_upper(10, 0, 1e-10, 0.1)


def _golden_row():
    return keyed_tally("100km_AC")


def test_vacuum_bounds_ordering_all_rows():
    from qdsnet.table2 import load_rows, row_inputs
    for row in load_rows():
        tally, cfg, targets = row_inputs(row)
        bounds = link_bounds(tally, cfg, targets)
        assert 0 <= bounds.s_z0_l <= bounds.s_z0_u
        assert bounds.s_z0_u <= tally.n_z_total


def test_single_photon_bound_published_row():
    tally, cfg, targets = _golden_row()
    s1 = link_bounds(tally, cfg, targets).s_z1_l
    assert s1 == pytest.approx(5642925, rel=0.02)   # tabulated value


def test_phase_error_published_row():
    tally, cfg, targets = _golden_row()
    bounds = link_bounds(tally, cfg, targets)
    phi = phase_error_upper(bounds.s_z1_l, bounds.s_x1_l, bounds.v_x1_u,
                            targets.eps_sf)
    assert 0.0 <= phi <= 0.5
    assert phi == pytest.approx(0.0312, rel=0.15)   # tabulated value


def test_phase_error_needs_positive_single_photon_bounds():
    for s_z1, s_x1 in ((1e6, 0.0), (0.0, 1e5)):
        with pytest.raises(InsufficientDataError):
            phase_error_upper(s_z1, s_x1, 10.0, 1e-10)


@st.composite
def _link_inputs(draw):
    counts = {}
    for basis in ("z", "x"):
        for inten in ("mu", "nu"):
            n = draw(st.integers(0, 10**7))
            counts[f"n_{basis}_{inten}"] = n
            # mostly the low error rates under which the bounds hold
            counts[f"m_{basis}_{inten}"] = draw(st.integers(0, n // 20)
                                                | st.integers(0, n))
    tally = DetectionTally(**counts,
                           n_z_total=counts["n_z_mu"] + counts["n_z_nu"],
                           accumulation_time_s=draw(st.floats(1e-3, 1e4)))
    nu = draw(st.floats(0.01, 0.5))
    p_nu = draw(st.floats(0.01, 0.99))
    cfg = IntensityConfig(mu=nu + draw(st.floats(0.01, 1.0)), nu=nu,
                          p_mu=1 - p_nu, p_nu=p_nu)
    targets = SecurityTargets(eps_sf=10 ** draw(st.floats(-15, -3)),
                              eps_cor=1e-10, eps_target=1e-5,
                              message_len_bits=8,
                              lambda_ec_bits=draw(st.floats(0, 1e7)))
    return tally, cfg, targets


@settings(max_examples=300, deadline=None)
@given(inputs=_link_inputs())
def test_link_bounds_stay_within_their_clamps(inputs):
    tally, cfg, targets = inputs
    try:
        b = link_bounds(tally, cfg, targets)
    except InsufficientDataError:
        return
    assert b.s_z0_l >= 0
    assert 0 <= b.s_z0_u <= tally.n_z_total
    assert 0 <= b.s_z1_l <= tally.n_z_total
    assert 0 <= b.s_x1_l <= tally.detections_total("x")
    assert b.v_x1_u >= 0
    assert 0 <= b.phi_z_u <= 0.5


@settings(max_examples=300, deadline=None)
@given(inputs=_link_inputs(), data=st.data())
def test_entropy_stays_under_rate_times_length(inputs, data):
    # the premise of the scan's early exit, at every length, not only
    # the multiples of 8 it visits
    tally, cfg, targets = inputs
    try:
        b = link_bounds(tally, cfg, targets)
    except InsufficientDataError:
        return
    if b.n_z < 2:
        return
    length = data.draw(st.integers(1, b.n_z - 1))
    assert _entropy_at(b, length, targets) <= (
        _entropy_rate(b, targets) * length)


@st.composite
def _physical_links(draw):
    """A link drawn over the ranges of a lossy 1-decoy source, with the
    seed of its photon-number-resolved sampling."""
    mu = draw(st.floats(0.2, 0.9))
    p_mu = draw(st.floats(0.4, 0.95))
    cfg = IntensityConfig(mu=mu, nu=draw(st.floats(0.02, 0.6 * mu)),
                          p_mu=p_mu, p_nu=1 - p_mu)
    model = ChannelModel(loss_db=draw(st.floats(0, 45)),
                         detector_efficiency=draw(st.floats(0.1, 1)),
                         dark_count_prob=10 ** draw(st.floats(-8, -5)),
                         misalignment=draw(st.floats(0, 0.05)),
                         pulse_rate_hz=1e9)
    return (cfg, draw(st.floats(0.5, 0.95)), model,
            int(10 ** draw(st.floats(6, 11))), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(link=_physical_links())
def test_decoy_bounds_hold_against_ground_truth(link):
    # the bounds gate soundness only: each holds for the realized count
    # it bounds, however loose
    cfg, p_z, model, n_pulses, seed = link
    tally, truth = photon_resolved_link(n_pulses, cfg, p_z, model,
                                        np.random.default_rng(seed))
    targets = SecurityTargets(eps_sf=1e-10, eps_cor=1e-10, eps_target=1e-7,
                              message_len_bits=8, lambda_ec_bits=0)
    try:
        b = link_bounds(tally, cfg, targets)
    except InsufficientDataError:
        return
    assert b.s_z1_l <= truth["z1"]
    assert b.s_x1_l <= truth["x1"]
    assert b.v_x1_u >= truth["x1_errors"]
    assert b.s_z0_l <= truth["z0"] <= b.s_z0_u
    assert b.phi_z_u >= truth["z1_phase_errors"] / truth["z1"]


@st.composite
def _small_row_inputs(draw):
    """A golden row with each basis scaled to at most 6e4 counts a cell,
    and each count jittered.

    The leakage runs up to n_Z, half the time near the value at which
    the entropy rate changes sign, so targets out of reach, with either
    sign of the rate, are common; the target and message size vary so
    that reachable ones are too.
    """
    row = draw(st.sampled_from(load_rows()))
    raw = row["tally"]
    counts = {}
    for basis in ("z", "x"):
        scale = draw(st.floats(0.3, 1.0)) * 6e4 / raw[f"n_{basis}_mu"]
        for inten in ("mu", "nu"):
            n, m = (round(raw[f"{kind}_{basis}_{inten}"] * scale
                          * draw(st.floats(0.8, 1.25))) for kind in "nm")
            counts[f"n_{basis}_{inten}"] = n
            counts[f"m_{basis}_{inten}"] = min(m, n)
    tally = DetectionTally(**counts,
                           n_z_total=counts["n_z_mu"] + counts["n_z_nu"],
                           accumulation_time_s=1.0)
    cfg = IntensityConfig(**row["intensity"])
    targets = SecurityTargets(
        eps_sf=10 ** draw(st.floats(-10, -4)), eps_cor=1e-10,
        eps_target=draw(st.floats(1e-9, 1e-2)),
        message_len_bits=8 * draw(st.integers(1, 10**5)),
        lambda_ec_bits=0.0)
    n_z = tally.n_z_total
    leakage = draw(st.floats(0, n_z))
    if draw(st.booleans()):
        try:
            even = n_z * _entropy_rate(
                link_bounds(tally, cfg, targets), targets)
            leakage = min(max(even * draw(st.floats(0.9, 1.1)), 0), n_z)
        except InsufficientDataError:
            pass
    return tally, cfg, replace(targets, lambda_ec_bits=leakage)


def _search_outcome(search, tally, cfg, targets):
    """A search's result, or its error's type, text and best point."""
    try:
        length, report = search(tally, cfg, targets)
    except LinkInsecureError as exc:
        return LinkInsecureError, str(exc), exc.best_eps, exc.best_len
    except InsufficientDataError as exc:
        return InsufficientDataError, str(exc)
    return length, repr(report)


@settings(max_examples=150, deadline=None)
@given(inputs=_small_row_inputs())
def test_min_signature_length_equals_the_full_scan(inputs):
    # small tallies keep each reference scan cheap
    tally, cfg, targets = inputs
    assert _search_outcome(min_signature_length, tally, cfg, targets) == \
        _search_outcome(full_scan_min_signature_length, tally, cfg, targets)


def test_scan_exit_keeps_a_late_optimum(monkeypatch):
    # with rate <= 0 the drawn tallies all peak at L = 8, which an exit
    # at the first length would also return; this entropy obeys the same
    # bound but peaks at L = 736, so only an exact exit matches the scan
    from qdsnet import finitekey

    def entropy(bounds, length, targets):
        if length < 400:
            return -0.01 * length - 40
        return -0.01 * length - max(0.0, 10 - 0.03 * (length - 400))

    inputs = _golden_row()
    short = replace(link_bounds(*inputs), n_z=20_000)   # a short scan
    monkeypatch.setattr(finitekey, "link_bounds", lambda *_: short)
    monkeypatch.setattr(finitekey, "_entropy_at", entropy)
    monkeypatch.setattr(finitekey, "_entropy_rate", lambda *_: -0.01)
    outcome = _search_outcome(min_signature_length, *inputs)
    assert outcome[0] is LinkInsecureError and outcome[3] == 736
    assert outcome == _search_outcome(full_scan_min_signature_length, *inputs)


# what the full scan raised on each golden row at lambda_ec = n_Z/2 + 1,
# recorded before the scan could stop early: the text names the row's
# eps_target, and every row's best is the same point, L = 8
_UNREACHABLE_TARGETS = {
    (50, "A-B"): "4.65e-08", (50, "A-C"): "4.56e-08",
    (100, "A-B"): "4.78e-08", (100, "A-C"): "4.64e-08",
    (150, "A-B"): "4.61e-08", (150, "A-C"): "4.78e-08",
    (200, "A-B"): "4.77e-08", (200, "A-C"): "4.72e-08"}


def test_unreachable_golden_rows_raise_what_the_full_scan_raised():
    rows = load_rows()
    assert {(r["distance_km"], r["link"]) for r in rows} == \
        set(_UNREACHABLE_TARGETS)
    for row in rows:
        tally, cfg, targets = row_inputs(row)
        raised = replace(targets, lambda_ec_bits=tally.n_z_total // 2 + 1)
        with pytest.raises(LinkInsecureError) as info:
            min_signature_length(tally, cfg, raised)
        target = _UNREACHABLE_TARGETS[row["distance_km"], row["link"]]
        assert str(info.value) == (
            f"no substring length reaches eps <= {target} "
            "(best 4.00008e+06 at L = 8)")
        assert info.value.best_eps == 4000078.119627755
        assert info.value.best_len == 8


def test_error_rate_published_row():
    tally, cfg, targets = _golden_row()
    assert tally.e_z * 100 == pytest.approx(1.336, abs=5e-4)


def test_min_signature_length_published_row():
    tally, cfg, targets = _golden_row()
    L, report = min_signature_length(tally, cfg, targets)
    assert L % 8 == 0
    assert 0.9 * 783 <= L <= 1.1 * 783 + 8          # tabulated L band
    assert report.eps <= targets.eps_target
    # the tabulated eps is 4.64e-8; ours must agree within a factor 3
    assert 4.64e-8 / 3 <= report.eps <= 4.64e-8 * 3


def test_min_signature_length_is_minimal():
    tally, cfg, targets = _golden_row()
    L, _ = min_signature_length(tally, cfg, targets)
    at = report_at_length(tally, cfg, targets, L)
    assert at.eps <= targets.eps_target
    if L > 8:
        try:
            below = report_at_length(tally, cfg, targets, L - 8)
            assert below.eps > targets.eps_target
        except InsufficientDataError:
            pass


def test_length_monotone_in_eps_sf():
    tally, cfg, targets = _golden_row()
    L_tight, _ = min_signature_length(tally, cfg, targets)
    loose = SecurityTargets(eps_sf=1e-7, eps_cor=targets.eps_cor,
                            eps_target=targets.eps_target,
                            message_len_bits=targets.message_len_bits,
                            lambda_ec_bits=targets.lambda_ec_bits)
    L_loose, _ = min_signature_length(tally, cfg, loose)
    assert L_loose <= L_tight


def test_eps_components_structure():
    tally, cfg, targets = _golden_row()
    _, report = min_signature_length(tally, cfg, targets)
    assert report.eps_rob == pytest.approx(2 * targets.eps_cor)
    assert report.eps_rep == 0.0
    assert report.eps == max(report.eps_rob, report.eps_rep, report.eps_for)


def test_security_bounds_propagates_nan():
    # a NaN forgery bound must not fall back to eps_rob and pass as secure
    assert math.isnan(security_bounds(math.nan, 64, 1e-10)[3])
    # finite bounds: the largest of the three, whichever it is
    assert security_bounds(20.0, 64, 1e-10)[2:] == (8 * 2.0 ** -19,) * 2
    rob, rep, forge, eps = security_bounds(200.0, 64, 1e-10)
    assert eps == rob == 2e-10 > forge > rep == 0.0


def test_report_serialization_keys():
    tally, cfg, targets = _golden_row()
    _, report = min_signature_length(tally, cfg, targets)
    d = report.to_dict()
    assert set(d) == set(SecurityReport.__dataclass_fields__)
    rebuilt = SecurityReport(**d)
    assert rebuilt == report


def test_signature_rate_identity():
    assert signature_rate(10_000_000, 783, 981.7) == \
        pytest.approx(1e7 / (2 * 783 * 981.7))


def test_zero_detection_tally_raises():
    cfg = IntensityConfig(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.3)
    tally = DetectionTally(n_z_mu=0, m_z_mu=0, n_x_mu=0, m_x_mu=0,
                           n_z_nu=0, m_z_nu=0, n_x_nu=0, m_x_nu=0,
                           n_z_total=0, accumulation_time_s=1.0)
    targets = SecurityTargets(eps_sf=1e-10, eps_cor=1e-10,
                              eps_target=1e-7, message_len_bits=1000,
                              lambda_ec_bits=0.0)
    with pytest.raises(InsufficientDataError):
        link_bounds(tally, cfg, targets)
    with pytest.raises(InsufficientDataError):
        min_signature_length(tally, cfg, targets)


def test_targets_validation():
    budget = dict(eps_sf=1e-10, eps_cor=1e-10, eps_target=1e-5)
    with pytest.raises(ValueError):
        SecurityTargets(**{**budget, "eps_sf": 0.0})
    with pytest.raises(ValueError):
        SecurityTargets(**{**budget, "eps_target": 2.0})
    with pytest.raises(ValueError):
        SecurityTargets(**budget, message_len_bits=12)
    with pytest.raises(ValueError):
        SecurityTargets(**budget, lambda_ec_bits=-1.0)
