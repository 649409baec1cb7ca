import json

import pytest

from qdsnet.channel import ChannelModel
from qdsnet.finitekey import IntensityConfig, SecurityTargets
from qdsnet.runner import (LinkConfig, RunConfig, RunError, outcome_to_json,
                           run_simulation)

_INTENSITY = dict(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.3, p_z=0.75, p_x=0.25)
_CHANNEL = dict(loss_db=5.0, detector_efficiency=1.0, dark_count_prob=1e-7,
                misalignment=0.01, pulse_rate_hz=1e9)


def _small_config(**kw):
    link = lambda seed: LinkConfig(intensity=IntensityConfig(**_INTENSITY),
                                   channel=ChannelModel(**_CHANNEL),
                                   n_pulses=20_000_000, seed=seed)
    defaults = dict(link_bob=link(11), link_charlie=link(22),
                    targets=SecurityTargets(eps_sf=1e-10, eps_cor=1e-10,
                                            eps_target=1e-7),
                    message_path="unused.bin", protocol_seed=7)
    defaults.update(kw)
    return RunConfig(**defaults)


MESSAGE = bytes(range(256)) * 4


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"links": {"bob": {}}, "message_path": "x"})


def test_run_is_deterministic():
    cfg = _small_config()
    out1 = run_simulation(cfg, message=MESSAGE)
    out2 = run_simulation(cfg, message=MESSAGE)
    assert outcome_to_json(out1) == outcome_to_json(out2)


def test_outcome_structure_and_decisions():
    out = run_simulation(_small_config(), message=MESSAGE)
    assert out["status"] == "ok"
    assert out["decisions"] == {"bob": "accept", "charlie": "accept"}
    assert out["eps"] <= 1e-7
    assert out["signature_len_bits"] % 8 == 0
    assert out["message_len_bits"] == 8 * len(MESSAGE)
    assert not out["tampered"]
    for name in ("bob", "charlie"):
        link = out["links"][name]
        assert link["n_z"] > 0
        assert 0 <= link["qber"] < 0.5
        assert link["lambda_ec_bits"] > 0
        assert link["report"]["eps"] <= 1e-7
    assert out["signature_rate_tps"] > 0
    assert out["transcripts"]


def test_tamper_flag_flips_charlie():
    out = run_simulation(_small_config(tamper=True), message=MESSAGE)
    assert out["status"] == "ok"
    assert out["tampered"]
    assert out["decisions"]["bob"] == "accept"    # the liar's claim
    assert out["decisions"]["charlie"] == "reject"
    assert "mismatch" in out["reasons"]["charlie"]


def test_empty_message_is_config_error():
    with pytest.raises(RunError) as err:
        run_simulation(_small_config(), message=b"")
    assert err.value.stage == "config"


def test_missing_message_file_is_config_error():
    with pytest.raises(RunError) as err:
        run_simulation(_small_config(message_path="/nonexistent/doc.bin"))
    assert err.value.stage == "config"


def test_starved_link_is_simulation_error():
    starved = LinkConfig(intensity=IntensityConfig(**_INTENSITY),
                         channel=ChannelModel(**{**_CHANNEL,
                                                 "loss_db": 80.0}),
                         n_pulses=100_000, seed=1)
    with pytest.raises(RunError) as err:
        run_simulation(_small_config(link_charlie=starved), message=MESSAGE)
    assert err.value.stage == "simulation"


def test_first_failing_link_names_the_stage():
    # the links run one after the other: Bob's insecure link stops the
    # run before Charlie's starved link is simulated
    short = LinkConfig(intensity=IntensityConfig(**_INTENSITY),
                       channel=ChannelModel(**_CHANNEL),
                       n_pulses=200_000, seed=3)
    starved = LinkConfig(intensity=IntensityConfig(**_INTENSITY),
                         channel=ChannelModel(**{**_CHANNEL,
                                                 "loss_db": 80.0}),
                         n_pulses=100_000, seed=1)
    with pytest.raises(RunError) as err:
        run_simulation(_small_config(link_bob=short, link_charlie=starved),
                       message=MESSAGE)
    assert err.value.stage == "security"
    assert str(err.value).startswith("bob link insecure")


def test_unreachable_target_is_security_error():
    tight = SecurityTargets(eps_sf=1e-10, eps_cor=1e-10, eps_target=1e-40)
    with pytest.raises(RunError) as err:
        run_simulation(_small_config(targets=tight), message=MESSAGE)
    assert err.value.stage == "security"


def test_outcome_json_stable_shape():
    out = run_simulation(_small_config(), message=MESSAGE)
    text = outcome_to_json(out)
    parsed = json.loads(text)
    assert set(parsed) == {"status", "decisions", "reasons",
                           "signature_len_bits", "eps",
                           "signature_rate_tps", "message_len_bits",
                           "tampered", "links", "transcripts"}
