"""Full-stack signing runs: channel simulation through verification.

A run config names two quantum links (Bob's and Charlie's, each with
source intensities, a basis prior, a channel model, a pulse budget and
a seed), the security targets and the protocol seed.  The runner reads
no file: the caller loads the config and passes the document's bytes.
run_simulation takes each link in turn through

    simulate -> reconcile Alice's copy -> minimal length from the leakage

then forms both reports at the common length, the three key stores and
one signing round over recorded endpoints.  Every random choice derives
from config seeds, so identical configs and documents give
byte-identical outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .cascade import ReconciliationConfig, reconcile, tag_bit_count
from .channel import ChannelModel, simulate_kgp
from .finitekey import (AnalysisError, IntensityConfig, SecurityTargets,
                        min_signature_length, report_at_length,
                        require_count, require_known, require_object,
                        require_real)
from .protocol import connect_parties, run_distribution, run_messaging


class RunError(RuntimeError):
    """Raised with a stage tag so callers can map failures to exit codes."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


# ten times the 1e11 pulses a 200 km Table 2 link needs; 2^63 fails when read
MAX_PULSES = 10 ** 12


@dataclass(frozen=True)
class LinkConfig:
    intensity: IntensityConfig
    p_z: float
    channel: ChannelModel
    n_pulses: int
    seed: int

    @classmethod
    def from_dict(cls, d: dict) -> "LinkConfig":
        require_known("link", d, [f.name for f in fields(cls)])
        intensity = d["intensity"]    # p_nu alone; p_mu is 1 - p_nu
        require_known("link intensity", intensity, ("mu", "nu", "p_nu"))
        p_nu = require_real("p_nu", intensity["p_nu"])
        if not 0 < 1 - p_nu < 1:
            raise ValueError(f"p_nu must be in (0, 1) with 1 - p_nu below 1, "
                             f"got {p_nu!r}")
        link = cls(intensity=IntensityConfig(**intensity, p_mu=1 - p_nu),
                   p_z=require_real("link p_z", d["p_z"]),
                   channel=ChannelModel(**require_known(
                       "link channel", d["channel"],
                       [f.name for f in fields(ChannelModel)])),
                   n_pulses=require_count("link n_pulses", d["n_pulses"]),
                   seed=require_count("link seed", d["seed"]))
        if not 0 < link.p_z < 1:
            raise ValueError("link p_z must be in (0, 1)")
        if link.n_pulses > MAX_PULSES:
            raise ValueError(f"link n_pulses exceeds {MAX_PULSES:.0e}")
        require_real("link accumulation time n_pulses / pulse_rate_hz",
                     link.n_pulses / link.channel.pulse_rate_hz)
        return link


@dataclass(frozen=True)
class RunConfig:
    """Everything one signing run needs; two links are mandatory."""

    link_bob: LinkConfig
    link_charlie: LinkConfig
    targets: SecurityTargets
    protocol_seed: int

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        require_known("config", d, ("links", "targets", "protocol_seed"))
        links = require_object("links", d["links"])
        if set(links) != {"bob", "charlie"}:
            raise ValueError("config must define exactly the links "
                             "'bob' and 'charlie'")
        # the run measures the message length and the leakage itself
        targets = d["targets"]
        require_known("targets", targets, ("eps_sf", "eps_cor", "eps_target"))
        config = cls(link_bob=LinkConfig.from_dict(links["bob"]),
                     link_charlie=LinkConfig.from_dict(links["charlie"]),
                     targets=SecurityTargets(**targets),
                     protocol_seed=require_count("protocol_seed",
                                                 d["protocol_seed"]))
        tag_bit_count(config.targets.eps_cor)   # before any link runs
        return config


def _derived_seed(root: int, *key: int) -> int:
    state = np.random.SeedSequence(root, spawn_key=key).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def run_simulation(config: RunConfig, message: bytes) -> dict:
    """Sign message in one full run; returns the outcome record."""
    if not message:
        raise RunError("config", "refusing to sign an empty document")
    m_bits = 8 * len(message)

    # one record per link; its sifted bits are dropped once reconciled
    links = {}
    for idx, (name, link) in enumerate((("bob", config.link_bob),
                                        ("charlie", config.link_charlie))):
        batch = simulate_kgp(link.n_pulses, link.intensity, link.p_z,
                             link.channel, link.seed)
        tally = batch.tally
        if tally.n_z_total < 16:
            raise RunError("simulation",
                           f"{name} link produced almost no sifted bits")
        # Alice corrects her copy toward the sender's
        ec_cfg = ReconciliationConfig(
            eps_cor=config.targets.eps_cor,
            seed=_derived_seed(config.protocol_seed, 1, idx))
        cor, ref = reconcile(batch.alice_bits, batch.sender_bits, ec_cfg)
        del batch
        if not (cor.verified and ref.verified):
            raise RunError("reconciliation",
                           f"{name} link failed verification")
        targets = replace(config.targets, message_len_bits=m_bits,
                          lambda_ec_bits=cor.leakage_bits)
        try:
            length, _ = min_signature_length(tally, link.intensity, targets)
        except AnalysisError as exc:
            raise RunError("security", f"{name} link insecure: {exc}")
        links[name] = {"intensity": link.intensity, "tally": tally,
                       "ec": (cor, ref), "targets": targets,
                       "length": length}

    # both links must meet the target at the common (larger) length
    signature_len = max(rec["length"] for rec in links.values())
    for name, rec in links.items():
        rec["report"] = report_at_length(rec["tally"], rec["intensity"],
                                         rec["targets"], signature_len)
        if rec["report"].eps > config.targets.eps_target:
            raise RunError("security", f"{name} link misses the target at "
                           "the common signature length")

    # distribution: truncate to the shorter link before the key algebra
    n_common = min(len(rec["ec"][0].corrected_key) for rec in links.values())
    stores = run_distribution(*(
        tuple(replace(r, corrected_key=r.corrected_key[:n_common])
              for r in links[name]["ec"]) for name in ("bob", "charlie")))

    parties, transcripts = connect_parties(*stores)
    outcome = run_messaging(
        parties, message, signature_len_bits=signature_len,
        position_seed=_derived_seed(config.protocol_seed, 2, 0),
        p_seed=_derived_seed(config.protocol_seed, 2, 1),
        transcripts=transcripts)
    if outcome.status != "ok":
        raise RunError("protocol", outcome.error)

    return {
        "decisions": {"bob": outcome.bob_decision,
                      "charlie": outcome.charlie_decision},
        "reasons": {"bob": outcome.bob_reason,
                    "charlie": outcome.charlie_reason},
        "signature_len_bits": signature_len,
        "eps": max(rec["report"].eps for rec in links.values()),
        "signature_rate_tps": min(rec["report"].signature_rate_tps
                                  for rec in links.values()),
        "message_len_bits": m_bits,
        "links": {name: {
            "n_z": rec["tally"].n_z_total,
            "qber": rec["tally"].e_z,
            "lambda_ec_bits": rec["targets"].lambda_ec_bits,
            "min_signature_len_bits": rec["length"],
            "report": rec["report"].to_dict(),
        } for name, rec in links.items()},
        "transcripts": {pair: [e.to_dict() for e in log]
                        for pair, log in sorted(outcome.transcripts.items())},
    }


def outcome_to_json(outcome: dict) -> str:
    """Canonical serialization; stable across runs for identical inputs."""
    return json.dumps(outcome, indent=2, sort_keys=True) + "\n"
