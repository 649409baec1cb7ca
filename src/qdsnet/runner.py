"""Full-stack signing runs: channel simulation through verification.

A run config names two quantum links (Bob's and Charlie's, each with
source intensities, a channel model, a pulse budget, and a seed), the
security targets, and the document to sign.  run_simulation takes each
link in turn through

    simulate -> reconcile Alice's copy -> minimal length from the leakage

then forms both reports at the common length, the three key stores and
one signing round over recorded endpoints.  Every random choice derives
from config seeds, so identical configs give byte-identical outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .cascade import ReconciliationConfig, reconcile
from .channel import ChannelModel, simulate_kgp
from .finitekey import (AnalysisError, IntensityConfig, SecurityTargets,
                        min_signature_length, report_at_length)
from .protocol import (SignatureBundle, connect_parties, run_distribution,
                       run_messaging)


class RunError(RuntimeError):
    """Raised with a stage tag so callers can map failures to exit codes."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _nonnegative(name: str, value) -> int:
    if int(value) < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def _require_known(where: str, d: dict, known: tuple[str, ...]) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class LinkConfig:
    intensity: IntensityConfig
    channel: ChannelModel
    n_pulses: int
    seed: int

    @classmethod
    def from_dict(cls, d: dict) -> "LinkConfig":
        _require_known("link", d, ("intensity", "channel", "n_pulses", "seed"))
        return cls(intensity=IntensityConfig(**d["intensity"]),
                   channel=ChannelModel(**d["channel"]),
                   n_pulses=_nonnegative("link n_pulses", d["n_pulses"]),
                   seed=_nonnegative("link seed", d["seed"]))


@dataclass(frozen=True)
class RunConfig:
    """Everything one signing run needs; two links are mandatory."""

    link_bob: LinkConfig
    link_charlie: LinkConfig
    targets: SecurityTargets
    message_path: str
    tamper: bool = False
    protocol_seed: int = 2024

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _require_known("config", d, ("links", "targets", "message_path",
                                     "tamper", "protocol_seed"))
        links = d.get("links", {})
        if set(links) != {"bob", "charlie"}:
            raise ValueError("config must define exactly the links "
                             "'bob' and 'charlie'")
        # the run measures the message length and the leakage itself
        targets = d.get("targets", {})
        _require_known("targets", targets, ("eps_sf", "eps_cor", "eps_target"))
        return cls(link_bob=LinkConfig.from_dict(links["bob"]),
                   link_charlie=LinkConfig.from_dict(links["charlie"]),
                   targets=SecurityTargets(**targets),
                   message_path=d["message_path"],
                   tamper=bool(d.get("tamper", False)),
                   protocol_seed=_nonnegative(
                       "protocol_seed", d.get("protocol_seed", 2024)))

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _derived_seed(root: int, *key: int) -> int:
    state = np.random.SeedSequence(root, spawn_key=key).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _tamper_one_byte(bundle: SignatureBundle) -> SignatureBundle:
    altered = bytearray(bundle.message)
    altered[0] ^= 0x01
    return SignatureBundle(bundle.sig, bytes(altered), bundle.p_a)


def run_simulation(config: RunConfig, message: bytes | None = None) -> dict:
    """Execute one full signing run; returns the outcome record.

    message, if given, replaces the document at config.message_path.
    """
    if message is None:
        try:
            with open(config.message_path, "rb") as fh:
                message = fh.read()
        except OSError as exc:
            raise RunError("config", f"cannot read message: {exc}")
    if not message:
        raise RunError("config", "refusing to sign an empty document")
    m_bits = 8 * len(message)

    # one record per link; its sifted bits are dropped once reconciled
    links = {}
    for idx, (name, link) in enumerate((("bob", config.link_bob),
                                        ("charlie", config.link_charlie))):
        batch = simulate_kgp(link.n_pulses, link.intensity, link.channel,
                             link.seed)
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
        tamper=_tamper_one_byte if config.tamper else None,
        transcripts=transcripts)
    if outcome.status != "ok":
        raise RunError("protocol", outcome.error)

    return {
        "status": outcome.status,
        "decisions": {"bob": outcome.bob_decision,
                      "charlie": outcome.charlie_decision},
        "reasons": {"bob": outcome.bob_reason,
                    "charlie": outcome.charlie_reason},
        "signature_len_bits": signature_len,
        "eps": max(rec["report"].eps for rec in links.values()),
        "signature_rate_tps": min(rec["report"].signature_rate_tps
                                  for rec in links.values()),
        "message_len_bits": m_bits,
        "tampered": config.tamper,
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
