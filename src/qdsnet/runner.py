"""Full-stack signing runs: channel simulation through verification.

A run config names two quantum links (Bob's and Charlie's, each with
source intensities, a channel model, a pulse budget, and a seed), the
security targets, and the document to sign.  run_simulation drives the
whole pipeline and returns a deterministic, JSON-ready outcome record:

    simulate both links -> reconcile Alice's copies -> security
    analysis with the measured leakage -> form the three key stores ->
    one signing round over recorded endpoints -> decisions + bounds.

Every random choice derives from config seeds, so identical configs
produce byte-identical outcome files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cascade import ReconciliationConfig, reconcile
from .channel import ChannelModel, SiftedBatch, simulate_kgp
from .finitekey import (AnalysisError, Conventions, DEFAULT_CONVENTIONS,
                        IntensityConfig, SecurityTargets,
                        min_signature_length, report_at_length)
from .protocol import (MessagingOutcome, SignatureBundle, connect_parties,
                       run_distribution, run_messaging)


class RunError(RuntimeError):
    """Raised with a stage tag so callers can map failures to exit codes."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class LinkConfig:
    intensity: IntensityConfig
    channel: ChannelModel
    n_pulses: int
    seed: int

    @classmethod
    def from_dict(cls, d: dict) -> "LinkConfig":
        return cls(intensity=IntensityConfig(**d["intensity"]),
                   channel=ChannelModel(**d["channel"]),
                   n_pulses=int(d["n_pulses"]), seed=int(d["seed"]))

    def to_dict(self) -> dict:
        return {"intensity": vars(self.intensity).copy(),
                "channel": {k: getattr(self.channel, k) for k in
                            ("loss_db", "detector_efficiency",
                             "dark_count_prob", "misalignment",
                             "pulse_rate_hz", "receiver_loss_db")},
                "n_pulses": self.n_pulses, "seed": self.seed}


@dataclass(frozen=True)
class RunConfig:
    """Everything one signing run needs; two links are mandatory."""

    link_bob: LinkConfig
    link_charlie: LinkConfig
    targets: SecurityTargets
    message_path: str
    transport: str = "inproc"
    tamper: bool = False
    protocol_seed: int = 2024
    ec_passes: int = 2

    def __post_init__(self):
        if self.transport not in ("inproc", "socket"):
            raise ValueError(f"unknown transport {self.transport!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        links = d.get("links", {})
        if set(links) != {"bob", "charlie"}:
            raise ValueError("config must define exactly the links "
                             "'bob' and 'charlie'")
        targets = d.get("targets", {})
        return cls(link_bob=LinkConfig.from_dict(links["bob"]),
                   link_charlie=LinkConfig.from_dict(links["charlie"]),
                   targets=SecurityTargets(**targets),
                   message_path=d["message_path"],
                   transport=d.get("transport", "inproc"),
                   tamper=bool(d.get("tamper", False)),
                   protocol_seed=int(d.get("protocol_seed", 2024)),
                   ec_passes=int(d.get("ec_passes", 2)))

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"links": {"bob": self.link_bob.to_dict(),
                          "charlie": self.link_charlie.to_dict()},
                "targets": vars(self.targets).copy(),
                "message_path": self.message_path,
                "transport": self.transport, "tamper": self.tamper,
                "protocol_seed": self.protocol_seed,
                "ec_passes": self.ec_passes}


def _derived_seed(root: int, *key: int) -> int:
    state = np.random.SeedSequence(root, spawn_key=key).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _tamper_one_byte(bundle: SignatureBundle) -> SignatureBundle:
    altered = bytearray(bundle.message)
    altered[0] ^= 0x01
    return SignatureBundle(bundle.sig, bytes(altered), bundle.p_a)


def _transcript_dict(transcripts: dict) -> dict:
    return {pair: [e.to_dict() for e in log]
            for pair, log in sorted(transcripts.items())}


def run_simulation(config: RunConfig,
                   conventions: Conventions = DEFAULT_CONVENTIONS,
                   message: Optional[bytes] = None) -> dict:
    """Execute one full signing run; returns the outcome record.

    message overrides the config's message_path (used by harnesses that
    generate documents on the fly).
    """
    if message is None:
        try:
            with open(config.message_path, "rb") as fh:
                message = fh.read()
        except OSError as exc:
            raise RunError("config", f"cannot read message: {exc}")
    if not message:
        raise RunError("config", "refusing to sign an empty document")

    links = {"bob": config.link_bob, "charlie": config.link_charlie}

    batches: dict[str, SiftedBatch] = {}
    for name, link in links.items():
        batch = simulate_kgp(link.n_pulses, link.intensity, link.channel,
                             link.seed)
        if batch.tally.n_z_total < 16:
            raise RunError("simulation",
                           f"{name} link produced almost no sifted bits")
        batches[name] = batch

    # error correction: Alice corrects her copy toward each sender's
    ec_results = {}
    lambda_ec = {}
    qber = {}
    for idx, (name, batch) in enumerate(batches.items()):
        ec_cfg = ReconciliationConfig(
            round_key_len=1_000_000, passes=config.ec_passes,
            eps_cor=config.targets.eps_cor,
            seed=_derived_seed(config.protocol_seed, 1, idx))
        cor, ref = reconcile(batch.alice_bits, batch.sender_bits, ec_cfg)
        if not (cor.verified and ref.verified):
            raise RunError("reconciliation",
                           f"{name} link failed verification")
        ec_results[name] = (cor, ref)
        lambda_ec[name] = cor.leakage_bits
        qber[name] = batch.tally.e_z

    # security analysis with the measured disclosure
    m_bits = 8 * len(message)
    targets = {name: replace(config.targets, message_len_bits=m_bits,
                             lambda_ec_bits=lambda_ec[name])
               for name in batches}
    lengths = {}
    for name, batch in batches.items():
        try:
            lengths[name], _ = min_signature_length(
                batch.tally, links[name].intensity, targets[name],
                conventions)
        except AnalysisError as exc:
            raise RunError("security", f"{name} link insecure: {exc}")
    signature_len = max(lengths.values())

    # both links must meet the target at the common (larger) length
    final_reports = {}
    for name, batch in batches.items():
        rep = report_at_length(batch.tally, links[name].intensity,
                               targets[name], signature_len, conventions)
        if rep.eps > config.targets.eps_target:
            raise RunError("security",
                           f"{name} link misses the target at the common "
                           f"signature length")
        final_reports[name] = rep
    eps_final = max(rep.eps for rep in final_reports.values())
    rate_final = min(rep.signature_rate_tps
                     for rep in final_reports.values())

    # distribution: truncate to the shorter link before the key algebra
    n_common = min(len(ec_results[n][0].corrected_key)
                   for n in ("bob", "charlie"))

    def _trim(result):
        from .cascade import ReconciliationResult
        return ReconciliationResult(result.corrected_key[:n_common],
                                    result.leakage_bits, result.verified,
                                    result.rounds_used)

    alice_store, bob_store, charlie_store = run_distribution(
        tuple(_trim(r) for r in ec_results["bob"]),
        tuple(_trim(r) for r in ec_results["charlie"]))

    parties, transcripts = connect_parties(alice_store, bob_store,
                                           charlie_store,
                                           transport=config.transport)
    try:
        outcome: MessagingOutcome = run_messaging(
            parties, message, signature_len_bits=signature_len,
            position_seed=_derived_seed(config.protocol_seed, 2, 0),
            p_seed=_derived_seed(config.protocol_seed, 2, 1),
            tamper=_tamper_one_byte if config.tamper else None,
            transcripts=transcripts)
    finally:
        for party in parties.values():
            for endpoint in party.endpoints.values():
                endpoint.close()
    if outcome.status != "ok":
        raise RunError("protocol", outcome.error)

    return {
        "status": outcome.status,
        "decisions": {"bob": outcome.bob_decision,
                      "charlie": outcome.charlie_decision},
        "reasons": {"bob": outcome.bob_reason,
                    "charlie": outcome.charlie_reason},
        "signature_len_bits": signature_len,
        "eps": eps_final,
        "signature_rate_tps": rate_final,
        "message_len_bits": m_bits,
        "tampered": config.tamper,
        "links": {name: {
            "n_z": batches[name].tally.n_z_total,
            "qber": qber[name],
            "lambda_ec_bits": lambda_ec[name],
            "min_signature_len_bits": lengths[name],
            "report": final_reports[name].to_dict(),
        } for name in ("bob", "charlie")},
        "transcripts": _transcript_dict(outcome.transcripts),
    }


def outcome_to_json(outcome: dict) -> str:
    """Canonical serialization; stable across runs for identical inputs."""
    return json.dumps(outcome, indent=2, sort_keys=True) + "\n"
