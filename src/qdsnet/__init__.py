"""Three-party quantum digital signatures over simulated decoy-state links.

The package splits into layers that can be used independently:

- gf256 / divhash: the GF(256) polynomial arithmetic and the keyed
  division hash that produces message digests.
- channel / finitekey: decoy-state link simulation and the finite-size
  security analysis that turns detection tallies into signature lengths.
- cascade: interactive parity-exchange error correction with leakage
  accounting.
- protocol / runner: key stores, the sign/forward/verify message flow,
  and the end-to-end orchestration used by the CLI.
"""

from .cascade import ReconciliationConfig, ReconciliationResult, reconcile
from .channel import ChannelModel, simulate_kgp
from .divhash import HashSeed, derive_modulus, hash_document
from .finitekey import (AnalysisError, Conventions, DetectionTally,
                        InsufficientDataError, IntensityConfig,
                        LinkInsecureError, SecurityReport, SecurityTargets,
                        min_signature_length, report_at_length,
                        signature_rate)
from .gf256 import Poly, is_irreducible, poly_mod
from .protocol import (DistributionError, KeyExhaustedError, KeyReuseError,
                       KeyShare, KeyStore, PositionAnnouncement,
                       ProtocolError, SignatureBundle, VerifyDecision,
                       connect_parties, extract_share, run_distribution,
                       run_messaging, select_positions, sign,
                       verify_as_receiver)
from .runner import RunConfig, RunError, run_simulation
from .table2 import format_report, reproduce_table

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "ChannelModel", "Conventions", "DetectionTally",
    "DistributionError", "HashSeed", "InsufficientDataError",
    "IntensityConfig", "KeyExhaustedError", "KeyReuseError", "KeyShare",
    "KeyStore", "LinkInsecureError", "Poly", "PositionAnnouncement",
    "ProtocolError", "ReconciliationConfig", "ReconciliationResult",
    "RunConfig", "RunError", "SecurityReport", "SecurityTargets",
    "SignatureBundle", "VerifyDecision", "connect_parties",
    "derive_modulus", "extract_share", "format_report", "hash_document",
    "is_irreducible", "min_signature_length", "poly_mod", "reconcile",
    "report_at_length", "reproduce_table", "run_distribution",
    "run_messaging", "run_simulation", "select_positions", "sign",
    "signature_rate", "simulate_kgp", "verify_as_receiver",
]
