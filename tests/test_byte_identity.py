"""Pinned digests of deterministic outputs.

Each digest was recorded before the parties became synchronous frame
handlers; restructuring the roles or the transports must leave every
one of them unchanged.
"""

import hashlib
import json

import numpy as np

from qdsnet.cascade import ReconciliationConfig, reconcile
from qdsnet.runner import outcome_to_json, run_simulation

from test_runner import MESSAGE, _small_config


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_outcome_digest_honest():
    out = run_simulation(_small_config(), message=MESSAGE)
    assert _sha256(outcome_to_json(out)) == (
        "90bdee832c84f93011475082bfde12587e90c3f9fdb1d69bebc63d241bd534bf")


def test_outcome_digest_tampered():
    out = run_simulation(_small_config(tamper=True), message=MESSAGE)
    assert _sha256(outcome_to_json(out)) == (
        "7c4b670e43ed7ae9e7bafefb3aa0cafbc008a7ff46c5d64597662a304cf556cf")


def test_reconcile_transcript_digest():
    rng = np.random.default_rng(2024)
    ref = rng.integers(0, 2, 30_000, dtype=np.uint8)
    noisy = ref.copy()
    noisy[rng.choice(30_000, 600, replace=False)] ^= 1
    log = []
    cor, rr = reconcile(noisy, ref,
                        ReconciliationConfig(round_key_len=10_000, seed=5),
                        transcript=log)

    def summary(res):
        key = hashlib.sha256(np.packbits(res.corrected_key).tobytes())
        return [key.hexdigest(), res.leakage_bits, res.verified,
                res.rounds_used]

    doc = json.dumps({"transcript": [e.to_dict() for e in log],
                      "corrector": summary(cor), "reference": summary(rr)},
                     sort_keys=True)
    assert len(log) == 226
    assert summary(cor) == summary(rr)
    assert summary(cor)[1:] == [4895, True, 10]
    assert _sha256(doc) == (
        "f9863a172bbb687f1ebeb14e3245cf8640b2532100f36d5f402ffbb3ddb4abfd")
