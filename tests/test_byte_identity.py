"""Pinned digests of deterministic outputs.

The outcome digests were recorded when the position announcement began
to carry the message length and the outcome lost its constant status
and tampered keys; the 30 kbit transcript before the parties became
synchronous frame handlers; the extra-pass transcript and the
verification tags before reconciliation moved to arrays; the document
digests while the hash still ran one byte per step; the table digest
while the analysis still took a choice of log base and vacuum-bound
intensity.  Restructuring the roles, the codecs, the transports, the
hash or the analysis must leave every one of them unchanged.
"""

import hashlib
import json

import numpy as np

from qdsnet.cascade import ReconciliationConfig, ReferenceRole, reconcile
from qdsnet.divhash import hash_document
from qdsnet.finitekey import min_signature_length
from qdsnet.framing import TagExchange, parse_payload
from qdsnet.runner import outcome_to_json, run_simulation
from qdsnet.table2 import load_rows, reproduce_table, row_inputs

from test_runner import MESSAGE, _small_config, forging_bob


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_outcome_digest_honest():
    out = run_simulation(_small_config(), message=MESSAGE)
    assert _sha256(outcome_to_json(out)) == (
        "e51750df62cc1e148a81cc2d6c0b3df9d4ad80e2807fa6103431ab8492200bac")


def test_outcome_digest_tampered(monkeypatch):
    forging_bob(monkeypatch)
    out = run_simulation(_small_config(), message=MESSAGE)
    assert _sha256(outcome_to_json(out)) == (
        "b4ac9aec5132f640b7da436639fdd9e74c4c7fc344e4283d435552482a3f9bf6")


def _reconcile_digest(n, n_err, seed, cfg):
    """(log length, corrector summary, sha256 of transcript and results)."""
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, 2, n, dtype=np.uint8)
    noisy = ref.copy()
    noisy[rng.choice(n, n_err, replace=False)] ^= 1
    log = []
    cor, rr = reconcile(noisy, ref, cfg, transcript=log)

    def summary(res):
        key = hashlib.sha256(np.packbits(res.corrected_key).tobytes())
        return [key.hexdigest(), res.leakage_bits, res.verified,
                res.rounds_used]

    assert summary(cor) == summary(rr)
    doc = json.dumps({"transcript": [e.to_dict() for e in log],
                      "corrector": summary(cor), "reference": summary(rr)},
                     sort_keys=True)
    return len(log), summary(cor)[1:], _sha256(doc)


def test_reconcile_transcript_digest():
    cfg = ReconciliationConfig(round_key_len=10_000, seed=5)
    assert _reconcile_digest(30_000, 600, 2024, cfg) == (
        226, [4895, True, 10],
        "f9863a172bbb687f1ebeb14e3245cf8640b2532100f36d5f402ffbb3ddb4abfd")


def test_reconcile_extra_pass_digest():
    # 5% errors in one chunk: a fourth pass runs, so the pin covers the
    # pass choice and the flip bookkeeping after the minimum passes
    cfg = ReconciliationConfig(round_key_len=1_000_000, seed=5)
    assert _reconcile_digest(50_000, 2_500, 33, cfg) == (
        120, [17165, True, 4],
        "8aef908b62078d9a7036603ff8dba8997f86b5ad3c6d8ba58cdb30a1c5484ad3")


def test_verification_tags():
    # the tag is never on a transcript, and both sides compute it alike,
    # so only a pin notices a change to the hash tables
    key = np.random.default_rng(2024).integers(0, 2, 10_001, dtype=np.uint8)
    tags = []
    for seed in (0, 1, 2**63 + 5):
        for eps_cor in (1e-10, 1e-19):          # 34- and 64-bit tags
            ref = ReferenceRole(key, ReconciliationConfig(eps_cor=eps_cor,
                                                          seed=seed))
            reply = ref.answer(TagExchange(1, b"\x00").encode())
            tags.append(parse_payload(reply).tag.hex())
    assert tags == ["03f3a62447", "82a9bfb7f3a62447", "03f6d3c657",
                    "7287701ff6d3c657", "03ce9d4f01", "adf3e95bce9d4f01"]


def test_document_digests():
    # a 125 kB document, the size the signature rate is quoted for, at
    # the signing lengths of both demos and two lengths near them
    doc = np.random.default_rng(2024).bytes(125_000)
    digest = hashlib.sha256()
    for L in (688, 712, 1088, 1168):
        bits = np.random.default_rng([L, 7]).bytes(L // 8)
        digest.update(hash_document(doc, bits))
    assert digest.hexdigest() == (
        "8d9e1e525cde7f4e1d0b5fc62130fc11e273c0c4f12a2aa86e9d71b3b6a2323d")


def test_table_rows_digest():
    # every reproduced cell and witness of the eight golden rows
    rows = reproduce_table()["rows"]
    assert _sha256(json.dumps(rows, sort_keys=True)) == (
        "17883cef4bc0e55a2c7366298a3fd5e293aa3c841e9c0782e8d9171a65bb00fc")


def test_analysis_reports_digest():
    # every field of the minimal-length report of the eight golden rows,
    # s_z0_u, v_x1_u and tau0/tau1 included, which the table pin omits
    reports = [min_signature_length(*row_inputs(row))[1].to_dict()
               for row in load_rows()]
    assert _sha256(json.dumps(reports, sort_keys=True)) == (
        "cf63c9efa90facd9ae888b2d3913970f800d4f5ab78ccfc3d38393620578e337")
