import numpy as np
import pytest

from qdsnet import protocol
from qdsnet.cascade import ReconciliationResult
from qdsnet.protocol import (DistributionError, KeyExhaustedError, KeyReuseError,
                             KeyStore, PositionAnnouncement, SignatureBundle,
                             VerifyDecision, connect_parties, extract_share,
                             run_distribution, run_messaging,
                             select_positions, sign, verify_as_receiver)

from helpers import synthetic_stores


def _close(parties):
    for party in parties.values():
        for ep in party.endpoints.values():
            ep.close()


def _recon_pair(bits):
    ok = ReconciliationResult(corrected_key=np.asarray(bits, np.uint8),
                              leakage_bits=10, verified=True, rounds_used=3)
    return ok, ok


def test_keystore_basics():
    store = KeyStore.from_bits([1, 0, 1, 1, 0, 0, 1, 0], "bob")
    assert store.available == 8
    assert list(store.bits_at([0, 2, 3])) == [1, 1, 1]
    store.consume([0, 1])
    assert store.available == 6
    with pytest.raises(KeyReuseError):
        store.consume([1, 2])                  # position 1 already spent
    with pytest.raises(KeyReuseError):
        store.consume([3, 3])                  # duplicate in one call
    with pytest.raises(ValueError):
        store.consume([100])


def test_distribution_xor_identity():
    rng = np.random.default_rng(40)
    k_b = rng.integers(0, 2, 10_000, dtype=np.uint8)
    k_c = rng.integers(0, 2, 10_000, dtype=np.uint8)
    alice, bob, charlie = run_distribution(_recon_pair(k_b), _recon_pair(k_c))
    assert np.array_equal(
        alice.key_bits, np.bitwise_xor(bob.key_bits, charlie.key_bits))
    assert np.array_equal(bob.key_bits, k_b)
    assert np.array_equal(charlie.key_bits, k_c)
    assert alice.owner == "alice"


def test_distribution_requires_verified_links():
    rng = np.random.default_rng(41)
    k = rng.integers(0, 2, 100, dtype=np.uint8)
    bad = ReconciliationResult(corrected_key=k, leakage_bits=5,
                               verified=False, rounds_used=2)
    with pytest.raises(DistributionError):
        run_distribution((bad, _recon_pair(k)[1]), _recon_pair(k))
    with pytest.raises(DistributionError):
        run_distribution(_recon_pair(k), _recon_pair(k[:50]))


def test_select_positions_properties():
    store = KeyStore.from_bits(np.ones(1000, np.uint8), "alice")
    ann = select_positions(store, 128, seed=5)
    assert len(ann.positions) == 256
    assert len(set(ann.positions)) == 256
    assert store.available == 1000 - 256
    # the same seed on a fresh identical store picks the same set
    store2 = KeyStore.from_bits(np.ones(1000, np.uint8), "alice")
    ann2 = select_positions(store2, 128, seed=5)
    assert ann.positions == ann2.positions
    store3 = KeyStore.from_bits(np.ones(1000, np.uint8), "alice")
    assert select_positions(store3, 128, seed=6).positions != ann.positions


def test_select_positions_validation():
    store = KeyStore.from_bits(np.ones(100, np.uint8), "alice")
    with pytest.raises(ValueError):
        select_positions(store, 12, seed=0)    # not a multiple of 8
    with pytest.raises(KeyExhaustedError):
        select_positions(store, 64, seed=0)    # needs 128 > 100 bits


def test_announcement_validation():
    with pytest.raises(ValueError):
        PositionAnnouncement(positions=(1, 2, 3))      # odd count
    with pytest.raises(ValueError):
        PositionAnnouncement(positions=(1, 1, 2, 2))   # duplicates
    ann = PositionAnnouncement(positions=tuple(range(16)))
    assert ann.half == 8


def test_extract_share_is_one_time():
    _, bob, _ = synthetic_stores(1000, seed=42)
    ann = PositionAnnouncement(positions=tuple(range(128)))
    share = extract_share(bob, ann)
    assert share.role == "bob"
    assert len(share.x_key) == 64 and len(share.y_key) == 64
    with pytest.raises((KeyReuseError, KeyExhaustedError)):
        extract_share(bob, ann)


def test_sign_verify_honest_roundtrip():
    alice, bob, charlie = synthetic_stores(2000, seed=43)
    message = b"transfer 100 units to account 7"
    ann = select_positions(alice, 64, seed=1)
    L = 64
    x_a = alice.bits_at(ann.positions[:L])
    y_a = alice.bits_at(ann.positions[L:])
    bundle = sign(message, x_a, y_a, p_seed=9)
    assert bundle.message == message
    assert bundle.signature_len_bits == 64

    share_b = extract_share(bob, ann)
    share_c = extract_share(charlie, ann)
    decision_b = verify_as_receiver(bundle, share_b, share_c)
    assert decision_b.accept, decision_b.reason
    decision_c = verify_as_receiver(bundle, share_c, share_b)
    assert decision_c.accept, decision_c.reason


def test_verify_rejects_tampered_message():
    alice, bob, charlie = synthetic_stores(2000, seed=44)
    ann = select_positions(alice, 64, seed=2)
    x_a = alice.bits_at(ann.positions[:64])
    y_a = alice.bits_at(ann.positions[64:])
    bundle = sign(b"pay 10", x_a, y_a, p_seed=3)
    forged = SignatureBundle(sig=bundle.sig, message=b"pay 99",
                             p_a=bundle.p_a)
    share_b = extract_share(bob, ann)
    share_c = extract_share(charlie, ann)
    decision = verify_as_receiver(forged, share_b, share_c)
    assert not decision.accept
    assert "mismatch" in decision.reason


def test_verify_rejects_malformed_share_lengths():
    alice, bob, charlie = synthetic_stores(2000, seed=45)
    ann = select_positions(alice, 64, seed=4)
    bundle = sign(b"msg", alice.bits_at(ann.positions[:64]),
                  alice.bits_at(ann.positions[64:]), p_seed=5)
    share_b = extract_share(bob, ann)
    short = PositionAnnouncement(positions=tuple(range(64)))
    share_c = extract_share(charlie, short)
    decision = verify_as_receiver(bundle, share_b, share_c)
    assert not decision.accept
    assert "malformed" in decision.reason


def test_sign_rejects_empty_message():
    alice, _, _ = synthetic_stores(500, seed=46)
    ann = select_positions(alice, 64, seed=0)
    with pytest.raises(ValueError):
        sign(b"", alice.bits_at(ann.positions[:64]),
             alice.bits_at(ann.positions[64:]), p_seed=0)


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_messaging_honest_run(transport):
    alice, bob, charlie = synthetic_stores(4000, seed=47)
    parties, transcripts = connect_parties(alice, bob, charlie,
                                           transport=transport)
    try:
        outcome = run_messaging(parties, b"hello three-party world",
                                signature_len_bits=128, position_seed=1,
                                p_seed=2, transcripts=transcripts)
    finally:
        _close(parties)
    assert outcome.status == "ok", outcome.error
    assert outcome.bob_decision == "accept"
    assert outcome.charlie_decision == "accept"
    assert outcome.bundle.message == b"hello three-party world"
    assert len(outcome.announcement.positions) == 256


def test_messaging_large_document_over_sockets():
    # a 400 kB bundle is more than twice what a local socket pair buffers
    alice, bob, charlie = synthetic_stores(4000, seed=53)
    document = np.random.default_rng(53).bytes(400_000)
    parties, transcripts = connect_parties(alice, bob, charlie,
                                           transport="socket")
    try:
        outcome = run_messaging(parties, document, signature_len_bits=64,
                                position_seed=13, p_seed=14,
                                transcripts=transcripts)
    finally:
        _close(parties)
    assert outcome.status == "ok", outcome.error
    assert (outcome.bob_decision, outcome.charlie_decision) == ("accept",
                                                               "accept")
    assert outcome.bundle.message == document


def test_messaging_tamper_detected():
    alice, bob, charlie = synthetic_stores(4000, seed=48)
    parties, transcripts = connect_parties(alice, bob, charlie)

    def flip(bundle):
        msg = bytearray(bundle.message)
        msg[0] ^= 0x01
        return SignatureBundle(sig=bundle.sig, message=bytes(msg),
                               p_a=bundle.p_a)

    outcome = run_messaging(parties, b"honest document",
                            signature_len_bits=128, position_seed=3,
                            p_seed=4, tamper=flip, transcripts=transcripts)
    assert outcome.status == "ok"
    assert outcome.bob_decision == "accept"        # the liar reports accept
    assert "malicious" in outcome.bob_reason
    assert outcome.charlie_decision == "reject"
    assert "mismatch" in outcome.charlie_reason


def test_messaging_forward_precedes_charlie_share():
    # Bob must commit to the forwarded bundle and his own share before
    # he can see Charlie's share: check his wire transcript ordering
    alice, bob, charlie = synthetic_stores(4000, seed=49)
    parties, transcripts = connect_parties(alice, bob, charlie)
    outcome = run_messaging(parties, b"ordering probe",
                            signature_len_bits=64, position_seed=5,
                            p_seed=6, transcripts=transcripts)
    assert outcome.status == "ok"
    log = transcripts["bob:charlie"]
    kinds = [(e.direction, e.msg_type) for e in log]
    sent_bundle = kinds.index(("send", "SIGNATURE_BUNDLE"))
    sent_share = kinds.index(("send", "KEY_SHARE"))
    got_share = kinds.index(("recv", "KEY_SHARE"))
    assert sent_bundle < got_share
    assert sent_share < got_share


def test_messaging_skips_charlie_after_bob_reject():
    # Bob rejecting (here: tampering detected on his own check is not
    # possible, so force it by giving Bob inconsistent key material)
    rng = np.random.default_rng(50)
    alice = KeyStore.from_bits(rng.integers(0, 2, 4000, np.uint8), "alice")
    bob = KeyStore.from_bits(rng.integers(0, 2, 4000, np.uint8), "bob")
    charlie = KeyStore.from_bits(rng.integers(0, 2, 4000, np.uint8),
                                 "charlie")
    parties, transcripts = connect_parties(alice, bob, charlie)
    outcome = run_messaging(parties, b"broken keys",
                            signature_len_bits=64, position_seed=7,
                            p_seed=8, transcripts=transcripts)
    assert outcome.status == "ok"
    assert outcome.bob_decision == "reject"
    assert outcome.charlie_decision == "skipped"


def test_messaging_abort_on_exhausted_store():
    alice, bob, charlie = synthetic_stores(100, seed=51)   # too small
    parties, transcripts = connect_parties(alice, bob, charlie)
    outcome = run_messaging(parties, b"x", signature_len_bits=128,
                            position_seed=9, p_seed=10,
                            transcripts=transcripts)
    assert outcome.status == "abort"
    assert outcome.error and "exhausted" in outcome.error.lower()


def test_one_signature_per_position_set():
    alice, bob, charlie = synthetic_stores(4000, seed=52)
    parties, transcripts = connect_parties(alice, bob, charlie)
    first = run_messaging(parties, b"first", signature_len_bits=64,
                          position_seed=11, p_seed=12,
                          transcripts=transcripts)
    assert first.status == "ok"
    # the same stores can sign again on fresh positions
    parties2, t2 = connect_parties(parties["alice"].store,
                                   parties["bob"].store,
                                   parties["charlie"].store)
    second = run_messaging(parties2, b"second", signature_len_bits=64,
                           position_seed=11, p_seed=12, transcripts=t2)
    assert second.status == "ok"
    assert second.announcement.positions != first.announcement.positions


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_messaging_abort_on_out_of_order_frame(transport):
    # a stray DECISION waits ahead of Alice's announcement on the
    # alice->bob link, so Bob's first frame is one he cannot accept
    alice, bob, charlie = synthetic_stores(4000, seed=54)
    parties, transcripts = connect_parties(alice, bob, charlie,
                                           transport=transport)
    parties["alice"].endpoints["bob"].send(VerifyDecision(True, "").encode())
    try:
        outcome = run_messaging(parties, b"stray frame", signature_len_bits=64,
                                position_seed=15, p_seed=16,
                                transcripts=transcripts)
    finally:
        _close(parties)
    assert outcome.status == "abort"
    assert outcome.error.startswith("bob: ProtocolError: ")
    assert "POSITION_ANNOUNCEMENT" in outcome.error


def test_messaging_abort_when_frames_run_out(monkeypatch):
    # Alice never sends the bundle: the queue drains with Bob and
    # Charlie still waiting, which is an abort, not a KeyError
    sign_round = protocol.alice_sign

    def without_bundle(*args):
        result, frames = sign_round(*args)
        return result, frames[:2]

    monkeypatch.setattr(protocol, "alice_sign", without_bundle)
    alice, bob, charlie = synthetic_stores(4000, seed=55)
    parties, transcripts = connect_parties(alice, bob, charlie)
    outcome = run_messaging(parties, b"lost bundle", signature_len_bits=64,
                            position_seed=17, p_seed=18,
                            transcripts=transcripts)
    assert outcome.status == "abort"
    assert "no frames left before bob, charlie finished" in outcome.error
    assert outcome.bob_decision == outcome.charlie_decision == "abort"


def test_messaging_abort_on_frame_after_role_is_done(monkeypatch):
    # Charlie's last step also writes to Alice, who signed at the start
    # and takes no frames
    script = protocol.charlie_script

    def chatty(*args):
        result, frames = yield from script(*args)
        return result, frames + [("alice", VerifyDecision(True, "").encode())]

    monkeypatch.setattr(protocol, "charlie_script", chatty)
    alice, bob, charlie = synthetic_stores(4000, seed=56)
    parties, transcripts = connect_parties(alice, bob, charlie)
    outcome = run_messaging(parties, b"late frame", signature_len_bits=64,
                            position_seed=19, p_seed=20,
                            transcripts=transcripts)
    assert outcome.status == "abort"
    assert outcome.error == ("alice: ProtocolError: expected no more "
                             "frames, got DECISION from charlie")
