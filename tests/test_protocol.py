from dataclasses import replace

import numpy as np
import pytest

from qdsnet import protocol
from qdsnet.cascade import ReconciliationResult
from qdsnet.framing import Frame, parse_payload
from qdsnet.protocol import (DistributionError, KeyExhaustedError, KeyReuseError,
                             KeyStore, PositionAnnouncement, SignatureBundle,
                             VerifyDecision, alice_sign, connect_parties,
                             extract_share, hash_seed_bits, run_distribution,
                             run_messaging, select_positions,
                             verify_as_receiver)

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
    ann = select_positions(store, 128, seed=5, message_len=40)
    assert len(ann.positions) == 256
    assert ann.message_len == 40
    assert len(set(ann.positions)) == 256
    assert store.available == 1000 - 256
    # the same seed on a fresh identical store picks the same set
    store2 = KeyStore.from_bits(np.ones(1000, np.uint8), "alice")
    ann2 = select_positions(store2, 128, seed=5, message_len=40)
    assert ann.positions == ann2.positions
    store3 = KeyStore.from_bits(np.ones(1000, np.uint8), "alice")
    assert select_positions(store3, 128, seed=6,
                            message_len=40).positions != ann.positions


def test_select_positions_validation():
    store = KeyStore.from_bits(np.ones(100, np.uint8), "alice")
    with pytest.raises(ValueError):
        select_positions(store, 12, seed=0, message_len=1)  # not 8k bits
    with pytest.raises(KeyExhaustedError):
        select_positions(store, 64, seed=0, message_len=1)  # 128 > 100


def test_announcement_validation():
    with pytest.raises(ValueError):
        PositionAnnouncement((1, 2, 3), 1)      # odd count
    with pytest.raises(ValueError):
        PositionAnnouncement((1, 1, 2, 2), 1)   # duplicates
    ann = PositionAnnouncement(tuple(range(16)), 1)
    assert ann.half == 8


def test_extract_share_is_one_time():
    _, bob, _ = synthetic_stores(1000, seed=42)
    ann = PositionAnnouncement(tuple(range(128)), 1)
    share = extract_share(bob, ann)
    assert share.role == "bob"
    assert len(share.x_key) == 64 and len(share.y_key) == 64
    with pytest.raises((KeyReuseError, KeyExhaustedError)):
        extract_share(bob, ann)


def test_sign_verify_honest_roundtrip():
    alice, bob, charlie = synthetic_stores(2000, seed=43)
    message = b"transfer 100 units to account 7"
    (ann, bundle), _ = alice_sign(alice, message, 64, 1, hash_seed_bits(9, 64))
    assert bundle.message == message
    assert bundle.signature_len_bits == 64

    share_b = extract_share(bob, ann)
    share_c = extract_share(charlie, ann)
    assert ann.message_len == len(message)
    decision_b = verify_as_receiver(bundle, share_b, share_c, len(message))
    assert decision_b.accept, decision_b.reason
    decision_c = verify_as_receiver(bundle, share_c, share_b, len(message))
    assert decision_c.accept, decision_c.reason


def test_verify_rejects_tampered_message():
    alice, bob, charlie = synthetic_stores(2000, seed=44)
    (ann, bundle), _ = alice_sign(alice, b"pay 10", 64, 2,
                                  hash_seed_bits(3, 64))
    forged = SignatureBundle(sig=bundle.sig, message=b"pay 99",
                             p_a=bundle.p_a)
    share_b = extract_share(bob, ann)
    share_c = extract_share(charlie, ann)
    decision = verify_as_receiver(forged, share_b, share_c, ann.message_len)
    assert not decision.accept
    assert "mismatch" in decision.reason


def test_verify_rejects_a_rewritten_announced_length():
    # the honest bundle against an announcement whose message length
    # field was rewritten on the wire
    alice, bob, charlie = synthetic_stores(2000, seed=60)
    (ann, bundle), _ = alice_sign(alice, b"pay 10", 64, 6,
                                  hash_seed_bits(7, 64))
    share_b = extract_share(bob, ann)
    share_c = extract_share(charlie, ann)
    frame = ann.encode()
    for wrong in (ann.message_len - 1, ann.message_len + 5):
        payload = frame.payload[:4] + wrong.to_bytes(4, "big") \
            + frame.payload[8:]
        rewritten = parse_payload(Frame(frame.msg_type, payload))
        decision = verify_as_receiver(bundle, share_c, share_b,
                                      rewritten.message_len)
        assert not decision.accept
        assert decision.reason.startswith("malformed-bundle: ")


def test_verify_rejects_malformed_share_lengths():
    alice, bob, charlie = synthetic_stores(2000, seed=45)
    (ann, bundle), _ = alice_sign(alice, b"msg", 64, 4,
                                  hash_seed_bits(5, 64))
    share_b = extract_share(bob, ann)
    short = PositionAnnouncement(tuple(range(64)), 3)
    share_c = extract_share(charlie, short)
    decision = verify_as_receiver(bundle, share_b, share_c, 3)
    assert not decision.accept
    assert "malformed" in decision.reason


def test_sign_rejects_empty_message():
    alice, _, _ = synthetic_stores(500, seed=46)
    with pytest.raises(ValueError):
        alice_sign(alice, b"", 64, 0, hash_seed_bits(0, 64))


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


@pytest.mark.parametrize("zeros", [1, 5, 64])
def test_messaging_zero_prefix_forgery_rejected(zeros):
    # a forging Bob puts zero bytes in front of the document: the digest
    # is unchanged, so Charlie rejects on the announced length alone
    alice, bob, charlie = synthetic_stores(4000, seed=61)
    parties, transcripts = connect_parties(alice, bob, charlie)

    def prefix(bundle):
        return replace(bundle, message=bytes(zeros) + bundle.message)

    outcome = run_messaging(parties, b"honest document",
                            signature_len_bits=64, position_seed=27,
                            p_seed=28, tamper=prefix, transcripts=transcripts)
    assert outcome.status == "ok"
    assert outcome.bob_decision == "accept"        # the liar reports accept
    assert outcome.charlie_decision == "reject"
    assert outcome.charlie_reason.startswith("malformed-bundle: ")


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


def test_messaging_abort_on_announced_position_out_of_range(monkeypatch):
    # a hostile announcement names a position past the receivers' keys
    sign_round = protocol.alice_sign

    def out_of_range(store, *args):
        (ann, bundle), frames = sign_round(store, *args)
        far = replace(ann, positions=ann.positions[:-1]
                      + (len(store.key_bits),))
        return (far, bundle), [(dst, far.encode()) for dst, _ in frames[:2]] \
            + frames[2:]

    monkeypatch.setattr(protocol, "alice_sign", out_of_range)
    alice, bob, charlie = synthetic_stores(4000, seed=57)
    parties, transcripts = connect_parties(alice, bob, charlie)
    outcome = run_messaging(parties, b"far position", signature_len_bits=64,
                            position_seed=21, p_seed=22,
                            transcripts=transcripts)
    assert outcome.status == "abort"
    assert outcome.error == ("bob: PositionRangeError: "
                             "position out of range")


def test_messaging_lets_an_unexpected_error_escape(monkeypatch):
    # only protocol, frame and transport errors abort a round; a fault in
    # a role's own code surfaces as itself, never as a protocol abort
    def faulty(*args):
        raise IndexError("a bug")

    monkeypatch.setattr(protocol, "verify_as_receiver", faulty)
    alice, bob, charlie = synthetic_stores(4000, seed=58)
    parties, transcripts = connect_parties(alice, bob, charlie)
    with pytest.raises(IndexError, match="a bug"):
        run_messaging(parties, b"faulty role", signature_len_bits=64,
                      position_seed=23, p_seed=24, transcripts=transcripts)


def test_empty_message_spends_no_position():
    # a caller error: raised before the round spends any of Alice's key
    alice, bob, charlie = synthetic_stores(4000, seed=59)
    parties, transcripts = connect_parties(alice, bob, charlie)
    with pytest.raises(ValueError, match="empty message"):
        run_messaging(parties, b"", signature_len_bits=64, position_seed=25,
                      p_seed=26, transcripts=transcripts)
    assert alice.available == 4000
