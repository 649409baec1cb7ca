"""Three-party signing protocol: distribution and messaging stages.

Distribution turns two reconciled point-to-point keys into the signing
geometry: Bob holds K_b, Charlie holds K_c, and the signer Alice holds
K_a = K_b xor K_c, so either receiver alone knows nothing about Alice's
key but the two together can reconstruct any part of it.

Messaging consumes 2L fresh key bits per signature.  Alice announces
the positions, splits her bits into an X half (masks the digest) and a
Y half (masks the one-time hash seed), and sends {Sig, M, P_a} to Bob.
Bob forwards the bundle plus his own key share to Charlie before he
verifies anything, Charlie returns his share to Bob, and both check
that unmasking the signature with the recombined X key reproduces the
digest of the message under the recombined seed.  Bob rejecting
short-circuits Charlie's check.  The four messages of a round
(PositionAnnouncement, SignatureBundle, KeyShare, VerifyDecision) are
framing's dataclasses, each its own wire codec, and are re-exported
here; a parsed frame is the message itself.

No party does I/O.  Alice signs up front and returns the frames she
sends; each receiver is a frame handler that takes one frame from a
peer and returns the frames it sends in reply.  run_messaging carries
those frames over the parties' endpoints from the calling thread.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .divhash import HashSeed, hash_document
from .framing import (KeyShare, MsgType, PositionAnnouncement,
                      SignatureBundle, VerifyDecision, _as_bits, pack_bits,
                      parse_payload, unpack_bits)

ROLE_ALICE = "alice"
ROLE_BOB = "bob"
ROLE_CHARLIE = "charlie"


class ProtocolError(RuntimeError):
    pass


class DistributionError(ProtocolError):
    """A link arrived unverified; aborting is the robustness pathway."""


class KeyExhaustedError(ProtocolError):
    """Not enough unconsumed key bits for the requested extraction."""


class KeyReuseError(ProtocolError):
    """A position was consumed twice; the one-time property forbids it."""


@dataclass
class KeyStore:
    """A party's raw key string with consumption bookkeeping."""

    key_bits: np.ndarray
    used_mask: np.ndarray
    owner: str

    @classmethod
    def from_bits(cls, bits, owner: str) -> "KeyStore":
        arr = _as_bits(bits).copy()
        return cls(arr, np.zeros(len(arr), dtype=bool), owner)

    @property
    def available(self) -> int:
        return int(len(self.key_bits) - np.count_nonzero(self.used_mask))

    def bits_at(self, positions) -> np.ndarray:
        idx = np.asarray(positions, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.key_bits)):
            raise ValueError("position out of range")
        return self.key_bits[idx].copy()

    def consume(self, positions) -> np.ndarray:
        """Return the bits at positions and mark them used, exactly once."""
        idx = np.asarray(positions, dtype=np.int64)
        if len(np.unique(idx)) != len(idx):
            raise KeyReuseError("duplicate positions in one extraction")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.key_bits)):
            raise ValueError("position out of range")
        if np.any(self.used_mask[idx]):
            raise KeyReuseError(f"{self.owner}: position already consumed")
        self.used_mask[idx] = True
        return self.key_bits[idx].copy()


def run_distribution(link_b, link_c) -> tuple[KeyStore, KeyStore, KeyStore]:
    """Form the three key stores from two reconciled links.

    Each link is the (corrector result, reference result) pair returned
    by reconciliation: the corrector side is Alice's copy, the reference
    the partner's.  Returns (alice, bob, charlie) stores with
    K_a = K_b xor K_c.
    """
    (a_b, bob_res), (a_c, charlie_res) = link_b, link_c
    for res, name in ((a_b, "bob link"), (bob_res, "bob link"),
                      (a_c, "charlie link"), (charlie_res, "charlie link")):
        if not res.verified:
            raise DistributionError(f"{name} failed verification")
    k_ab = _as_bits(a_b.corrected_key)
    k_ac = _as_bits(a_c.corrected_key)
    if len(k_ab) != len(k_ac):
        raise DistributionError("links produced unequal key lengths")
    alice = KeyStore.from_bits(k_ab ^ k_ac, ROLE_ALICE)
    bob = KeyStore.from_bits(bob_res.corrected_key, ROLE_BOB)
    charlie = KeyStore.from_bits(charlie_res.corrected_key, ROLE_CHARLIE)
    return alice, bob, charlie


def select_positions(store: KeyStore, signature_len_bits: int,
                     seed) -> PositionAnnouncement:
    """Sample 2L unused positions from Alice's store and consume them."""
    L = signature_len_bits
    if L % 8 or L < 8:
        raise ValueError("signature length must be a multiple of 8 bits")
    free = np.flatnonzero(~store.used_mask)
    if len(free) < 2 * L:
        raise KeyExhaustedError(
            f"{store.owner}: need {2 * L} fresh bits, have {len(free)}")
    rng = np.random.default_rng(seed)
    picked = rng.choice(free, size=2 * L, replace=False)
    store.consume(picked)
    return PositionAnnouncement(tuple(int(p) for p in picked))


def extract_share(store: KeyStore, announcement: PositionAnnouncement
                  ) -> KeyShare:
    """Consume the announced positions from a receiver's store."""
    bits = store.consume(announcement.positions)
    L = announcement.half
    return KeyShare(bits[:L], bits[L:], store.owner)


def sign(message: bytes, x_a, y_a, p_seed) -> SignatureBundle:
    """Mask the digest with X_a and the one-time hash seed with Y_a."""
    if not message:
        raise ValueError("cannot sign an empty message")
    x = _as_bits(x_a)
    y = _as_bits(y_a)
    L = len(x)
    if len(y) != L:
        raise ValueError("x_a and y_a must have equal length")
    if L % 8 or L < 8:
        raise ValueError("signature length must be a multiple of 8 bits")
    rng = np.random.default_rng(p_seed)
    p_bits = rng.integers(0, 2, L, dtype=np.uint8)
    seed = HashSeed(pack_bits(p_bits), L)
    dig = unpack_bits(hash_document(message, seed), L)
    return SignatureBundle(sig=dig ^ x, message=bytes(message),
                           p_a=p_bits ^ y)


def verify_as_receiver(bundle: SignatureBundle, own: KeyShare,
                       peer: KeyShare) -> VerifyDecision:
    """Recombine shares, unmask, and compare digests."""
    L = bundle.signature_len_bits
    if L == 0:
        return VerifyDecision(False, "malformed-bundle: empty signature")
    if (len(own.x_key) != L or len(peer.x_key) != L
            or len(own.y_key) != L or len(peer.y_key) != L):
        return VerifyDecision(False, "malformed-bundle: share length mismatch")
    if not bundle.message:
        return VerifyDecision(False, "malformed-bundle: empty message")
    k_x = own.x_key ^ peer.x_key
    k_y = own.y_key ^ peer.y_key
    expected = bundle.sig ^ k_x
    p_bits = bundle.p_a ^ k_y
    seed = HashSeed(pack_bits(p_bits), L)
    actual = unpack_bits(hash_document(bundle.message, seed), L)
    if np.array_equal(expected, actual):
        return VerifyDecision(True, "digest match")
    return VerifyDecision(False, "digest mismatch")


# --- messaging orchestration -------------------------------------------------

@dataclass
class Party:
    store: KeyStore
    endpoints: dict


@dataclass
class MessagingOutcome:
    status: str
    bob_decision: str
    bob_reason: str
    charlie_decision: str
    charlie_reason: str
    bundle: Optional[SignatureBundle] = None
    announcement: Optional[PositionAnnouncement] = None
    transcripts: dict = field(default_factory=dict)
    error: str = ""


def connect_parties(alice: KeyStore, bob: KeyStore, charlie: KeyStore,
                    transport: str = "inproc") -> tuple[dict, dict]:
    """Wire the triangle with transcript recording on every endpoint.

    transport "inproc" uses in-memory channels, "socket" real socket pairs;
    both speak the identical frame codec.  Returns
    ({role: Party}, {"<role>:<peer>": entry list}).
    """
    from .transport import RecordingEndpoint, memory_pair, socket_pair

    if transport not in ("inproc", "socket"):
        raise ValueError(f"unknown transport {transport!r}")
    make_pair = memory_pair if transport == "inproc" else socket_pair
    parties = {role: Party(store, {}) for role, store in
               ((ROLE_ALICE, alice), (ROLE_BOB, bob), (ROLE_CHARLIE, charlie))}
    transcripts: dict = {}
    for left, right in ((ROLE_ALICE, ROLE_BOB), (ROLE_ALICE, ROLE_CHARLIE),
                        (ROLE_BOB, ROLE_CHARLIE)):
        ep_l, ep_r = make_pair()
        log_l: list = []
        log_r: list = []
        transcripts[f"{left}:{right}"] = log_l
        transcripts[f"{right}:{left}"] = log_r
        parties[left].endpoints[right] = RecordingEndpoint(ep_l, log_l)
        parties[right].endpoints[left] = RecordingEndpoint(ep_r, log_r)
    return parties, transcripts


def _expect(peer: str, msg_type: MsgType, out: list = ()):
    """Script step: send out, then take the next frame, which must be
    msg_type from peer; returns the message it carries."""
    got, frame = yield list(out)
    if (got, frame.msg_type) != (peer, msg_type):
        raise ProtocolError(f"expected {msg_type.name} from {peer}, got "
                            f"{frame.msg_type.name} from {got}")
    return parse_payload(frame)


def alice_sign(store: KeyStore, message: bytes, L: int, position_seed,
               p_seed):
    """Signer: announces the positions to both receivers, signs to Bob.
    Takes no frames; returns (result, the pairs to send)."""
    ann = select_positions(store, L, position_seed)
    bundle = sign(message, store.bits_at(ann.positions[:L]),
                  store.bits_at(ann.positions[L:]), p_seed)
    announce = ann.encode()
    return (ann, bundle), [(ROLE_BOB, announce), (ROLE_CHARLIE, announce),
                           (ROLE_BOB, bundle.encode())]


def bob_script(store: KeyStore, tamper):
    """First receiver: forwards bundle and share, then verifies.  A
    tamper callable makes Bob a forger: he forwards the altered bundle
    and reports "accept" to Charlie without checking anything."""
    ann = yield from _expect(ROLE_ALICE, MsgType.POSITION_ANNOUNCEMENT)
    share = extract_share(store, ann)
    bundle = yield from _expect(ROLE_ALICE, MsgType.SIGNATURE_BUNDLE)
    forwarded = tamper(bundle) if tamper is not None else bundle
    # transference precedes verification: Bob commits his share
    # to Charlie before learning anything about Charlie's half
    peer = yield from _expect(ROLE_CHARLIE, MsgType.KEY_SHARE, [
        (ROLE_CHARLIE, forwarded.encode()), (ROLE_CHARLIE, share.encode())])
    if tamper is not None:
        decision = VerifyDecision(True, "malicious: forwarded unchecked")
    else:
        decision = verify_as_receiver(bundle, share, peer)
    return decision, [(ROLE_CHARLIE, decision.encode())]


def charlie_script(store: KeyStore):
    """Second receiver: swaps shares with Bob, checks if Bob accepted."""
    ann = yield from _expect(ROLE_ALICE, MsgType.POSITION_ANNOUNCEMENT)
    share = extract_share(store, ann)
    bundle = yield from _expect(ROLE_BOB, MsgType.SIGNATURE_BUNDLE)
    peer = yield from _expect(ROLE_BOB, MsgType.KEY_SHARE)
    bob_said = yield from _expect(ROLE_BOB, MsgType.DECISION, [
        (ROLE_BOB, share.encode())])
    if not bob_said.accept:
        return ("skipped", "first receiver rejected; check skipped"), []
    decision = verify_as_receiver(bundle, share, peer)
    return (decision.decision, decision.reason), []


def run_messaging(parties: dict, message: bytes, *,
                  signature_len_bits: int, position_seed, p_seed,
                  tamper: Optional[Callable[[SignatureBundle],
                                            SignatureBundle]] = None,
                  transcripts: Optional[dict] = None) -> MessagingOutcome:
    """Drive one signing round across three connected roles.

    The receivers are generator scripts: each yields the (peer, frame)
    pairs to send, is sent each (peer, frame) delivered to it, and
    returns (result, the last pairs to send).  A first-in first-out
    queue holds the frames the roles emit.  Each is sent on the sender's
    endpoint, received on the addressee's and fed to the addressee,
    whose replies join the queue.  A role or transport error, a frame
    for a role that is done, or a queue that empties before every role
    is done, aborts.
    """
    scripts = {ROLE_BOB: bob_script(parties[ROLE_BOB].store, tamper),
               ROLE_CHARLIE: charlie_script(parties[ROLE_CHARLIE].store)}
    transcripts = transcripts if transcripts is not None else {}
    results: dict = {}
    queue: deque = deque()

    def step(name, delivered):
        try:
            out = scripts[name].send(delivered)
        except StopIteration as done:
            results[name], out = done.value
        queue.extend((name, dst, frame) for dst, frame in out)

    # who names the role whose step is running, for an abort
    who = ROLE_ALICE
    try:
        results[ROLE_ALICE], out = alice_sign(
            parties[ROLE_ALICE].store, message, signature_len_bits,
            position_seed, p_seed)
        queue.extend((ROLE_ALICE, dst, frame) for dst, frame in out)
        for who in scripts:
            step(who, None)
        while queue:
            src, dst, frame = queue.popleft()
            who = src
            parties[src].endpoints[dst].send(frame)
            who = dst
            received = parties[dst].endpoints[src].recv()
            if dst in results:
                raise ProtocolError("expected no more frames, got "
                                    f"{received.msg_type.name} from {src}")
            step(dst, (src, received))
        unfinished = [name for name in scripts if name not in results]
        if unfinished:
            who = unfinished[0]
            raise ProtocolError("no frames left before "
                                f"{', '.join(unfinished)} finished")
    except Exception as exc:
        return MessagingOutcome(
            status="abort", bob_decision="abort", bob_reason="",
            charlie_decision="abort", charlie_reason="",
            transcripts=transcripts,
            error=f"{who}: {type(exc).__name__}: {exc}")

    ann, bundle = results[ROLE_ALICE]
    bob_dec = results[ROLE_BOB]
    ch_dec, ch_reason = results[ROLE_CHARLIE]
    return MessagingOutcome(
        status="ok",
        bob_decision=bob_dec.decision, bob_reason=bob_dec.reason,
        charlie_decision=ch_dec, charlie_reason=ch_reason,
        bundle=bundle, announcement=ann, transcripts=transcripts)
