"""Command-line surface.

Subcommands: analyze, simulate, reproduce-table, sign, verify,
keygen-sim.  Exit codes are a public contract:

    0  success / signature accepted
    2  usage error (argparse)
    3  malformed input (config, tally, store, bundle parsing)
    4  channel simulation failure
    5  reconciliation failure
    6  security analysis failure (link insecure / data insufficient)
    7  signature rejected by verification
    8  key material exhausted
    9  protocol or transport abort

The commands raise; main maps what escapes through one table, _FAILURES
(_STAGE_CODES for a RunError), to a stderr label and an exit code.  Any
other exception is a bug and surfaces as a traceback.

QDSNET_LOG sets log verbosity (debug, info, warning; default warning).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import secrets
import sys

import numpy as np

from . import files
from .finitekey import (AnalysisError, InsufficientDataError,
                        min_signature_length, require_object)
from .framing import unpack_bits
from .protocol import (KeyExhaustedError, KeyReuseError, KeyShare, KeyStore,
                       PositionAnnouncement, SignatureBundle, alice_sign,
                       extract_share, free_positions, hash_seed_bits,
                       verify_as_receiver)
from .runner import RunConfig, RunError, outcome_to_json, run_simulation
from .table2 import format_report, reproduce_table, row_inputs

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_SIMULATION = 4
EXIT_RECONCILIATION = 5
EXIT_SECURITY = 6
EXIT_REJECT = 7
EXIT_KEY_EXHAUSTED = 8
EXIT_ABORT = 9


class InputError(Exception):
    """A named input, file or flag, that cannot be read or is invalid."""


# the first class that matches an escaping exception sets its label and code
_FAILURES = {
    KeyExhaustedError: ("key exhausted", EXIT_KEY_EXHAUSTED),
    KeyReuseError: ("key exhausted", EXIT_KEY_EXHAUSTED),
    InsufficientDataError: ("insufficient data", EXIT_SECURITY),
    AnalysisError: ("link insecure", EXIT_SECURITY),
    InputError: ("error", EXIT_PARSE),
    OSError: ("error", EXIT_PARSE),     # an unwritable output path
}

_STAGE_CODES = {
    "config": EXIT_PARSE,
    "simulation": EXIT_SIMULATION,
    "reconciliation": EXIT_RECONCILIATION,
    "security": EXIT_SECURITY,
    "protocol": EXIT_ABORT,
}


@contextlib.contextmanager
def reading(context: str):
    """Raise the generic errors of reading one input as an InputError."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{context}: {exc}") from exc


def cmd_analyze(args) -> int:
    with reading("cannot parse tally file"), open(args.tally) as fh:
        doc = require_object("tally document", json.load(fh))
    flags = {field: getattr(args, flag) for flag, field in (
        ("eps_target", "eps_target"), ("eps_sf", "eps_sf"),
        ("eps_cor", "eps_cor"), ("message_bits", "message_len_bits"),
        ("lambda_ec", "lambda_ec_bits")) if getattr(args, flag) is not None}
    with reading("invalid tally file field"):
        tally, intensity, targets = row_inputs({**doc, "targets": {
            **require_object("targets", doc.get("targets", {})), **flags}})

    length, report = min_signature_length(tally, intensity, targets)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(payload)
    print(f"signature length L = {length} bits, eps = {report.eps:.3e}, "
          f"rate = {report.signature_rate_tps:.4g} tps", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    with reading("invalid run config"), open(args.config) as fh:
        config = RunConfig.from_dict(json.load(fh))
    with reading("cannot read message"), open(args.message, "rb") as fh:
        message = fh.read()
    outcome = run_simulation(config, message)

    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "outcome.json")
    with open(out_path, "w") as fh:
        fh.write(outcome_to_json(outcome))

    d = outcome["decisions"]
    print(f"decisions: bob={d['bob']} charlie={d['charlie']}")
    print(f"signature length: {outcome['signature_len_bits']} bits, "
          f"eps = {outcome['eps']:.3e}, "
          f"rate = {outcome['signature_rate_tps']:.4g} tps")
    print(f"outcome written to {out_path}")
    return EXIT_OK if d["bob"] == d["charlie"] == "accept" else EXIT_REJECT


def cmd_reproduce_table(args) -> int:
    result = reproduce_table()
    print(format_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"machine-readable report written to {args.json}")
    return EXIT_OK


def cmd_keygen_sim(args) -> int:
    if args.bits < 16 or args.bits % 8:
        raise InputError("--bits must be a multiple of 8, at least 16")
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    rng = np.random.default_rng(args.seed)
    k_b = rng.integers(0, 2, args.bits, dtype=np.uint8)
    k_c = rng.integers(0, 2, args.bits, dtype=np.uint8)
    os.makedirs(args.out_dir, exist_ok=True)
    for role, bits in (("alice", k_b ^ k_c), ("bob", k_b), ("charlie", k_c)):
        path = os.path.join(args.out_dir, f"{role}.store")
        files.write_store(KeyStore.from_bits(bits, role), path)
        print(f"wrote {path} ({args.bits} bits)")
    return EXIT_OK


def _one_time(seed: int | None) -> int:
    """The given seed, for replay, or a fresh 64-bit one when omitted."""
    return secrets.randbits(64) if seed is None else seed


def _hash_seed(p_seed: int | None, L: int) -> np.ndarray:
    """The L bits of the one-time hash seed: replayed from p_seed, or
    all L drawn fresh when it is omitted."""
    if p_seed is not None:
        return hash_seed_bits(p_seed, L)
    return unpack_bits(secrets.token_bytes(L // 8), L)


def cmd_sign(args) -> int:
    for flag, seed in (("--position-seed", args.position_seed),
                       ("--p-seed", args.p_seed)):
        if seed is not None and seed < 0:
            raise InputError(f"{flag} must be nonnegative")
    with reading("cannot read message"), open(args.message, "rb") as fh:
        message = fh.read()
    if not message:
        raise InputError("refusing to sign an empty message")

    with contextlib.ExitStack() as held:
        with reading("cannot load store"):
            held.enter_context(files.store_lock(args.store))
            store = files.read_store(args.store)
        with reading("--length"):
            # a length the store cannot sign draws no seed bits
            free_positions(store, args.length)
            (ann, bundle), _ = alice_sign(
                store, message, args.length, _one_time(args.position_seed),
                _hash_seed(args.p_seed, args.length))
        # consumption becomes durable before anything reveals the positions
        files.write_store(store, args.store)
    files.write_message(bundle, args.out)
    files.write_message(ann, args.announce)
    print(f"bundle written to {args.out}")
    print(f"announcement written to {args.announce}")
    print(f"{2 * args.length} key bits consumed; {store.available} remain")
    return EXIT_OK


def cmd_verify(args) -> int:
    with contextlib.ExitStack() as held:
        with reading("cannot load inputs"):
            bundle = files.read_message(args.bundle, SignatureBundle)
            ann = files.read_message(args.announce, PositionAnnouncement)
            held.enter_context(files.store_lock(args.store))
            store = files.read_store(args.store)
        with reading(args.announce):
            own = extract_share(store, ann)
        files.write_store(store, args.store)
    if args.share_out:
        files.write_message(own, args.share_out)
        print(f"own share written to {args.share_out}")

    if not args.peer_share:
        print("no peer share given: share extracted only, "
              "run again with --peer-share to verify")
        return EXIT_OK

    with reading("cannot load peer share"):
        peer = files.read_message(args.peer_share, KeyShare)
    decision = verify_as_receiver(bundle, own, peer, ann.message_len)
    print(f"{decision.decision}: {decision.reason}")
    return EXIT_OK if decision.accept else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdsnet",
        description="three-party quantum digital signature toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="finite-key security analysis of a "
                                       "detection tally")
    p.add_argument("tally", help="tally JSON file")
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--eps-target", type=float, default=None)
    p.add_argument("--eps-sf", type=float, default=None)
    p.add_argument("--eps-cor", type=float, default=None)
    p.add_argument("--message-bits", type=int, default=None)
    p.add_argument("--lambda-ec", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="full signing run from a config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--message", required=True, help="document to sign")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-table",
                       help="recompute the bundled reference rows")
    p.add_argument("--json", help="also write the machine-readable report")
    p.set_defaults(func=cmd_reproduce_table)

    p = sub.add_parser("keygen-sim", help="write simulated key stores for "
                                          "the sign/verify file workflow")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_keygen_sim)

    p = sub.add_parser("sign", help="sign a document from a key store")
    p.add_argument("--message", required=True)
    p.add_argument("--store", required=True, help="signer's key store")
    p.add_argument("--length", type=int, required=True,
                   help="signature length L in bits (multiple of 8)")
    p.add_argument("--out", default="bundle.bin")
    p.add_argument("--announce", default="announce.bin")
    p.add_argument("--position-seed", type=int,
                   help="seed of the key position draw (default: random)")
    p.add_argument("--p-seed", type=int,
                   help="seed of the one-time hash seed P (default: random)")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="extract own share and/or verify a "
                                      "bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--announce", required=True)
    p.add_argument("--store", required=True, help="this receiver's store")
    p.add_argument("--peer-share", help="other receiver's share file")
    p.add_argument("--share-out", help="write this receiver's share here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("QDSNET_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RunError as exc:
        print(f"{exc.stage} stage failed: {exc}", file=sys.stderr)
        return _STAGE_CODES.get(exc.stage, EXIT_ABORT)
    except tuple(_FAILURES) as exc:
        label, code = next(entry for cls, entry in _FAILURES.items()
                           if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
