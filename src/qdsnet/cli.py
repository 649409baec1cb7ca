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

QDSNET_LOG sets log verbosity (debug, info, warning; default warning).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_SIMULATION = 4
EXIT_RECONCILIATION = 5
EXIT_SECURITY = 6
EXIT_REJECT = 7
EXIT_KEY_EXHAUSTED = 8
EXIT_ABORT = 9

_STAGE_CODES = {
    "config": EXIT_PARSE,
    "simulation": EXIT_SIMULATION,
    "reconciliation": EXIT_RECONCILIATION,
    "security": EXIT_SECURITY,
    "protocol": EXIT_ABORT,
}

log = logging.getLogger("qdsnet")


def _conventions(args):
    from .finitekey import Conventions
    return Conventions(log_base=args.log_base,
                       vacuum_upper_intensity=args.vacuum_upper)


def _add_convention_flags(parser):
    parser.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="logarithm convention in the concentration "
                             "bounds (default e)")
    parser.add_argument("--vacuum-upper", choices=("nu", "mu"), default="nu",
                        help="intensity indexing the vacuum upper bound "
                             "(default nu)")


def cmd_analyze(args) -> int:
    from .finitekey import (AnalysisError, DetectionTally, IntensityConfig,
                            SecurityTargets, min_signature_length)
    try:
        with open(args.tally) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse tally file: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        tally = DetectionTally(**doc["tally"])
        intensity = IntensityConfig(**doc["intensity"])
        target_fields = dict(doc.get("targets", {}))
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: invalid tally file field: {exc}", file=sys.stderr)
        return EXIT_PARSE

    for flag, field in (("eps_target", "eps_target"), ("eps_sf", "eps_sf"),
                        ("eps_cor", "eps_cor"),
                        ("message_bits", "message_len_bits"),
                        ("lambda_ec", "lambda_ec_bits")):
        value = getattr(args, flag)
        if value is not None:
            target_fields[field] = value
    try:
        targets = SecurityTargets(**target_fields)
    except (TypeError, ValueError) as exc:
        print(f"error: invalid targets: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        length, report = min_signature_length(tally, intensity, targets,
                                              _conventions(args))
    except AnalysisError as exc:
        print(f"link insecure: {exc}", file=sys.stderr)
        return EXIT_SECURITY

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
    from .runner import RunConfig, RunError, outcome_to_json, run_simulation
    try:
        config = RunConfig.from_json(args.config)
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        print(f"error: invalid run config: {exc}", file=sys.stderr)
        return EXIT_PARSE

    message = None
    if args.message:
        try:
            with open(args.message, "rb") as fh:
                message = fh.read()
        except OSError as exc:
            print(f"error: cannot read message: {exc}", file=sys.stderr)
            return EXIT_PARSE

    try:
        outcome = run_simulation(config, _conventions(args), message=message)
    except RunError as exc:
        print(f"{exc.stage} stage failed: {exc}", file=sys.stderr)
        return _STAGE_CODES.get(exc.stage, EXIT_ABORT)

    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "outcome.json")
    with open(out_path, "w") as fh:
        fh.write(outcome_to_json(outcome))
    for name in ("bob", "charlie"):
        rep_path = os.path.join(args.out_dir, f"report_{name}.json")
        with open(rep_path, "w") as fh:
            json.dump(outcome["links"][name]["report"], fh, indent=2,
                      sort_keys=True)
            fh.write("\n")

    d = outcome["decisions"]
    print(f"decisions: bob={d['bob']} charlie={d['charlie']}")
    print(f"signature length: {outcome['signature_len_bits']} bits, "
          f"eps = {outcome['eps']:.3e}, "
          f"rate = {outcome['signature_rate_tps']:.4g} tps")
    print(f"outcome written to {out_path}")
    if d["bob"] == "accept" and d["charlie"] in ("accept", "skipped"):
        return EXIT_OK
    return EXIT_REJECT


def cmd_reproduce_table(args) -> int:
    from .table2 import format_report, reproduce_table
    result = reproduce_table(_conventions(args))
    print(format_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"machine-readable report written to {args.json}")
    return EXIT_OK


def cmd_keygen_sim(args) -> int:
    from .files import write_store
    from .protocol import KeyStore
    if args.bits < 16 or args.bits % 8:
        print("error: --bits must be a multiple of 8, at least 16",
              file=sys.stderr)
        return EXIT_PARSE
    rng = np.random.default_rng(args.seed)
    k_b = rng.integers(0, 2, args.bits, dtype=np.uint8)
    k_c = rng.integers(0, 2, args.bits, dtype=np.uint8)
    os.makedirs(args.out_dir, exist_ok=True)
    for role, bits in (("alice", k_b ^ k_c), ("bob", k_b), ("charlie", k_c)):
        path = os.path.join(args.out_dir, f"{role}.store")
        write_store(KeyStore.from_bits(bits, role), path)
        print(f"wrote {path} ({args.bits} bits)")
    return EXIT_OK


def cmd_sign(args) -> int:
    from .files import (FileFormatError, read_store, write_announcement,
                        write_bundle, write_store)
    from .protocol import KeyExhaustedError, select_positions, sign
    try:
        store = read_store(args.store)
    except (OSError, FileFormatError) as exc:
        print(f"error: cannot load store: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        with open(args.message, "rb") as fh:
            message = fh.read()
    except OSError as exc:
        print(f"error: cannot read message: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not message:
        print("error: refusing to sign an empty message", file=sys.stderr)
        return EXIT_PARSE

    try:
        ann = select_positions(store, args.length, args.position_seed)
    except KeyExhaustedError as exc:
        print(f"key exhausted: {exc}", file=sys.stderr)
        return EXIT_KEY_EXHAUSTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    L = args.length
    x_a = store.bits_at(ann.positions[:L])
    y_a = store.bits_at(ann.positions[L:])
    bundle = sign(message, x_a, y_a, args.p_seed)

    # consumption becomes durable before anything reveals the positions
    write_store(store, args.store)
    write_bundle(bundle, args.out)
    write_announcement(ann, args.announce)
    print(f"bundle written to {args.out}")
    print(f"announcement written to {args.announce}")
    print(f"{2 * L} key bits consumed; {store.available} remain")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .files import (FileFormatError, read_announcement, read_bundle,
                        read_share, read_store, write_share, write_store)
    from .protocol import (KeyExhaustedError, KeyReuseError, extract_share,
                           verify_as_receiver)
    try:
        bundle = read_bundle(args.bundle)
        ann = read_announcement(args.announce)
        store = read_store(args.store)
    except (OSError, FileFormatError, ValueError) as exc:
        print(f"error: cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        own = extract_share(store, ann)
    except (KeyExhaustedError, KeyReuseError) as exc:
        print(f"key exhausted: {exc}", file=sys.stderr)
        return EXIT_KEY_EXHAUSTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    write_store(store, args.store)
    if args.share_out:
        write_share(own, args.share_out)
        print(f"own share written to {args.share_out}")

    if not args.peer_share:
        print("no peer share given: share extracted only, "
              "run again with --peer-share to verify")
        return EXIT_OK

    try:
        peer = read_share(args.peer_share)
    except (OSError, FileFormatError) as exc:
        print(f"error: cannot load peer share: {exc}", file=sys.stderr)
        return EXIT_PARSE

    decision = verify_as_receiver(bundle, own, peer)
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
    _add_convention_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="full signing run from a config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--message", help="override the config's message path")
    _add_convention_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-table",
                       help="recompute the bundled reference rows")
    p.add_argument("--json", help="also write the machine-readable report")
    _add_convention_flags(p)
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
    p.add_argument("--position-seed", type=int, default=0)
    p.add_argument("--p-seed", type=int, default=0)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
