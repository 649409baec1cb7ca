import copy
import json
import os
import secrets
import subprocess
import sys
import time
from importlib.resources import files as pkg_files
from pathlib import Path

import numpy as np
import pytest

import qdsnet.files
from qdsnet.cli import (EXIT_KEY_EXHAUSTED, EXIT_OK, EXIT_PARSE, EXIT_REJECT,
                        EXIT_SECURITY, main)
from qdsnet.files import (read_message, read_store, store_lock,
                          write_message, write_store)
from qdsnet.framing import encode_frame
from qdsnet.protocol import (PositionAnnouncement, SignatureBundle,
                             alice_sign, hash_seed_bits, select_positions)
from qdsnet.runner import RunConfig, outcome_to_json, run_simulation

GOLDEN = str(pkg_files("qdsnet.data") / "table2_100km_AC.json")
# for a subprocess that imports this qdsnet
_SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(qdsnet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_analyze_golden_row(workdir, capsys):
    rc = main(["analyze", GOLDEN, "--out", "report.json"])
    assert rc == EXIT_OK
    report = json.loads((workdir / "report.json").read_text())
    assert report["signature_len_bits"] == 776
    assert report["eps"] <= 1e-7
    err = capsys.readouterr().err
    assert "L = 776" in err


def test_analyze_flag_overrides(workdir):
    rc = main(["analyze", GOLDEN, "--eps-target", "1e-9",
               "--out", "tight.json"])
    assert rc == EXIT_OK
    tight = json.loads((workdir / "tight.json").read_text())
    assert tight["eps"] <= 1e-9
    assert tight["signature_len_bits"] > 776


def test_analyze_unparseable_file(workdir):
    (workdir / "bad.json").write_text("not json at all")
    assert main(["analyze", "bad.json"]) == EXIT_PARSE


def test_analyze_missing_field(workdir):
    # an empty object, and documents that are no object at all
    for text in ("{}", "[]", '"tally"', "7", "null"):
        (workdir / "empty.json").write_text(text)
        assert main(["analyze", "empty.json"]) == EXIT_PARSE


@pytest.mark.parametrize("section, key, value", [
    ("targets", "lambda_ec_bits", "NaN"),
    ("targets", "lambda_ec_bits", "Infinity"),
    ("tally", "n_x_mu", "Infinity"),
    ("tally", "m_z_nu", "1e400"),
    ("tally", "n_z_mu", "NaN"),
    ("tally", "accumulation_time_s", "NaN"),
    ("tally", "accumulation_time_s", "Infinity"),
    ("intensity", "mu", "Infinity"),
    ("intensity", "mu", "true"),
    ("tally", "n_z_total", "10000000.0"),
    ("tally", "m_z_mu", "true"),
    ("tally", "accumulation_time_s", "true"),
    ("targets", "lambda_ec_bits", "true")])
def test_analyze_non_finite_input(workdir, capsys, section, key, value):
    # NaN once passed as secure (L = 8) and Infinity crashed the tally; a
    # float count crashed in range(), and true was read as 1, which passed
    # with an optimistic rate
    with open(pkg_files("qdsnet.data") / "table2_50km_AB.json") as fh:
        doc = json.load(fh)
    doc[section][key] = "VALUE"
    (workdir / "row.json").write_text(
        json.dumps(doc).replace('"VALUE"', value))
    assert main(["analyze", "row.json"]) == EXIT_PARSE
    assert key in capsys.readouterr().err


def test_analyze_needs_the_measured_leakage(workdir, capsys):
    # without lambda_ec_bits the analysis once assumed an efficiency of 1.16
    with open(pkg_files("qdsnet.data") / "table2_50km_AB.json") as fh:
        doc = json.load(fh)
    del doc["targets"]["lambda_ec_bits"]
    (workdir / "row.json").write_text(json.dumps(doc))
    assert main(["analyze", "row.json"]) == EXIT_SECURITY
    assert "lambda_ec_bits" in capsys.readouterr().err
    assert main(["analyze", "row.json", "--lambda-ec", "581997"]) == EXIT_OK
    assert "L = 688 bits" in capsys.readouterr().err


def test_analyze_labels_each_security_failure(workdir, capsys):
    # missing data was once reported as an insecure link; both exit 6
    with open(pkg_files("qdsnet.data") / "table2_50km_AB.json") as fh:
        doc = json.load(fh)
    del doc["targets"]["lambda_ec_bits"]
    (workdir / "row.json").write_text(json.dumps(doc))
    assert main(["analyze", "row.json"]) == EXIT_SECURITY
    assert capsys.readouterr().err.startswith("insufficient data: ")
    assert main(["analyze", "row.json", "--lambda-ec", "6000000"]) == \
        EXIT_SECURITY
    assert capsys.readouterr().err.startswith("link insecure: ")


def test_analyze_all_zero_tally(workdir, capsys):
    # all counts zero, then the golden counts over zero seconds
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    no_counts = copy.deepcopy(golden)
    for k in no_counts["tally"]:
        if k != "accumulation_time_s":
            no_counts["tally"][k] = 0
    no_time = copy.deepcopy(golden)
    no_time["tally"]["accumulation_time_s"] = 0
    for doc in (no_counts, no_time):
        (workdir / "zeros.json").write_text(json.dumps(doc))
        assert main(["analyze", "zeros.json"]) == EXIT_SECURITY
        assert "insufficient data:" in capsys.readouterr().err


@pytest.mark.parametrize("basis", ["x", "z"])
def test_analyze_error_free_basis(workdir, basis):
    # no errors in one basis: an empty error sample has no deviation
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    for inten in ("mu", "nu"):
        doc["tally"][f"m_{basis}_{inten}"] = 0
    (workdir / "clean.json").write_text(json.dumps(doc))
    assert main(["analyze", "clean.json", "--out", "report.json"]) == EXIT_OK
    report = json.loads((workdir / "report.json").read_text())
    assert report["signature_len_bits"] < 776
    assert report["eps"] <= 1e-7


def test_keygen_sign_verify_accept_flow(workdir):
    assert main(["keygen-sim", "--bits", "4096", "--seed", "5",
                 "--out-dir", "keys"]) == EXIT_OK
    rng = np.random.default_rng(0)
    (workdir / "doc.bin").write_bytes(rng.bytes(500))

    assert main(["sign", "--message", "doc.bin",
                 "--store", "keys/alice.store", "--length", "128",
                 "--out", "bundle.bin", "--announce", "ann.bin"]) == EXIT_OK

    assert main(["verify", "--bundle", "bundle.bin", "--announce", "ann.bin",
                 "--store", "keys/bob.store",
                 "--share-out", "bob.share"]) == EXIT_OK

    assert main(["verify", "--bundle", "bundle.bin", "--announce", "ann.bin",
                 "--store", "keys/charlie.store", "--peer-share", "bob.share",
                 "--share-out", "charlie.share"]) == EXIT_OK


def test_tampered_bundle_rejected(workdir):
    main(["keygen-sim", "--bits", "4096", "--seed", "6", "--out-dir", "k"])
    (workdir / "doc.bin").write_bytes(b"a contract worth signing")
    main(["sign", "--message", "doc.bin", "--store", "k/alice.store",
          "--length", "128", "--out", "bundle.bin", "--announce", "ann.bin"])

    b = read_message("bundle.bin", SignatureBundle)
    msg = bytearray(b.message)
    msg[0] ^= 0x01
    write_message(SignatureBundle(sig=b.sig, message=bytes(msg), p_a=b.p_a),
                  "tampered.bin")

    assert main(["verify", "--bundle", "tampered.bin", "--announce",
                 "ann.bin", "--store", "k/bob.store",
                 "--share-out", "bob.share"]) == EXIT_OK
    assert main(["verify", "--bundle", "tampered.bin", "--announce",
                 "ann.bin", "--store", "k/charlie.store",
                 "--peer-share", "bob.share"]) == EXIT_REJECT


def test_zero_prefixed_bundle_rejected(workdir, capsys):
    # zero bytes in front of the document leave its digest unchanged;
    # the announced length is what makes Charlie reject
    main(["keygen-sim", "--bits", "4096", "--seed", "7", "--out-dir", "k"])
    (workdir / "doc.bin").write_bytes(np.random.default_rng(1).bytes(2000))
    main(["sign", "--message", "doc.bin", "--store", "k/alice.store",
          "--length", "128", "--out", "bundle.bin", "--announce", "ann.bin"])
    b = read_message("bundle.bin", SignatureBundle)
    write_message(SignatureBundle(b.sig, bytes(3) + b.message, b.p_a),
                  "prefixed.bin")
    bob_store = (workdir / "k/bob.store").read_bytes()
    assert main(["verify", "--bundle", "prefixed.bin", "--announce",
                 "ann.bin", "--store", "k/bob.store",
                 "--share-out", "bob.share"]) == EXIT_OK
    assert (workdir / "k/bob.store").read_bytes() != bob_store
    capsys.readouterr()
    assert main(["verify", "--bundle", "prefixed.bin", "--announce",
                 "ann.bin", "--store", "k/charlie.store",
                 "--peer-share", "bob.share"]) == EXIT_REJECT
    assert capsys.readouterr().out.startswith("reject: malformed-bundle: ")


def test_store_consumption_blocks_reuse(workdir):
    main(["keygen-sim", "--bits", "1024", "--seed", "7", "--out-dir", "k"])
    (workdir / "doc.bin").write_bytes(b"single use")
    main(["sign", "--message", "doc.bin", "--store", "k/alice.store",
          "--length", "64", "--out", "b.bin", "--announce", "a.bin"])
    assert main(["verify", "--bundle", "b.bin", "--announce", "a.bin",
                 "--store", "k/bob.store",
                 "--share-out", "s.bin"]) == EXIT_OK
    # the same announcement against the already-consumed store
    assert main(["verify", "--bundle", "b.bin", "--announce", "a.bin",
                 "--store", "k/bob.store",
                 "--share-out", "s2.bin"]) == EXIT_KEY_EXHAUSTED


class Crash(Exception):
    pass


def _crash(*args):
    raise Crash("injected crash")


SIGN = ["sign", "--message", "doc.bin", "--store", "k/alice.store",
        "--length", "64", "--out", "b.bin", "--announce", "a.bin",
        "--position-seed", "3"]
VERIFY = ["verify", "--bundle", "b.bin", "--announce", "a.bin",
          "--store", "k/bob.store", "--share-out", "s.bin"]


def _keys_and_doc(workdir):
    main(["keygen-sim", "--bits", "1024", "--seed", "10", "--out-dir", "k"])
    (workdir / "doc.bin").write_bytes(b"written in a crash-prone world")


def _small_run_files(workdir):
    """A 2e7-pulse-per-link run config, and a document doc.bin."""
    cfg = json.loads((pkg_files("qdsnet.data") / "demo_10db.json").read_text())
    for link in cfg["links"].values():
        link["n_pulses"] = 20_000_000
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    (workdir / "doc.bin").write_bytes(np.random.default_rng(3).bytes(2000))
    return RunConfig.from_dict(cfg)


def test_sign_crash_after_store_write_spends_positions(workdir, monkeypatch):
    _keys_and_doc(workdir)
    with monkeypatch.context() as m:
        m.setattr(qdsnet.files, "write_message", _crash)
        with pytest.raises(Crash):
            main(SIGN)
    assert not (workdir / "b.bin").exists()
    spent = set(np.flatnonzero(read_store("k/alice.store").used_mask))
    assert len(spent) == 128
    # the same position seed on the crashed store picks fresh positions
    assert main(SIGN) == EXIT_OK
    ann = read_message("a.bin", PositionAnnouncement)
    assert not spent & set(ann.positions)


def test_verify_zero_length_bundle_is_rejected(workdir, capsys):
    _keys_and_doc(workdir)
    empty = np.zeros(0, dtype=np.uint8)
    write_message(SignatureBundle(empty, b"doc", empty), "b.bin")
    write_message(PositionAnnouncement((), 3), "a.bin")
    assert main(VERIFY) == EXIT_OK
    assert main(["verify", "--bundle", "b.bin", "--announce", "a.bin",
                 "--store", "k/charlie.store",
                 "--peer-share", "s.bin"]) == EXIT_REJECT
    assert "malformed-bundle: empty signature" in capsys.readouterr().out


def test_verify_crash_after_store_write_spends_share(workdir, monkeypatch):
    _keys_and_doc(workdir)
    assert main(SIGN) == EXIT_OK
    with monkeypatch.context() as m:
        m.setattr(qdsnet.files, "write_message", _crash)
        with pytest.raises(Crash):
            main(VERIFY)
    assert not (workdir / "s.bin").exists()
    assert main(VERIFY) == EXIT_KEY_EXHAUSTED


@pytest.mark.parametrize("argv, outputs", [
    (SIGN, ("b.bin", "a.bin")), (VERIFY, ("s.bin",))], ids=["sign", "verify"])
def test_failed_store_write_releases_nothing(workdir, monkeypatch, argv,
                                             outputs):
    _keys_and_doc(workdir)
    if argv is VERIFY:
        assert main(SIGN) == EXIT_OK
    store = workdir / argv[argv.index("--store") + 1]
    before = store.read_bytes()
    monkeypatch.setattr(qdsnet.files, "write_store", _crash)
    with pytest.raises(Crash):
        main(argv)
    assert store.read_bytes() == before
    assert not any((workdir / name).exists() for name in outputs)


@pytest.mark.parametrize("argv", [
    ["analyze", GOLDEN, "--out", "notadir/r.json"],
    ["keygen-sim", "--bits", "64", "--out-dir", "notadir"],
    ["reproduce-table", "--json", "notadir/t.json"],
    [f"notadir/{a}" if a == "b.bin" else a for a in SIGN],
    [f"notadir/{a}" if a == "s.bin" else a for a in VERIFY],
    ["simulate", "--config", "cfg.json", "--message", "doc.bin",
     "--out-dir", "notadir"]],
    ids=["analyze", "keygen-sim", "reproduce-table", "sign", "verify",
         "simulate"])
def test_unwritable_output_path_is_input_error(workdir, capsys, argv):
    # each once ended in a NotADirectoryError or FileExistsError traceback
    _keys_and_doc(workdir)
    _small_run_files(workdir)
    if argv[0] == "verify":
        assert main(SIGN) == EXIT_OK
    (workdir / "notadir").write_text("a file, not a directory")
    capsys.readouterr()
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")
    if argv[0] in ("sign", "verify"):
        # the store is written first: positions behind a lost file stay spent
        spent = read_store(argv[argv.index("--store") + 1]).used_mask
        assert np.count_nonzero(spent) == 128


def test_concurrent_sign_waits_for_the_store_lock(workdir):
    # this test plays the first of two runs on one store: it holds the
    # lock from reading the store to writing it back, with the position
    # seed the second run (a subprocess) also uses
    _keys_and_doc(workdir)
    with store_lock("k/alice.store"):
        store = read_store("k/alice.store")
        proc = subprocess.Popen([sys.executable, "-m", "qdsnet.cli", *SIGN],
                                env=_SRC_ENV, stdout=subprocess.DEVNULL)
        time.sleep(0.5)
        waited = proc.poll() is None
        first = select_positions(store, 64, 3, 30).positions
        write_store(store, "k/alice.store")
    try:
        rc = proc.wait(timeout=60)
    finally:
        proc.kill()     # a no-op once it has exited
        proc.wait()
    assert waited
    assert rc == EXIT_OK
    second = read_message("a.bin", PositionAnnouncement).positions
    spent = set(np.flatnonzero(read_store("k/alice.store").used_mask))
    assert spent == set(first) | set(second)
    assert len(spent) == 4 * 64


def test_sign_draws_fresh_seeds_unless_given(workdir):
    # copies of one store, so the same position seed selects the same
    # masking key Y_a and the masked P differs only when P does
    _keys_and_doc(workdir)
    store = (workdir / "k/alice.store").read_bytes()

    def sign(*seeds):
        (workdir / "k/alice.store").write_bytes(store)
        assert main(["sign", "--message", "doc.bin", "--store",
                     "k/alice.store", "--length", "64", "--out", "b.bin",
                     "--announce", "a.bin", *seeds]) == EXIT_OK
        return (read_message("b.bin", SignatureBundle).p_a.tobytes(),
                read_message("a.bin", PositionAnnouncement).positions)

    fixed = ("--position-seed", "3")
    assert sign(*fixed)[0] != sign(*fixed)[0]
    assert sign()[1] != sign()[1]
    assert sign(*fixed, "--p-seed", "0") == sign(*fixed, "--p-seed", "0")


def test_sign_writes_the_frames_alice_sign_sends(workdir):
    # the CLI signer is the in-process round's signer step, byte for byte
    _keys_and_doc(workdir)
    store = read_store("k/alice.store")
    assert main([*SIGN, "--p-seed", "4"]) == EXIT_OK
    _, ((_, announce), _, (_, bundle)) = alice_sign(
        store, (workdir / "doc.bin").read_bytes(), 64, 3,
        hash_seed_bits(4, 64))
    assert (workdir / "b.bin").read_bytes() == encode_frame(bundle)
    assert (workdir / "a.bin").read_bytes() == encode_frame(announce)


def test_sign_draws_every_hash_seed_bit(workdir, monkeypatch):
    # P was once a 64-bit integer stretched to L bits: 64 bits of entropy
    _keys_and_doc(workdir)
    store = (workdir / "k/alice.store").read_bytes()
    drawn = []
    token_bytes = secrets.token_bytes

    def recording(n):
        drawn.append(n)
        return token_bytes(n)

    monkeypatch.setattr(secrets, "token_bytes", recording)
    assert main(SIGN) == EXIT_OK
    assert drawn == [64 // 8]
    # a length the store cannot sign is refused before P is drawn
    for length, code in (("60", EXIT_PARSE), ("4096", EXIT_KEY_EXHAUSTED)):
        args = [*SIGN]
        args[args.index("--length") + 1] = length
        assert main(args) == code
    bundles = []
    for _ in range(2):
        (workdir / "k/alice.store").write_bytes(store)
        assert main([*SIGN, "--p-seed", "4"]) == EXIT_OK
        bundles.append((workdir / "b.bin").read_bytes())
    assert drawn == [8]
    assert bundles[0] == bundles[1]


@pytest.mark.parametrize("flag", ["--position-seed", "--p-seed"])
def test_sign_rejects_a_negative_seed(workdir, capsys, flag):
    # numpy's "expected non-negative integer" once named neither flag
    _keys_and_doc(workdir)
    store = (workdir / "k/alice.store").read_bytes()
    assert main([*SIGN, flag, "-1"]) == EXIT_PARSE
    assert f"error: {flag} must be nonnegative" in capsys.readouterr().err
    assert (workdir / "k/alice.store").read_bytes() == store
    assert not (workdir / "b.bin").exists()


def test_sign_exhausts_small_store(workdir):
    main(["keygen-sim", "--bits", "64", "--seed", "8", "--out-dir", "k"])
    (workdir / "doc.bin").write_bytes(b"too big an ask")
    assert main(["sign", "--message", "doc.bin", "--store", "k/alice.store",
                 "--length", "64", "--out", "b.bin",
                 "--announce", "a.bin"]) == EXIT_KEY_EXHAUSTED


def test_sign_refuses_empty_message(workdir):
    main(["keygen-sim", "--bits", "1024", "--seed", "9", "--out-dir", "k"])
    (workdir / "empty.bin").write_bytes(b"")
    assert main(["sign", "--message", "empty.bin",
                 "--store", "k/alice.store", "--length", "64",
                 "--out", "b.bin", "--announce", "a.bin"]) == EXIT_PARSE


def test_keygen_validates_bits(workdir, capsys):
    assert main(["keygen-sim", "--bits", "12", "--out-dir", "k"]) == \
        EXIT_PARSE
    # a negative seed once ended in numpy's traceback with exit 1
    assert main(["keygen-sim", "--bits", "64", "--seed", "-1",
                 "--out-dir", "k"]) == EXIT_PARSE
    assert "error: --seed" in capsys.readouterr().err
    assert not (workdir / "k").exists()


def test_reproduce_table_runs(workdir, capsys):
    rc = main(["reproduce-table", "--json", "table.json"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "rows passing: 6/8" in out
    parsed = json.loads((workdir / "table.json").read_text())
    assert len(parsed["rows"]) == 8


def test_simulate_signs_the_named_document(workdir, capsys):
    config = _small_run_files(workdir)
    doc = (workdir / "doc.bin").read_bytes()
    # the outcome records the document's length, not its bytes
    (workdir / "other.bin").write_bytes(doc[1:])
    outcomes = []
    for name, message in (("doc.bin", doc), ("other.bin", doc[1:])):
        assert main(["simulate", "--config", "cfg.json", "--message", name,
                     "--out-dir", "out"]) == EXIT_OK
        assert os.listdir("out") == ["outcome.json"]
        outcomes.append((workdir / "out" / "outcome.json").read_text())
        assert outcomes[-1] == outcome_to_json(run_simulation(config, message))
    assert outcomes[0] != outcomes[1]
    # the config names no document, so --message is required
    with pytest.raises(SystemExit) as usage:
        main(["simulate", "--config", "cfg.json", "--out-dir", "out2"])
    assert usage.value.code == 2
    assert main(["simulate", "--config", "cfg.json", "--message",
                 "missing.bin", "--out-dir", "out2"]) == EXIT_PARSE
    assert "error: cannot read message" in capsys.readouterr().err
    assert not (workdir / "out2").exists()


def test_simulate_bad_config(workdir, capsys):
    demo = json.loads((pkg_files("qdsnet.data") / "demo_10db.json").read_text())
    cases = [("{}", ""), ("[]", "")]
    # negative seeds and pulse budgets fail when the config is read
    negative = (("links", "bob", "seed"), ("links", "charlie", "n_pulses"),
                ("protocol_seed",))
    # so does a non-integer count or seed, which the reader once coerced
    mistyped = [(("links", "bob", "n_pulses"), 25000000.7),
                (("links", "charlie", "n_pulses"), "1000"),
                (("links", "bob", "seed"), 1.0),
                (("links", "charlie", "seed"), True),
                (("protocol_seed",), 2024.5),
                (("protocol_seed",), None),
                # non-finite physics once crashed or wrote NaN into JSON
                (("links", "bob", "channel", "loss_db"), float("nan")),
                (("links", "charlie", "channel", "pulse_rate_hz"),
                 float("nan")),
                # true was once read as the number 1
                (("links", "bob", "channel", "loss_db"), True),
                (("links", "charlie", "intensity", "mu"), True)]
    for (*path, key), value in [(p, -1) for p in negative] + mistyped:
        cfg = copy.deepcopy(demo)
        section = cfg
        for name in path:
            section = section[name]
        section[key] = value
        cases.append((json.dumps(cfg), key))
    for text, key in cases:
        (workdir / "cfg.json").write_text(text)
        assert main(["simulate", "--config", "cfg.json", "--message",
                     "doc.bin", "--out-dir", "out"]) == EXIT_PARSE
        assert key in capsys.readouterr().err


# tamper and message_path were config keys once: a forging Bob now lives
# in the tests, and --message names the document
@pytest.mark.parametrize("dotted", [
    "transport", "ec_passes", "protocl_seed", "tamper", "message_path",
    "links.bob.ec_passes", "links.charlie.channel.receiver_loss_db",
    "targets.lambda_ec_bits"])
def test_simulate_rejects_unknown_key(workdir, capsys, dotted):
    *path, key = dotted.split(".")
    cfg = json.loads((pkg_files("qdsnet.data") / "demo_10db.json").read_text())
    section = cfg
    for name in path:
        section = section[name]
    section[key] = 0
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", "cfg.json", "--message", "doc.bin",
                 "--out-dir", "out"]) == EXIT_PARSE
    assert f"key(s): {key}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_simulate_missing_config(workdir):
    assert main(["simulate", "--config", "nope.json", "--message", "doc.bin",
                 "--out-dir", "out"]) == EXIT_PARSE


def test_numpy_is_the_only_runtime_dependency(workdir):
    # analyze and the offline sign/verify flow, in a fresh interpreter
    script = """
import sys
from qdsnet.cli import main
runs = [["analyze", sys.argv[1], "--out", "r.json"],
        ["keygen-sim", "--bits", "4096", "--seed", "7", "--out-dir", "k"],
        ["sign", "--message", "doc.bin", "--store", "k/alice.store",
         "--length", "128", "--out", "b.bin", "--announce", "a.bin"],
        ["verify", "--bundle", "b.bin", "--announce", "a.bin",
         "--store", "k/bob.store", "--share-out", "bob.share"],
        ["verify", "--bundle", "b.bin", "--announce", "a.bin",
         "--store", "k/charlie.store", "--peer-share", "bob.share"]]
print([main(argv) for argv in runs])
print(sorted({"scipy", "hypothesis", "pytest"} & set(sys.modules)))
"""
    (workdir / "doc.bin").write_bytes(b"a document for the offline flow")
    done = subprocess.run([sys.executable, "-c", script, GOLDEN],
                          env=_SRC_ENV, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"]
