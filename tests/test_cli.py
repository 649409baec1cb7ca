import copy
import json
import os
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
from qdsnet.files import (read_announcement, read_bundle, read_store,
                          store_lock, write_announcement, write_bundle,
                          write_store)
from qdsnet.protocol import (PositionAnnouncement, SignatureBundle,
                             select_positions)

GOLDEN = str(pkg_files("qdsnet.data") / "table2_100km_AC.json")


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
    (workdir / "empty.json").write_text("{}")
    assert main(["analyze", "empty.json"]) == EXIT_PARSE


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
        assert "link insecure:" in capsys.readouterr().err


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

    from qdsnet.files import write_bundle
    from qdsnet.protocol import SignatureBundle
    b = read_bundle("bundle.bin")
    msg = bytearray(b.message)
    msg[0] ^= 0x01
    write_bundle(SignatureBundle(sig=b.sig, message=bytes(msg), p_a=b.p_a),
                 "tampered.bin")

    assert main(["verify", "--bundle", "tampered.bin", "--announce",
                 "ann.bin", "--store", "k/bob.store",
                 "--share-out", "bob.share"]) == EXIT_OK
    assert main(["verify", "--bundle", "tampered.bin", "--announce",
                 "ann.bin", "--store", "k/charlie.store",
                 "--peer-share", "bob.share"]) == EXIT_REJECT


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


def test_sign_crash_after_store_write_spends_positions(workdir, monkeypatch):
    _keys_and_doc(workdir)
    with monkeypatch.context() as m:
        m.setattr(qdsnet.files, "write_bundle", _crash)
        with pytest.raises(Crash):
            main(SIGN)
    spent = set(np.flatnonzero(read_store("k/alice.store").used_mask))
    assert len(spent) == 128
    # the same position seed on the crashed store picks fresh positions
    assert main(SIGN) == EXIT_OK
    assert not spent & set(read_announcement("a.bin").positions)


def test_verify_zero_length_bundle_is_rejected(workdir, capsys):
    _keys_and_doc(workdir)
    empty = np.zeros(0, dtype=np.uint8)
    write_bundle(SignatureBundle(empty, b"doc", empty), "b.bin")
    write_announcement(PositionAnnouncement(()), "a.bin")
    assert main(VERIFY) == EXIT_OK
    assert main(["verify", "--bundle", "b.bin", "--announce", "a.bin",
                 "--store", "k/charlie.store",
                 "--peer-share", "s.bin"]) == EXIT_REJECT
    assert "malformed-bundle: empty signature" in capsys.readouterr().out


def test_verify_crash_after_store_write_spends_share(workdir, monkeypatch):
    _keys_and_doc(workdir)
    assert main(SIGN) == EXIT_OK
    with monkeypatch.context() as m:
        m.setattr(qdsnet.files, "write_share", _crash)
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


def test_concurrent_sign_waits_for_the_store_lock(workdir):
    # this test plays the first of two runs on one store: it holds the
    # lock from reading the store to writing it back, with the position
    # seed the second run (a subprocess) also uses
    _keys_and_doc(workdir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qdsnet.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    with store_lock("k/alice.store"):
        store = read_store("k/alice.store")
        proc = subprocess.Popen([sys.executable, "-m", "qdsnet.cli", *SIGN],
                                env=env, stdout=subprocess.DEVNULL)
        time.sleep(0.5)
        waited = proc.poll() is None
        first = select_positions(store, 64, 3).positions
        write_store(store, "k/alice.store")
    try:
        rc = proc.wait(timeout=60)
    finally:
        proc.kill()     # a no-op once it has exited
        proc.wait()
    assert waited
    assert rc == EXIT_OK
    second = read_announcement("a.bin").positions
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
        return (read_bundle("b.bin").p_a.tobytes(),
                read_announcement("a.bin").positions)

    fixed = ("--position-seed", "3")
    assert sign(*fixed)[0] != sign(*fixed)[0]
    assert sign()[1] != sign()[1]
    assert sign(*fixed, "--p-seed", "0") == sign(*fixed, "--p-seed", "0")


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


def test_keygen_validates_bits(workdir):
    assert main(["keygen-sim", "--bits", "12", "--out-dir", "k"]) == \
        EXIT_PARSE


def test_reproduce_table_runs(workdir, capsys):
    rc = main(["reproduce-table", "--json", "table.json"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "rows passing: 6/8" in out
    parsed = json.loads((workdir / "table.json").read_text())
    assert len(parsed["rows"]) == 8


def test_simulate_bad_config(workdir, capsys):
    demo = json.loads((pkg_files("qdsnet.data") / "demo_10db.json").read_text())
    cases = [("{}", ""), ("[]", "")]
    # negative seeds and pulse budgets fail when the config is read
    negative = (("links", "bob", "seed"), ("links", "charlie", "n_pulses"),
                ("protocol_seed",))
    for *path, key in negative:
        cfg = copy.deepcopy(demo)
        section = cfg
        for name in path:
            section = section[name]
        section[key] = -1
        cases.append((json.dumps(cfg), key))
    for text, key in cases:
        (workdir / "cfg.json").write_text(text)
        assert main(["simulate", "--config", "cfg.json",
                     "--out-dir", "out"]) == EXIT_PARSE
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("dotted", [
    "transport", "ec_passes", "protocl_seed", "links.bob.ec_passes",
    "links.charlie.channel.receiver_loss_db", "targets.lambda_ec_bits"])
def test_simulate_rejects_unknown_key(workdir, capsys, dotted):
    *path, key = dotted.split(".")
    cfg = json.loads((pkg_files("qdsnet.data") / "demo_10db.json").read_text())
    section = cfg
    for name in path:
        section = section[name]
    section[key] = 0
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", "cfg.json",
                 "--out-dir", "out"]) == EXIT_PARSE
    assert key in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_simulate_missing_config(workdir):
    assert main(["simulate", "--config", "nope.json",
                 "--out-dir", "out"]) == EXIT_PARSE
