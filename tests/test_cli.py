import json
import os
from importlib.resources import files as pkg_files

import numpy as np
import pytest

import qdsnet.files
from qdsnet.cli import (EXIT_KEY_EXHAUSTED, EXIT_OK, EXIT_PARSE, EXIT_REJECT,
                        EXIT_SECURITY, main)
from qdsnet.files import read_announcement, read_store

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


def test_analyze_all_zero_tally(workdir):
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    for k in doc["tally"]:
        if k != "accumulation_time_s":
            doc["tally"][k] = 0
    (workdir / "zeros.json").write_text(json.dumps(doc))
    assert main(["analyze", "zeros.json"]) == EXIT_SECURITY


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

    from qdsnet.files import read_bundle, write_bundle
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


def test_simulate_bad_config(workdir):
    (workdir / "cfg.json").write_text("{}")
    assert main(["simulate", "--config", "cfg.json",
                 "--out-dir", "out"]) == EXIT_PARSE


def test_simulate_missing_config(workdir):
    assert main(["simulate", "--config", "nope.json",
                 "--out-dir", "out"]) == EXIT_PARSE
