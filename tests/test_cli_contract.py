"""The exit-code contract of `qdsnet`, held over hostile inputs.

Every command that reads a file is run in process on inputs derived
from a working one.  Whatever the input, the exit code is one the
README lists; stderr holds no traceback, and a failure ends stderr in
exactly one labelled line whose label matches the code; and a key store
changes only when the command consumed from it.  Each hole this found
is an explicit example with the code and the text it must now produce.
"""

import contextlib
import copy
import io
import json
from importlib.resources import files as pkg_files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdsnet.cli import _STAGE_CODES, main
from qdsnet.runner import MAX_PULSES, RunConfig

LABELS = {"error": 3, "insufficient data": 6, "link insecure": 6,
          "key exhausted": 8, **{f"{stage} stage failed": code
                                 for stage, code in _STAGE_CODES.items()}}
HOSTILE = [5e-324, 1e-310, 1e308, -0.0, 0, -1, 2 ** 63, 2 ** 1100, True,
           None, "1", [], {}]
DELETE = ...    # as an edit's value: remove the key

# 2e6 pulses a link keeps a run near 15 ms; the demo's 1e8 would take seconds
SIM_PULSES = 2_000_000
# the sections analyze reads; it ignores the published cells
ROW = {section: value for section, value in json.loads(
    (pkg_files("qdsnet.data") / "table2_50km_AB.json").read_text()).items()
    if section in ("tally", "intensity", "targets")}
DEMO = json.loads((pkg_files("qdsnet.data") / "demo_10db.json").read_text())
for _link in DEMO["links"].values():
    _link["n_pulses"] = SIM_PULSES


def _paths(doc, prefix=()):
    """Every key path in doc, and one unknown key per object."""
    out = [prefix + ("unknown_key",)]
    for key, value in doc.items():
        out.append(prefix + (key,))
        if isinstance(value, dict):
            out += _paths(value, prefix + (key,))
    return out


def _edited(doc, edits):
    doc = copy.deepcopy(doc)
    for path, value in edits:
        section = doc
        for name in path[:-1]:
            section = section[name]
        if value is DELETE:
            section.pop(path[-1], None)
        else:
            section[path[-1]] = value
    return doc


def _edits(doc):
    """One key of doc, or one unknown key, set to a hostile value or
    deleted."""
    return st.tuples(st.sampled_from(_paths(doc)),
                     st.sampled_from([*HOSTILE, DELETE])).map(lambda e: [e])


def _run(argv):
    """(exit code, stderr) of one in-process command, checked against
    the contract."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5, 6, 7, 8, 9)
    assert "Traceback" not in err
    labelled = [line for line in err.splitlines()
                if line.split(": ")[0] in LABELS]
    if code in (0, 7):
        assert not labelled, err
    else:
        assert len(labelled) == 1 and err.endswith(labelled[0] + "\n"), err
        assert LABELS[labelled[0].split(": ")[0]] == code, err
    return code, err


def _expect(outcome, expected):
    if expected is not None:
        code, fragment = expected
        assert outcome[0] == code and fragment in outcome[1], outcome


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "doc.bin").write_bytes(b"a document to sign")
    return path


def _simulate(scratch, config):
    (scratch / "cfg.json").write_text(json.dumps(config))
    return _run(["simulate", "--config", str(scratch / "cfg.json"),
                 "--message", str(scratch / "doc.bin"),
                 "--out-dir", str(scratch / "out")])


NAN_ROW = [(("intensity", "p_nu"), 1e-310), (("intensity", "p_mu"), 0.999),
           (("tally", "m_x_mu"), 0), (("tally", "m_x_nu"), 0)]


@settings(max_examples=300, deadline=None)
@given(edits=_edits(ROW), expected=st.none())
# NaN bounds (e^nu/p_nu overflows and meets a zero count) once ended in
# binary_entropy's ValueError with exit 1
@example(edits=NAN_ROW, expected=(6, "insufficient data: s_z0_u is inf"))
# an infinite s_z1_l was clamped to n_Z and passed with L = 192, not 688
@example(edits=[(("intensity", "nu"), 5e-324)],
         expected=(6, "insufficient data: s_z1_l is inf"))
# OverflowError in hoeffding_shift
@example(edits=[(("intensity", "mu"), 1e308)],
         expected=(6, "insufficient data: link bounds out of float range"))
@example(edits=[(("intensity", "mu"), 2 ** 63)],
         expected=(6, "insufficient data: link bounds out of float range"))
# integers beyond float range once overflowed in the analysis
@example(edits=[(("intensity", "mu"), 2 ** 1100)], expected=(3, "mu"))
@example(edits=[(("tally", "n_x_mu"), 2 ** 1100)], expected=(3, "n_x_mu"))
@example(edits=[(("targets", "lambda_ec_bits"), 2 ** 1100)],
         expected=(3, "lambda_ec_bits"))
# log2(2 / eps_cor) overflowed to inf, so every length was scanned (7 s)
@example(edits=[(("targets", "eps_cor"), 5e-324)], expected=(3, "eps_cor"))
# every eps overflowed to inf, so the scan's early exit never fired (8 s)
@example(edits=[(("targets", "lambda_ec_bits"), 1e308)],
         expected=(6, "link insecure: "))
# a deleted field was once filled in by a default: L = 648 at eps 5.2e-6
# without eps_target, 111.4 tps for a one-byte document without
# message_len_bits
@example(edits=[(("targets", "eps_target"), DELETE)],
         expected=(3, "eps_target"))
@example(edits=[(("targets", "message_len_bits"), DELETE)],
         expected=(6, "insufficient data: no measured message_len_bits"))
# n_Z / t overflowed, so the rate was inf and the report invalid JSON
@example(edits=[(("tally", "accumulation_time_s"), 5e-324)],
         expected=(6, "insufficient data: accumulation_time_s"))
# an unknown key once exited with Python's keyword-binding text
@example(edits=[(("intensity", "p_z"), 0.9)],
         expected=(3, "unknown intensity key(s): p_z"))
@example(edits=[(("tally", "unknown_key"), 0)],
         expected=(3, "unknown tally key(s): unknown_key"))
@example(edits=[(("targets", "unknown_key"), None)],
         expected=(3, "unknown targets key(s): unknown_key"))
def test_analyze_contract(scratch, edits, expected):
    path = scratch / "row.json"
    path.write_text(json.dumps(_edited(ROW, edits)))
    outcome = _run(["analyze", str(path)])
    _expect(outcome, expected)
    # a key the row holds, once deleted, is never read as a default
    if any(value is DELETE and key_path[-1] != "unknown_key"
           for key_path, value in edits):
        assert outcome[0] != 0, edits


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=64))
@example(data=b"\x80\x81")      # once a UnicodeDecodeError traceback
def test_analyze_arbitrary_bytes(scratch, data):
    path = scratch / "bytes.json"
    path.write_bytes(data)
    assert _run(["analyze", str(path)])[0] == 3


@settings(max_examples=120, deadline=None)
@given(edits=_edits(DEMO), expected=st.none())
# ZeroDivisionError in link_bounds: nu * (mu - nu) underflows to 0
@example(edits=[(("links", "bob", "intensity", "nu"), 5e-324)],
         expected=(6, "security stage failed: bob link insecure: "))
# an infinite accumulation time ended in DetectionTally's ValueError
@example(edits=[(("links", "bob", "channel", "pulse_rate_hz"), 1e-310)],
         expected=(3, "pulse_rate_hz"))
# an eps_cor below the tag's range failed only after Bob's link was
# simulated and reconciled, in tag_bit_count
@example(edits=[(("targets", "eps_cor"), 1e-25)], expected=(3, "eps_cor"))
@example(edits=[(("targets", "eps_cor"), 1e-310)], expected=(3, "eps_cor"))
# 2^63 pulses would have run 8.8e12 shards; rejected before any runs
@example(edits=[(("links", "charlie", "n_pulses"), 2 ** 63)],
         expected=(3, "n_pulses"))
# a QBER past 0.5 ended in block_length's ValueError with exit 1
@example(edits=[(("links", "bob", "channel", "misalignment"), 1.0)],
         expected=(6, "security stage failed: bob link insecure: "))
# past 1/2 the click probability exceeded 1, and the simulator's
# multinomial ended in a ValueError with exit 1
@example(edits=[(("links", "bob", "channel", "dark_count_prob"), 1.0)],
         expected=(3, "dark_count_prob"))
@example(edits=[(("links", "charlie", "channel", "dark_count_prob"), 0.6),
                (("links", "charlie", "p_z"), 0.99)],
         expected=(3, "dark_count_prob"))
# an unknown channel key once exited with Python's keyword-binding text
@example(edits=[(("links", "bob", "channel", "unknown_key"), 0)],
         expected=(3, "unknown link channel key(s): unknown_key"))
# 1 - p_nu rounded to 1.0, and the error named p_mu, which no config holds
@example(edits=[(("links", "bob", "intensity", "p_nu"), 1e-17)],
         expected=(3, "error: invalid run config: p_nu must be in (0, 1)"))
def test_simulate_contract(scratch, edits, expected):
    _expect(_simulate(scratch, _edited(DEMO, edits)), expected)


def test_pulse_budget_ceiling():
    # checked when the config is read, so neither budget runs here
    cfg = copy.deepcopy(DEMO)
    cfg["links"]["bob"]["n_pulses"] = MAX_PULSES
    assert RunConfig.from_dict(cfg).link_bob.n_pulses == MAX_PULSES
    cfg["links"]["bob"]["n_pulses"] = MAX_PULSES + 1
    with pytest.raises(ValueError, match="n_pulses"):
        RunConfig.from_dict(cfg)


@pytest.mark.parametrize("key_path", [
    path for path in _paths(DEMO) if path[-1] != "unknown_key"],
    ids=".".join)
def test_run_config_requires_every_key(scratch, key_path):
    config = _edited(DEMO, [(key_path, DELETE)])
    with pytest.raises((ValueError, TypeError, KeyError),
                       match=key_path[-1]):
        RunConfig.from_dict(config)
    code, err = _simulate(scratch, config)
    assert code == 3 and key_path[-1] in err


# a section that was not an object once failed in Python's ** binding or
# in indexing, and the error line named no section; a link states each
# prior pair once (p_nu; p_z), so naming its other half is an error
@pytest.mark.parametrize("command, doc, fragment", [
    ("simulate", _edited(DEMO, [(("links",), ["bob", "charlie"])]),
     "links must be a JSON object"),
    ("simulate", _edited(DEMO, [(("links", "bob", "intensity", "p_mu"),
                                 0.7)]),
     "unknown link intensity key(s): p_mu"),
    ("simulate", _edited(DEMO, [(("links", "charlie", "intensity", "p_x"),
                                 0.25)]),
     "unknown link intensity key(s): p_x"),
    ("analyze", _edited(ROW, [(("tally",), 5)]),
     "tally must be a JSON object"),
    ("analyze", _edited(ROW, [(("intensity",), [])]),
     "intensity must be a JSON object"),
    ("analyze", _edited(ROW, [(("targets",), "x")]),
     "targets must be a JSON object"),
    ("analyze", [], "tally document must be a JSON object"),
], ids=["links", "p_nu", "p_x", "tally", "intensity", "targets", "document"])
def test_malformed_section_is_named(scratch, command, doc, fragment):
    path = scratch / "section.json"
    path.write_text(json.dumps(doc))
    argv = (["analyze", str(path)] if command == "analyze" else
            ["simulate", "--config", str(path), "--message",
             str(scratch / "doc.bin"), "--out-dir", str(scratch / "out")])
    code, err = _run(argv)
    assert code == 3 and err.startswith("error: ") and fragment in err, err


VERIFY_FILES = ("bundle.bin", "ann.bin", "bob.share", "charlie.store")


@pytest.fixture(scope="module")
def signed(scratch):
    """The files of one keygen-sim / sign / Bob-verify flow, as bytes."""
    flow = scratch / "flow"
    flow.mkdir()
    (flow / "doc.bin").write_bytes(b"a contract worth signing")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(flow)
        for argv in (["keygen-sim", "--bits", "1024", "--seed", "3"],
                     ["sign", "--message", "doc.bin", "--store",
                      "alice.store", "--length", "64", "--out", "bundle.bin",
                      "--announce", "ann.bin"],
                     ["verify", "--bundle", "bundle.bin", "--announce",
                      "ann.bin", "--store", "bob.store",
                      "--share-out", "bob.share"]):
            assert _run(argv)[0] == 0
    return {name: (flow / name).read_bytes() for name in VERIFY_FILES}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(VERIFY_FILES),
       how=st.sampled_from(["truncate", "extend", "flip"]),
       at=st.integers(min_value=0), extra=st.binary(min_size=1, max_size=8))
def test_verify_contract(scratch, signed, name, how, at, extra):
    files = dict(signed)
    data = files[name]
    if how == "truncate":
        files[name] = data[:at % len(data)]
    elif how == "extend":
        files[name] = data + extra
    else:
        flipped = bytearray(data)
        flipped[at % len(data)] ^= 1 << extra[0] % 8
        files[name] = bytes(flipped)
    work = scratch / "verify"
    work.mkdir(exist_ok=True)
    for file_name, content in files.items():
        (work / file_name).write_bytes(content)
    share_out = work / "charlie.share"
    share_out.unlink(missing_ok=True)
    _run(["verify", "--bundle", str(work / "bundle.bin"),
          "--announce", str(work / "ann.bin"),
          "--store", str(work / "charlie.store"),
          "--peer-share", str(work / "bob.share"),
          "--share-out", str(share_out)])
    # the store is written before the share: a changed store means the
    # positions were consumed, and then the share exists
    consumed = (work / "charlie.store").read_bytes() != files["charlie.store"]
    assert consumed == share_out.exists()
