import copy
import time
from decimal import ROUND_HALF_UP, Decimal

import pytest

from qdsnet.finitekey import signature_rate
from qdsnet.table2 import (PRECISION_INPUTS, admissible_points,
                           format_report, input_witness, load_rows,
                           reproduce_row, reproduce_table, row_inputs)

# the two rows whose published rate cell cannot be met at our
# reproduced length at the printed inputs; see the reproduce-table
# report and README
KNOWN_RATE_OUTLIERS = {"50km A-C", "200km A-C"}
# rows whose published rate cell disagrees with its own row identity
KNOWN_INCONSISTENT_CELLS = {"50km A-B", "200km A-B"}


@pytest.fixture(scope="module")
def table():
    """One reproduce_table() for the module; no test that takes it
    mutates it."""
    return reproduce_table()


def test_load_rows_complete():
    rows = load_rows()
    assert len(rows) == 8
    names = {f"{r['distance_km']}km {r['link']}" for r in rows}
    assert names == {f"{d}km {l}" for d in (50, 100, 150, 200)
                     for l in ("A-B", "A-C")}
    for row in rows:
        assert row["tally"]["n_z_total"] == 10_000_000
        assert set(row["published"]) >= {"s_z1_l", "e_z_percent",
                                         "phi_z_u", "signature_len_bits",
                                         "eps", "signature_rate_tps"}


def test_row_inputs_types():
    tally, intensity, targets = row_inputs(load_rows()[0])
    assert tally.n_z_total == 10_000_000
    assert 0 < intensity.nu < intensity.mu
    assert targets.eps_sf == 1e-10
    assert targets.message_len_bits == 1_000_000
    assert targets.lambda_ec_bits is not None


def test_reproduction_runs_under_ten_seconds():
    start = time.monotonic()
    reproduce_table()
    assert time.monotonic() - start < 10.0


def _name(row):
    return f"{row['distance_km']}km {row['link']}"


def test_all_analysis_cells_within_tolerance(table):
    result = table
    assert len(result["rows"]) == 8
    for row in result["rows"]:
        checks = row["checks"]
        for cell in ("e_z", "s_z1_l", "phi_z_u", "signature_len_bits",
                     "eps"):
            assert checks[cell]["pass"], (_name(row), cell)


def test_rate_cells_match_documented_state(table):
    result = table
    failed = {_name(r) for r in result["rows"] if not r["row_pass"]}
    assert failed == KNOWN_RATE_OUTLIERS
    flagged = {_name(r) for r in result["rows"] if r["flags"]}
    assert flagged >= KNOWN_INCONSISTENT_CELLS
    assert result["all_pass"] is False


def test_reproduce_row_shape():
    row = load_rows()[2]
    out = reproduce_row(row)
    assert set(out["checks"]) == {
        "e_z", "s_z1_l", "phi_z_u", "signature_len_bits", "eps",
        "signature_rate_tps"}
    for cell in out["checks"].values():
        assert "computed" in cell and "published" in cell


def test_format_report_readable(table):
    result = table
    text = format_report(result)
    for row in result["rows"]:
        assert _name(row) in text
    assert "rows passing: 6/8" in text
    assert "rows reproduced within input precision: 8/8" in text
    assert text.count("note: every cell passes at") == 8


def _prints_as(value: Decimal, printed: float) -> bool:
    shown = Decimal(repr(printed))
    return value.quantize(shown, rounding=ROUND_HALF_UP) == shown


def test_every_row_has_a_witness_within_printed_precision(table):
    result = table
    assert result["all_reproduced"] is True
    for row, res in zip(load_rows(), result["rows"]):
        witness = res["witness"]
        assert witness is not None, _name(res)
        assert set(witness["offsets"]) == set(PRECISION_INPUTS)
        point = {name: Decimal(repr(row["intensity"][name]))
                 + Decimal(repr(delta))
                 for name, delta in witness["offsets"].items()}
        # the witness prints as the row's inputs and is a real 1-decoy
        # source: its two priors sum to exactly 1
        for name, value in point.items():
            assert _prints_as(value, row["intensity"][name]), \
                (_name(res), name, value)
        assert point["p_mu"] + point["p_nu"] == 1, _name(res)
        # a passing row is its own witness at the printed inputs
        if res["row_pass"]:
            assert not any(witness["offsets"].values()), _name(res)
    moved = {_name(r) for r in result["rows"]
             if any(r["witness"]["offsets"].values())}
    assert moved == KNOWN_RATE_OUTLIERS


def test_admissible_points_respect_rounding_and_priors():
    rows = {_name(r): r for r in load_rows()}
    for name, row in rows.items():
        intensity = row_inputs(row)[1]
        points = admissible_points(intensity)
        for point in points:
            assert point["p_mu"] + point["p_nu"] == 1
            for key, value in point.items():
                assert _prints_as(value, getattr(intensity, key))
        # the upper half-digit rounds up, so it is never admissible
        assert max(p["nu"] for p in points) < (
            Decimal(repr(intensity.nu)) + Decimal("0.0005")), name
    # 200 km A-C prints p_mu + p_nu = 0.768 + 0.233 = 1.001: the only
    # prior pair that sums to 1 and prints so is 0.7675 + 0.2325
    points = admissible_points(row_inputs(rows["200km A-C"])[1])
    assert len(points) == 100
    assert {(p["p_mu"], p["p_nu"]) for p in points} == {
        (Decimal("0.7675"), Decimal("0.2325"))}
    # the printed point comes first wherever its priors sum to 1
    first = admissible_points(row_inputs(rows["50km A-C"])[1])[0]
    assert first == {"mu": Decimal("0.481"), "nu": Decimal("0.127"),
                     "p_mu": Decimal("0.775"), "p_nu": Decimal("0.225")}


def test_witness_absent_when_cells_are_out_of_reach():
    # move a passing row's published L and R_S cells 8% off, together,
    # so the rate cell stays consistent with its own identity: the L band
    # still holds the reproduced L, but the admissible points move L by
    # only ~3%
    row = copy.deepcopy(next(r for r in load_rows()
                             if r["distance_km"] == 100
                             and r["link"] == "A-C"))
    assert input_witness(row) is not None
    pub = row["published"]
    pub["signature_len_bits"] = round(1.08 * pub["signature_len_bits"])
    rate = signature_rate(row["tally"]["n_z_total"],
                          pub["signature_len_bits"],
                          float(pub["accumulation_time_s"]))
    pub["signature_rate_tps"] = f"{rate:.3g}"
    out = reproduce_row(row)
    assert out["checks"]["signature_len_bits"]["pass"]
    assert not out["checks"]["signature_rate_tps"]["pass"]
    assert not out["flags"]
    assert input_witness(row) is None
