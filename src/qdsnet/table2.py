"""Reproduction of the bundled reference measurements (golden data).

Eight recorded link datasets ship with the package: raw detection
counts, source settings, and the originally published derived values
(single-photon bound, error rates, signature length, security bound,
signature rate).  reproduce_table re-derives every output column from
the raw counts alone and compares against the published cells at fixed
tolerances under finitekey's one analysis convention, first at the
printed inputs:

    E_Z        exact at the printed precision (a ratio of integers)
    s_Z1_l     within 2 percent
    phi_Z_u    within 15 percent
    L          within 10 percent, band rounded up to multiples of 8
    eps        within a factor of 3, evaluated at the reproduced L
    R_S        within 2 percent (plus half a printed ulp)

R_S target selection: the published rate cell is compared against the
rate identity n_Z / (2 L t) evaluated at the published L and t.  Two of
the eight cells disagree with their own row's identity by about 5
percent; for those rows the identity-consistent value replaces the cell
as the comparison target and the row is flagged.

Input precision: the analysis inputs mu, nu, p_mu and p_nu are printed
to three decimals, and half a printed digit on them moves the
reproduced L, and so R_S, by about 3 percent, more than the 2 percent
rate band.  So each row is also searched for a witness: an admissible
input point where all six cells pass the same bands.  A point is
admissible when every input rounds half-up to its printed value (the
search uses one more decimal) and p_mu = 1 - p_nu, since a 1-decoy
source's two priors sum to 1.  A row whose printed priors do not sum to
1 (200 km A-C: 0.768 + 0.233) is admissible only where both sit at the
lower edge of their rounding interval.  all_pass keeps judging the
printed inputs; all_reproduced holds when every row has a witness.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from decimal import ROUND_HALF_UP, Decimal
from importlib import resources

from .finitekey import (AnalysisError, DetectionTally, IntensityConfig,
                        SecurityTargets, min_signature_length, require_known,
                        signature_rate)

ROW_FILES = (
    "table2_50km_AB.json", "table2_50km_AC.json",
    "table2_100km_AB.json", "table2_100km_AC.json",
    "table2_150km_AB.json", "table2_150km_AC.json",
    "table2_200km_AB.json", "table2_200km_AC.json",
)

S_Z1_RTOL = 0.02
PHI_RTOL = 0.15
L_RTOL = 0.10
EPS_FACTOR = 3.0
RS_RTOL = 0.02
# a published cell whose own rate identity misses it by more than this
# is treated as internally inconsistent and flagged
RS_CELL_CONSISTENCY_RTOL = 0.02
# analysis inputs printed to finite precision; see admissible_points
PRECISION_INPUTS = ("mu", "nu", "p_mu", "p_nu")


def load_rows() -> list[dict]:
    rows = []
    for name in ROW_FILES:
        ref = resources.files("qdsnet.data").joinpath(name)
        rows.append(json.loads(ref.read_text()))
    return rows


def _ceil8(x: float) -> int:
    return int(math.ceil(x / 8.0)) * 8


def row_inputs(row: dict) -> tuple[DetectionTally, IntensityConfig,
                                   SecurityTargets]:
    return tuple(cls(**require_known(key, row[key], [
        f.name for f in dataclasses.fields(cls)])) for cls, key in (
        (DetectionTally, "tally"), (IntensityConfig, "intensity"),
        (SecurityTargets, "targets")))


def _judge_cells(row: dict, tally: DetectionTally,
                 intensity: IntensityConfig,
                 targets: SecurityTargets) -> dict[str, dict]:
    """Recompute one row's outputs at the given inputs; judge each cell."""
    pub = row["published"]
    length, report = min_signature_length(tally, intensity, targets)
    checks: dict[str, dict] = {}

    pub_ez = float(pub["e_z_percent"])
    ez_pct = 100.0 * tally.e_z
    ez_digit = float(_digit(Decimal(pub["e_z_percent"])))
    checks["e_z"] = {
        "computed": ez_pct, "published": pub_ez,
        "pass": abs(ez_pct - pub_ez) <= 0.5 * ez_digit,
    }

    pub_s1 = float(pub["s_z1_l"])
    checks["s_z1_l"] = {
        "computed": report.s_z1_l, "published": pub_s1,
        "deviation": report.s_z1_l / pub_s1 - 1.0,
        "pass": abs(report.s_z1_l / pub_s1 - 1.0) <= S_Z1_RTOL,
    }

    pub_phi = float(pub["phi_z_u"])
    checks["phi_z_u"] = {
        "computed": report.phi_z_u, "published": pub_phi,
        "deviation": report.phi_z_u / pub_phi - 1.0,
        "pass": abs(report.phi_z_u / pub_phi - 1.0) <= PHI_RTOL,
    }

    t_s = float(pub["accumulation_time_s"])
    n_z = tally.n_z_total
    rate = signature_rate(n_z, length, t_s)

    pub_L = int(pub["signature_len_bits"])
    lo, hi = _ceil8((1 - L_RTOL) * pub_L), _ceil8((1 + L_RTOL) * pub_L)
    checks["signature_len_bits"] = {
        "computed": length, "published": pub_L, "band": [lo, hi],
        "deviation": length / pub_L - 1.0,
        "pass": lo <= length <= hi,
    }

    pub_eps = float(pub["eps"])
    eps_ratio = report.eps / pub_eps if pub_eps else math.inf
    checks["eps"] = {
        "computed": report.eps, "published": pub_eps, "ratio": eps_ratio,
        "pass": 1.0 / EPS_FACTOR <= eps_ratio <= EPS_FACTOR,
    }

    # rate cell: check the published cell against its own row's identity
    pub_rs = float(pub["signature_rate_tps"])
    rs_ulp = float(_digit(Decimal(pub["signature_rate_tps"])))
    identity_rs = signature_rate(n_z, pub_L, t_s)
    cell_consistent = (abs(identity_rs / pub_rs - 1.0)
                       <= RS_CELL_CONSISTENCY_RTOL)
    target_rs = pub_rs if cell_consistent else identity_rs
    allowance = RS_RTOL * target_rs + (0.5 * rs_ulp if cell_consistent
                                       else 0.0)
    checks["signature_rate_tps"] = {
        "computed": rate, "published": pub_rs,
        "cell_consistent_with_rate_identity": cell_consistent,
        "identity_value_at_published_L": identity_rs,
        "target": target_rs,
        "deviation": rate / target_rs - 1.0,
        "pass": abs(rate - target_rs) <= allowance,
        "flagged": not cell_consistent,
    }
    return checks


def reproduce_row(row: dict) -> dict:
    """Recompute one row's outputs at its printed inputs; judge every cell."""
    checks = _judge_cells(row, *row_inputs(row))
    rate = checks["signature_rate_tps"]
    return {
        "distance_km": row["distance_km"], "link": row["link"],
        "checks": checks,
        "row_pass": all(c["pass"] for c in checks.values()),
        "flags": (["published rate cell differs from its own row's "
                   "n_Z/(2Lt) identity; identity value used as target"]
                  if rate["flagged"] else []),
    }


def _printed(intensity: IntensityConfig) -> dict[str, Decimal]:
    return {name: Decimal(repr(getattr(intensity, name)))
            for name in PRECISION_INPUTS}


def _digit(printed: Decimal) -> Decimal:
    """The value of the last printed digit: 0.001 for 0.127."""
    return Decimal(1).scaleb(printed.as_tuple().exponent)


def _printed_values(printed: Decimal) -> list[Decimal]:
    """Values with one more decimal than printed that round half-up to it."""
    step = _digit(printed) / 10
    return [printed + k * step for k in range(-5, 5)]


def admissible_points(intensity: IntensityConfig) -> list[dict[str, Decimal]]:
    """Input points that print as the given ones, nearest first.

    mu, nu and p_nu range over _printed_values; p_mu is 1 - p_nu, since
    a 1-decoy source's two priors sum to 1, and must itself round
    half-up to the printed p_mu.  Points are ordered by their largest
    offset, then by their total offset, both counted in printed digits;
    remaining ties keep a fixed product order.
    """
    printed = _printed(intensity)
    points = [{"mu": mu, "nu": nu, "p_mu": 1 - p_nu, "p_nu": p_nu}
              for mu, nu, p_nu in itertools.product(
                  *(_printed_values(printed[name])
                    for name in ("mu", "nu", "p_nu")))
              if (1 - p_nu).quantize(printed["p_mu"], rounding=ROUND_HALF_UP)
              == printed["p_mu"]]

    def digits_moved(point):
        moved = [abs(value - printed[name]) / _digit(printed[name])
                 for name, value in point.items()]
        return max(moved), sum(moved)
    return sorted(points, key=digits_moved)


def input_witness(row: dict) -> dict | None:
    """First admissible input point where every cell passes.

    Walks admissible_points in order and returns the first point where
    all six cells pass their unchanged bands: its offsets from the
    printed inputs, its reproduced L and its R_S deviation.  Returns
    None when no admissible point passes.
    """
    tally, intensity, targets = row_inputs(row)
    centre = _printed(intensity)
    for point in admissible_points(intensity):
        moved = dataclasses.replace(intensity, **{
            name: float(value) for name, value in point.items()})
        try:
            checks = _judge_cells(row, tally, moved, targets)
        except AnalysisError:
            continue
        if all(c["pass"] for c in checks.values()):
            return {"offsets": {name: float(value - centre[name])
                                for name, value in point.items()},
                    "signature_len_bits":
                        checks["signature_len_bits"]["computed"],
                    "rate_deviation":
                        checks["signature_rate_tps"]["deviation"]}
    return None


def format_offsets(witness: dict) -> str:
    """'nu+0.0004 p_mu-0.0004 p_nu+0.0004', or 'printed inputs'."""
    moved = [f"{name}{delta:+g}" for name, delta in witness["offsets"].items()
             if delta]
    return " ".join(moved) if moved else "printed inputs"


def reproduce_table() -> dict:
    """Recompute all rows and search each row's input witness.

    all_pass judges the printed inputs; all_reproduced holds when every
    row has a witness.
    """
    results = [{**reproduce_row(row), "witness": input_witness(row)}
               for row in load_rows()]
    return {"rows": results,
            "all_pass": all(r["row_pass"] for r in results),
            "all_reproduced": all(r["witness"] is not None
                                  for r in results)}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-2:
        return f"{value:.3e}"
    return f"{value:.4g}"


def format_report(result: dict) -> str:
    """Human-readable side-by-side comparison."""
    lines = []
    header = (f"{'row':<12} {'cell':<22} {'computed':>12} {'published':>12} "
              f"{'dev':>8}  verdict")
    lines.append(header)
    lines.append("-" * len(header))
    for row in result["rows"]:
        tag = f"{row['distance_km']}km {row['link']}"
        for cell, chk in row["checks"].items():
            dev = chk.get("deviation")
            if dev is None and "ratio" in chk:
                dev = chk["ratio"] - 1.0
            devs = f"{100*dev:+.2f}%" if dev is not None else ""
            verdict = "pass" if chk["pass"] else "FAIL"
            if chk.get("flagged"):
                verdict += " [flagged cell]"
            lines.append(f"{tag:<12} {cell:<22} {_fmt(chk['computed']):>12} "
                         f"{_fmt(chk['published']):>12} {devs:>8}  {verdict}")
        for flag in row["flags"]:
            lines.append(f"{'':<12} note: {flag}")
        witness = row["witness"]
        if witness is None:
            note = ("no input point within printed precision passes "
                    "every cell")
        else:
            note = (f"every cell passes at {format_offsets(witness)} "
                    f"(L = {witness['signature_len_bits']}, R_S "
                    f"{100 * witness['rate_deviation']:+.2f}%)")
        lines.append(f"{'':<12} note: {note}")
    lines.append("")
    n_rows = len(result["rows"])
    n_fail = sum(1 for r in result["rows"] if not r["row_pass"])
    n_witness = sum(1 for r in result["rows"] if r["witness"] is not None)
    lines.append(f"rows passing: {n_rows - n_fail}/{n_rows}")
    lines.append(f"rows reproduced within input precision: "
                 f"{n_witness}/{n_rows}")
    return "\n".join(lines)
