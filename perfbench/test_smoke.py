"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced through the same op loop the
benchmark uses, and asserts that each op passes its output check and
that every metric named in BENCHMARK.json is emitted with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(n_pulses=20_000_000, doc_bytes=2_000, sign_len_bits=64,
                       store_bits=1 << 14, scan_scale=0.1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _drive(cls, n_ops: int, traced: bool):
    # derive_modulus caches per process: the traced pass takes fresh seeds
    workload = cls(8 if traced else 7, n_ops, TINY)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        result = run.run_ops(workload, n_ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert result["failures"] == []
    return result, tracer


def _assert_metrics(emitted: dict, declared: list) -> None:
    for m in declared:
        assert m["name"] in emitted, m["name"]
        value, unit = emitted[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float))


@pytest.mark.parametrize("name,n_ops", [("pipeline-10db", 1),
                                        ("sign-20db", 8),
                                        ("analyze-table2", 10)])
def test_workload_checks_pass_and_metrics_emitted(name, n_ops):
    cls = workloads.WORKLOADS[name]
    untraced, _ = _drive(cls, n_ops, traced=False)
    e2e = run.end_to_end(untraced, setup_s=0.1)
    _assert_metrics(e2e, SPEC["end_to_end"])
    assert all(v > 0 for v, _ in e2e.values())

    _, tracer = _drive(cls, n_ops, traced=True)
    assert tracer.audit_failures == {}
    layers = tracing.layer_metrics(tracer)
    _assert_metrics(layers, SPEC["per_layer"])
    if name == "pipeline-10db":
        assert layers["cascade.reconcile.parity_bits"][0] > 0
        assert layers["runner.run_simulation.child_coverage"][0] >= 0.95
    if name == "sign-20db":
        assert layers["protocol.key_bits_consumed"][0] == 3 * 2 * 64 * n_ops
        assert layers["divhash.derive_modulus.misses"][0] == n_ops
    if name == "analyze-table2":
        assert layers["finitekey.unreachable_ratio"][0] == pytest.approx(0.2)


def test_op_sequence_is_seed_determined():
    cls = workloads.AnalyzeTable2
    a, b, c = (cls(s, 20, TINY) for s in (1, 1, 2))
    key = [(t.n_z_total, tg.lambda_ec_bits, r) for t, _, tg, r in a.inputs]
    assert key == [(t.n_z_total, tg.lambda_ec_bits, r)
                   for t, _, tg, r in b.inputs]
    assert key != [(t.n_z_total, tg.lambda_ec_bits, r)
                   for t, _, tg, r in c.inputs]
    s1, s2 = workloads.Sign20dB(1, 16, TINY), workloads.Sign20dB(1, 16, TINY)
    assert s1.p_seeds == s2.p_seeds and s1.documents == s2.documents
    assert len(set(s1.p_seeds)) == 16 and len(s1.tampered) == 2


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail([1.0] * 5 + [2.0]) == (2.0, 100.0, 0)
    lat = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(lat)
    assert pct == 90.0 and beyond == 10
    assert sum(1 for x in lat if x > value) == 10


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
