"""Seeded workloads: inputs from a workload seed, one op, one output check.

Every input the program receives derives from the workload seed through
``derive(seed, purpose, index...)``.  A run is a fixed, seed-determined
sequence of ops whose length follows from the run's nominal seconds and
a fixed per-op cost, never from a wall-clock window, so two runs of the
same code on the same seed do the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from qdsnet import finitekey, protocol, runner, table2
from qdsnet.finitekey import (DetectionTally, IntensityConfig,
                              LinkInsecureError, SecurityTargets)

# purposes fed to derive(); each names one kind of input
_LINK, _PROTOCOL, _DOCUMENT, _POSITION, _HASH, _STORE, _ORDER, _TAMPER = \
    range(8)


def derive(seed: int, *key: int) -> int:
    """64-bit value for (seed, purpose, index...); distinct keys give
    independent values."""
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _document(seed: int, i: int, n_bytes: int) -> bytes:
    return np.random.default_rng(derive(seed, _DOCUMENT, i)).bytes(n_bytes)


def _require_unique(values, what: str) -> None:
    if len(set(values)) != len(values):
        raise ValueError(f"{what} repeats within the run")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, the smoke test
    shrinks them."""

    n_pulses: int = 100_000_000
    doc_bytes: int = 125_000
    sign_len_bits: int = 1088
    store_bits: int = 1 << 20
    scan_scale: float = 0.2  # tally scale for unreachable-target ops


FULL = Sizes()


class Workload:
    """Subclasses build inputs in __init__ (set-up) and define op/check."""

    name = ""
    nominal_op_s = 1.0  # reference cost of one op; fixes the op count
    ops_per_cycle = 1

    @classmethod
    def op_count(cls, seconds: float) -> int:
        cycles = max(1, round(seconds / (cls.nominal_op_s * cls.ops_per_cycle)))
        return cycles * cls.ops_per_cycle

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """None when op i's output is correct, else the reason."""
        raise NotImplementedError

    def record(self, results: list) -> dict:
        return {}


class Pipeline10dB(Workload):
    """One run_simulation on the shipped 10 dB demo physics per op."""

    name = "pipeline-10db"
    nominal_op_s = 15.0

    def __init__(self, seed: int, n_ops: int, sizes: Sizes = FULL):
        base = json.loads(resources.files("qdsnet.data")
                          .joinpath("demo_10db.json").read_text())
        self.configs = []
        for i in range(n_ops):
            cfg = json.loads(json.dumps(base))
            for j, link in enumerate(("bob", "charlie")):
                cfg["links"][link]["seed"] = derive(seed, _LINK, i, j)
                cfg["links"][link]["n_pulses"] = sizes.n_pulses
            cfg["protocol_seed"] = derive(seed, _PROTOCOL, i)
            self.configs.append(runner.RunConfig.from_dict(cfg))
        _require_unique([c.protocol_seed for c in self.configs],
                        "protocol_seed")
        _require_unique([c.link_bob.seed for c in self.configs]
                        + [c.link_charlie.seed for c in self.configs],
                        "link seed")
        self.documents = [_document(seed, i, sizes.doc_bytes)
                          for i in range(n_ops)]

    def op(self, i: int):
        return runner.run_simulation(self.configs[i],
                                     message=self.documents[i])

    def check(self, i: int, outcome) -> str | None:
        target = self.configs[i].targets.eps_target
        if outcome["decisions"] != {"bob": "accept", "charlie": "accept"}:
            return f"decisions {outcome['decisions']}"
        if not outcome["eps"] <= target:
            return f"eps {outcome['eps']:g} above target {target:g}"
        return None

    def record(self, results: list) -> dict:
        rates = [r["signature_rate_tps"] for r in results if r is not None]
        return {"signature_rate_tps": float(np.median(rates)) if rates else None}


class Sign20dB(Workload):
    """One connect_parties + run_messaging round at L = 1088 over sockets;
    one round in eight passes a tamper callable."""

    name = "sign-20db"
    nominal_op_s = 4.0
    ops_per_cycle = 8

    def __init__(self, seed: int, n_ops: int, sizes: Sizes = FULL):
        self.L = sizes.sign_len_bits
        rng = np.random.default_rng(derive(seed, _STORE))
        k_b = rng.integers(0, 2, sizes.store_bits, dtype=np.uint8)
        k_c = rng.integers(0, 2, sizes.store_bits, dtype=np.uint8)
        self.stores = (protocol.KeyStore.from_bits(k_b ^ k_c, "alice"),
                       protocol.KeyStore.from_bits(k_b, "bob"),
                       protocol.KeyStore.from_bits(k_c, "charlie"))
        if n_ops * 2 * self.L > sizes.store_bits:
            raise ValueError("key stores too small for the op count")
        self.documents = [_document(seed, i, sizes.doc_bytes)
                          for i in range(n_ops)]
        self.position_seeds = [derive(seed, _POSITION, i) for i in range(n_ops)]
        self.p_seeds = [derive(seed, _HASH, i) for i in range(n_ops)]
        _require_unique(self.p_seeds, "hash seed")
        self.tampered = set()
        for c in range(0, n_ops, self.ops_per_cycle):
            slot = derive(seed, _TAMPER, c) % self.ops_per_cycle
            self.tampered.add(c + slot)
        self._available = [s.available for s in self.stores]

    def op(self, i: int):
        tamper = None
        if i in self.tampered:
            at = derive(self.p_seeds[i], _TAMPER) % len(self.documents[i])

            def tamper(bundle):
                altered = bytearray(bundle.message)
                altered[at] ^= 0x01
                return protocol.SignatureBundle(bundle.sig, bytes(altered),
                                                bundle.p_a)

        parties, transcripts = protocol.connect_parties(*self.stores,
                                                        transport="socket")
        try:
            return protocol.run_messaging(
                parties, self.documents[i], signature_len_bits=self.L,
                position_seed=self.position_seeds[i], p_seed=self.p_seeds[i],
                tamper=tamper, transcripts=transcripts)
        finally:
            for party in parties.values():
                for ep in party.endpoints.values():
                    ep.close()

    def check(self, i: int, out) -> str | None:
        before = self._available
        self._available = [s.available for s in self.stores]
        if out.status != "ok":
            return f"status {out.status}: {out.error}"
        got = (out.bob_decision, out.charlie_decision)
        want = ("accept", "reject") if i in self.tampered else ("accept",
                                                                "accept")
        if got != want:
            return f"decisions {got}, expected {want}"
        lost = [b - a for b, a in zip(before, self._available)]
        if lost != [2 * self.L] * 3:
            return f"stores lost {lost} bits, expected {2 * self.L} each"
        return None


def _scaled_tally(tally: dict, scale: float) -> DetectionTally:
    if scale == 1.0:
        return DetectionTally(**tally)
    counts = {k: int(round(v * scale)) for k, v in tally.items()
              if k.startswith(("n_", "m_")) and k != "n_z_total"}
    return DetectionTally(n_z_total=counts["n_z_mu"] + counts["n_z_nu"],
                          accumulation_time_s=tally["accumulation_time_s"]
                          * scale, **counts)


class AnalyzeTable2(Workload):
    """One min_signature_length per op on a golden Table 2 tally.

    Ops come in groups of ten: all eight rows at their published targets
    (reachable, early exit) in seeded order, with every fifth op a row
    whose lambda_ec is raised past n_Z/2 (unreachable, full scan ending
    in LinkInsecureError).  Every four groups take each row once as an
    unreachable op, so neither the scans' mix of rows nor their place in
    the sequence depends on the seed.  An unreachable op runs on its
    row's tally scaled by ``Sizes.scan_scale``, which sets the scan
    length and so how many scans fit in a run."""

    name = "analyze-table2"
    nominal_op_s = 0.38
    ops_per_cycle = 40

    def __init__(self, seed: int, n_ops: int, sizes: Sizes = FULL):
        rows = [(row["tally"], IntensityConfig(**row["intensity"]),
                 SecurityTargets(**row["targets"]))
                for row in table2.load_rows()]
        reachable = [(DetectionTally(**t), inten, tg, True)
                     for t, inten, tg in rows]
        self.inputs = []  # (tally, intensity, targets, reachable)
        g = 0
        while len(self.inputs) < n_ops:
            if g % 4 == 0:
                scanned = np.random.default_rng(
                    derive(seed, _ORDER, g)).permutation(len(rows))
            rng = np.random.default_rng(derive(seed, _ORDER, g, 1))
            order = rng.permutation(len(rows))
            for half in range(2):
                self.inputs.extend(reachable[j] for j in order[4 * half:
                                                               4 * half + 4])
                raw, inten, tg = rows[scanned[2 * (g % 4) + half]]
                tally = _scaled_tally(raw, sizes.scan_scale)
                lam = tally.n_z_total // 2 + int(
                    rng.integers(0, tally.n_z_total // 4 + 1))
                self.inputs.append((tally, inten,
                                    replace(tg, lambda_ec_bits=lam), False))
            g += 1
        del self.inputs[n_ops:]

    def op(self, i: int):
        tally, inten, targets, _ = self.inputs[i]
        try:
            return finitekey.min_signature_length(tally, inten, targets)
        except LinkInsecureError as exc:
            return exc

    def check(self, i: int, result) -> str | None:
        tally, inten, targets, reachable = self.inputs[i]
        if not reachable:
            if isinstance(result, LinkInsecureError):
                return None
            return f"unreachable target returned {result!r}"
        if isinstance(result, Exception):
            return f"reachable target raised {result!r}"
        length, _ = result
        eps = finitekey.report_at_length(tally, inten, targets, length).eps
        if not eps <= targets.eps_target:
            return f"eps {eps:g} at L = {length} above target"
        if length > 8:
            shorter = finitekey.report_at_length(tally, inten, targets,
                                                 length - 8).eps
            if shorter <= targets.eps_target:
                return f"L - 8 = {length - 8} already meets the target"
        return None


WORKLOADS = {w.name: w for w in (Pipeline10dB, Sign20dB, AnalyzeTable2)}
