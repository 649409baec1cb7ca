"""Span tracing for the traced benchmark run, installed from outside qdsnet.

Timing wrappers replace module attributes where callers look them up, so
the package itself carries no instrumentation.  Each wrapped call records
one span (id, name, parent id, op id, start, end).  A span opened in a
thread with no open span of its own (a messaging role thread, or the
reference thread of a reconciliation) takes the enclosing
``run_messaging`` or ``reconcile`` span as its parent.  Spans stay in
memory until ``write`` is called at the end of the run.

``security_bounds`` runs once per candidate length (625 000 times in one
unreachable length search), so it is counted, not spanned.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, op, start, end)
        self.counts: Counter = Counter()
        self.audit_failures: dict = {}  # op id -> reason
        self.op = None  # id of the running op; None pauses recording
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopt = None
        self._lock = threading.Lock()
        self._undo: list = []
        self.misses = lambda: 0

    def add(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, *, adopt: bool = False, after=None,
             error=None):
        """Span-timing wrapper; after(args, kwargs, result) sees successes,
        error names an exception type that is counted as name + '.errors'."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._adopt
            stack.append(sid)
            if adopt:
                outer, tracer._adopt = tracer._adopt, sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if error is not None and isinstance(exc, error):
                    tracer.add(name + ".errors")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopt:
                    tracer._adopt = outer
                tracer.spans.append((sid, name, parent, tracer.op, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "op", "start", "end"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every public call site the benchmark measures."""
    from qdsnet import divhash, finitekey, protocol, runner, transport
    from qdsnet.finitekey import LinkInsecureError

    w = tracer.wrap
    add = tracer.add

    def count(key, value):
        return lambda a, k, r: add(key, value(a, k, r))

    stage = {
        "simulate_kgp": w("channel.simulate_kgp", runner.simulate_kgp,
                          after=_after_simulate(add)),
        "min_signature_length": w("finitekey.min_signature_length",
                                  runner.min_signature_length,
                                  error=LinkInsecureError),
        "report_at_length": w("finitekey.report_at_length",
                              runner.report_at_length),
        "run_distribution": w("protocol.run_distribution",
                              runner.run_distribution),
        "connect_parties": w("protocol.connect_parties",
                             runner.connect_parties),
        "run_messaging": w("protocol.run_messaging", runner.run_messaging,
                           adopt=True),
        "reconcile": _audited_reconcile(tracer, runner.reconcile),
    }
    for attr, wrapper in stage.items():
        tracer.patch(runner, attr, wrapper)
    tracer.patch(runner, "run_simulation",
                 w("runner.run_simulation", runner.run_simulation))

    for attr in ("connect_parties", "run_messaging", "select_positions",
                 "extract_share", "sign", "verify_as_receiver"):
        after = None
        if attr == "select_positions":
            after = count("protocol.key_bits_consumed",
                          lambda a, k, r: len(r.positions))
        elif attr == "extract_share":
            after = count("protocol.key_bits_consumed",
                          lambda a, k, r: len(a[1].positions))
        tracer.patch(protocol, attr,
                     w(f"protocol.{attr}", getattr(protocol, attr),
                       adopt=attr == "run_messaging", after=after))
    tracer.patch(protocol, "hash_document",
                 w("divhash.hash_document", protocol.hash_document,
                   after=count("divhash.hash_document.bytes",
                               lambda a, k, r: len(a[0]))))

    tracer.patch(divhash, "is_irreducible",
                 w("gf256.is_irreducible", divhash.is_irreducible,
                   after=count("gf256.is_irreducible.accepted",
                               lambda a, k, r: int(bool(r)))))
    cached = divhash.derive_modulus
    misses_before = cached.cache_info().misses
    tracer.patch(divhash, "derive_modulus",
                 w("divhash.derive_modulus", cached))
    tracer.misses = lambda: cached.cache_info().misses - misses_before

    tracer.patch(transport, "encode_frame",
                 w("framing.encode_frame", transport.encode_frame,
                   after=count("framing.encode_frame.bytes",
                               lambda a, k, r: len(r))))
    tracer.patch(transport, "decode_frame",
                 w("framing.decode_frame", transport.decode_frame,
                   after=count("framing.decode_frame.bytes",
                               lambda a, k, r: r[1])))
    for cls in (transport.MemoryEndpoint, transport.SocketEndpoint):
        tracer.patch(cls, "recv", w("transport.recv", cls.recv))

    tracer.patch(finitekey, "link_bounds",
                 w("finitekey.link_bounds", finitekey.link_bounds))
    bounds = finitekey.security_bounds

    def counted_security_bounds(*args, **kwargs):
        # called only from the analysing thread, so no lock is needed
        if tracer.op is not None:
            tracer.counts["finitekey.security_bounds.calls"] += 1
        return bounds(*args, **kwargs)

    tracer.patch(finitekey, "security_bounds", counted_security_bounds)
    tracer.patch(finitekey, "min_signature_length",
                 w("finitekey.min_signature_length",
                   finitekey.min_signature_length, error=LinkInsecureError))


def _after_simulate(add):
    def after(args, kwargs, batch):
        add("channel.simulate_kgp.pulses", int(args[0]))
        add("channel.simulate_kgp.sifted", int(batch.tally.n_z_total))
    return after


def _audited_reconcile(tracer: Tracer, reconcile):
    """reconcile with a corrector-side transcript and the leakage audit:
    PARITY_ANSWER bits plus tag bits must equal the reported leakage."""
    from qdsnet.finitekey import binary_entropy

    spanned = tracer.wrap("cascade.reconcile", reconcile, adopt=True)

    def audited(key_a, key_b, cfg, transcript=None):
        log = [] if transcript is None else transcript
        cpu0 = time.process_time()
        cor, ref = spanned(key_a, key_b, cfg, transcript=log)
        cpu = time.process_time() - cpu0
        parity = sum(e.detail for e in log
                     if e.direction == "recv" and e.msg_type == "PARITY_ANSWER")
        tag = sum(e.detail for e in log
                  if e.direction == "send" and e.msg_type == "TAG_EXCHANGE")
        if parity + tag != cor.leakage_bits:
            tracer.audit_failures[tracer.op] = (
                f"leakage audit: parity {parity} + tag {tag} != "
                f"reported {cor.leakage_bits}")
        n = len(key_a)
        qber = float(np.count_nonzero(np.asarray(key_a) != np.asarray(key_b))) / n
        add = tracer.add
        add("cascade.reconcile.bits", n)
        add("cascade.reconcile.cpu_s", cpu)
        add("cascade.reconcile.round_trips",
            sum(1 for e in log if e.direction == "send"))
        add("cascade.reconcile.parity_bits", parity)
        add("cascade.reconcile.leakage_bits", cor.leakage_bits)
        add("cascade.reconcile.passes", cor.rounds_used)
        add("cascade.reconcile.ideal_bits", n * binary_entropy(qber))
        return cor, ref

    return audited


# --- metrics -----------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from spans and counts."""
    busy: Counter = Counter()
    calls: Counter = Counter()
    children = defaultdict(list)
    for sid, name, parent, _op, start, end in tracer.spans:
        busy[name] += end - start
        calls[name] += 1
        if parent is not None:
            children[parent].append((start, end))

    self_time: Counter = Counter()
    for sid, name, _parent, _op, start, end in tracer.spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        self_time[name] += (end - start) - _covered(kids)

    by_id = {s[0]: s for s in tracer.spans}
    hash_time = defaultdict(list)  # run_messaging span -> gf256/divhash intervals
    for sid, name, parent, _op, start, end in tracer.spans:
        if not name.startswith(("gf256.", "divhash.")):
            continue
        p = parent
        while p is not None and by_id[p][1] != "protocol.run_messaging":
            p = by_id[p][2]
        if p is not None:
            hash_time[p].append((start, end))
    hash_covered = sum(_covered(v) for v in hash_time.values())

    c = tracer.counts
    misses = tracer.misses()
    ms_calls = calls["finitekey.min_signature_length"]
    frames = calls["framing.encode_frame"] + calls["framing.decode_frame"]
    framing_bytes = (c["framing.encode_frame.bytes"]
                     + c["framing.decode_frame.bytes"])
    rec_busy = busy["cascade.reconcile"]
    sim_busy = busy["channel.simulate_kgp"]
    m = {
        "gf256.is_irreducible.calls": (calls["gf256.is_irreducible"], "count"),
        "gf256.is_irreducible.busy_s": (busy["gf256.is_irreducible"], "s"),
        "gf256.is_irreducible.accept_ratio": (
            _ratio(c["gf256.is_irreducible.accepted"],
                   calls["gf256.is_irreducible"]), "ratio"),
        "divhash.derive_modulus.calls": (calls["divhash.derive_modulus"],
                                         "count"),
        "divhash.derive_modulus.misses": (misses, "count"),
        "divhash.derive_modulus.busy_s": (busy["divhash.derive_modulus"], "s"),
        "divhash.derive_modulus.walk_len": (
            _ratio(calls["gf256.is_irreducible"], misses), "count"),
        "divhash.hash_document.calls": (calls["divhash.hash_document"],
                                        "count"),
        "divhash.hash_document.bytes": (c["divhash.hash_document.bytes"], "B"),
        "divhash.hash_document.busy_s": (busy["divhash.hash_document"], "s"),
        "divhash.hash_document.mb_per_s": (
            _ratio(c["divhash.hash_document.bytes"] / 1e6,
                   self_time["divhash.hash_document"]), "MB/s"),
        "channel.simulate_kgp.pulses": (c["channel.simulate_kgp.pulses"],
                                        "count"),
        "channel.simulate_kgp.busy_s": (sim_busy, "s"),
        "channel.simulate_kgp.mpulses_per_s": (
            _ratio(c["channel.simulate_kgp.pulses"] / 1e6, sim_busy),
            "Mpulse/s"),
        "channel.simulate_kgp.sift_ratio": (
            _ratio(c["channel.simulate_kgp.sifted"],
                   c["channel.simulate_kgp.pulses"]), "ratio"),
        "cascade.reconcile.bits": (c["cascade.reconcile.bits"], "bit"),
        "cascade.reconcile.busy_s": (rec_busy, "s"),
        "cascade.reconcile.cpu_s": (c["cascade.reconcile.cpu_s"], "s"),
        "cascade.reconcile.wait_s": (
            rec_busy - c["cascade.reconcile.cpu_s"], "s"),
        "cascade.reconcile.round_trips": (c["cascade.reconcile.round_trips"],
                                          "count"),
        "cascade.reconcile.parity_bits": (c["cascade.reconcile.parity_bits"],
                                          "bit"),
        "cascade.reconcile.leakage_bits": (
            c["cascade.reconcile.leakage_bits"], "bit"),
        "cascade.reconcile.passes": (c["cascade.reconcile.passes"], "count"),
        "cascade.reconcile.ec_efficiency": (
            _ratio(c["cascade.reconcile.leakage_bits"],
                   c["cascade.reconcile.ideal_bits"]), "ratio"),
        "finitekey.min_signature_length.calls": (ms_calls, "count"),
        "finitekey.min_signature_length.busy_s": (
            busy["finitekey.min_signature_length"], "s"),
        "finitekey.security_bounds.calls": (
            c["finitekey.security_bounds.calls"], "count"),
        "finitekey.link_bounds.calls": (calls["finitekey.link_bounds"],
                                        "count"),
        "finitekey.unreachable_ratio": (
            _ratio(c["finitekey.min_signature_length.errors"], ms_calls),
            "ratio"),
        "framing.frames": (frames, "count"),
        "framing.bytes": (framing_bytes, "B"),
        "framing.busy_s": (busy["framing.encode_frame"]
                           + busy["framing.decode_frame"], "s"),
        "transport.frames_sent": (calls["framing.encode_frame"], "count"),
        "transport.bytes_sent": (c["framing.encode_frame.bytes"], "B"),
        "transport.recv_wait_s": (self_time["transport.recv"], "s"),
        "protocol.run_messaging.busy_s": (busy["protocol.run_messaging"], "s"),
        "protocol.run_messaging.self_s": (self_time["protocol.run_messaging"],
                                          "s"),
        "protocol.run_messaging.hash_share": (
            _ratio(hash_covered, busy["protocol.run_messaging"]), "ratio"),
        "protocol.sign.busy_s": (busy["protocol.sign"], "s"),
        "protocol.verify_as_receiver.busy_s": (
            busy["protocol.verify_as_receiver"], "s"),
        "protocol.select_positions.busy_s": (busy["protocol.select_positions"],
                                             "s"),
        "protocol.extract_share.busy_s": (busy["protocol.extract_share"], "s"),
        "protocol.key_bits_consumed": (c["protocol.key_bits_consumed"], "bit"),
        "runner.run_simulation.busy_s": (busy["runner.run_simulation"], "s"),
        "runner.run_simulation.self_s": (self_time["runner.run_simulation"],
                                         "s"),
        "runner.run_simulation.child_coverage": (
            1.0 - _ratio(self_time["runner.run_simulation"],
                         busy["runner.run_simulation"])
            if busy["runner.run_simulation"] else 0.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return m
