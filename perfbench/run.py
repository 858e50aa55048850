#!/usr/bin/env python3
"""The nonicindex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify-small --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload's seeded ops until --seconds have
passed and MIN_ROUNDS are done, checks every output, and prints as its last
line one JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Lines before it that start with '#' give the raw (unscaled) figures, the
reference loop's figures and, when traced, the tracing overhead.  Every time
is scaled to the reference speed of refloop.py.  See README.md.

The program is imported from src/ of the checkout this file sits in, and
only its public functions are called.  Load comes from this one process and
thread; set-up probes are fresh interpreters started one at a time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array

import checks
import corpus
import oracle
import refloop
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("classify-small", "index-wide", "sweep-agreement")
# A measured run goes on until --seconds have passed and it has done at least
# MIN_ROUNDS rounds.  latency_tail_ms is the highest whole percentile that
# leaves ten successful ops beyond it in that many rounds: 960 ops (p98, 19
# beyond), 220 (p95, 11 beyond) and 23779 (p99, 237 beyond).
MIN_ROUNDS = {"classify-small": 3, "index-wide": 5, "sweep-agreement": 1}
TAIL_PERCENTILE = {"classify-small": 98, "index-wide": 95, "sweep-agreement": 99}
PROBES = 5  # set-up probes per measured run, spread over the run
REF_INTERVAL_S = 0.05  # the reference loop is timed this often between ops
REF_BURST = 40  # at most this many reference samples between two ops
PROBE_TIMEOUT_S = 120
OPS_CHUNK = 4096  # op records held in memory before they go to the spill file
PROGRAM_MODULES = ("arith", "cli", "engstrom", "gf", "nonic", "polygon", "verify")


def load_program() -> dict:
    """Import nonicindex from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nonicindex", "__init__.py")):
        raise SystemExit(f"error: no nonicindex package under {SRC}")
    sys.path.insert(0, SRC)
    modules = {m: importlib.import_module(f"nonicindex.{m}") for m in PROGRAM_MODULES}
    if not os.path.abspath(modules["nonic"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: nonicindex was imported from {modules['nonic'].__file__}")
    return modules


def nearest_rank(sorted_values: list, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def raised_in(exc: BaseException, module: str, function: str) -> bool:
    return any(
        frame.f_code.co_name == function and frame.f_globals.get("__name__") == module
        for frame, _ in traceback.walk_tb(exc.__traceback__)
    )


class Run:
    def __init__(self, args, program: dict):
        self.workload = args.workload
        self.seed = args.seed
        self.trace = bool(args.trace)
        self.prog = program
        self.factor_cache = program["gf"].factor  # the lru_cache itself, never a wrapper
        self.scaler = refloop.Scaler()
        # (start, end, success) of each op, appended to a file in chunks, so
        # that the benchmark's memory does not grow with the number of rounds
        # and peak_rss_mb stays the program's
        os.makedirs(OUT_DIR, exist_ok=True)
        self.chunk = array("d")
        self.spill = tempfile.TemporaryFile(dir=OUT_DIR)
        self.recorded = self.ok_ops = 0
        self.peak_rss_mb = 0.0
        self.rounds: list = []  # (index of the round's first op, traced) per round
        self.cache_hits = self.cache_misses = 0
        self.attempted = self.failed = 0
        self.problems: list = []
        self.setups: list = []  # (raw seconds, scaled seconds) per probe
        self.tracer = spans.Tracer(program) if self.trace else None
        self.tracing = False
        self.props = checks.Properties()
        self.start = time.perf_counter()
        self.deadline = self.start + args.seconds
        self.probe_due = [] if self.trace else [
            self.start + (k + 0.5) * args.seconds / PROBES for k in range(PROBES)]
        self.next_ref = 0.0
        if self.workload == "classify-small":
            self.pairs = corpus.classify_small(self.seed, oracle.load())
            first = self.pairs[0]
            self.first_input = {"a": first.a, "b": first.b, "oracle": first.oracle}
        elif self.workload == "index-wide":
            self.pairs = corpus.index_wide(self.seed)
            first = self.pairs[0]
            self.first_input = {"a": first.a, "b": first.b,
                                "expect_normalized": first.expect_normalized}
        else:
            self.first_input = {"seed": self.seed}

    # -- between ops: the reference loop and the set-up probes ---------------

    def between_ops(self) -> None:
        now = time.perf_counter()
        if now >= self.next_ref:
            # one sample per interval passed, so long ops get as many as short ones
            for _ in range(min(REF_BURST, 1 + int((now - self.next_ref) / REF_INTERVAL_S))):
                self.scaler.sample()
            self.next_ref = time.perf_counter() + REF_INTERVAL_S
        if self.probe_due and now >= self.probe_due[0]:
            self.probe_due.pop(0)
            self.probe()

    def probe(self) -> None:
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "probe.py"), self.workload,
                 json.dumps(self.first_input)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"set-up probe ran over {PROBE_TIMEOUT_S} s")
            return
        if proc.returncode != 0:
            self.problems.append(
                f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        self.problems += [f"set-up probe: {msg}" for msg in rep["problems"]]
        raw = rep["done"] - started - rep["ref_spent"]
        self.setups.append((raw, raw * refloop.NOMINAL_REF_S / rep["ref_s"]))

    def record(self, t0: float, t1: float, ok: bool) -> None:
        self.recorded += 1
        self.ok_ops += ok
        self.chunk.extend((t0, t1, ok))
        if len(self.chunk) >= 3 * OPS_CHUNK:
            self.flush_ops()

    def flush_ops(self) -> None:
        self.chunk.tofile(self.spill)
        del self.chunk[:]

    def load_ops(self) -> tuple:
        """(starts, ends, successes) of every op recorded, from the spill file."""
        self.flush_ops()
        self.spill.seek(0)
        ops = array("d")
        ops.frombytes(self.spill.read())
        self.spill.close()
        return ops[0::3], ops[1::3], ops[2::3]

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.scaler.factor_at((t0 + t1) / 2)

    # -- rounds ---------------------------------------------------------------

    def run_op(self, pair, op, check) -> None:
        self.between_ops()
        span = self.tracer.open("bench.op") if self.tracing else None
        t0 = time.perf_counter()
        try:
            out, err = op(pair), None
        except Exception as exc:  # counted as failed; unexpected ones also fail the check
            out, err = None, exc
        t1 = time.perf_counter()
        if span is not None:
            self.tracer.close(span)
        self.attempted += 1
        if err is None:
            for msg in check(pair, out):
                self.problems.append(f"({pair.a}, {pair.b}): {msg}")
        else:
            self.failed += 1
            expected = (pair.expect_overflow and isinstance(err, OverflowError)
                        and raised_in(err, "nonicindex.nonic", "normalize"))
            if not expected:
                self.problems.append(f"({pair.a}, {pair.b}): {type(err).__name__}: {err}")
        self.record(t0, t1, err is None)

    def classify_round(self) -> None:
        nonic = self.prog["nonic"]
        for pair in self.pairs:
            self.run_op(
                pair,
                lambda p: nonic.classify(p.a, p.b),
                lambda p, report: checks.check_classify(p, report.to_json(), self.props),
            )

    def index_round(self) -> None:
        nonic = self.prog["nonic"]

        def op(p):
            n = nonic.normalize(p.a, p.b)
            cert, _ = nonic.irreducibility_certificate(*n)
            return n, cert.value, nonic.nu2(*n), nonic.nu3(*n)

        def check(p, out):
            n, cert, e2, e3 = out
            return checks.check_index(p, n, cert, [checks.entry_data(e2), checks.entry_data(e3)],
                                      self.props)

        for pair in self.pairs:
            self.run_op(pair, op, check)

    def sweep_round(self) -> None:
        """One op is one cell: successive class_filter calls bound the cells."""
        verify = self.prog["verify"]
        for p, modulus in corpus.SWEEP_GRIDS:
            cells: list = []
            pending: list = []

            def admit(a0, b0):
                now = time.perf_counter()
                span = self.tracer.open("bench.filter") if self.tracing else None
                if pending:
                    self.record(pending.pop(), now, True)
                take = p != 3 or a0 % 3 == 0
                if take:
                    cells.append((a0, b0))
                    self.attempted += 1
                    self.between_ops()
                if span is not None:
                    self.tracer.close(span)
                if take:
                    pending.append(time.perf_counter())
                return take

            report = verify.sweep_agreement(p, modulus, 1, self.seed, class_filter=admit)
            end = time.perf_counter()
            if pending:
                self.record(pending.pop(), end, True)
            self.problems += checks.check_sweep(report, p, modulus, cells)

    def one_round(self) -> None:
        """Every round starts with gf.factor's cache and the trial-prime sieve cleared."""
        self.factor_cache.cache_clear()
        self.prog["nonic"]._TRIAL_PRIMES = ()
        {"classify-small": self.classify_round,
         "index-wide": self.index_round,
         "sweep-agreement": self.sweep_round}[self.workload]()
        if self.tracing:
            info = self.factor_cache.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses

    def execute(self) -> None:
        rounds = 0
        while True:
            # a traced run alternates untraced and traced rounds; comparing
            # the two gives the tracing overhead
            self.tracing = self.trace and rounds % 2 == 1
            self.rounds.append((self.recorded, self.tracing))
            if self.tracing:
                self.tracer.install()
            try:
                self.one_round()
            finally:
                if self.tracing:
                    self.tracer.uninstall()
            rounds += 1
            at_least = 2 if self.trace else MIN_ROUNDS[self.workload]
            if time.perf_counter() >= self.deadline and rounds >= at_least:
                break
        while self.probe_due:
            self.probe_due.pop(0)
            self.probe()
        # read before any per-op list is built, so only the program's memory
        # and the benchmark's fixed-size state are in it
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- results ----------------------------------------------------------------

    def end_to_end(self) -> tuple:
        """(scaled metrics, raw metrics)."""
        starts, ends, oks = self.load_ops()
        out = []
        for scale in (True, False):
            durations = [self.scaled(t0, t1) if scale else t1 - t0
                         for t0, t1 in zip(starts, ends)]
            good = sorted(d for d, ok in zip(durations, oks) if ok)
            setup = statistics.median(s[1] if scale else s[0] for s in self.setups) \
                if self.setups else 0.0  # no probe answered; the run is already incorrect
            out.append({
                "ops_per_s": len(good) / sum(durations),
                "latency_p50_ms": statistics.median(good) * 1e3,
                "latency_tail_ms": nearest_rank(good, TAIL_PERCENTILE[self.workload]) * 1e3,
                "peak_rss_mb": self.peak_rss_mb,
                "setup_s": setup,
            })
        return out[0], out[1]

    def per_layer(self) -> tuple:
        """(per-op metrics from the traced rounds, overhead and coverage notes)."""
        starts, ends, _ = self.load_ops()
        marks = self.rounds + [(len(starts), None)]
        round_s: dict = {True: [], False: []}  # scaled op seconds per round, by traced
        ops = 0  # ops of the traced rounds
        for (first, traced), (end, _) in zip(marks, marks[1:]):
            round_s[traced].append(
                sum(self.scaled(t0, t1) for t0, t1 in zip(starts[first:end], ends[first:end])))
            ops += (end - first) if traced else 0
        totals = self.tracer.totals()
        scale = refloop.NOMINAL_REF_S / self.scaler.median()

        def get(name, key):
            return totals.get(name, {}).get(key, 0)

        def self_ms(name):
            return get(name, "self_ns") / 1e6 * scale / ops

        counts = self.tracer.counts
        bf_calls = get("nonic.bounded_factor", "calls")
        lookups = self.cache_hits + self.cache_misses
        metrics = {
            "nonic.bounded_factor.self_ms": self_ms("nonic.bounded_factor"),
            "nonic.bounded_factor.calls": bf_calls / ops,
            "nonic.bounded_factor.complete_ratio":
                counts.get("nonic.bounded_factor.complete", 0) / bf_calls if bf_calls else 0.0,
            "nonic.is_order_maximal.self_ms": self_ms("nonic.is_order_maximal"),
            "nonic.irreducibility_certificate.self_ms": self_ms("nonic.irreducibility_certificate"),
            "nonic.normalize.self_ms": self_ms("nonic.normalize"),
            "arith.is_prime.calls": counts.get("arith.is_prime.calls", 0) / ops,
            "arith.is_prime.sympy_calls": counts.get("arith.is_prime.sympy_calls", 0) / ops,
            "gf.ExtField.builds": get("gf.ExtField", "calls") / ops,
            "gf.ExtField.build_ms": get("gf.ExtField", "total_ns") / 1e6 * scale / ops,
            "gf.is_irreducible.self_ms": self_ms("gf.is_irreducible"),
            "polygon.ore_analyze.self_ms": self_ms("polygon.ore_analyze"),
            "polygon.ore_analyze.calls": get("polygon.ore_analyze", "calls") / ops,
            "polygon.analyze_phi.self_ms": self_ms("polygon.analyze_phi"),
            "polygon.analyze_phi.calls": get("polygon.analyze_phi", "calls") / ops,
            "gf.factor.self_ms": self_ms("gf.factor"),
            "gf.factor.calls": get("gf.factor", "calls") / ops,
            "gf.factor.hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "nonic.nu2.self_ms": self_ms("nonic.nu2"),
            "nonic.nu3.self_ms": self_ms("nonic.nu3"),
            "nonic.classify.self_ms": self_ms("nonic.classify"),
            "engstrom.nu_lookup.self_ms": self_ms("engstrom.nu_lookup"),
            "verify.certified_lift.self_ms": self_ms("verify.certified_lift"),
            "verify.sweep_agreement.self_ms": self_ms("verify.sweep_agreement"),
        }
        top_ns = get("bench.op", "total_ns") + get("verify.sweep_agreement", "total_ns") \
            - get("bench.filter", "total_ns")
        named_ns = sum(v["self_ns"] for name, v in totals.items() if not name.startswith("bench."))
        traced, untraced = statistics.median(round_s[True]), statistics.median(round_s[False])
        notes = {
            "traced_ops": ops,
            "named_self_share_of_op_time": named_ns / top_ns if top_ns else 0.0,
            "traced_round_s": traced,
            "untraced_round_s": untraced,
            "measured_overhead": traced / untraced - 1,
        }
        return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the nonicindex benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run = Run(args, load_program())
    run.execute()
    for msg in run.problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    ref = {"nominal_s": refloop.NOMINAL_REF_S, "median_s": run.scaler.median(),
           "spread": run.scaler.spread(), "samples": len(run.scaler.values)}
    print("# ref " + json.dumps(ref))
    if run.trace:
        metrics, notes = run.per_layer()
        print("# trace " + json.dumps(notes))
        run.tracer.write(os.path.join(OUT_DIR, f"trace-{run.workload}-seed{run.seed}.json.gz"))
        units = {"calls": "count", "builds": "count", "complete_ratio": "ratio",
                 "hit_ratio": "ratio", "sympy_calls": "count"}
        result = {name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "ms")}
                  for name, value in metrics.items()}
    else:
        scaled, raw = run.end_to_end()
        print("# raw " + json.dumps(raw))
        print("# tail " + json.dumps({
            "percentile": TAIL_PERCENTILE[run.workload],
            "ok_samples": run.ok_ops,
            "setup_probes": len(run.setups)}))
        units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        result = {name: {"value": value, "unit": units[name]} for name, value in scaled.items()}
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
