#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated runs, their spread, and two sets compared.

    python3 perfbench/steady.py run --runs 10 --first-seed 1 --save a
    python3 perfbench/steady.py compare a b

`run` runs each workload of BENCHMARK.json once per seed, on successive
seeds, one run at a time, each for the run_seconds of BENCHMARK.json.  For
every end-to-end metric it prints the median, the quartiles and their
distance as a share of the median (the spread) against the metric's bound,
scaled and raw, then the reference loop's own spread and the share of failed
ops.  --save keeps the set in perfbench/out/sets/.  `compare` prints, for two
saved sets of runs of the same length, how far each median moved, in either
direction, against its bound, and whether the failed shares are equal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = os.path.join(HERE, "out", "sets")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    out = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("# "):
            tag, _, body = line[2:].partition(" ")
            out[tag] = json.loads(body)
    return out


def quartiles(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(workload: str, runs: list, metrics: list) -> None:
    print(f"\n== {workload}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}")
    print(f"{'metric':<17}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}  "
          f"{'raw median':>12}{'raw spread':>11}")
    for m in metrics:
        name = m["name"]
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        raws = [r["raw"][name] for r in runs]
        q1, med, q3 = quartiles(vals)
        rq1, rmed, rq3 = quartiles(raws)
        spread = (q3 - q1) / med
        mark = "" if name == "setup_s" else ("  ok" if spread <= m["bound"] / 3 else
                                             ("  <bound" if spread <= m["bound"] else "  OVER"))
        print(f"{name:<17}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>8.3f}{m['bound']:>7.2f}  "
              f"{rmed:>12.5g}{(rq3 - rq1) / rmed:>11.3f}{mark}")
    ref_medians = [r["ref"]["median_s"] for r in runs]
    q1, med, q3 = quartiles(ref_medians)
    print(f"reference loop: median {med * 1e3:.4f} ms, spread over runs {(q3 - q1) / med:.3f}, "
          f"median spread within a run {statistics.median(r['ref']['spread'] for r in runs):.3f}")
    shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
    correct = all(r["result"]["correct"] for r in runs)
    print(f"correct in every run: {correct}; (failed, attempted): {sorted(shares)}")


def cmd_run(args) -> int:
    bench = spec()
    seconds = bench["run_seconds"]
    saved = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            runs.append(one_run(workload, args.first_seed + i, seconds))
            print(f"  {workload} seed {runs[-1]['seed']}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["result"]["metrics"].items()),
                flush=True)
        saved["workloads"][workload] = runs
        summarize(workload, runs, bench["end_to_end"])
    if args.save:
        os.makedirs(SETS, exist_ok=True)
        with open(os.path.join(SETS, f"{args.save}.json"), "w") as fh:
            json.dump(saved, fh, indent=1)
    return 0


def cmd_compare(args) -> int:
    bench = spec()
    sets = []
    for name in (args.first, args.second):
        with open(os.path.join(SETS, f"{name}.json")) as fh:
            sets.append(json.load(fh))
    if sets[0]["seconds"] != sets[1]["seconds"]:
        raise SystemExit(f"the sets ran for {sets[0]['seconds']} s and {sets[1]['seconds']} s a run; "
                         "only sets of the same run length compare")
    ok = True
    for workload in sets[0]["workloads"]:
        if workload not in sets[1]["workloads"]:
            continue
        a, b = sets[0]["workloads"][workload], sets[1]["workloads"][workload]
        print(f"\n== {workload}")
        for m in bench["end_to_end"]:
            name = m["name"]
            ma = statistics.median(r["result"]["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["result"]["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            good = abs(worse) <= m["bound"]
            ok &= good
            print(f"{name:<17}{ma:>12.5g}{mb:>12.5g}  worse by {worse:+.3f}  bound {m['bound']:.2f}"
                  f"{'' if good else '  OVER'}")
        shares = [{(r["result"]["failed"], r["result"]["attempted"]) for r in s} for s in (a, b)]
        fa = {f / t for f, t in shares[0]}
        fb = {f / t for f, t in shares[1]}
        same = len(fa | fb) == 1
        ok &= same
        print(f"failed share: {sorted(fa)} vs {sorted(fb)}{'' if same else '  DIFFERENT'}")
    print("\nsets agree within the bounds" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run each workload on successive seeds")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--save", help="name of the saved set")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare", help="compare two saved sets")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_compare)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
