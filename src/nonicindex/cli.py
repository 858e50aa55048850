"""Command line front end: classify, polygon inspection, verification sweeps.

Exit codes: 0 success, 1 mismatch or unclassified input, 2 usage error,
3 reducible polynomial.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import gf
from .arith import is_prime
from .nonic import ReduciblePolynomial, Unclassified, classify, critical_lift
from .polygon import ExactDivisorError, analyze_phi, trinomial
from .verify import CSV_HEADER, DEFAULT_SEED, check_sweep_options, run_suite

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_REDUCIBLE = 3


def _envelope(command: str, inputs: dict, result, warnings) -> str:
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "input": inputs,
            "result": result,
            "warnings": list(warnings),
        },
        sort_keys=True,
    )


def _cmd_classify(args) -> int:
    if args.prime is not None and not is_prime(args.prime):
        args.usage_error(f"--prime must be a prime, not {args.prime}")  # exits 2
    inputs = {"a": args.a, "b": args.b, "prime": args.prime}
    try:
        report = classify(args.a, args.b)
    except ReduciblePolynomial as exc:
        if args.json:
            print(_envelope("classify", inputs, {"error": "reducible", "detail": str(exc)}, []))
        else:
            print(f"reducible: {exc}", file=sys.stderr)
        return EXIT_REDUCIBLE
    except Unclassified as exc:
        if args.json:
            print(_envelope("classify", inputs, {"error": "unclassified", "detail": str(exc)}, []))
        else:
            print(f"unclassified: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    payload = report.to_json()
    if args.prime is not None:
        entry = payload["primes"].get(str(args.prime))
        if entry is None and args.prime >= 5:
            entry = {"p": args.prime, "nu": {"kind": "exact", "value": 0},
                     "splitting": None, "rule": f"{args.prime}:ge5"}
        payload = {"primes": {str(args.prime): entry}, "i_K": report.i_K,
                   "i_K_description": report.describe_index()}
    if args.json:
        print(_envelope("classify", inputs, payload, report.warnings))
        return EXIT_OK
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"F(x) = x^9 + {report.a}*x + {report.b}")
    print(f"certificate: {report.certificate} ({report.certificate_detail})")
    for p, entry in sorted(report.entries.items()):
        if args.prime is not None and p != args.prime:
            continue
        split = str(entry.splitting) if entry.splitting else "undetermined"
        print(f"p={p}: nu_p(i(K)) = {entry.nu}  splitting: {split}  [{entry.rule}]")
    print(f"i(K) = {report.describe_index()}")
    print(f"Z[alpha] maximal: {report.monogenic_order}"
          + (f" ({report.monogenic_order_detail})" if report.monogenic_order_detail else ""))
    print(f"K monogenic: {report.field_monogenic}")
    return EXIT_OK


def _build_phi(args) -> tuple:
    if args.phi == "x":
        return (0, 1)
    if args.phi == "x-1":
        return (-1, 1)
    if args.phi == "x+1":
        return (1, 1)
    return critical_lift(args.a, args.b, args.p)


def _cmd_polygon(args) -> int:
    inputs = {"a": args.a, "b": args.b, "p": args.p, "phi": args.phi}
    F = trinomial(args.a, args.b)
    try:
        phi = _build_phi(args)
    except (ValueError, ReduciblePolynomial) as exc:
        print(f"cannot build phi: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    field = gf.PrimeField(args.p)
    fbar = gf.reduce_mod_p(F, args.p)
    phibar = gf.reduce_mod_p(phi, args.p)
    if gf.pdeg(phibar) < 1 or gf.pmod(field, fbar, phibar):
        print(
            f"phi = {args.phi} does not reduce to a factor of F mod {args.p}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    try:
        analysis = analyze_phi(F, args.p, phi)
    except ExactDivisorError as exc:
        print(f"reducible: {exc}", file=sys.stderr)
        return EXIT_REDUCIBLE
    sides_payload = []
    for sd in analysis.sides:
        factors = [
            {"poly": gf.format_poly(psi), "multiplicity": m}
            for psi, m in sd.factorization.factors
        ]
        sides_payload.append(
            {
                "start": [sd.side.x0, sd.side.y0],
                "end": [sd.side.x1, sd.side.y1],
                "h": sd.side.h,
                "e": sd.side.e,
                "length": sd.side.length,
                "degree": sd.side.degree,
                "residual": gf.format_poly(sd.residual),
                "residual_factors": factors,
                "squarefree": sd.squarefree,
            }
        )
    result = {
        "phi": list(analysis.phi),
        "expansion_valuations": [
            None if v == float("inf") else int(v) for v in analysis.expansion_vals
        ],
        "vertices": [list(v) for v in analysis.polygon.vertices],
        "sides": sides_payload,
        "regular": analysis.regular,
        "index": analysis.index,
    }
    if args.json:
        print(_envelope("polygon", inputs, result, []))
        return EXIT_OK
    print(f"phi = {gf.format_poly(phibar, var='x')} lifted as {analysis.phi}")
    print(f"expansion valuations: {result['expansion_valuations']}")
    print(f"vertices: {result['vertices']}")
    for s in sides_payload:
        print(
            f"side {s['start']}->{s['end']}  slope -{s['h']}/{s['e']}  "
            f"l={s['length']} d={s['degree']}  residual {s['residual']}"
        )
        for f in s["residual_factors"]:
            print(f"    factor {f['poly']} ^ {f['multiplicity']}")
    print(f"regular: {analysis.regular}  index contribution: {analysis.index}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    inputs = {
        "suite": args.suite,
        "prime": args.prime,
        "modulus": args.modulus,
        "lifts": args.lifts,
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
    }
    try:
        check_sweep_options(args.suite, args.prime, args.modulus, args.lifts, args.seed)
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2
    report = run_suite(
        args.suite, prime=args.prime, modulus=args.modulus,
        lifts=args.lifts, seed=args.seed,
    )
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            writer.writerows(report.rows)
    if args.json:
        print(_envelope("verify", inputs, report.to_json(), report.notes))
    else:
        print(report.to_text())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonicindex",
        description="Index divisors and prime splitting for fields x^9 + ax + b",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="index report for one trinomial")
    p_classify.add_argument("--a", type=int, required=True)
    p_classify.add_argument("--b", type=int, required=True)
    p_classify.add_argument("--prime", type=int, default=None)
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify, usage_error=p_classify.error)

    p_polygon = sub.add_parser("polygon", help="dump one phi-polygon with residuals")
    p_polygon.add_argument("--a", type=int, required=True)
    p_polygon.add_argument("--b", type=int, required=True)
    p_polygon.add_argument("--p", type=int, required=True, choices=(2, 3, 5, 7))
    p_polygon.add_argument("--phi", choices=("x", "x-1", "x+1", "shifted"), default="x")
    p_polygon.add_argument("--json", action="store_true")
    p_polygon.set_defaults(func=_cmd_polygon)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument(
        "--suite", required=True,
        choices=("examples", "dedekind", "agreement", "tables"),
    )
    p_verify.add_argument("--prime", type=int, default=None)
    p_verify.add_argument("--modulus", type=int, default=None)
    p_verify.add_argument("--lifts", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--csv", default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify, usage_error=p_verify.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
