"""Checks of the program's outputs against the oracle or against properties.

Nothing here imports nonicindex: outputs arrive as plain data, in the shape of
the JSON report (`ClassifierReport.to_json()`, or the CLI's `--json` result).
Each check returns a list of problems; an empty list means the output is right.
Passing props=None skips the checks that need sympy, so a set-up probe can
check its answer without importing sympy.
"""

from __future__ import annotations

import oracle


def entry_data(entry) -> dict:
    """A nonic.PrimeEntry as the JSON report writes it."""
    return {
        "p": entry.p,
        "nu": {"kind": entry.nu.kind, "value": entry.nu.value},
        "splitting": [list(ef) for ef in entry.splitting.primes] if entry.splitting else None,
    }


def _divides(nu: dict) -> bool:
    return nu["kind"] == "at_least" or (nu["kind"] == "exact" and nu["value"] >= 1)


def _sorted(splitting) -> list:
    return sorted(list(ef) for ef in splitting)


class Properties:
    """Facts about F mod p that depend only on (a, b) mod p or mod p^2; cached."""

    def __init__(self):
        self._patterns: dict = {}
        self._dedekind: dict = {}

    def pattern(self, a: int, b: int, p: int) -> list:
        key = (p, a % p, b % p)
        if key not in self._patterns:
            self._patterns[key] = oracle.factor_pattern(key[1], key[2], p)
        return self._patterns[key]

    def dedekind(self, a: int, b: int, p: int) -> bool:
        key = (p, a % p**2, b % p**2)
        if key not in self._dedekind:
            self._dedekind[key] = oracle.dedekind_divides(key[1], key[2], p)
        return self._dedekind[key]


def check_entry(entry: dict, p: int, a: int, b: int, props: Properties | None,
                known: dict | None = None) -> list:
    """One prime's entry.  known: the oracle's cached answer for (a, b), if any."""
    problems = []
    split, nu = entry["splitting"], entry["nu"]
    if entry["p"] != p:
        return [f"entry for p={entry['p']} where p={p} was asked"]
    truth = known and known["splitting"] and known["splitting"][str(p)]
    if truth:
        if split is not None and _sorted(split) != _sorted(truth):
            problems.append(f"p={p}: splitting {split}, Round Two gives {truth}")
        if _divides(nu) != oracle.divides_index(truth, p):
            problems.append(f"p={p}: nu {nu} disagrees with the necklace count on {truth}")
    elif split is not None:
        if sum(e * f for e, f in split) != 9:
            problems.append(f"p={p}: splitting {split} does not have mass 9")
        if _divides(nu) != oracle.divides_index(split, p):
            problems.append(f"p={p}: nu {nu} disagrees with the necklace count on {split}")
        pattern = known["patterns"][str(p)] if known else props and props.pattern(a, b, p)
        if pattern and not oracle.fits_pattern(split, pattern):
            problems.append(f"p={p}: splitting {split} does not fit F mod {p}")
    dedekind = known["dedekind"][str(p)] if known else props and props.dedekind(a, b, p)
    if dedekind is False and nu != {"kind": "exact", "value": 0}:
        problems.append(f"p={p}: Dedekind says p does not divide the index, nu is {nu}")
    return problems


def check_classify(pair, result: dict, props: Properties | None) -> list:
    """A classify report against the oracle's cached answer for the pair."""
    known = pair.oracle
    problems = []
    if result["certificate"] == "reducible":
        problems.append("certificate says reducible; sympy says irreducible")
    for p in (2, 3):
        problems += check_entry(result["primes"][str(p)], p, pair.a, pair.b, props, known)
    maximal = result["monogenic_order"]
    if known["d_K"] is not None:
        if maximal != (known["d_K"] == known["disc"]):
            problems.append(f"monogenic_order {maximal}, but disc = d_K is "
                            f"{known['d_K'] == known['disc']}")
    elif maximal and (known["dedekind"]["2"] or known["dedekind"]["3"]):
        problems.append("monogenic_order True, but Dedekind finds 2 or 3 in the index")
    if pair.published:
        kind, value = pair.published
        if kind == "exact" and result["i_K"] != value:
            problems.append(f"i(K) = {result['i_K']}, published {value}")
        if kind == "divisible" and (result["i_K"] is not None
                                    or result["i_K_known_divisor"] % value):
            problems.append(f"i(K) {result['i_K']} / {result['i_K_known_divisor']}, "
                            f"published: divisible by {value}")
    return problems


def check_index(pair, normalized: tuple, certificate: str, entries: list,
                props: Properties | None) -> list:
    """normalize, the certificate and nu2/nu3 on an index-wide pair."""
    problems = []
    if tuple(normalized) != pair.expect_normalized:
        problems.append(f"normalize gave {normalized}, expected {pair.expect_normalized}")
    if certificate != "proven":
        problems.append(f"certificate {certificate}; F is irreducible mod 7")
    a, b = pair.expect_normalized
    for p, entry in zip((2, 3), entries):
        problems += check_entry(entry, p, a, b, props)
    return problems


def parse_splitting(text: str) -> list:
    return [[int(v) for v in ef.strip("()").split(",")] for ef in text.split()]


def check_sweep(report, p: int, modulus: int, cells: list) -> list:
    """A verify.SweepReport: empty mismatch list, one row per admitted cell,
    each row's cell and each row's verdict against the necklace count."""
    problems = []
    if report.mismatches:
        problems.append(f"sweep p={p} mod {modulus}: {len(report.mismatches)} mismatches, "
                        f"first {report.mismatches[0]}")
    if len(report.rows) != len(cells):
        return problems + [f"sweep p={p}: {len(report.rows)} rows for {len(cells)} cells"]
    for (a0, b0), row in zip(cells, report.rows):
        a, b, rp, nu, _rule, split, status = row
        if (a % modulus, b % modulus, rp) != (a0, b0, p):
            problems.append(f"row {row} is not cell ({a0}, {b0}) mod {modulus} at p={p}")
        elif status == "ok":
            s = parse_splitting(split)
            if sum(e * f for e, f in s) != 9:
                problems.append(f"row {row}: mass is not 9")
            elif (nu != "0") != oracle.divides_index(s, p):
                problems.append(f"row {row}: nu disagrees with the necklace count")
        elif status != "skipped":
            problems.append(f"row {row}: status {status}")
    return problems
