"""Independent oracles and desk-scale sweeps validating the classifier.

Everything here recomputes from first principles: index divisibility via
Dedekind's criterion, and splittings via the polygon engine, compared
against the congruence classifier over whole residue-class grids.  Lifts are drawn from a seeded
generator with a CRT side-congruence that forces an Eisenstein
irreducibility certificate, so runs are reproducible and never test a
reducible polynomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .arith import inv_mod_pk, val
from .engstrom import divides_index
from .gf import count_monic_irreducible
from .nonic import (
    classify,
    engine_split,
    irreducibility_certificate,  # not called here; perfbench/spans.py traces this name
    is_normalized,
    nu2,
    nu3,
    _MOD4_MAXIMAL,
    _MOD9_MAXIMAL,
    _TABLE_A2,
    _TABLE_A4,
    _TABLE_A6,
)
from .polygon import NotRegularError, dedekind_divides, trinomial


# ---------------------------------------------------------------------------
# sweep reports


@dataclass
class SweepReport:
    suite: str
    prime: int | None = None
    modulus: int | None = None
    lifts_per_class: int | None = None
    seed: int | None = None
    total: int = 0
    skipped: list = field(default_factory=list)  # (a, b, reason)
    mismatches: list = field(default_factory=list)  # dicts with expected/got
    rows: list = field(default_factory=list)  # csv rows (a,b,prime,nu,rule,splitting,status)
    notes: list = field(default_factory=list)

    @property
    def classes_checked(self) -> int:
        return self.total - len(self.skipped) - len(self.mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "prime": self.prime,
            "modulus": self.modulus,
            "lifts_per_class": self.lifts_per_class,
            "seed": self.seed,
            "total": self.total,
            "classes_checked": self.classes_checked,
            "skipped": len(self.skipped),
            "skip_reasons": sorted({r for _, _, r in self.skipped}),
            "mismatches": self.mismatches,
            "notes": self.notes,
            "ok": self.ok,
        }

    def to_text(self) -> str:
        lines = [
            f"suite={self.suite} prime={self.prime} modulus={self.modulus} "
            f"lifts={self.lifts_per_class} seed={self.seed}",
            f"checked {self.classes_checked} of {self.total} "
            f"({len(self.skipped)} skipped, {len(self.mismatches)} mismatches)",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        for m in self.mismatches[:20]:
            lines.append(f"MISMATCH {m}")
        if len(self.mismatches) > 20:
            lines.append(f"... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)


CSV_HEADER = ("a", "b", "prime", "nu", "rule", "splitting", "status")


# ---------------------------------------------------------------------------
# certified lifts


LIFT_SPAN = 64  # a lift adds rng.randrange(LIFT_SPAN) multiples of its period


def certified_lift(a0: int, b0: int, modulus: int, rng: random.Random):
    """A lift of (a0, b0) mod modulus with a guaranteed Eisenstein certificate.

    Uses a CRT side congruence at a prime coprime to the modulus:
    (a, b) = (2, 2) mod 4 makes the trinomial 2-Eisenstein, (3, 3) mod 9
    makes it 3-Eisenstein.
    """
    if modulus % 2:
        side_mod, ar, br = 4, 2, 2
    elif modulus % 3:
        side_mod, ar, br = 9, 3, 3
    else:
        raise ValueError("modulus must be coprime to 2 or to 3")
    inv = inv_mod_pk(2 if side_mod == 4 else 3, modulus % side_mod, 2)
    big = modulus * side_mod
    for _ in range(50):
        a = (a0 + modulus * (((ar - a0) * inv) % side_mod)) % big
        b = (b0 + modulus * (((br - b0) * inv) % side_mod)) % big
        a += big * rng.randrange(LIFT_SPAN)
        b += big * rng.randrange(LIFT_SPAN)
        if is_normalized(a, b):
            return a, b
    raise AssertionError("could not draw a normalized lift")  # pragma: no cover


# ---------------------------------------------------------------------------
# suites

# the primes each residue-class sweep runs at
SUITE_PRIMES = {"dedekind": (2, 3), "agreement": (2, 3, 5, 7)}
DEFAULT_SEED = 1  # the lift seed of a residue-class sweep given no --seed


def order_max_predicted(a: int, b: int, p: int) -> bool:
    """The congruence-level maximality verdict at p in {2, 3}."""
    if p == 2:
        if b % 2:
            return True
        if a % 2:
            return (a % 4, b % 4) in _MOD4_MAXIMAL
        return val(2, b) == 1
    if p == 3:
        if a % 3:
            return True
        if b % 3:
            return (a % 9, b % 9) in _MOD9_MAXIMAL
        return val(3, b) == 1
    raise ValueError("p must be 2 or 3")


def sweep_dedekind(
    p: int,
    modulus: int,
    lifts_per_class: int = 10,
    seed: int = 1,
    class_filter=None,
) -> SweepReport:
    """Congruence conditions vs the Dedekind criterion over a class grid."""
    if p not in SUITE_PRIMES["dedekind"]:
        raise ValueError("dedekind sweep runs at p in {2, 3}")
    rng = random.Random(seed)
    report = SweepReport("dedekind", p, modulus, lifts_per_class, seed)
    for a0 in range(modulus):
        for b0 in range(modulus):
            if class_filter and not class_filter(a0, b0):
                continue
            for _ in range(lifts_per_class):
                a, b = certified_lift(a0, b0, modulus, rng)
                report.total += 1
                predicted_max = order_max_predicted(a, b, p)
                divides = dedekind_divides(trinomial(a, b), p)
                status = "ok" if predicted_max == (not divides) else "mismatch"
                report.rows.append(
                    (a, b, p, "", "dedekind", "", status)
                )
                if status == "mismatch":
                    report.mismatches.append(
                        {"a": a, "b": b, "predicted_maximal": predicted_max,
                         "dedekind_divides": divides}
                    )
    return report


def _classifier_entry(a, b, p):
    return nu2(a, b) if p == 2 else nu3(a, b)


def sweep_agreement(
    p: int,
    modulus: int,
    lifts_per_class: int = 1,
    seed: int = 1,
    class_filter=None,
) -> SweepReport:
    """Polygon engine vs the congruence classifier over a class grid.

    Wherever the engine certifies a regular splitting, the classifier's
    divisibility verdict must equal the Engstrom test on that splitting,
    and the classifier's claimed splitting (when it states one) must match
    it.  On p = 2 cells with b odd (and p = 3 cells with 3 not dividing a)
    both sides take ore_analyze's Dedekind rule for simple factors, so
    there the check compares a computation with itself; tier-1 compares
    that rule with the polygons of the naive lifts.  NotRegular lifts are
    counted as skipped.  For p in {5, 7} the check is the residue-degree
    bound: no f ever has more primes than monic irreducibles, so
    nu_p = 0.
    """
    if p not in SUITE_PRIMES["agreement"]:
        raise ValueError("agreement sweep runs at p in {2, 3, 5, 7}")
    rng = random.Random(seed)
    report = SweepReport("agreement", p, modulus, lifts_per_class, seed)
    for a0 in range(modulus):
        for b0 in range(modulus):
            if class_filter and not class_filter(a0, b0):
                continue
            for _ in range(lifts_per_class):
                a, b = certified_lift(a0, b0, modulus, rng)
                report.total += 1
                try:
                    engine = engine_split(a, b, p)
                except NotRegularError:
                    report.skipped.append((a, b, "not regular at first order"))
                    report.rows.append((a, b, p, "", "engine", "", "skipped"))
                    continue
                split = engine.splitting
                eng_divides = divides_index(split, p)
                if p in (5, 7):
                    # p | i(K) exactly when some f is over the bound
                    status = "mismatch" if eng_divides else "ok"
                    report.rows.append((a, b, p, "0", "bound", str(split), status))
                    if eng_divides:
                        bad_f = [
                            f for f, c in split.residue_counts().items()
                            if c > count_monic_irreducible(p, f)
                        ]
                        report.mismatches.append(
                            {"a": a, "b": b, "splitting": str(split),
                             "residue_degrees_over_bound": bad_f}
                        )
                    continue
                entry = _classifier_entry(a, b, p)
                cls_divides = entry.nu.divides
                mismatch = {}
                if cls_divides != eng_divides:
                    mismatch["classifier_divides"] = cls_divides
                    mismatch["engine_divides"] = eng_divides
                if entry.splitting is not None and entry.splitting != split:
                    mismatch["classifier_splitting"] = str(entry.splitting)
                    mismatch["engine_splitting"] = str(split)
                status = "ok" if not mismatch else "mismatch"
                report.rows.append(
                    (a, b, p, str(entry.nu), entry.rule, str(split), status)
                )
                if mismatch:
                    mismatch.update({"a": a, "b": b, "rule": entry.rule})
                    report.mismatches.append(mismatch)
    return report


# the seven worked examples and their published index conclusions
KNOWN_EXAMPLES = (
    (51, 122, ("exact", 1)),
    (35, 20, ("divisible", 2)),
    (1392, 768, ("exact", 2)),
    (126, 40130, ("exact", 3)),
    (15381, 6634, ("exact", 6)),
    (183, 296, ("exact", 8)),
    (7335, 24184, ("exact", 24)),
)


def check_examples() -> SweepReport:
    """classify() must reproduce the published i(K) for the seven examples."""
    report = SweepReport("examples")
    for a, b, (kind, value) in KNOWN_EXAMPLES:
        report.total += 1
        rep = classify(a, b)
        if kind == "exact":
            good = rep.i_K == value
            got = rep.i_K
        else:
            good = (
                rep.i_K is None
                and rep.i_K_known_divisor % value == 0
                and rep.entries[2].nu.kind == "at_least"
            )
            got = rep.describe_index()
        status = "ok" if good else "mismatch"
        report.rows.append(
            (a, b, "", rep.describe_index(), "classify", "", status)
        )
        if not good:
            report.mismatches.append(
                {"a": a, "b": b, "expected": (kind, value), "got": got}
            )
    return report


def check_tables() -> SweepReport:
    """Internal consistency of the embedded higher-order splitting tables.

    Each row's splitting must have mass 9, and the rows of each table must
    partition their governing domain exactly (every cell matches exactly
    one row at the table's deepest modulus).
    """
    report = SweepReport("tables")
    domains = (
        ("a2", _TABLE_A2, 64, lambda a, b: a % 8 == 4 and b % 8 == 0),
        ("a4", _TABLE_A4, 512, lambda a, b: a % 32 == 16 and b % 32 == 0),
        ("a6", _TABLE_A6, 1024, lambda a, b: a % 128 == 64 and b % 128 == 0),
    )
    for tag, table, grid, in_domain in domains:
        for _, classes, split in table:
            report.total += 1
            status = "ok" if split.mass == 9 else "mismatch"
            report.rows.append(
                ("", "", 2, "", f"{tag}:{classes}", str(split), status)
            )
            if status == "mismatch":
                report.mismatches.append(
                    {"table": tag, "classes": classes, "mass": split.mass}
                )
        for a in range(0, grid, 4):
            for b in range(0, grid, 8):
                if not in_domain(a, b):
                    continue
                report.total += 1
                hits = [
                    (modulus, classes)
                    for modulus, classes, _ in table
                    if (a % modulus, b % modulus) in classes
                ]
                if len(hits) != 1:
                    report.rows.append(
                        (a, b, 2, "", f"{tag}:hits={len(hits)}", "", "mismatch")
                    )
                    report.mismatches.append(
                        {"table": tag, "a": a, "b": b, "hits": hits}
                    )
    report.notes.append("domain partition and mass checks for the a2/a4/a6 tables")
    return report


def check_sweep_options(name: str, prime=None, modulus=None, lifts=None, seed=None) -> None:
    """Raise ValueError for options of a residue-class sweep that would
    crash it or make it check nothing; None stands for the default.  The
    examples and tables suites take none of these options, so they reject
    any value rather than ignore it."""
    if name in ("examples", "tables"):
        given = [f"--{opt}" for opt, value in
                 (("prime", prime), ("modulus", modulus), ("lifts", lifts), ("seed", seed))
                 if value is not None]
        if given:
            raise ValueError(f"the {name} suite takes no {', '.join(given)}")
        return
    if name not in SUITE_PRIMES:
        return
    if prime is not None and prime not in SUITE_PRIMES[name]:
        raise ValueError(f"the {name} suite runs at p in {SUITE_PRIMES[name]}, not {prime}")
    if modulus is not None and (modulus < 1 or modulus % 6 == 0):
        raise ValueError(f"modulus must be positive and prime to 2 or to 3, not {modulus}")
    if lifts is not None and lifts < 1:
        raise ValueError(f"lifts must be positive, not {lifts}")


def run_suite(name: str, prime=None, modulus=None, lifts=None, seed=None) -> SweepReport:
    check_sweep_options(name, prime, modulus, lifts, seed)
    if seed is None:
        seed = DEFAULT_SEED
    if name == "examples":
        return check_examples()
    if name == "tables":
        return check_tables()
    if name == "dedekind":
        p = 2 if prime is None else prime
        if modulus is None:
            modulus = 4 if p == 2 else 9
        return sweep_dedekind(p, modulus, 10 if lifts is None else lifts, seed)
    if name == "agreement":
        p = 3 if prime is None else prime
        if modulus is None:
            modulus = {2: 16, 3: 243, 5: 5, 7: 7}[p]
        flt = (lambda a, b: a % 3 == 0) if p == 3 else None
        return sweep_agreement(p, modulus, 1 if lifts is None else lifts, seed, class_filter=flt)
    raise ValueError(f"unknown suite {name!r}")
