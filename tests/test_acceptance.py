"""Acceptance criteria, one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from nonicindex.arith import val
from nonicindex.engstrom import IndexValuation
from nonicindex.gf import PrimeField, count_monic_irreducible, enumerate_monic, is_irreducible
from nonicindex.nonic import classify, delta_unit, disc, engine_split, nu2, nu3
from nonicindex.polygon import NotRegularError, Splitting, ore_analyze, trinomial
from nonicindex.verify import (
    check_examples,
    sweep_agreement,
    sweep_dedekind,
)
from reference import disc_resultant


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_c1_worked_examples():
    t0 = time.time()
    expected = {
        (51, 122): 1, (1392, 768): 2, (126, 40130): 3,
        (15381, 6634): 6, (183, 296): 8, (7335, 24184): 24,
    }
    for (a, b), want in expected.items():
        rep = classify(a, b)
        assert rep.i_K == want, ((a, b), rep.i_K, want)
    rep = classify(35, 20)
    assert rep.i_K is None and rep.i_K_known_divisor % 2 == 0
    assert rep.entries[2].nu.kind == "at_least"
    elapsed = time.time() - t0
    _report("C1 worked-example suite", elapsed < 5.0, f"({elapsed:.2f}s, all 7 match)")


def test_c2_discriminant_identity():
    t0 = time.time()
    rng = random.Random(20260810)
    for _ in range(1000):
        a = rng.randrange(-10**6, 10**6 + 1)
        b = rng.randrange(-10**6, 10**6 + 1)
        assert disc_resultant(a, b) == disc(a, b), (a, b)
    elapsed = time.time() - t0
    _report("C2 discriminant identity", elapsed < 30.0, f"(1000 pairs, {elapsed:.2f}s)")


def test_c3_dedekind_sweep():
    rep2 = sweep_dedekind(
        2, 4, lifts_per_class=10, seed=1,
        class_filter=lambda a, b: a % 2 == 1 and b % 2 == 0,
    )
    rep3 = sweep_dedekind(
        3, 9, lifts_per_class=10, seed=1,
        class_filter=lambda a, b: a % 3 == 0 and b % 3 != 0,
    )
    ok = rep2.ok and rep3.ok and rep2.total == 40 and rep3.total == 180
    _report("C3 maximality vs Dedekind oracle", ok,
            f"({rep2.total}+{rep3.total} lifts, "
            f"{len(rep2.mismatches) + len(rep3.mismatches)} mismatches)")


def _table2_exact_one(a, b):
    cell = (a % 81, b % 81)
    fam = (
        (cell in {(18, 62), (72, 8)} and (a + b) % 243 == 242)
        or (cell == (45, 35) and (a + b) % 243 == 161)
        or (cell in {(18, 19), (72, 73)} and (b - a) % 243 == 1)
        or (cell == (45, 46) and (b - a) % 243 == 82)
    )
    if not fam:
        return False
    return val(3, disc(a, b)) % 2 == 0 and delta_unit(a, b, 3) % 3 == 2


def test_c4_engine_table_agreement():
    # p = 3: every class mod 243 with 3 | a; engine splitting and divisibility
    # verdict vs the classifier, skips only where first-order data cannot decide
    rep3 = sweep_agreement(
        3, 243, lifts_per_class=1, seed=1, class_filter=lambda a, b: a % 3 == 0,
    )
    assert rep3.ok, rep3.mismatches[:5]
    # F = (x - s)^9 mod 3 is never skipped: the critical lift decides it
    assert all(b % 3 == 0 for _, b, _ in rep3.skipped), rep3.skipped[:5]
    # the exact-value table for nu_3, transcribed independently: nu_3 = 1
    # exactly on the four families with even nu_3(disc) and unit part -1
    rng = random.Random(4)
    value_checks = 0
    for a0 in range(0, 243, 3):
        for b0 in range(243):
            a, b = a0, b0
            # certified 2-Eisenstein lift of the class
            t = ((2 - a) * 61) % 4  # 61 = 243^{-1} mod 4
            a = a + 243 * t
            t = ((2 - b) * 61) % 4
            b = b + 243 * t
            a += 972 * rng.randrange(4)
            b += 972 * rng.randrange(4)
            if disc(a, b) == 0:
                continue
            want = IndexValuation.exact(1 if _table2_exact_one(a, b) else 0)
            got = nu3(a, b).nu
            assert got == want, (a, b, got, want)
            value_checks += 1
    # p = 2 over the mod-16 classes governed by the splitting table for
    # (a, b) = (3, 0) mod 4 (the (7,8) class runs through the shift engine)
    rep2 = sweep_agreement(
        2, 16, lifts_per_class=10, seed=1,
        class_filter=lambda a, b: (a % 4, b % 4) == (3, 0),
    )
    assert rep2.ok, rep2.mismatches[:5]
    ok = rep3.ok and rep2.ok
    _report(
        "C4 engine/table agreement", ok,
        f"(p=3: {rep3.classes_checked} checked, {len(rep3.skipped)} skipped; "
        f"nu_3 values: {value_checks}; p=2: {rep2.classes_checked} checked)",
    )


def test_c5_large_prime_bound():
    for p in (5, 7):
        rep = sweep_agreement(p, p, lifts_per_class=2, seed=2)
        assert rep.ok and not rep.skipped, (p, rep.mismatches[:3])
        assert rep.total == p * p * 2
    _report("C5 residue-degree bound at p in {5,7}", True,
            "(all classes, nu_p = 0)")


def test_c6_structural_invariants():
    rng = random.Random(66)
    masses = 0
    tame = {2: 0, 3: 0, 5: 0, 7: 0}
    for p in (2, 3, 5, 7):
        while tame[p] < 100:
            a, b = rng.randrange(-4000, 4000), rng.randrange(-4000, 4000)
            if disc(a, b) == 0:
                continue
            try:
                res = ore_analyze(trinomial(a, b), p)
            except (NotRegularError, ValueError):
                continue
            assert res.splitting.mass == 9, (p, a, b)
            masses += 1
            if all(e % p for e, _ in res.splitting.primes):
                lhs = val(p, disc(a, b))
                rhs = 2 * res.index + sum((e - 1) * f for e, f in res.splitting.primes)
                assert lhs == rhs, (p, a, b)
                tame[p] += 1
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for f in range(1, 5):
            brute = sum(
                1 for cand in enumerate_monic(field, f) if is_irreducible(field, cand)
            )
            assert count_monic_irreducible(p, f) == brute
    _report("C6 structural invariants", True,
            f"({masses} splittings mass-checked, 100 tame cases per prime, "
            "irreducible counts enumerated)")


def test_c7_open_rows_stay_lower_bounds():
    # rows the source leaves at ">= 1" must never come back exact
    fixtures = [
        (35, 20), (15, 48), (28, 32), (4, 64), (52, 32), (112, 128),
        (112, 256), (240, 512), (496, 512), (448, 512), (64, 1024),
    ]
    for a, b in fixtures:
        entry = nu2(a, b)
        assert entry.nu.kind == "at_least" and entry.nu.value == 1, (a, b, entry)
    _report("C7 undetermined rows stay AtLeast(1)", True,
            f"({len(fixtures)} fixture classes)")
