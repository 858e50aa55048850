import random
from math import gcd, prod

import pytest

from nonicindex import arith
from nonicindex.arith import TRIAL_LIMIT, bounded_factor, is_prime, val
from nonicindex.engstrom import IndexValuation
from nonicindex.nonic import (
    Certificate,
    IndeterminateFactorization,
    ReduciblePolynomial,
    _disc_prime_to_6,
    _local_failure,
    _show,
    _square_failure,
    classify,
    critical_lift,
    critical_shift,
    delta_unit,
    disc,
    engine_split,
    irreducibility_certificate,
    is_normalized,
    is_order_maximal,
    normalize,
    nu2,
    nu3,
)
from nonicindex.polygon import NotRegularError, Splitting, dedekind_divides, trinomial, zmul

S = Splitting.of


def test_disc_values():
    assert disc(0, 1) == 3**18 == 387420489
    assert disc(1, 0) == 2**24 == 16777216
    assert val(2, disc(183, 296)) == 29


def test_show_shortens_only_past_2000_digits():
    # the longest integer a pinned report prints has 1,616 digits
    for n in (0, -7, 10**2000 - 1, -(10**2000) + 1):
        assert _show(n) == str(n)
    assert _show(10**2000) == "10000000000000000000... (2001 digits)"
    n = 3 * 10**5000 + 12345 * 10**4980
    assert _show(-n) == "-30000000000000001234... (5001 digits)"
    assert _show(10**4300 - 1) == "99999999999999999999... (4300 digits)"


def test_delta_unit():
    assert delta_unit(7335, 24184, 2) % 8 == 3
    assert delta_unit(15381, 6634, 3) % 3 == 2
    # identity on units: disc(1, 5) = 1 mod 5
    assert disc(1, 5) % 5 != 0
    assert delta_unit(1, 5, 5) == disc(1, 5)
    with pytest.raises(ReduciblePolynomial):
        delta_unit(0, 0, 2)


def test_normalize():
    assert normalize(256, 512) == (1, 1)
    assert normalize(3**8, 3**9) == (1, 1)
    assert normalize(51, 122) == (51, 122)
    assert normalize(2**8 * 3**8, 2**9 * 3**9) == (1, 1)
    assert normalize(0, 2**9 * 5) == (0, 5)
    assert is_normalized(51, 122)
    assert not is_normalized(256, 512)


def test_certificate():
    assert irreducibility_certificate(2, 2)[0] is Certificate.PROVEN
    assert irreducibility_certificate(0, 0)[0] is Certificate.REDUCIBLE
    assert irreducibility_certificate(51, 122)[0] is Certificate.PROVEN
    # x^9 - 1 has the root 1
    cert, detail = irreducibility_certificate(0, -1)
    assert cert is Certificate.REDUCIBLE and "root" in detail


@pytest.mark.parametrize("c", [-5, -4, -3, -2, 2, 3, 4, 5])
def test_certificate_names_the_cubic_factor_when_a_is_0(c):
    # Capelli: x^9 + c^3 = (x^3 + c)(x^6 - c x^3 + c^2), and has no integer root
    assert zmul((c, 0, 0, 1), (c * c, 0, 0, -c, 0, 0, 1)) == trinomial(0, c**3)
    cert, detail = irreducibility_certificate(0, c**3)
    assert cert is Certificate.REDUCIBLE
    assert detail == f"b is a cube: factor x^3 {'+' if c > 0 else '-'} {abs(c)}"
    with pytest.raises(ReduciblePolynomial):
        classify(0, c**3)


def test_certificate_proves_x9_plus_a_non_cube():
    # Capelli: x^9 + b is irreducible when b is not a cube
    for b in (2, -4, 16, -54, 1001):
        assert irreducibility_certificate(0, b)[0] is Certificate.PROVEN, b


def test_rho_rounds_start_distinct_walks(monkeypatch):
    starts = []

    def failing_walk(n, c, y, cap):
        starts.append((c, y))
        return None, 1

    monkeypatch.setattr(arith, "_brent", failing_walk)
    # a budget too small for one ECM curve: the rho rounds are all there is
    plan = arith._ecm_plan(arith._ECM_SCHEDULE[0][0])  # the cheapest curve
    monkeypatch.setattr(arith, "_FACTOR_BUDGET", (plan[4] + plan[5] + 1) // 2 - 1)
    n = 1000003 * 1000033  # two primes beyond the trial-division limit
    assert bounded_factor(n) == ({}, n)
    assert len(starts) == 16 and len(set(starts)) == 16
    assert starts[0] == (1, 2)


def test_is_order_maximal():
    assert is_order_maximal(51, 122) == (True, None)
    flag, detail = is_order_maximal(35, 20)
    assert flag is False and "mod 4" in detail
    flag, _ = is_order_maximal(3, 4)
    assert flag is False
    assert dedekind_divides(trinomial(3, 4), 2) is True  # oracle agrees


def test_found_square_decides_beside_an_unfactored_part():
    # a pair of the < 10^60 band drawn by random.Random(1060): its disc of
    # 537 digits is past the factoring ceiling, but trial division finds 7^2
    a = -555217388487409155080415657015160080619651194309370163651832
    b = 681952787251671984912131095317516396517543137922904901232089
    factors, leftover = bounded_factor(_disc_prime_to_6(a, b))
    assert leftover != 1 and factors[7] == 2 and (a * b) % 7
    detail = "nu_7(disc) = 2 > 1 with p coprime to 6ab"
    assert is_order_maximal(a, b) == (False, detail)
    report = classify(a, b)
    assert (report.monogenic_order, report.monogenic_order_detail) == (False, detail)
    assert any(w.startswith("disc has an unfactored part") for w in report.warnings)


def test_found_gcd_prime_decides_beside_an_unfactored_part():
    # N, the product of the 70 primes past TRIAL_LIMIT, has 314 digits and
    # is left unfactored at once; 5 divides a and b with nu_5(b) = 2, which
    # proves Z[alpha] non-maximal whatever N holds
    primes = (n for n in range(TRIAL_LIMIT + 1, 2 * TRIAL_LIMIT) if is_prime(n))
    N = prod(next(primes) for _ in range(70))
    a, b = 50 * N, 25 * N
    factors, leftover = bounded_factor(gcd(a, b))
    assert (factors, leftover) == ({5: 2}, N) and N > 10**300
    detail = "p=5 divides a and b with nu_p(b) != 1"
    assert is_order_maximal(a, b) == (False, detail)
    report = classify(a, b)
    assert (report.monogenic_order, report.monogenic_order_detail) == (False, detail)


def test_square_failure_strips_large_primes_shared_with_ab():
    # q > TRIAL_LIMIT divides a and b, so a leftover q^3 of the disc holds no
    # prime coprime to 6ab and decides nothing; a leftover prime to ab does
    q = next(n for n in range(TRIAL_LIMIT + 1, 2 * TRIAL_LIMIT) if is_prime(n))
    a, b = 5 * q, 7 * q
    assert _square_failure(a, b, ({}, q**3)) is None
    with pytest.raises(IndeterminateFactorization, match="unfactored part 121"):
        _square_failure(a, b, ({}, q**3 * 11**2))


def test_square_failure_up_to_the_trial_limit_ignores_the_unfactored_part():
    # trial division found 7's full exponent, and every prime of the
    # unfactored part is larger than TRIAL_LIMIT
    q = next(n for n in range(TRIAL_LIMIT + 1, 2 * TRIAL_LIMIT) if is_prime(n))
    detail = "nu_7(disc) = 2 > 1 with p coprime to 6ab"
    assert _square_failure(1, 1, ({7: 2}, 1)) == detail
    assert _square_failure(1, 1, ({5: 1, 7: 2}, q * (q + 2))) == detail
    with pytest.raises(IndeterminateFactorization, match=f"unfactored part {q * (q + 2)}"):
        _square_failure(1, 1, ({5: 1, 7: 1}, q * (q + 2)))
    assert _square_failure(1, 1, ({5: 1, 7: 1}, 1)) is None


def test_square_failure_past_the_trial_limit_decides_beside_an_unfactored_part():
    # a found p > TRIAL_LIMIT with p^2 | disc proves non-maximality, but a
    # smaller such prime may hide in the unfactored part; nu_p(disc) is
    # stated only when p does not divide that part
    primes = (n for n in range(TRIAL_LIMIT + 1, 2 * TRIAL_LIMIT) if is_prime(n))
    p, q, r = next(primes), next(primes), next(primes)
    rest = f"; a smaller such prime may divide the unfactored part {q * r}"
    assert _square_failure(1, 1, ({5: 1, p: 2}, 1)) == f"nu_{p}(disc) = 2 > 1 with p coprime to 6ab"
    assert _square_failure(1, 1, ({5: 1, p: 2}, q * r)) == (
        f"nu_{p}(disc) = 2 > 1 with p coprime to 6ab" + rest)
    assert _square_failure(1, 1, ({q: 2}, q * r)) == (
        f"p^2 divides disc for p={q} with p coprime to 6ab; a smaller such prime may divide "
        f"the unfactored part {q * r}")
    # a p dividing a or b is no failure, whatever its exponent
    with pytest.raises(IndeterminateFactorization, match=f"unfactored part {q * r}"):
        _square_failure(p, 1, ({p: 2}, q * r))


def test_found_square_past_the_trial_limit_decides_maximality(monkeypatch):
    # p = 30011 = 2 mod 3, so x^9 has a 9th root mod p^2, and this pair
    # puts p^2 into the discriminant; with a small budget the rest of the
    # discriminant stays unfactored
    monkeypatch.setattr(arith, "_FACTOR_BUDGET", 1 << 14)
    a = 518670451810706375079860301677
    b = 375731988578622229129725023305
    factors, leftover = bounded_factor(_disc_prime_to_6(a, b))
    assert factors[30011] == 2 and leftover != 1 and leftover % 30011 and (a * b) % 30011
    assert irreducibility_certificate(a, b)[0] is Certificate.PROVEN
    detail = ("nu_30011(disc) = 2 > 1 with p coprime to 6ab; a smaller such prime may divide "
              f"the unfactored part {_show(leftover)}")
    assert is_order_maximal(a, b) == (False, detail)
    report = classify(a, b)
    assert (report.monogenic_order, report.monogenic_order_detail) == (False, detail)
    assert not any(w.startswith("maximality undecided") for w in report.warnings)


def test_local_failure_proves_no_prime_of_the_gcd_again(monkeypatch):
    # bounded_factor has proven q and r prime; the test nu_p(b) != 1 is
    # read from b mod p^2, with no primality test
    q, r = 10**9 + 7, 998244353
    calls = []
    is_prime_before = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime_before(n))
    assert _local_failure(7 * q * r, 11 * q * r, ({q: 1, r: 1}, 1)) is None
    assert _local_failure(7 * q * r, 11 * q * q * r, ({q: 2, r: 1}, 1)) == (
        f"p={q} divides a and b with nu_p(b) != 1")
    assert calls == []


def _maximality_matches_dedekind(a, b) -> bool:
    """Whether (a, b) is checked: a proven F whose discriminant factors
    fully, where is_order_maximal must agree with Dedekind's criterion at
    every prime of the discriminant."""
    if disc(a, b) == 0 or irreducibility_certificate(a, b)[0] is not Certificate.PROVEN:
        return False
    try:
        maximal, _ = is_order_maximal(a, b)
    except IndeterminateFactorization:
        return False
    factors, leftover = bounded_factor(abs(disc(a, b)))
    if leftover != 1:
        return False
    oracle = not any(dedekind_divides(trinomial(a, b), p) for p in factors)
    assert maximal == oracle, (a, b)
    return True


def test_maximality_matches_dedekind_over_disc_primes():
    # 25 seeded pairs with a, b >= 1, then x^9 + b, a = 0, for 0 < |b| <= 60,
    # where every prime p >= 5 of b has p^8 | disc = 3^18 b^8
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        checked += _maximality_matches_dedekind(rng.randrange(1, 120), rng.randrange(1, 120))
    assert sum(_maximality_matches_dedekind(0, b) for b in range(-60, 61) if b) == 114


def test_nu2_examples():
    entry = nu2(15381, 6634)
    assert entry.nu == IndexValuation.exact(1)
    assert "(1,2)m4" in entry.rule
    entry = nu2(183, 296)
    assert entry.nu == IndexValuation.exact(3)
    assert entry.splitting == S([(1, 1), (2, 1), (2, 1), (4, 1)])
    entry = nu2(51, 122)
    assert entry.nu == IndexValuation.exact(0)


def test_nu3_examples():
    assert nu3(126, 40130).nu == IndexValuation.exact(1)
    assert nu3(1392, 768).nu == IndexValuation.exact(0)  # 3-Eisenstein
    assert nu3(183, 296).nu == IndexValuation.exact(0)


def test_classify_known_fields():
    assert classify(1392, 768).i_K == 2
    assert classify(15381, 6634).i_K == 6
    assert classify(7335, 24184).i_K == 24
    rep = classify(35, 20)
    assert rep.i_K is None and rep.i_K_known_divisor == 2
    assert rep.describe_index() == "2^(>=1)"


def test_describe_index_mixes_exact_and_lower_bound():
    # (a, b) = (35, 20) mod 2^12 leaves nu_2 a lower bound, and (126, 40130)
    # mod 3^8 gives nu_3 = 1 exactly
    rep = classify(79814691, 10235924)
    assert rep.entries[2].nu == IndexValuation.at_least(1)
    assert rep.entries[3].nu == IndexValuation.exact(1)
    assert rep.i_K is None and rep.i_K_known_divisor == 6
    assert rep.describe_index() == "2^(>=1) * 3^1"


def test_classify_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        classify(0, 0)


def test_classify_normalizes_input():
    rep = classify(51 * 2**8, 122 * 2**9)
    assert (rep.a, rep.b) == (51, 122)
    assert rep.i_K == 1


def test_large_prime_entries_are_zero():
    rep = classify(51, 122)
    for p, entry in rep.entries.items():
        if p >= 5:
            assert entry.nu == IndexValuation.exact(0)
    assert any(p >= 5 for p in rep.entries), "disc(51,122) has prime factors >= 5"


def test_monogenic_order_implies_unit_index():
    rng = random.Random(23)
    seen = 0
    while seen < 15:
        a, b = rng.randrange(1, 200), rng.randrange(1, 200)
        if disc(a, b) == 0:
            continue
        cert, _ = irreducibility_certificate(a, b)
        if cert is not Certificate.PROVEN:
            continue
        try:
            rep = classify(a, b)
        except (ReduciblePolynomial, IndeterminateFactorization):
            continue
        if rep.monogenic_order:
            assert rep.i_K == 1, (a, b)
            assert rep.field_monogenic is True
            seen += 1


def test_mirror_symmetry():
    # x -> -x maps x^9+ax+b to -(x^9+ax-b): same field, same local data
    rng = random.Random(29)
    n = 0
    while n < 60:
        a, b = rng.randrange(-400, 400), rng.randrange(1, 400)
        if disc(a, b) == 0 or b == 0 or not is_normalized(a, b):
            continue
        e2a, e2b = nu2(a, b), nu2(a, -b)
        assert (e2a.nu, e2a.splitting) == (e2b.nu, e2b.splitting), (a, b)
        e3a, e3b = nu3(a, b), nu3(a, -b)
        assert (e3a.nu, e3a.splitting) == (e3b.nu, e3b.splitting), (a, b)
        n += 1


# --------------------------------------------------------------------------
# the divisibility condition list for p = 2, transcribed independently of
# the classifier; the classifier's verdict must agree cell by cell


def divides2_conditions(a, b):
    if (a % 4, b % 4) == (1, 2):
        return True
    if (a % 8, b % 8) == (3, 4):
        return True
    if (a % 16, b % 16) in {(15, 0), (7, 8)}:
        return True
    if (a % 32, b % 32) == (28, 0):
        return True
    if (a % 64, b % 64) in {(4, 0), (52, 32)}:
        return True
    if a % 128 == 112 and b % 256 == 128:
        return True
    if (a % 512, b % 512) in {(368, 256), (112, 256), (240, 0), (496, 0), (448, 0)}:
        return True
    if a % 256 == 240 and b % 512 == 256:
        return True
    if (a % 1024, b % 1024) == (64, 0):
        return True
    return False


def test_nu2_matches_condition_list_exhaustively():
    # all (a, b) in [0, 1024) x [0, 512) with b even; b = 0 is lifted to
    # 1024 (preserving every governing residue) and a = 0 is skipped as the
    # degenerate column
    for a in range(1, 1024):
        for b in range(0, 512, 2):
            bb = b if b else 1024
            if val(2, a) >= 8 and val(2, bb) >= 9:
                continue  # no normalized representative exists in this cell
            entry = nu2(a, bb)
            assert entry.nu.divides == divides2_conditions(a, bb), (a, bb, entry.rule)


def test_nu2_odd_b_never_divides():
    rng = random.Random(37)
    for _ in range(40):
        a, b = rng.randrange(0, 2000), rng.randrange(0, 2000) * 2 + 1
        entry = nu2(a, b)
        assert entry.nu == IndexValuation.exact(0)
        assert entry.splitting.mass == 9


# --------------------------------------------------------------------------
# exact-value rows (the published nu_2 table)


def _find_78_case(parity, residue, mod8):
    # search a (7,8) mod 16 pair with the requested nu_2(disc) shape
    for a in range(7, 6000, 16):
        for b in range(8, 3000, 16):
            d = disc(a, b)
            if d == 0:
                continue
            v = val(2, d)
            if parity == "odd" and v % 2 == 1:
                return a, b
            if parity == "28" and v == 28 and delta_unit(a, b, 2) % 8 in mod8:
                return a, b
            if parity == "30+" and v >= 30 and v % 2 == 0 and delta_unit(a, b, 2) % 8 in mod8:
                return a, b
    raise AssertionError("fixture search failed")


def test_nu2_exact_value_rows():
    # (1,2) mod 4 -> 1
    assert nu2(5, 2).nu == IndexValuation.exact(1)
    # (7,8) mod 16, nu_2(disc) odd -> 3
    assert nu2(183, 296).nu == IndexValuation.exact(3)
    # (7,8) mod 16, nu_2(disc) = 28, Delta_2 = 3 mod 4 -> 3
    assert nu2(7335, 24184).nu == IndexValuation.exact(3)
    a, b = _find_78_case("28", None, {3, 7})
    assert nu2(a, b).nu == IndexValuation.exact(3)
    # (7,8) mod 16, nu_2(disc) >= 30 even, Delta_2 = 1 mod 4 -> 3
    a, b = _find_78_case("30+", None, {1, 5})
    assert nu2(a, b).nu == IndexValuation.exact(3)
    # (368,256) mod 512 -> 1
    assert nu2(1392, 768).nu == IndexValuation.exact(1)
    assert nu2(368, 256).nu == IndexValuation.exact(1)
    # a = 240 mod 256 and b = 256 mod 512 -> 3
    assert nu2(240, 256).nu == IndexValuation.exact(3)
    assert nu2(496, 256).nu == IndexValuation.exact(3)


def test_nu2_at_least_rows_stay_lower_bounds():
    # rows published as ">= 1" must come back as AtLeast(1), never refined
    fixtures = [
        (35, 20),        # (3,4) mod 8
        (15, 16),        # (15,0) mod 16
        (28, 32),        # (28,0) mod 32
        (4, 64),         # (4,0) mod 64
        (52, 32),        # (52,32) mod 64
        (112, 128),      # a=112 mod 128, b=128 mod 256
        (112, 256),      # (112,256) mod 512
        (240, 512),      # (240,0) mod 512
        (496, 512),      # (496,0) mod 512
        (448, 512),      # (448,0) mod 512
        (64, 1024),      # (64,0) mod 1024
    ]
    for a, b in fixtures:
        entry = nu2(a, b)
        assert entry.nu.kind == "at_least" and entry.nu.value == 1, (a, b, entry)
    # Table rows with nu_2(disc) even and the non-exact unit classes
    a, b = _find_78_case("28", None, {1})
    assert nu2(a, b).nu.kind == "at_least"
    a, b = _find_78_case("28", None, {5})
    assert nu2(a, b).nu.kind == "at_least"


# --------------------------------------------------------------------------
# table rows for nu_2(a) in {2, 4, 6}: reachability and splitting values


A2A4A6_ROWS = [
    # (a, b, splitting, nu kind, value)
    (4, 8, S([(1, 1), (8, 1)]), "exact", 0),
    (12, 16, S([(1, 1), (8, 1)]), "exact", 0),
    (12, 32, S([(1, 1), (4, 2)]), "exact", 0),
    (28, 32, S([(1, 1), (4, 1), (4, 1)]), "at_least", 1),
    (4, 16, S([(1, 1), (8, 1)]), "exact", 0),
    (4, 32, S([(1, 1), (8, 1)]), "exact", 0),
    (36, 64, S([(1, 1), (4, 2)]), "exact", 0),
    (4, 64, S([(1, 1), (4, 1), (4, 1)]), "at_least", 1),
    (20, 64, S([(1, 1), (8, 1)]), "exact", 0),
    (52, 64, S([(1, 1), (8, 1)]), "exact", 0),
    (20, 32, S([(1, 1), (4, 2)]), "exact", 0),
    (52, 32, S([(1, 1), (4, 1), (4, 1)]), "at_least", 1),
    (16, 32, S([(1, 1), (8, 1)]), "exact", 0),
    (16, 64, S([(1, 1), (8, 1)]), "exact", 0),
    (48, 64, S([(1, 1), (8, 1)]), "exact", 0),
    (48, 128, S([(1, 1), (4, 2)]), "exact", 0),
    (112, 128, S([(1, 1), (4, 1), (4, 1)]), "at_least", 1),
    (112, 512, S([(1, 1), (2, 2), (4, 1)]), "exact", 0),
    (368, 512, S([(1, 1), (2, 2), (4, 1)]), "exact", 0),
    (368, 256, S([(1, 1), (2, 2), (2, 2)]), "exact", 1),
    (112, 256, S([(1, 1), (2, 1), (2, 1), (2, 2)]), "at_least", 1),
    (240, 256, S([(1, 1), (2, 1), (2, 1), (4, 1)]), "exact", 3),
    (496, 256, S([(1, 1), (2, 1), (2, 1), (4, 1)]), "exact", 3),
    (240, 512, S([(1, 1), (2, 1), (2, 1), (2, 2)]), "at_least", 1),
    (496, 512, S([(1, 1), (2, 1), (2, 1), (2, 1), (2, 1)]), "at_least", 1),
    (64, 128, S([(1, 1), (8, 1)]), "exact", 0),
    (64, 256, S([(1, 1), (8, 1)]), "exact", 0),
    (64, 512, S([(1, 1), (8, 1)]), "exact", 0),
    (576, 512, S([(1, 1), (8, 1)]), "exact", 0),
    (576, 1024, S([(1, 1), (4, 2)]), "exact", 0),
    (64, 1024, S([(1, 1), (4, 1), (4, 1)]), "at_least", 1),
    (320, 512, S([(1, 1), (8, 1)]), "exact", 0),
    (320, 1024, S([(1, 1), (8, 1)]), "exact", 0),
    (832, 1024, S([(1, 1), (8, 1)]), "exact", 0),
    (192, 256, S([(1, 1), (8, 1)]), "exact", 0),
    (448, 256, S([(1, 1), (8, 1)]), "exact", 0),
    (192, 512, S([(1, 1), (4, 2)]), "exact", 0),
    (448, 512, S([(1, 1), (4, 1), (4, 1)]), "at_least", 1),
]


@pytest.mark.parametrize("a,b,split,kind,value", A2A4A6_ROWS)
def test_even_a_table_rows(a, b, split, kind, value):
    entry = nu2(a, b)
    assert entry.splitting == split
    assert entry.nu.kind == kind and entry.nu.value == value
    # the engine cannot resolve these at first order
    with pytest.raises(NotRegularError):
        engine_split(a, b, 2)


def test_flagged_table_cell_warns():
    entry = nu2(576, 512)
    assert entry.warnings and "566" in entry.warnings[0]


def test_corrected_15_0_mod16_row():
    # both sub-shapes of the (15,0) mod 16 class, with the engine agreeing
    # (both representatives are certified irreducible)
    e1 = nu2(31, 16)  # nu_2(a+b+1) = 4
    assert e1.splitting == S([(1, 1), (1, 2), (2, 1), (4, 1)])
    e2 = nu2(15, 48)  # nu_2(a+b+1) = 6
    assert e2.splitting == S([(1, 1), (1, 1), (1, 1), (2, 1), (4, 1)])
    for a, b, entry in ((31, 16, e1), (15, 48, e2)):
        assert irreducibility_certificate(a, b)[0] is Certificate.PROVEN
        assert entry.nu.kind == "at_least"
        assert entry.warnings
        assert engine_split(a, b, 2).splitting == entry.splitting


# --------------------------------------------------------------------------
# nu_3 case data (the proof-case and table transcription used as oracle)

DEEP = "deep"

NU3_CASES = [
    # (modulus, [(a,b) classes], extra congruence or None, expected)
    # b = 2 mod 3 branch
    (9, [(3, 5), (6, 2)], None, S([(1, 1), (8, 1)])),
    (27, [(0, 8), (0, 17), (9, 26), (9, 8), (18, 26), (18, 17)], None, S([(3, 1), (6, 1)])),
    (27, [(0, 26), (9, 17)], None, S([(1, 1), (2, 1), (6, 1)])),
    (81, [(18, 8), (18, 35), (45, 8), (45, 62), (72, 35), (72, 62)], None, S([(3, 1), (6, 1)])),
    (81, [(18, 62)], ("a+b", 80), S([(1, 1), (1, 2), (6, 1)])),
    (81, [(18, 62)], ("a+b", 161), S([(1, 3), (6, 1)])),
    (81, [(18, 62)], ("a+b", 242), DEEP),
    (81, [(45, 35)], ("a+b", 80), S([(1, 3), (6, 1)])),
    (81, [(45, 35)], ("a+b", 161), DEEP),
    (81, [(45, 35)], ("a+b", 242), S([(1, 1), (1, 2), (6, 1)])),
    (81, [(72, 8)], ("a+b", 80), S([(1, 1), (1, 2), (6, 1)])),
    (81, [(72, 8)], ("a+b", 161), S([(1, 3), (6, 1)])),
    (81, [(72, 8)], ("a+b", 242), DEEP),
    # b = 1 mod 3 branch
    (9, [(3, 4), (6, 7)], None, S([(1, 1), (8, 1)])),
    (27, [(0, 10), (0, 19), (9, 1), (9, 19), (18, 1), (18, 10)], None, S([(3, 1), (6, 1)])),
    (27, [(0, 1), (9, 10)], None, S([(1, 1), (2, 1), (6, 1)])),
    (81, [(18, 46), (18, 73), (45, 19), (45, 73), (72, 19), (72, 46)], None, S([(3, 1), (6, 1)])),
    (81, [(18, 19)], ("b-a", 82), S([(1, 3), (6, 1)])),
    (81, [(18, 19)], ("b-a", 163), S([(1, 1), (1, 2), (6, 1)])),
    (81, [(18, 19)], ("b-a", 1), DEEP),
    (81, [(45, 46)], ("b-a", 163), S([(1, 3), (6, 1)])),
    (81, [(45, 46)], ("b-a", 1), S([(1, 1), (1, 2), (6, 1)])),
    (81, [(45, 46)], ("b-a", 82), DEEP),
    (81, [(72, 73)], ("b-a", 82), S([(1, 3), (6, 1)])),
    (81, [(72, 73)], ("b-a", 163), S([(1, 1), (1, 2), (6, 1)])),
    (81, [(72, 73)], ("b-a", 1), DEEP),
]

DEEP_SHAPES = {
    "odd": S([(1, 1), (2, 1), (6, 1)]),
    "unit": S([(1, 1), (1, 2), (6, 1)]),
    "split": S([(1, 1), (1, 1), (1, 1), (6, 1)]),
}


def test_nu3_case_table():
    rng = random.Random(53)
    for modulus, classes, extra, expected in NU3_CASES:
        for a0, b0 in classes:
            hits = 0
            for trial in range(200):
                a = a0 + modulus * rng.randrange(0, 2000)
                if extra is None:
                    b = b0 + modulus * rng.randrange(0, 2000)
                else:
                    kind, r = extra
                    lifted = (r - a) if kind == "a+b" else (a + r)
                    b = lifted % 243
                    if (b - b0) % 81:
                        continue
                    b += 243 * rng.randrange(0, 700)
                if disc(a, b) == 0 or not is_normalized(a, b):
                    continue
                try:
                    entry = nu3(a, b)
                except ValueError:
                    continue  # the lift happened to be reducible

                if expected is DEEP:
                    v = val(3, disc(a, b))
                    if v % 2:
                        want, want_nu = DEEP_SHAPES["odd"], 0
                    elif delta_unit(a, b, 3) % 3 == 1:
                        want, want_nu = DEEP_SHAPES["unit"], 0
                    else:
                        want, want_nu = DEEP_SHAPES["split"], 1
                    assert entry.splitting == want, (a, b, entry)
                    assert entry.nu == IndexValuation.exact(want_nu), (a, b, entry)
                    # nu3 runs no engine here: the critical lift checks it
                    assert engine_split(a, b, 3).splitting == entry.splitting, (a, b)
                else:
                    assert entry.splitting == expected, (a, b, entry)
                    assert entry.nu == IndexValuation.exact(0), (a, b, entry)
                hits += 1
                if hits >= 5:
                    break
            assert hits >= 3, (modulus, a0, b0, extra)


def test_nu3_exact_one_requires_even_and_unit():
    # the (45,35) & a+b=161 family from the worked example
    assert nu3(126, 40130).nu == IndexValuation.exact(1)
    assert nu3(126, 40130).splitting == DEEP_SHAPES["split"]


def test_nu3_phi_x_cases():
    # single side, d = 1: totally ramified
    assert nu3(1392, 768).splitting == S([(9, 1)])
    # single side, d = 3 (nu_3(b) in {3, 6}): beyond first order, nu_3 = 0
    entry = nu3(27, 27)
    assert entry.nu == IndexValuation.exact(0) and entry.splitting is None
    entry = nu3(0, 27)
    assert entry.nu == IndexValuation.exact(0) and entry.splitting is None
    # nu_3(a) = 4 dominated by nu_3(b) = 1: still one side of degree 1
    assert nu3(162, 3).splitting == S([(9, 1)])


def test_nu3_two_side_quadratic_and_quartic():
    # nu_3(a) = 2, nu_3(b) >= 3: side of degree 2
    entry = nu3(9, 27 * 2)  # a=9: v3=2; b=54: v3=3; 8*3 > 9*2
    assert entry.splitting in (
        S([(1, 1), (4, 2)]),
        S([(1, 1), (4, 1), (4, 1)]),
    )
    assert entry.nu == IndexValuation.exact(0)
    # nu_3(a) = 4, nu_3(b) >= 5: side of degree 4
    entry = nu3(81, 243 * 2)
    assert entry.splitting in (
        S([(1, 1), (2, 2), (2, 2)]),
        S([(1, 1), (2, 1), (2, 1), (2, 2)]),
    )
    assert entry.nu == IndexValuation.exact(0)


def test_critical_shift():
    # u solves 8au + 9b = 0 to the requested precision
    for (a, b, p) in ((7, 8, 2), (183, 296, 2), (126, 40130, 3)):
        u = critical_shift(a, b, p, 20)
        assert val(p, 8 * a * u + 9 * b) >= 20


def test_critical_lift():
    # x - u with u = critical_shift(a, b, p, nu_p(disc) + 10)
    for (a, b, p) in ((183, 296, 2), (126, 40130, 3)):
        minus_u, one = critical_lift(a, b, p)
        assert one == 1
        assert val(p, 9 * b - 8 * a * minus_u) >= val(p, disc(a, b)) + 10
    with pytest.raises(ReduciblePolynomial):
        critical_lift(-9, 8, 3)  # x^9 - 9x + 8 has the double root 1


def test_unclassified_never_fires_on_grid():
    # the decision tree is total over a stratified grid
    rng = random.Random(71)
    for _ in range(800):
        a = rng.randrange(0, 4096)
        b = rng.randrange(1, 4096)
        a, b = normalize(a, b)
        if b == 0 or disc(a, b) == 0:
            continue
        try:
            nu2(a, b)
            nu3(a, b)
        except ValueError:
            continue  # reducible lift hit an exact divisor inside the engine
