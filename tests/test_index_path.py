"""The index path at any input size: the integer-root search of the
irreducibility certificate, the exact integer root and normalize.

The root search is checked against a plain scan of every integer up to the
root bound; normalize against scaling by p^8, p^9.
"""

import hashlib
import json
import random
import sys
import time
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, nextprime

from nonicindex import gf, nonic, polygon
from nonicindex.nonic import (
    _CERT_PRIMES,
    _CERT_PRODUCT,
    Certificate,
    IndeterminateFactorization,
    ReduciblePolynomial,
    _iroot,
    classify,
    disc,
    irreducibility_certificate,
    is_normalized,
    normalize,
    nu2,
    nu3,
)
from nonicindex.polygon import (
    ExactDivisorError,
    Splitting,
    analyze_phi,
    ore_analyze,
    trinomial,
    zeval,
)
from reference import TableWatch, clear_table, filled_slots, usable_primes


def _scanned_root(a, b):
    """The smallest integer root of x^9 + ax + b, by trying every candidate."""
    bound = max(1, isqrt(isqrt(isqrt(abs(a) + abs(b)))) + 1)  # floor 8th root, plus 1
    for r in range(-bound, bound + 1):
        if r**9 + a * r + b == 0:
            return r
    return None


def _assert_matches_scan(a, b):
    cert, detail = irreducibility_certificate(a, b)
    if b == 0:
        assert (cert, detail) == (Certificate.REDUCIBLE, "x divides x^9 + ax")
        return
    root = _scanned_root(a, b)
    c = _iroot(abs(b), 3)
    if root is None and a == 0 and c**3 == abs(b):
        # Capelli: x^9 + c^3 has the factor x^3 + c, and no integer root unless c is a cube
        assert (cert, detail) == (
            Certificate.REDUCIBLE, f"b is a cube: factor x^3 {'+' if b > 0 else '-'} {c}")
    elif root is None:
        assert cert is not Certificate.REDUCIBLE, (a, b, detail)
    else:
        assert (cert, detail) == (Certificate.REDUCIBLE, f"integer root x = {root}")


SMALL = st.integers(-(10**6) + 1, 10**6 - 1)


@settings(max_examples=300, deadline=None)
@given(SMALL, SMALL)
def test_certificate_matches_root_scan(a, b):
    _assert_matches_scan(a, b)


@settings(max_examples=300, deadline=None)
@given(SMALL, st.integers(-6, 6))
def test_certificate_finds_planted_root(a, r):
    _assert_matches_scan(a, -(r**9 + a * r))


@settings(max_examples=200, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 40))
def test_certificate_reports_smallest_of_two_roots(r, gap):
    # x^9 + ax + b with the roots r and r + gap: a = -(s^9 - r^9) / (s - r)
    s = r + gap
    a = -(s**9 - r**9) // gap
    b = -(r**9 + a * r)
    _assert_matches_scan(a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(-(10**18), 10**18), st.integers(-(10**18), 10**18), st.integers(-150, 150))
def test_certificate_matches_root_scan_wide(a, b, r):
    # pairs up to 10^18, each also with a planted root
    _assert_matches_scan(a, b)
    _assert_matches_scan(a, -(r**9 + a * r))


def _irreducible_mod(a, b, p):
    x = Symbol("x")
    return Poly(x**9 + a * x + b, x, modulus=p).is_irreducible


@settings(max_examples=300, deadline=None)
@given(st.one_of(SMALL, st.integers(-(10**18), 10**18)), st.one_of(SMALL, st.integers(-(10**18), 10**18)))
@example(-190, 11)  # mod 19: three distinct cubics, one distinct-degree part
@example(-190, 27)
def test_irreducible_mod_p_verdict_matches_sympy(a, b):
    # the verdict names the first prime of _CERT_PRIMES with an irreducible
    # reduction (every reduction has degree 9, since F is monic)
    cert, detail = irreducibility_certificate(a, b)
    if not detail.startswith("irreducible mod "):
        return
    p = int(detail.removeprefix("irreducible mod "))
    assert cert is Certificate.PROVEN
    assert _irreducible_mod(a, b, p), (a, b, p)
    assert not any(_irreducible_mod(a, b, q) for q in _CERT_PRIMES if q < p), (a, b, p)


@pytest.mark.parametrize("a, b", [(805694, -684135), (-264088, 120095), (506678, 229717)])
def test_certificate_shares_factorizations_with_nu2_nu3(monkeypatch, cold_certificate, a, b):
    # b odd, 3 does not divide a, and disc(a, b) is prime to 6: on its way
    # to a proof the certificate fills the slots of F mod 2 and mod 3 in
    # the mod-p table, and nu2 and nu3 return the Dedekind entries built
    # from those slots at import, reading no slot, filling none and running
    # no distinct-degree pass; neither reaches the engine
    def no_call(*args, **kwargs):
        raise AssertionError("gf.factor or ore_analyze ran")

    watch = TableWatch(monkeypatch)
    monkeypatch.setattr(gf, "factor", no_call)
    monkeypatch.setattr(polygon, "ore_analyze", no_call)
    monkeypatch.setattr(nonic, "ore_analyze", no_call)
    assert irreducibility_certificate(a, b)[0] is Certificate.PROVEN
    filled, passes, reads = filled_slots(), watch.passes, watch.reads
    entries = nu2(a, b), nu3(a, b)
    assert [e.rule for e in entries] == ["2:unit-b", "3:unit-a"]
    assert (filled_slots(), watch.passes, watch.reads) == (filled, passes, reads)


def test_certificate_and_unit_branches_build_no_discriminant(monkeypatch, cold_certificate):
    # the certificate reads (a, b) mod the product of the primes <= 100, and
    # nu2 (b odd) and nu3 (3 not dividing a) return entries built from its
    # slots at 2 and 3: none of them builds disc(a, b), at any input size
    def no_call(a, b):
        raise AssertionError("disc ran")

    monkeypatch.setattr(nonic, "disc", no_call)
    residues = [(r, s) for r in range(7) for s in range(7) if _irreducible_mod(r, s, 7)]
    rng = random.Random(30)
    for digits in (20, 45, 400, 5000):
        for r, s in residues:
            while True:
                a, b = rng.randrange(10**digits), -rng.randrange(10**digits)
                a, b = a - a % 7 + r, b - b % 7 + s  # F mod 7 is irreducible
                if b % 2 and a % 3 and gcd(a, b) == 1:
                    break
            assert irreducibility_certificate(a, b)[0] is Certificate.PROVEN, (digits, r, s)
            assert (nu2(a, b).rule, nu3(a, b).rule) == ("2:unit-b", "3:unit-a"), (a, b)
    # F with an integer root and a usable prime: the root search lifts the
    # roots mod that prime, and builds no discriminant either
    for digits in (20, 400, 5000):
        for _ in range(5):
            a = rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
            r = rng.choice((-1, 1)) * rng.randrange(1, 100)
            b = -(r**9 + a * r)
            assert usable_primes(a % _CERT_PRODUCT, b % _CERT_PRODUCT), digits
            assert irreducibility_certificate(a, b) == (
                Certificate.REDUCIBLE, f"integer root x = {r}"), digits


P = _CERT_PRODUCT


@pytest.mark.parametrize("a, b", [
    (-9, 8), (-9, -8), (-9 * 2**8, 8 * 2**9), (-9 * 7**8, -8 * 7**9),  # disc(a, b) = 0
    # every p <= 97 divides a and b, so disc(a, b), and no polygon proves F
    # irreducible: the roots are P and -P
    (P, -(P**9 + P * P)), (P, P**9 + P * P),
    (1, 1), (1, 2), (0, -(2**9)), (0, 27), (17, -6),
])
def test_root_search_builds_the_discriminant_only_with_no_usable_prime(monkeypatch, a, b):
    # the root search builds disc(a, b) only when no prime up to 97 is
    # usable, and then once: to find a prime past 97 to lift from, or to
    # read the double root s = -9b/(8a) when disc(a, b) = 0
    built = []

    def recorded(a, b):
        built.append((a, b))
        return disc(a, b)

    monkeypatch.setattr(nonic, "disc", recorded)
    usable = bool(usable_primes(a % P, b % P))
    cert, detail = irreducibility_certificate(a, b)
    assert built == ([] if usable else [(a, b)]), (a, b)
    if not usable:
        r = int(detail.removeprefix("integer root x = "))
        assert cert is Certificate.REDUCIBLE and r**9 + a * r + b == 0, (a, b)


def _naive_splitting(F, p):
    """The splitting from analyze_phi on the naive lift of each factor of
    F mod p, or ExactDivisorError: the polygons, not ore_analyze's rule for
    simple factors.  A lift equal to F (p inert) divides F, so it is taken
    as the one prime (1, deg F) without an analysis."""
    pairs = []
    for phibar, _ in gf.factor(gf.PrimeField(p), gf.reduce_mod_p(F, p)).factors:
        if phibar == F:
            pairs.append((1, gf.pdeg(F)))
            continue
        try:
            analysis = analyze_phi(F, p, phibar)
        except ExactDivisorError:
            return ExactDivisorError
        assert analysis.regular and analysis.index == 0
        pairs += analysis.primes
    return Splitting.of(pairs)


# integers of 1-60 digits
DIGITS_1_60 = st.integers(1, 60).flatmap(lambda d: st.integers(-(10**d) + 1, 10**d - 1))


@settings(max_examples=300, deadline=None)
@given(DIGITS_1_60, DIGITS_1_60, st.sampled_from((1, 1, 1, 2, 3, 5, 7)))
@example(17, 6, 1)  # reducible: a naive lift of a factor of F mod 3 divides F
@example(1, 2, 1)  # reducible: x + 1 divides F, and the root -1 is found first
@example(17, -6, 1)
@example(-34, 21, 1)
@example(-34, -21, 1)
@example(-76, 96, 1)
@example(-76, -96, 1)
@example(1, 1, 1)  # irreducible (sympy's factor_list), proven irreducible mod 2
def test_unramified_splitting_matches_the_engine(a0, b0, scale):
    # b odd or 3 not dividing a: p in {2, 3} does not divide disc(a, b), and
    # nu2 or nu3 reads the splitting off the certificate's factor degrees
    # of F mod p.  The polygons of the naive lifts must give the same
    # splitting.  Where a naive lift divides F instead, F is reducible, and
    # the certificate says so: by that lift, or by an integer root when F
    # has one, since the root search runs first.
    a, b = a0 * scale**8, b0 * scale**9
    F = trinomial(a, b)
    for p, nu, unramified in ((2, nu2, b % 2), (3, nu3, a % 3 and b)):
        if not unramified:
            continue
        assert disc(a, b) % p
        naive = _naive_splitting(F, p)
        if naive is not ExactDivisorError:
            assert nu(a, b).splitting == naive
            continue
        cert, detail = irreducibility_certificate(a, b)
        assert cert is Certificate.REDUCIBLE, (a, b)
        if detail.startswith("integer root x = "):
            r = int(detail.removeprefix("integer root x = "))
            assert zeval(F, r) == 0
        else:
            assert detail == "phi divides F exactly; F is reducible", (a, b)


@pytest.fixture
def cold_certificate():
    """The certificate's mod-p table emptied, so that a test that watches
    its passes or its root search sees the cold path in any test order."""
    clear_table()


def test_certificate_proves_without_a_root_search(monkeypatch, cold_certificate):
    # a proof rules out an integer root, so the search never runs once one
    # is found, whatever the size of the input (here up to about 5,000 digits)
    def no_search(*args):
        raise AssertionError("root search ran")

    monkeypatch.setattr(nonic, "_smallest_integer_root", no_search)
    residues = [(r, s) for r in range(7) for s in range(7) if _irreducible_mod(r, s, 7)]
    assert residues
    rng = random.Random(17)
    for digits in (2, 20, 45, 400, 5000):
        for r, s in residues:
            a, b = rng.randrange(10**digits), -rng.randrange(10**digits)
            a, b = a - a % 7 + r, b - b % 7 + s  # F mod 7 is irreducible
            assert irreducibility_certificate(a, b)[0] is Certificate.PROVEN, (digits, r, s)


@pytest.mark.parametrize("a, b", [(-76, 96), (-76, -96), (-34, 21), (-34, -21), (17, 6), (17, -6)])
def test_certificate_unknown_pairs_skip_the_root_search(monkeypatch, cold_certificate, a, b):
    # the six pairs of [-100, 100]^2 that are reducible with no integer
    # root: no proof exists, but F has no root mod 13, so it has no integer
    # root and the search does not run.  Five stay UNKNOWN; for (17, 6) a
    # naive lift of a factor of F mod 3 divides F, which the last step finds
    searched = []
    search = nonic._smallest_integer_root

    def recorded(a, b, mod_p):
        searched.append((a, b))
        return search(a, b, mod_p)

    monkeypatch.setattr(nonic, "_smallest_integer_root", recorded)
    if (a, b) == (17, 6):
        expected = Certificate.REDUCIBLE, "phi divides F exactly; F is reducible"
    else:
        expected = Certificate.UNKNOWN, "no cheap certificate found"
    assert irreducibility_certificate(a, b) == expected
    assert searched == []
    assert disc(a, b) % 13 and all((x**9 + a * x + b) % 13 for x in range(13))


def test_certificate_searches_once_on_an_integer_root(monkeypatch, cold_certificate):
    # F with an integer root r has a root mod every p, so every pattern has
    # a 1 and no proof succeeds.  The root search runs, once, and reports r
    # before the last step: no gf.factor call at any p, 2 and 3 included
    searched = []
    search = nonic._smallest_integer_root

    def no_call(*args):
        raise AssertionError("gf.factor ran")

    def recorded(a, b, mod_p):
        searched.append((a, b))
        return search(a, b, mod_p)

    monkeypatch.setattr(gf, "factor", no_call)
    monkeypatch.setattr(nonic, "_smallest_integer_root", recorded)
    rng = random.Random(18)
    for digits in (3, 20, 45):
        for _ in range(30):
            a = rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
            r = rng.choice((-1, 1)) * rng.randrange(1, 100)
            b = -(r**9 + a * r)
            searched.clear()
            assert irreducibility_certificate(a, b) == (
                Certificate.REDUCIBLE, f"integer root x = {r}"), (a, b)
            assert searched == [(a, b)], (a, b)


@pytest.mark.slow
def test_certificate_lifts_a_20000_digit_root_in_under_a_second(cold_certificate):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # an assertion message may print the pair
    try:
        rng = random.Random(20000)
        a = rng.randrange(10**19999, 10**20000)
        r = -rng.randrange(1, 100)
        b = -(r**9 + a * r)
        start = time.perf_counter()
        result = irreducibility_certificate(a, b)
        elapsed = time.perf_counter() - start
        assert result == (Certificate.REDUCIBLE, f"integer root x = {r}")
        assert elapsed < 1, elapsed
    finally:
        sys.set_int_max_str_digits(limit)


def test_unramified_split_divides_only_where_psi_2_divides_F_2(monkeypatch):
    # a seeded pair (random.Random(18)) where F mod 3 has the factor
    # x^2 + 1, whose value 5 at 2 divides F(2) although it does not divide
    # F, and a factor whose value at 2 does not divide F(2): ore_analyze's
    # division runs for the one and is skipped for the other
    a, b = 86732986491310923719, -38488230566677824825
    F = trinomial(a, b)
    factors = [psi for psi, _ in gf.factor(gf.PrimeField(3), gf.reduce_mod_p(F, 3)).factors]
    divided = [psi for psi in factors if zeval(F, 2) % zeval(psi, 2) == 0]
    assert (1, 0, 1) in divided and len(divided) < len(factors)
    taken = []
    leading_terms = polygon._leading_terms

    def recorded(F, p, phi):
        taken.append(phi)
        return leading_terms(F, p, phi)

    monkeypatch.setattr(polygon, "_leading_terms", recorded)
    splitting = ore_analyze(F, 3).splitting
    assert taken == divided
    assert splitting == _naive_splitting(F, 3)


def test_nu3_meets_the_factor_of_17_6():
    # F = x^9 + 17x + 6 is reducible with no integer root: the naive lift
    # x^2 + x + 2 of a factor of F mod 3 divides F over Z.  The certificate
    # finds it by ore_analyze at 3, and classify reports its detail
    detail = "phi divides F exactly; F is reducible"
    assert irreducibility_certificate(17, 6) == (Certificate.REDUCIBLE, detail)
    with pytest.raises(ExactDivisorError):
        ore_analyze(trinomial(17, 6), 3)
    with pytest.raises(ReduciblePolynomial, match=f"^{detail}$"):
        classify(17, 6)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**400), st.sampled_from((2, 3, 8, 9)))
def test_iroot_is_exact(x, n):
    r = _iroot(x, n)
    assert r**n <= x < (r + 1) ** n


def test_iroot_is_exact_near_perfect_powers():
    rng = random.Random(4)
    for n in (2, 3, 8, 9):
        for r in [1, 2, 3, 10**44 + 7] + [rng.randrange(2, 10**50) for _ in range(20)]:
            for x in (r**n - 1, r**n, r**n + 1):
                k = _iroot(x, n)
                assert k**n <= x < (k + 1) ** n, (x, n)
    x = random.Random(400).randrange(10**399, 10**400)
    for n in (2, 8, 9):
        k = _iroot(x, n)
        assert k**n <= x < (k + 1) ** n



def test_iroot_is_exact_past_3000_bits():
    rng = random.Random(3000)
    for n in (3, 5, 8, 9):
        x = rng.randrange(2**3000, 2**3100)
        k = _iroot(x, n)
        assert k**n <= x < (k + 1) ** n, n
        assert _iroot(k**n, n) == k and _iroot(k**n - 1, n) == k - 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
    st.sampled_from((2, 3, 5, 7, 11, 13)),
    st.integers(1, 3),
)
def test_normalize_strips_scaling(a0, b0, p, k):
    if gcd(a0, b0) < 2**8:  # then no p^8 divides both, so (a0, b0) is normalized
        assert normalize(a0, b0) == (a0, b0)
        assert normalize(a0 * p ** (8 * k), b0 * p ** (9 * k)) == (a0, b0)
    assert normalize(a0 * p**8, b0 * p**9) == normalize(a0, b0)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12), st.integers(1, 60))
def test_normalize_is_idempotent(a0, b0, m):
    a, b = normalize(a0 * m**8, b0 * m**9)
    assert normalize(a, b) == (a, b)


def test_normalize_says_when_a_prime_may_be_left():
    # gcd(a, b) = q^8 r.  The factoring budget cannot split it with q of 21
    # digits, so q^8 | a and q^9 | b may remain; with q of 6 digits rho finds q.
    r = nextprime(10**18)
    q = nextprime(10**20)
    a, b = 5 * q**8 * r, 7 * q**9 * r
    assert normalize(a, b) == (a, b)
    with pytest.raises(IndeterminateFactorization):
        is_normalized(a, b)
    assert any(w.startswith("normalization undecided") for w in classify(a, b).warnings)
    q = nextprime(10**5)
    assert normalize(5 * q**8 * r, 7 * q**9 * r) == (5 * r, 7 * r)
    assert is_normalized(5 * r, 7 * r)


def test_normalize_stops_at_trial_division(monkeypatch):
    # gcd(a, b) = 2^8 p q: past trial division, p q < TRIAL_LIMIT^8 holds
    # no eighth power, so the factoring chain is not needed
    def no_chain(n):
        raise AssertionError("bounded_factor ran")

    monkeypatch.setattr(nonic, "bounded_factor", no_chain)
    p, q = nextprime(10**7), nextprime(6 * 10**7)
    a, b = 2**8 * 5 * p * q, 2**9 * 7 * p * q
    assert normalize(a, b) == (5 * p * q, 7 * p * q)
    assert not is_normalized(a, b)
    assert is_normalized(5 * p * q, 7 * p * q)


@pytest.mark.parametrize("scale, digest", [
    # nothing is stripped, and all of gcd(a, b) = q^8 r stays unfactored
    (1, "4b2611e7f37e8782b48c10f624862493b78e56a3db566d195d5a253d87fa34d5"),
    # 7 is stripped by trial division, and q^8 r stays unfactored
    (7, "169d7c8fc2f76f91e04fbd5dc0a118cc57bd41ece0ef0c82f9c3fa27191ea66d"),
])
def test_classify_factors_the_gcd_once(monkeypatch, scale, digest):
    # The budget cannot split q^8 r.  classify spends it on that number once,
    # for normalization and the maximality test alike: exactly one call
    # leaves it unfactored.  The report is the one it gave when it factored
    # the number twice (digest of that JSON).
    q, r = nextprime(10**20), nextprime(10**18)
    a, b = scale**8 * 5 * q**8 * r, scale**9 * (3 if scale > 1 else 7) * q**9 * r
    seen = []
    original = nonic.bounded_factor

    def counted(n, *args):
        found, leftover = original(n, *args)
        seen.append((n, leftover))
        return found, leftover

    monkeypatch.setattr(nonic, "bounded_factor", counted)
    text = json.dumps(classify(a, b).to_json(), sort_keys=True)
    assert [leftover for _, leftover in seen].count(q**8 * r) == 1
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_index_path_beyond_float_range():
    # (a, b) = (1, 1) mod 7 makes x^9 + ax + b irreducible mod 7
    rng = random.Random(310)
    pairs = []
    for digits in (310, 355, 400):
        a = rng.randrange(10 ** (digits - 1), 10**digits)
        b = -rng.randrange(10 ** (digits - 1), 10**digits)
        pairs.append((a + (1 - a) % 7, b + (1 - b) % 7))
    a0, b0 = pairs[0]
    pairs.append((a0 * 5**8, b0 * 5**9))
    for a, b in pairs:
        n = normalize(a, b)
        assert n in ((a, b), (a0, b0))
        assert irreducibility_certificate(*n)[0] is Certificate.PROVEN
        for entry, p in ((nu2(*n), 2), (nu3(*n), 3)):
            assert entry.p == p
            if entry.splitting is not None:
                assert entry.splitting.mass == 9
