"""The index path at any input size: the integer-root search of the
irreducibility certificate, the exact integer root and normalize.

The root search is checked against a plain scan of every integer up to the
root bound; normalize against scaling by p^8, p^9.
"""

import hashlib
import json
import random
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, nextprime

from nonicindex import gf, nonic, polygon
from nonicindex.nonic import (
    _CERT_PRIMES,
    Certificate,
    IndeterminateFactorization,
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
    # negative a of this size splits F into three monotone pieces of many integers
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
def test_certificate_shares_factorizations_with_nu2_nu3(a, b):
    # b odd, 3 does not divide a, and disc(a, b) is prime to 6: nu2 and nu3
    # factor F mod 2 and mod 3, and the certificate reads its patterns
    # there from its own cache, so it adds no gf.factor miss, and nu2 and
    # nu3 after it add exactly the misses they add alone.
    gf.factor.cache_clear()
    nu2(a, b), nu3(a, b)
    alone = gf.factor.cache_info().misses
    gf.factor.cache_clear()
    assert irreducibility_certificate(a, b)[0] is Certificate.PROVEN
    assert gf.factor.cache_info().misses == 0
    nu2(a, b), nu3(a, b)
    assert gf.factor.cache_info().misses == alone


def _splitting_or_error(split, *args):
    try:
        return split(*args).splitting
    except ExactDivisorError:
        return ExactDivisorError


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
@example(17, -6, 1)
@example(-34, 21, 1)
@example(-34, -21, 1)
@example(-76, 96, 1)
@example(-76, -96, 1)
@example(1, 1, 1)  # reducible: x^2 + x + 1 divides F, and F mod 2 has that factor
def test_unramified_splitting_matches_the_engine(a0, b0, scale):
    # b odd or 3 not dividing a: p in {2, 3} does not divide disc(a, b), and
    # nu2 or nu3 takes ore_analyze's rule for simple factors, which reads
    # the splitting off the degrees of F mod p.  The polygons of the naive
    # lifts must give the same splitting, or raise the same error.
    a, b = a0 * scale**8, b0 * scale**9
    if b % 2:
        assert disc(a, b) % 2
        assert _splitting_or_error(nu2, a, b) == _naive_splitting(trinomial(a, b), 2)
    if a % 3 and b:
        assert disc(a, b) % 3
        assert _splitting_or_error(nu3, a, b) == _naive_splitting(trinomial(a, b), 3)


@pytest.fixture
def cold_certificate():
    """The certificate's mod-p caches cleared, so that a test that watches
    its passes or its root search sees the cold path in any test order."""
    nonic._has_root_mod.cache_clear()
    nonic._factor_degrees.cache_clear()


def test_certificate_proves_without_a_root_search(monkeypatch, cold_certificate):
    # a proof rules out an integer root, so the search never runs once one
    # is found, whatever the size of the input (here up to about 5,000 digits)
    def no_search(a, b):
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
    # the six UNKNOWN pairs of [-100, 100]^2 (reducible, no integer root):
    # no proof exists, but F has no root mod 13, so it has no integer root
    # and the search does not run
    searched = []
    search = nonic._smallest_integer_root

    def recorded(a, b):
        searched.append((a, b))
        return search(a, b)

    monkeypatch.setattr(nonic, "_smallest_integer_root", recorded)
    assert irreducibility_certificate(a, b) == (Certificate.UNKNOWN, "no cheap certificate found")
    assert searched == []
    assert disc(a, b) % 13 and all((x**9 + a * x + b) % 13 for x in range(13))


def test_certificate_runs_no_pass_on_an_integer_root(monkeypatch, cold_certificate):
    # F with an integer root r has a root mod every p, so the root-test gate
    # never opens: no distinct-degree pass and no gf.factor call at any p,
    # 2 and 3 included.  The root search runs, once, and reports r
    searched = []
    search = nonic._smallest_integer_root

    def no_call(*args):
        raise AssertionError("mod-p factorization ran")

    def recorded(a, b):
        searched.append((a, b))
        return search(a, b)

    monkeypatch.setattr(gf, "distinct_degree", no_call)
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
    # F = x^9 + 17x + 6 is reducible with no integer root; its certificate
    # is UNKNOWN, and nu3 finds a naive lift that divides F over Z
    assert irreducibility_certificate(17, 6)[0] is Certificate.UNKNOWN
    with pytest.raises(ExactDivisorError):
        nu3(17, 6)


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
