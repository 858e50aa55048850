import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_div,
    gf_factor,
    gf_gcd,
    gf_mul,
    gf_pow_mod,
    gf_quo,
    gf_rem,
    gf_sqf_p,
    gf_sub,
)

from nonicindex import gf, nonic
from nonicindex.gf import (
    ExtField,
    PrimeField,
    count_monic_irreducible,
    distinct_degree,
    enumerate_monic,
    factor,
    is_irreducible,
    pdeg,
    pdivmod,
    pgcd,
    pmod,
    pmul,
    ptrim,
    radical,
    reduce_mod_p,
)
from nonicindex.arith import INFINITY, val
from nonicindex.nonic import (
    _CERT_PRIMES,
    Certificate,
    _smallest_integer_root,
    disc,
    irreducibility_certificate,
)
from nonicindex.polygon import trinomial
from reference import expand

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_reduce_mod_p_trinomials():
    # x^9 + x mod 2, for several (a, b)
    assert reduce_mod_p(trinomial(1, 2), 2) == (0, 1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert reduce_mod_p(trinomial(5, 2), 2) == (0, 1, 0, 0, 0, 0, 0, 0, 0, 1)
    # x^9 + 2 mod 3 (i.e. x^9 - 1)
    assert reduce_mod_p(trinomial(51, 122), 3) == (2, 0, 0, 0, 0, 0, 0, 0, 0, 1)


def test_factor_known_shapes():
    # x^9 + x over F_2 = x * (x+1)^8
    fact = factor(F2, reduce_mod_p(trinomial(1, 2), 2))
    assert fact.unit == 1
    assert dict(fact.factors) == {(0, 1): 1, (1, 1): 8}
    # y^3 + 1 over F_2 = (y+1)(y^2+y+1)
    fact = factor(F2, (1, 0, 0, 1))
    assert dict(fact.factors) == {(1, 1): 1, (1, 1, 1): 1}
    # y^3 + y^2 + y + 1 over F_3 = (y+1)(y^2+1)
    fact = factor(F3, (1, 1, 1, 1))
    assert dict(fact.factors) == {(1, 1): 1, (1, 0, 1): 1}


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(F2, ())


def test_count_monic_irreducible_values():
    assert count_monic_irreducible(2, 1) == 2
    assert count_monic_irreducible(3, 1) == 3
    assert count_monic_irreducible(2, 3) == 2  # enumeration of the 8 monic cubics
    assert count_monic_irreducible(2, 2) == 1
    assert count_monic_irreducible(11, 1) == 11
    # composite and square-divisible degrees: mu(6) = +1, mu(4) = mu(8) = mu(9) = 0
    assert [count_monic_irreducible(2, f) for f in range(5, 10)] == [6, 9, 18, 30, 56]
    assert count_monic_irreducible(3, 6) == 116


def test_count_matches_enumeration():
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for f in range(1, 5):
            if p**f > 2500:
                continue
            brute = sum(1 for cand in enumerate_monic(field, f) if is_irreducible(field, cand))
            assert count_monic_irreducible(p, f) == brute, (p, f)
    # the cases skipped above, checked with the formula's divisor sum by hand
    assert count_monic_irreducible(7, 4) == (7**4 - 7**2) // 4
    assert count_monic_irreducible(5, 4) == (5**4 - 5**2) // 4


def _random_poly(rng, field, max_deg):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(field.p) for _ in range(deg)]
    coeffs.append(field.one)
    return ptrim(coeffs)


def test_factor_reconstruction_random():
    rng = random.Random(7)
    fields = {2: F2, 3: F3, 5: F5, 7: F7}
    for _ in range(1000):
        field = fields[rng.choice((2, 3, 5, 7))]
        poly = _random_poly(rng, field, 9)
        fact = factor(field, poly)
        assert expand(field, fact) == poly
        # degree additivity
        assert sum(m * pdeg(g) for g, m in fact.factors) == pdeg(poly)


def _divides(field, f, g):
    return not pdivmod(field, f, g)[1]


@pytest.mark.parametrize("field", [F2, F3, F5, F7], ids=["F2", "F3", "F5", "F7"])
def test_factors_irreducible_by_trial_division(field):
    # every reported factor has no monic divisor of degree <= deg/2
    rng = random.Random(field.q)
    for _ in range(60 if field.q <= 3 else 25):
        poly = _random_poly(rng, field, 7)
        if pdeg(poly) < 1:
            continue
        fact = factor(field, poly)
        assert expand(field, fact) == poly
        for g, _m in fact.factors:
            for d in range(1, pdeg(g) // 2 + 1):
                for cand in enumerate_monic(field, d):
                    assert not _divides(field, g, cand), (poly, g, cand)


LINEAR_FIELDS = [F5, ExtField(2, (1, 1, 0, 1)), ExtField(3, (1, 0, 1)), ExtField(3, (2, 0, 0, 2, 1))]


def _elements(field):
    """Every element of F_p or F_q, from its integer coefficients."""
    return [field.from_coeffvec(c) for c in itertools.product(range(field.p), repeat=field.degree)]


@pytest.mark.parametrize("field", LINEAR_FIELDS, ids=["F5", "F8", "F9", "F81"])
def test_factor_of_a_linear_polynomial_matches_the_generic_path(field):
    # what any factorization gives for c0 + c1 y: the unit c1 times the
    # monic irreducible c0 / c1 + y, once
    rng = random.Random(field.q)
    elements = _elements(field)
    for _ in range(40):
        c0, c1 = rng.choice(elements), rng.choice([e for e in elements if e != field.zero])
        fact = factor(field, (c0, c1))
        assert fact.unit == c1
        assert fact.factors == (((field.mul(c0, field.inv(c1)), field.one), 1),)


def test_factor_over_an_extension_takes_degree_at_most_1():
    f4 = ExtField(2, (1, 1, 1))
    assert factor(f4, ((0, 1),)) == gf.Factorization((0, 1), ())
    for f in ((1, 0, 1), ((1, 0), (0, 0), (1, 0)), ((0, 1), (1, 0), (0, 0), (1, 1))):
        with pytest.raises(ValueError):
            factor(f4, f)


@pytest.mark.parametrize("field", LINEAR_FIELDS[1:] + [ExtField(2, (1, 1, 1))],
                         ids=["F8", "F9", "F81", "F4"])
def test_ext_field_inverse(field):
    for a in _elements(field):
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one, a


def test_repeated_factors_of_trinomials_mod_p_are_linear():
    # the premise of factor's narrowing to degree <= 1 over extensions: for
    # every p <= 23 and (a, b) mod p, no factor of degree >= 2 of
    # x^9 + ax + b mod p is repeated, so over a lift of degree >= 2 the
    # polygon has length 1 and its residual is linear.  The factors come
    # from sympy's galoistools, whose algorithms gf does not share.
    nonlinear = repeated = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(p):
            for b in range(p):
                for psi, mult in gf_factor(_to_sympy(trinomial(a, b)), p, ZZ)[1]:
                    assert len(psi) == 2 or mult == 1, (p, a, b, psi, mult)
                    nonlinear += len(psi) > 2
                    repeated += mult > 1
    assert (nonlinear, repeated) == (2632, 100)  # both kinds occur, never together


def test_factor_returns_a_linear_polynomial_without_splitting(monkeypatch):
    def no_split(F, f):
        raise RuntimeError("squarefree splitting reached")

    monkeypatch.setattr(gf, "_squarefree_parts", no_split)
    factor.cache_clear()
    for field in LINEAR_FIELDS:
        f = (field.one, field.one)
        assert factor(field, f).factors == ((f, 1),)
    with pytest.raises(RuntimeError):
        factor(F5, (1, 0, 1))
    factor.cache_clear()


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        ExtField(2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_ext_field_arithmetic():
    f4 = ExtField(2, (1, 1, 1))
    z = (0, 1)
    # z^2 = z + 1, z^3 = 1
    assert f4.mul(z, z) == (1, 1)
    assert f4.mul(f4.mul(z, z), z) == (1, 0)
    assert f4.mul(z, f4.inv(z)) == f4.one


def test_radical():
    # (x)(x+1)^8 over F_2 -> x(x+1) = x^2 + x
    rad = radical(F2, reduce_mod_p(trinomial(1, 2), 2))
    assert rad == (0, 1, 1)
    # (x-1)^9 over F_3 has zero derivative twice over
    rad = radical(F3, reduce_mod_p(trinomial(51, 122), 3))
    assert rad == (2, 1)


def test_gcd_and_irreducibility_consistency():
    rng = random.Random(99)
    for _ in range(200):
        field = random.Random(rng.random()).choice((F2, F3, F5))
        f = _random_poly(rng, field, 6)
        g = _random_poly(rng, field, 6)
        d = pgcd(field, f, g)
        if pdeg(d) >= 0 and f and g:
            assert _divides(field, f, d) and _divides(field, g, d)
        if pdeg(f) >= 1 and pdeg(g) >= 1:
            assert not is_irreducible(field, pmul(field, f, g))


def _fp_case(p):
    poly = st.lists(st.integers(0, p - 1), max_size=17).map(ptrim)  # degree <= 16
    return st.tuples(st.just(p), poly, poly)


def _to_sympy(f):
    return [ZZ(c) for c in reversed(f)]


def _from_sympy(c, p):
    return ptrim(tuple(int(x) % p for x in reversed(c)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 97)).flatmap(_fp_case))
def test_fp_arithmetic_matches_sympy_galoistools(case):
    p, f, g = case
    field = PrimeField(p)
    assert pmul(field, f, g) == _from_sympy(gf_mul(_to_sympy(f), _to_sympy(g), p, ZZ), p)
    assert pgcd(field, f, g) == _from_sympy(gf_gcd(_to_sympy(f), _to_sympy(g), p, ZZ), p)
    if not g:
        for zero in (g, (0, 0)):
            with pytest.raises(ZeroDivisionError):
                pmod(field, f, zero)
        return
    quo, rem = gf_div(_to_sympy(f), _to_sympy(g), p, ZZ)
    assert pdivmod(field, f, g) == (_from_sympy(quo, p), _from_sympy(rem, p))
    assert pdivmod(field, f + (0, 0), g + (0,)) == (_from_sympy(quo, p), _from_sympy(rem, p))
    assert pmod(field, f, g) == _from_sympy(rem, p)
    assert pmod(field, f + (0, 0), g + (0,)) == _from_sympy(rem, p)  # untrimmed


def _gcd_operand(p):
    """Zero, a nonzero constant, or a polynomial of degree <= 12, trailing
    zeros allowed."""
    return st.one_of(
        st.just(()),
        st.integers(1, p - 1).map(lambda c: (c,)),
        st.lists(st.integers(0, p - 1), max_size=13).map(tuple))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 97)).flatmap(
    lambda p: st.tuples(st.just(p), _gcd_operand(p), _gcd_operand(p), _gcd_operand(p))))
def test_pgcd_matches_sympy_on_zero_and_constant_operands(case):
    p, f, g, h = case
    field = PrimeField(p)

    def expected(u, v):
        return _from_sympy(gf_gcd(_to_sympy(ptrim(u)), _to_sympy(ptrim(v)), p, ZZ), p)

    assert pgcd(field, f, g) == expected(f, g)
    assert pgcd(field, g, f) == expected(f, g)
    fh, gh = pmul(field, ptrim(f), ptrim(h)), pmul(field, ptrim(g), ptrim(h))  # a common factor
    assert pgcd(field, fh, gh) == expected(fh, gh)


def _factor_case(p):
    monic = st.lists(st.integers(0, p - 1), min_size=1, max_size=3).map(lambda c: tuple(c) + (1,))
    squarefree = st.lists(st.integers(0, p - 1), min_size=1, max_size=9).map(
        lambda c: tuple(c) + (1,)).filter(lambda f: gf_sqf_p(_to_sympy(f), p, ZZ))
    return st.tuples(st.just(p), st.integers(1, p - 1), squarefree, monic, monic,
                     st.sampled_from(("squarefree", "square", "p-th power")))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)).flatmap(_factor_case))
def test_factor_matches_sympy_with_and_without_repeated_factors(case):
    # a squarefree input takes factor()'s shortcut past the multiplicity
    # loop; g^2 h and g^p (g' != 0, so g^p is a p-th power but g is not) take the loop
    p, unit, sqf, g, h, shape = case
    field = PrimeField(p)
    if shape == "squarefree":
        f = sqf
    elif shape == "square":
        f = pmul(field, pmul(field, g, g), h)
    else:
        assume(gf.pderiv(field, g))
        f = g
        for _ in range(p - 1):
            f = pmul(field, f, g)
    f = tuple(c * unit % p for c in f)
    lead, factors = gf_factor(_to_sympy(f), p, ZZ)
    fact = factor(field, f)
    assert fact.unit == int(lead) % p
    assert fact.factors == tuple(sorted(
        ((_from_sympy(psi, p), k) for psi, k in factors), key=lambda fk: (len(fk[0]), fk[0])))


# ---------------------------------------------------------------------------
# distinct_degree over F_p against the algorithm it replaced


def _reference_distinct_degree(p, f):
    """distinct_degree as it ran before the Frobenius matrix: for each d a
    fresh q-th power of w = x^(p^(d-1)) mod rem by repeated squaring, then
    gcd(w - x, rem); on sympy's galoistools, so it shares no code with gf."""
    out = []
    x = [ZZ(1), ZZ(0)]
    w, d, rem = x, 0, _to_sympy(f)
    while len(rem) - 1 >= 2 * (d + 1):
        d += 1
        w = gf_pow_mod(w, p, rem, p, ZZ)
        g = gf_gcd(gf_sub(w, x, p, ZZ), rem, p, ZZ)
        if len(g) > 1:
            out.append((_from_sympy(g, p), d))
            rem = gf_quo(rem, g, p, ZZ)
            w = gf_rem(w, rem, p, ZZ)
    if len(rem) > 1:
        out.append((_from_sympy(rem, p), len(rem) - 1))
    return out


PRIMES_TO_97 = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def _sparse_monic(p):
    """x^n + c x + e for 2 <= n <= 12: a trinomial, or a binomial when c = 0."""
    return st.tuples(st.integers(2, 12), st.integers(0, p - 1), st.integers(0, p - 1)).map(
        lambda t: (t[2], t[1]) + (0,) * (t[0] - 2) + (1,))


def _squarefree_monic(p):
    coeffs = st.lists(st.integers(0, p - 1), min_size=1, max_size=12)
    dense = coeffs.map(lambda c: tuple(c) + (1,))
    return st.tuples(st.just(p), st.one_of(dense, _sparse_monic(p))).filter(
        lambda case: gf_sqf_p(_to_sympy(case[1]), p, ZZ))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(PRIMES_TO_97).flatmap(_squarefree_monic))
# sparse inputs, with p below deg f (the rows of the Frobenius matrix are
# shifts by p) and at or above it
@example((2, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)))
@example((3, (1, 2) + (0,) * 10 + (1,)))
@example((7, (3,) + (0,) * 8 + (1,)))
@example((11, (3, 5, 0, 0, 0, 0, 0, 0, 0, 1)))
@example((13, (2,) + (0,) * 11 + (1,)))
def test_distinct_degree_matches_reference(case):
    p, f = case
    assert distinct_degree(PrimeField(p), f) == _reference_distinct_degree(p, f)


def _reference_certificate(a, b):
    """irreducibility_certificate as a plain loop: the root search first,
    then one reference distinct-degree pass per usable prime."""
    if b == 0:
        return Certificate.REDUCIBLE, "x divides x^9 + ax"
    root = _smallest_integer_root(a, b)
    if root is not None:
        return Certificate.REDUCIBLE, f"integer root x = {root}"
    for p in (q for q in PRIMES_TO_97 if b % q == 0):
        vb, va = val(p, b), val(p, a) if a else INFINITY
        if 8 * vb < 9 * va and gcd(vb, 9) == 1:
            return Certificate.PROVEN, f"one-sided polygon at p = {p} (slope -{vb}/9)"
    allowed = None
    for p in PRIMES_TO_97:
        if disc(a, b) % p == 0:
            continue
        fbar = reduce_mod_p(trinomial(a, b), p)
        parts = _reference_distinct_degree(p, fbar)
        if parts == [(fbar, 9)]:
            return Certificate.PROVEN, f"irreducible mod {p}"
        sums = {0}
        for part, d in parts:
            for _ in range(pdeg(part) // d):
                sums |= {s + d for s in sums}
        allowed = sums if allowed is None else allowed & sums
        if allowed == {0, 9}:
            return Certificate.PROVEN, "mod-p factor degrees only allow trivial splits"
    return Certificate.UNKNOWN, "no cheap certificate found"


def _reference_degrees(a, b, p):
    fbar = reduce_mod_p(trinomial(a, b), p)
    return [d for part, d in _reference_distinct_degree(p, fbar) for _ in range(pdeg(part) // d)]


def _degree_sum_folds_a_linear_factor(a, b):
    """Whether the reference loop's degree-sum proof on (a, b) folds a
    pattern with a linear factor, walked with the reference passes."""
    allowed, linear = None, False
    for p in PRIMES_TO_97:
        if disc(a, b) % p == 0:
            continue
        degrees = _reference_degrees(a, b, p)
        linear = linear or 1 in degrees
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        allowed = sums if allowed is None else allowed & sums
        if allowed == {0, 9}:
            return linear
    raise AssertionError(f"no degree-sum proof for {(a, b)}")


def _clear_certificate_caches():
    nonic._has_root_mod.cache_clear()
    nonic._factor_degrees.cache_clear()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cached_mod_p_facts_match_a_fresh_computation(p):
    # the certificate's root test and degree pattern at p >= 5 are cached
    # on (p, a mod p, b mod p): the first round over every residue pair
    # fills the caches, the second reads them, and every answer equals one
    # computed afresh, by evaluation and by the reference pass
    _clear_certificate_caches()
    squarefree = [(a, b) for a in range(p) for b in range(p) if disc(a, b) % p]
    for _ in range(2):
        for a, b in itertools.product(range(p), repeat=2):
            assert nonic._has_root_mod(p, a, b) == any(
                (x**9 + a * x + b) % p == 0 for x in range(p)), (p, a, b)
        for a, b in squarefree:
            assert nonic._factor_degrees(p, a, b) == tuple(_reference_degrees(a, b, p)), (p, a, b)
    assert nonic._has_root_mod.cache_info().misses == p * p
    assert nonic._factor_degrees.cache_info().misses == len(squarefree)


def test_congruent_pairs_share_the_certificate_cache_entries():
    # a pair moved by multiples of p^(nu_p + 1) for every p <= 100 keeps its
    # valuations there, so it takes the same path through the certificate,
    # and meets the same (p, a mod p, b mod p) keys: the second certificate
    # adds no entry to either cache
    def step(n):
        return prod(p ** (val(p, n) + 1) for p in _CERT_PRIMES)

    caches = (nonic._has_root_mod, nonic._factor_degrees)
    rng = random.Random(27)
    read = 0
    for _ in range(100):
        a, b = (rng.choice((-1, 1)) * rng.randrange(1, 10**30) for _ in range(2))
        _clear_certificate_caches()
        irreducibility_certificate(a, b)
        filled = [cache.cache_info() for cache in caches]
        irreducibility_certificate(a + rng.randrange(1, 10**9) * step(a),
                                   b - rng.randrange(1, 10**9) * step(b))
        after = [cache.cache_info() for cache in caches]
        assert [info.misses for info in after] == [info.misses for info in filled], (a, b)
        read += sum(info.hits for info in after) > sum(info.hits for info in filled)
    assert read >= 40, read  # the rest are settled before p = 5, with no cache read


def test_certificate_matches_reference_on_seeded_pairs():
    # pairs of 1-45 digits; every fifth one gets an integer root r, and
    # (1, 1), (17, 6) are reducible with no integer root.  The last 300
    # are reducible mod 7 with no root mod 7, so that the root-test gate
    # opens at 7 at the latest, and the primes before it that have a root
    # still have their patterns folded into the degree-sum proof.
    rng = random.Random(2024)
    pairs = [(1, 1), (17, 6)]
    for i in range(2000):
        a, b = (rng.choice((-1, 1)) * rng.randrange(10 ** rng.randrange(1, 46))
                for _ in range(2))
        if i % 5 == 0:
            r = rng.randrange(-99, 100)
            b = -(r**9 + a * r)
        pairs.append((a, b))
    rootless_reducible = [(r, s) for r in range(7) for s in range(7) if disc(r, s) % 7
                          and 1 not in (degrees := _reference_degrees(r, s, 7)) and degrees != [9]]
    for _ in range(300):
        a, b = (rng.choice((-1, 1)) * rng.randrange(10 ** rng.randrange(1, 46))
                for _ in range(2))
        r, s = rng.choice(rootless_reducible)
        pairs.append((a - a % 7 + r, b - b % 7 + s))
    verdicts, folds_linear = set(), 0
    for a, b in pairs:
        expected = _reference_certificate(a, b)
        assert irreducibility_certificate(a, b) == expected, (a, b)  # caches warm
        _clear_certificate_caches()
        assert irreducibility_certificate(a, b) == expected, (a, b)  # caches cold
        verdicts.add(expected[1].split(" = ")[0].split(" mod ")[0])
        if expected[1].startswith("mod-p factor degrees"):
            folds_linear += _degree_sum_folds_a_linear_factor(a, b)
    assert verdicts == {
        "x divides x^9 + ax", "integer root x", "one-sided polygon at p",
        "irreducible", "mod-p factor degrees only allow trivial splits",
        "no cheap certificate found"}, verdicts
    assert folds_linear > 0
