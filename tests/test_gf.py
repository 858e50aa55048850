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
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_quo,
    gf_rem,
    gf_sqf_list,
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
    _CERT_PRODUCT,
    Certificate,
    disc,
    irreducibility_certificate,
)
from nonicindex.polygon import Splitting, trinomial
from reference import (
    TableWatch,
    clear_table,
    expand,
    filled_slots,
    smallest_integer_root,
    usable_primes,
)

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
                     st.sampled_from(("squarefree", "square", "p-th power", "p+1 and square")))


def _power(field, g, k):
    f = (1,)
    for _ in range(k):
        f = pmul(field, f, g)
    return f


def _sorted_factors(factors, p):
    return tuple(sorted(((_from_sympy(g, p), k) for g, k in factors),
                        key=lambda gk: (len(gk[0]), gk[0])))


def _check_squarefree_parts(field, f):
    """_squarefree_parts of monic f against its definition and sympy's
    gf_sqf_list."""
    p = field.p
    parts = gf._squarefree_parts(field, f)
    assert all(pdeg(g) > 0 and gf_sqf_p(_to_sympy(g), p, ZZ) for g, _ in parts)
    assert all(pgcd(field, g, h) == (1,) for (g, _), (h, _) in itertools.combinations(parts, 2))
    product = (1,)
    for g, m in parts:
        product = pmul(field, product, _power(field, g, m))
    assert product == f
    assert sorted(parts) == sorted(_sorted_factors(gf_sqf_list(_to_sympy(f), p, ZZ)[1], p))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)).flatmap(_factor_case))
def test_factor_matches_sympy_with_and_without_repeated_factors(case):
    # every shape goes through the one squarefree decomposition: a squarefree
    # input is one part of multiplicity 1; g^2 h, g^p (g' != 0, so g^p is a
    # p-th power but g is not) and g^(p+1) h^2 (a multiplicity prime to p
    # beside a p-th power) give parts of higher multiplicity
    p, unit, sqf, g, h, shape = case
    field = PrimeField(p)
    if shape == "squarefree":
        f = sqf
    elif shape == "square":
        f = pmul(field, pmul(field, g, g), h)
    elif shape == "p-th power":
        assume(gf.pderiv(field, g))
        f = _power(field, g, p)
    else:
        f = pmul(field, _power(field, g, p + 1), _power(field, h, 2))
    _check_squarefree_parts(field, f)
    f = tuple(c * unit % p for c in f)
    lead, factors = gf_factor(_to_sympy(f), p, ZZ)
    fact = factor(field, f)
    assert fact.unit == int(lead) % p
    assert fact.factors == _sorted_factors(factors, p)


@pytest.mark.parametrize("p, top", [(2, 8), (3, 5)])
def test_factor_radical_and_irreducibility_match_sympy_on_every_small_monic(p, top):
    # every monic polynomial of degree 0-8 over F_2 and 0-5 over F_3
    field = PrimeField(p)
    for n in range(top + 1):
        for f in enumerate_monic(field, n):
            g = _to_sympy(f)
            _check_squarefree_parts(field, f)
            assert factor(field, f).factors == _sorted_factors(gf_factor(g, p, ZZ)[1], p), f
            rad = (1,)
            for psi, _ in gf_sqf_list(g, p, ZZ)[1]:
                rad = pmul(field, rad, _from_sympy(psi, p))
            assert radical(field, f) == rad, f
            assert is_irreducible(field, f) == (n > 0 and gf_irreducible_p(g, p, ZZ)), f


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


def _divides_over_z(F, g):
    """Whether monic g divides F in Z[x], by plain long division."""
    rem = list(F)
    for i in range(len(F) - len(g), -1, -1):
        q = rem[i + len(g) - 1]
        for j, c in enumerate(g):
            rem[i + j] -= q * c
    return not any(rem)


def _reference_certificate(a, b):
    """irreducibility_certificate as a plain loop: the root search first,
    then one reference distinct-degree pass per usable prime, and last, at
    2 and 3 when usable, a division of F by each naive lift of a factor of
    F mod p (sympy's, coefficients in [0, p)) of degree below 9."""
    if b == 0:
        return Certificate.REDUCIBLE, "x divides x^9 + ax"
    root = smallest_integer_root(a, b)
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
    F = trinomial(a, b)
    for p in (2, 3):
        if disc(a, b) % p == 0:
            continue
        for g, _ in gf_factor(_to_sympy(reduce_mod_p(F, p)), p, ZZ)[1]:
            if len(g) - 1 < 9 and _divides_over_z(F, _from_sympy(g, p)):
                return Certificate.REDUCIBLE, "phi divides F exactly; F is reducible"
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


# integers of 1-5,000 digits, either sign
DIGITS_1_5000 = st.integers(1, 5000).flatmap(lambda d: st.integers(-(10**d) + 1, 10**d - 1))


@settings(max_examples=200, deadline=None)
@given(DIGITS_1_5000, DIGITS_1_5000)
@example(-9, 8)  # disc(a, b) = 0: no prime is usable
@example(0, 1)
@example(1, 0)
@example(_CERT_PRODUCT, -_CERT_PRODUCT)
@example(2**24 * 3**18, 1)
def test_usable_primes_from_residues_match_the_discriminant(a, b):
    # the certificate reads (a, b) mod _CERT_PRODUCT only: the usable primes
    # it takes from those residues are the primes <= 100 that do not divide
    # disc(a, b), each keyed on (p, a mod p, b mod p)
    assert _CERT_PRODUCT == prod(_CERT_PRIMES)
    keys = usable_primes(a % _CERT_PRODUCT, b % _CERT_PRODUCT)
    assert [p for p, _, _ in keys] == [p for p in _CERT_PRIMES if disc(a, b) % p], (a, b)
    assert keys == [(p, a % p, b % p) for p, _, _ in keys]


# integers of 1-2,000 digits, either sign, and roots of up to 200 digits
DIGITS_1_2000 = st.integers(1, 2000).flatmap(lambda d: st.integers(-(10**d) + 1, 10**d - 1))
ROOTS = st.integers(0, 200).flatmap(lambda d: st.integers(-(10**d), 10**d))


@settings(max_examples=200, deadline=None)
@given(DIGITS_1_2000, DIGITS_1_2000, st.one_of(st.none(), ROOTS))
@example(-9, 8, None)  # disc(a, b) = 0: the double root s = 1
@example(-9, -8, None)
@example(-9 * 2**8, 8 * 2**9, None)
@example(-9 * 7**8, -8 * 7**9, None)
@example(_CERT_PRODUCT, -(_CERT_PRODUCT**9 + _CERT_PRODUCT**2), None)  # no p <= 97 is usable
@example(0, -(2**9), None)
@example(0, 27, None)
def test_lifted_root_search_matches_the_bisection(a, b, r):
    # the root search lifts the roots mod the first usable prime, or mod one
    # past 97 when there is none; on pairs with and without a planted root r
    # it finds the smallest integer root that bisection finds
    if r is not None:
        b = -(r**9 + a * r)
    assume(b != 0)
    first = next(iter(usable_primes(a % _CERT_PRODUCT, b % _CERT_PRODUCT)), None)
    assert nonic._smallest_integer_root(a, b, first) == smallest_integer_root(a, b), (a, b)


def _partitions(n, largest=None):
    """Every partition of n, each as a tuple in ascending order."""
    if n == 0:
        yield ()
        return
    for d in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - d, d):
            yield rest + (d,)


def test_subset_sum_masks_match_the_set_fold():
    # the degree-sum proof folds the bitmask that each pattern's record
    # carries: after every slot of the rows up to 31 is read, _PATTERNS
    # holds at least 24 of the 30 partitions of 9, and each record is its
    # pattern with the mask of the set its subset sums fold to
    for p in _CERT_PRIMES[:11]:
        for a in range(p):
            for b in range(p):
                nonic._factor_degrees(p, a, b)
    patterns = set(_partitions(9))
    assert len(patterns) == 30
    assert 24 <= len(nonic._PATTERNS) and set(nonic._PATTERNS) <= patterns
    for degrees, (record, mask) in nonic._PATTERNS.items():
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        assert record is degrees and mask == sum(1 << s for s in sums), degrees


def test_slots_of_one_pattern_share_one_record():
    # a full table stays about 0.5 MB because each slot refers to its
    # pattern's one record, not to a tuple of its own: after a read of
    # every slot of every row, the slots with equal degrees hold the same
    # record object, the one _PATTERNS keeps, and 28 patterns occur
    for p in _CERT_PRIMES:
        for a in range(p):
            for b in range(p):
                nonic._factor_degrees(p, a, b)
    records = {}
    for p, row in nonic._ROWS.items():
        for slot in row:
            if slot:
                assert records.setdefault(slot[0], slot) is slot, (p, slot)
                assert nonic._PATTERNS[slot[0]] is slot, (p, slot)
    assert len(records) == len(nonic._PATTERNS) == 28


@pytest.mark.parametrize("p, rule", [(2, "2:unit-b"), (3, "3:unit-a")])
def test_cached_dedekind_entry_matches_a_fresh_entry(p, rule):
    # the unit branches return one of the entries built at import: one per
    # (p, a mod p, b mod p) with p not dividing disc(a, b), 2 at p = 2 (b
    # odd) and 6 at p = 3 (3 not dividing a), each equal to one built
    # afresh by _entry from gf.factor's degrees of F mod p, and nu2 or nu3
    # returns that same frozen object
    nu = nonic.nu2 if p == 2 else nonic.nu3
    keys = sorted(key for key in nonic._UNRAMIFIED if key[0] == p)
    assert keys == [(p, a, b) for a in range(p) for b in range(p) if disc(a, b) % p]
    assert len(keys) == {2: 2, 3: 6}[p]
    for key in keys:
        _, a, b = key
        degrees = sorted(pdeg(psi) for psi, _ in
                         factor(PrimeField(p), reduce_mod_p(trinomial(a, b), p)).factors)
        fresh = nonic._entry(p, Splitting.of((1, d) for d in degrees), rule)
        assert nonic._UNRAMIFIED[key] == fresh, key
        assert nu(a, b + p) is nonic._UNRAMIFIED[key], key
    assert len(nonic._UNRAMIFIED) == 8


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cached_mod_p_facts_match_a_fresh_computation(monkeypatch, p):
    # the certificate's degree pattern sits in row p of the mod-p table, at
    # the slot of (a mod p, b mod p), with its subset sums, and at 2 and 3
    # nu2's and nu3's entries are built from the same slots: the first
    # round over every squarefree residue pair fills the slots, the second
    # reads them, and every pattern equals one computed afresh, by the
    # reference pass and by gf.factor's degrees, and the record's mask is
    # the set of its subset sums.  The pattern's root test, a 1 among the
    # degrees, matches evaluation.  The slot of every other pair says that
    # p divides the discriminant
    squarefree = [(a, b) for a in range(p) for b in range(p) if disc(a, b) % p]
    factored = {(a, b): factor(PrimeField(p), reduce_mod_p(trinomial(a, b), p)).factors
                for a, b in squarefree}  # before the watch: gf.factor runs passes too
    watch = TableWatch(monkeypatch)
    for _ in range(2):
        for a, b in squarefree:
            degrees, sums = nonic._factor_degrees(p, a, b)
            assert degrees == tuple(_reference_degrees(a, b, p)), (p, a, b)
            subsets = (c for k in range(len(degrees) + 1)
                       for c in itertools.combinations(degrees, k))
            assert sums == sum(1 << s for s in {sum(c) for c in subsets}), (p, a, b)
            assert degrees == tuple(sorted(pdeg(psi) for psi, _ in factored[a, b])), (p, a, b)
            assert (1 in degrees) == (degrees[0] == 1) == any(
                (x**9 + a * x + b) % p == 0 for x in range(p)), (p, a, b)
    assert filled_slots() == watch.passes == len(squarefree)
    assert all(nonic._factor_degrees(p, a, b) is False
               for a in range(p) for b in range(p) if disc(a, b) % p == 0)
    assert (filled_slots(), watch.passes) == (p * p, len(squarefree))


def test_congruent_pairs_share_the_certificate_cache_entries(monkeypatch):
    # a pair moved by multiples of p^(nu_p + 1) for every p <= 100 keeps its
    # valuations there, so it takes the same path through the certificate,
    # and meets the same slots of the mod-p table: the second certificate
    # fills no slot and runs no distinct-degree pass
    def step(n):
        return prod(p ** (val(p, n) + 1) for p in _CERT_PRIMES)

    watch = TableWatch(monkeypatch)
    rng = random.Random(27)
    read = 0
    for _ in range(100):
        a, b = (rng.choice((-1, 1)) * rng.randrange(1, 10**30) for _ in range(2))
        watch.clear()
        irreducibility_certificate(a, b)
        filled, passes, reads = filled_slots(), watch.passes, watch.reads
        irreducibility_certificate(a + rng.randrange(1, 10**9) * step(a),
                                   b - rng.randrange(1, 10**9) * step(b))
        assert (filled_slots(), watch.passes) == (filled, passes), (a, b)
        read += watch.reads > reads
    assert read >= 40, read  # the rest are proven by the polygon, before any table read


def test_a_second_pass_over_planted_root_pairs_runs_no_distinct_degree_pass(monkeypatch):
    # F with an integer root has a root mod every p, so its certificate
    # reads all 25 patterns; 600 such pairs of 3-45 digits need more than
    # 9,000 slots, and the table, which never evicts, keeps them all
    rng = random.Random(33)
    pairs = []
    for _ in range(600):
        digits = rng.randrange(3, 46)
        a = rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
        r = rng.choice((-1, 1)) * rng.randrange(1, 100)
        pairs.append((a, -(r**9 + a * r)))
    watch = TableWatch(monkeypatch)
    first = [irreducibility_certificate(a, b) for a, b in pairs]
    passes = watch.passes
    assert passes > 4096, passes
    assert [irreducibility_certificate(a, b) for a, b in pairs] == first
    assert watch.passes == passes


def test_certificate_matches_reference_on_seeded_pairs():
    # pairs of 1-45 digits; every fifth one gets an integer root r.  (1, 1)
    # is irreducible mod 2; (17, 6) and (17, -6) are reducible with no
    # integer root, and a naive lift of a factor of F mod 3 divides the
    # first but not the second, which stays unknown.  The last 300
    # are reducible mod 7 with no root mod 7, so that a pattern without a
    # 1 rules out the root search at 7 at the latest, and the primes before
    # it that have a root still have their patterns folded into the
    # degree-sum proof.
    rng = random.Random(2024)
    pairs = [(1, 1), (17, 6), (17, -6)]
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
    # past the float range: 20 pairs of 310-2,000 digits and four of 5,000,
    # every fourth one with an integer root
    wide = random.Random(30)
    for i, digits in enumerate([wide.randrange(310, 2001) for _ in range(20)] + [5000] * 4):
        a, b = (wide.choice((-1, 1)) * wide.randrange(10 ** (digits - 1), 10**digits)
                for _ in range(2))
        if i % 4 == 0:
            r = wide.randrange(-99, 100)
            b = -(r**9 + a * r)
        pairs.append((a, b))
    verdicts, folds_linear = set(), 0
    for a, b in pairs:
        expected = _reference_certificate(a, b)
        assert irreducibility_certificate(a, b) == expected, (a, b)  # caches warm
        clear_table()
        assert irreducibility_certificate(a, b) == expected, (a, b)  # caches cold
        verdicts.add(expected[1].split(" = ")[0].split(" mod ")[0])
        if expected[1].startswith("mod-p factor degrees"):
            folds_linear += _degree_sum_folds_a_linear_factor(a, b)
    assert verdicts == {
        "x divides x^9 + ax", "integer root x", "one-sided polygon at p",
        "irreducible", "mod-p factor degrees only allow trivial splits",
        "phi divides F exactly; F is reducible", "no cheap certificate found"}, verdicts
    assert folds_linear > 0


# integers of 1-45 digits, either sign, times a product of up to eight
# primes <= 97, with repeats: pairs where many small primes divide b, and a
SMOOTH_1_45 = st.builds(
    lambda n, primes: n * prod(primes),
    st.integers(1, 45).flatmap(lambda d: st.integers(-(10**d) + 1, 10**d - 1)),
    st.lists(st.sampled_from(_CERT_PRIMES), max_size=8))


@settings(max_examples=150, deadline=None)
@given(SMOOTH_1_45, SMOOTH_1_45)
@example(1, _CERT_PRODUCT)  # all 25 primes divide b, none divides a
@example(_CERT_PRODUCT, -_CERT_PRODUCT)  # all 25 divide a and b: polygon at 2
@example(_CERT_PRODUCT**2, _CERT_PRODUCT**3)  # all 25 divide both, and no slope proves
@example(10**40 + 7, 1)  # no prime divides b
@example(-6, -1)
@example(0, 1)
@example(0, 2 * 3 * 5)  # a = 0, 2 exactly divides b: polygon at 2
@example(0, 2**3 * 3**3 * 97)  # a = 0: the slopes -3/9 at 2 and 3 fail, 97 proves
@example(2**2 * 5, 2**3 * 5)  # 2 fails (8 * 3 >= 9 * 2), 5 proves
@example(3 * 97, 3**3 * 7 * 97)  # 3 fails, 7 does not divide a, 97 proves
def test_polygon_scan_matches_the_reference_certificate(a, b):
    # the one-sided-polygon scan visits only the primes <= 97 dividing a
    # and b, by one gcd, in order; the verdict and detail are the plain
    # loop's, which tests every prime <= 97 dividing b
    assert irreducibility_certificate(a, b) == _reference_certificate(a, b), (a, b)
