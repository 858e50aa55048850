import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonicindex import gf, polygon
from nonicindex.arith import INFINITY, val
from nonicindex.gf import ztrim
from nonicindex.nonic import critical_lift, critical_shift, disc, engine_split
from nonicindex.polygon import (
    ExactDivisorError,
    NotRegularError,
    Splitting,
    _expansion,
    _power_digits,
    analyze_phi,
    analyze_phi_refined,
    coeff_val,
    dedekind_divides,
    lattice_index,
    ore_analyze,
    phi_expand,
    principal_polygon,
    residual_poly,
    residue_field,
    trinomial,
    zmul,
    zsub,
)


def test_phi_expand_base_x():
    assert phi_expand(trinomial(5, 7), (0, 1)) == [
        (7,), (5,), (), (), (), (), (), (), (), (1,)
    ]


def test_phi_expand_x_minus_1():
    # binomial expansion: constants a+b+1, a+9, 36, 84, 126, 126, 84, 36, 9, 1
    a, b = 10, 3
    exp = phi_expand(trinomial(a, b), (-1, 1))
    assert [c[0] for c in exp] == [a + b + 1, a + 9, 36, 84, 126, 126, 84, 36, 9, 1]


def test_phi_expand_x_plus_1():
    a, b = 10, 3
    exp = phi_expand(trinomial(a, b), (1, 1))
    assert exp[0] == (-a + b - 1,)
    assert exp[1] == (a + 9,)
    assert exp[2] == (-36,)


def test_phi_expand_rejects_non_monic():
    with pytest.raises(ValueError):
        phi_expand(trinomial(1, 1), (1, 2))


def test_phi_expand_reconstruction_random():
    rng = random.Random(13)
    for _ in range(1000):
        f = ztrim([rng.randrange(-50, 51) for _ in range(rng.randrange(1, 10))] + [1])
        phi = ztrim([rng.randrange(-50, 51) for _ in range(rng.randrange(1, 5))] + [1])
        exp = phi_expand(f, phi)
        acc = ()
        power = (1,)
        for c in exp:
            acc = zsub(acc, tuple(-x for x in zmul(c, power)))
            power = zmul(power, phi)
        assert acc == f
        assert all(len(c) - 1 < len(phi) - 1 for c in exp if c)


def _reference_expand(f, phi) -> list:
    """The phi-adic expansion by repeated division: each step divides the
    last quotient by the monic phi, and its remainder is the next digit."""
    out = []
    rem = ztrim(f)
    while rem:
        quo = [0] * max(0, len(rem) - len(phi) + 1)
        rem = list(rem)
        for i in range(len(quo) - 1, -1, -1):
            c = quo[i] = rem[i + len(phi) - 1]
            for j, y in enumerate(phi):
                rem[i + j] -= c * y
        out.append(ztrim(rem[: len(phi) - 1]))
        rem = ztrim(quo)
    return out if out else [()]


COEFFS = st.one_of(st.just(0), st.integers(-(10**45), 10**45))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(COEFFS, min_size=1, max_size=13),
       st.lists(COEFFS, min_size=1, max_size=3).map(lambda c: tuple(c) + (1,)))
def test_phi_expand_matches_repeated_division(f, phi):
    exp = phi_expand(f, phi)
    assert exp == _reference_expand(f, phi)
    acc, power = (), (1,)
    for c in exp:
        acc = zsub(acc, tuple(-x for x in zmul(c, power)))
        power = zmul(power, phi)
    assert acc == ztrim(f)


def test_principal_polygon_examples():
    # (a, b) = (5, 2), p = 2, phi = x - 1: vertices (0,3), (1,1), (8,0)
    an = analyze_phi(trinomial(5, 2), 2, (-1, 1))
    assert an.polygon.vertices == ((0, 3), (1, 1), (8, 0))
    s1, s2 = an.polygon.sides
    assert (s1.h, s1.e, s1.length, s1.degree) == (2, 1, 1, 1)
    assert (s2.h, s2.e, s2.length, s2.degree) == (1, 7, 7, 1)

    # (a, b) = (2, 2), p = 2, phi = x: one side (0,1)->(9,0)
    an = analyze_phi(trinomial(2, 2), 2, (0, 1))
    assert an.polygon.vertices == ((0, 1), (9, 0))
    (s,) = an.polygon.sides
    assert (s.h, s.e, s.degree) == (1, 9, 1)

    # (a, b) = (16, 8), p = 2, phi = x: one side (0,3)->(9,0), e=3, d=3
    an = analyze_phi(trinomial(16, 8), 2, (0, 1))
    assert an.polygon.vertices == ((0, 3), (9, 0))
    (s,) = an.polygon.sides
    assert (s.h, s.e, s.degree) == (1, 3, 3)


def test_polygon_empty_when_phibar_not_a_factor():
    # b odd: x does not divide F mod 2
    an = analyze_phi(trinomial(2, 3), 2, (0, 1))
    assert not an.polygon.sides
    assert an.index == 0


def test_hull_validity_random():
    rng = random.Random(31)
    for _ in range(400):
        pts = sorted(
            {(i, rng.randrange(0, 12)) for i in range(rng.randrange(2, 11))}
        )
        poly = principal_polygon(pts)
        for side in poly.sides:
            for (x, y) in pts:
                if side.x0 <= x <= side.x1:
                    # e*y >= e*height(x), integer arithmetic only
                    assert side.e * y >= side.y0 * side.e - (x - side.x0) * side.h
        for v in poly.vertices:
            assert v in pts


def test_residual_examples():
    # (16, 8), p=2, phi=x: residual y^3 + 1 = (y+1)(y^2+y+1)
    F = trinomial(16, 8)
    exp = phi_expand(F, (0, 1))
    an = analyze_phi(F, 2, (0, 1))
    field = residue_field(2, (0, 1))
    res = residual_poly(exp, an.expansion_vals, field, an.polygon.sides[0])
    assert res == (1, 0, 0, 1)
    fact = gf.factor(field, res)
    assert dict(fact.factors) == {(1, 1): 1, (1, 1, 1): 1}

    # degree-1 side gives a linear (hence irreducible) residual
    an = analyze_phi(trinomial(2, 2), 2, (0, 1))
    assert gf.pdeg(an.sides[0].residual) == 1

    # (a,b) = (18,62) mod 81 with a+b = 80 mod 243: cubic residual y^3+y^2+y+1
    a, b = 18, 62  # a+b = 80, already 80 mod 243
    an = analyze_phi(trinomial(a, b), 3, (-1, 1))
    side_deg3 = [sd for sd in an.sides if sd.side.degree == 3]
    assert side_deg3 and side_deg3[0].residual == (1, 1, 1, 1)


def test_residual_degree_and_endpoints():
    rng = random.Random(47)
    for _ in range(300):
        a, b = rng.randrange(-200, 200), rng.randrange(-200, 200)
        p = rng.choice((2, 3, 5, 7))
        F = trinomial(a, b)
        fbar = gf.reduce_mod_p(F, p)
        field_p = gf.PrimeField(p)
        for phibar, _ in gf.factor(field_p, fbar).factors:
            phi = ztrim(tuple(int(c) for c in phibar))
            try:
                an = analyze_phi(F, p, phi)
            except ValueError:
                continue  # exact divisor: reducible F
            for sd in an.sides:
                assert gf.pdeg(sd.residual) == sd.side.degree
                assert gf.nonzero(sd.residual[0]) and gf.nonzero(sd.residual[-1])


def test_lattice_index_examples():
    # two-point polygon (0, v) -> (2, 0): floor(v/2)
    for v in range(1, 12):
        poly = principal_polygon([(0, v), (2, 0)])
        assert lattice_index(poly) == v // 2
    # Eisenstein polygon: no interior lattice points
    poly = principal_polygon([(0, 1), (9, 0)])
    assert lattice_index(poly) == 0
    # (0,3), (1,1), (8,0): only (1,1) qualifies
    poly = principal_polygon([(0, 3), (1, 1), (8, 0)])
    assert lattice_index(poly) == 1


def naive_analyses(F, p):
    """analyze_phi on the naive lift of each factor of F mod p, unrefined."""
    factors = gf.factor(gf.PrimeField(p), gf.reduce_mod_p(F, p)).factors
    return [analyze_phi(F, p, phibar) for phibar, _ in factors]


def test_is_p_regular_examples():
    assert all(an.regular for an in naive_analyses(trinomial(5, 2), 2))
    assert all(an.regular for an in naive_analyses(trinomial(2, 2), 2))  # Eisenstein
    # (a,b) = (7,8) mod 16 with nu_2(disc) even: the shifted lift x - u has
    # residual (y+1)^2, so the polynomial is not regular for that lift
    a, b = 7 + 16 * 31, 8 + 16 * 27  # (503, 440); nu_2(disc) even
    assert val(2, disc(a, b)) % 2 == 0
    u = critical_shift(a, b, 2, int(val(2, disc(a, b))) + 10)
    analyses = [analyze_phi(trinomial(a, b), 2, phi) for phi in (ztrim((-u, 1)), (0, 1))]
    assert not all(an.regular for an in analyses)
    bad = [sd for an in analyses for sd in an.sides if not sd.squarefree]
    assert bad and dict(bad[0].factorization.factors) == {(1, 1): 2}


def test_ore_split_examples():
    assert ore_analyze(trinomial(5, 2), 2).splitting == Splitting.of([(1, 1), (1, 1), (7, 1)])
    assert ore_analyze(trinomial(2, 2), 2).splitting == Splitting.of([(9, 1)])
    # (a,b) = (0,8) mod 27 with b = -1 mod 3: 3Z_K = p1^3 p2^6
    assert ore_analyze(trinomial(54, 35), 3).splitting == Splitting.of([(3, 1), (6, 1)])


def test_ore_split_inert_primes():
    # F mod p irreducible, and F its own lift (coefficients in [0, p)): the
    # lift phi = F divides F, which the engine once took for a reducible F
    inert = 0
    for p in (2, 3, 5, 7, 11, 13):
        field = gf.PrimeField(p)
        for a in range(p):
            for b in range(p):
                F = trinomial(a, b)
                (_, mult), *rest = gf.factor(field, gf.reduce_mod_p(F, p)).factors
                if rest or mult > 1:
                    continue
                inert += 1
                res = ore_analyze(F, p)
                assert (res.splitting, res.index) == (Splitting.of([(1, 9)]), 0), (a, b, p)
    assert inert == 61


def test_ore_analyze_lift_replaces_the_one_factor():
    # x^9 + 5x + 2 = x (x + 1)^8 mod 2: two factors, so no lift of either
    for lift in ((0, 1), (1, 1)):
        with pytest.raises(ValueError):
            ore_analyze(trinomial(5, 2), 2, lift=lift)
    # x^9 + 126x + 40130 = (x + 2)^9 mod 3, and the lift x is not x + 2 mod 3
    F = trinomial(126, 40130)
    with pytest.raises(ValueError):
        ore_analyze(F, 3, lift=(0, 1))
    res = ore_analyze(F, 3, lift=critical_lift(126, 40130, 3))
    assert res.splitting == engine_split(126, 40130, 3).splitting
    assert [an.phi for an in res.analyses] == [critical_lift(126, 40130, 3)]


def test_ore_analyze_refuses_a_nonlinear_residual_over_an_extension():
    # F = phi^2 + c for phi = x^2 + x + 1, irreducible mod 2, so F = phi^2
    # mod 2: a repeated factor of degree 2, which x^9 + ax + b never has.
    # c = 2 and 8 give a side of degree 1 and a linear residual over F_4;
    # c = 4 gives the side from (0, 2) to (2, 0), whose residual y^2 + 1
    # over F_4 gf.factor does not take
    phi = (1, 1, 1)
    for c, splitting in ((2, Splitting.of([(2, 2)])), (8, Splitting.of([(2, 2)])), (4, None)):
        F = zsub(zmul(phi, phi), (-c,))
        if splitting:
            assert ore_analyze(F, 2).splitting == splitting
        else:
            with pytest.raises(ValueError):
                ore_analyze(F, 2)


@pytest.mark.parametrize("a, b, p, naive, refined, calls", [
    (-252, -235, 3, (2, 1), (2, 1), 2),  # the nudge gains nothing: kept irregular
    (-225, -262, 3, (2, 1), (-13, 1), 3),
    (-297, -280, 2, (1, 1), (-5, 1), 3),
])
def test_refinement_makes_one_analysis_per_step(monkeypatch, a, b, p, naive, refined, calls):
    lifts = []

    def counting(F, p, phi):
        lifts.append(phi)
        return analyze_phi(F, p, phi)

    monkeypatch.setattr(polygon, "analyze_phi", counting)
    analysis = analyze_phi_refined(trinomial(a, b), p, naive)
    assert analysis.phi == refined
    assert analysis.regular == (refined != naive)
    assert len(lifts) == calls


def test_ore_split_not_regular():
    # nu_2(a) = 2, b = 0 mod 8 needs higher-order data
    with pytest.raises(NotRegularError):
        ore_analyze(trinomial(4, 8), 2)


def test_splitting_mass_random():
    rng = random.Random(61)
    n = 0
    while n < 200:
        a, b = rng.randrange(-500, 500), rng.randrange(-500, 500)
        p = rng.choice((2, 3, 5, 7))
        if disc(a, b) == 0:
            continue
        try:
            split = ore_analyze(trinomial(a, b), p).splitting
        except (NotRegularError, ValueError):
            continue
        assert split.mass == 9
        n += 1


def test_dedekind_examples():
    assert dedekind_divides(trinomial(51, 122), 2) is False
    assert dedekind_divides(trinomial(2, 2), 2) is False
    assert dedekind_divides(trinomial(5, 2), 2) is True


def test_dedekind_matches_ore_index_exhaustive():
    # every (a, b) in [0, 81)^2 at p in {2, 3} where F is p-regular with the
    # naive lifts: p | index  iff  the total lattice index is positive
    for p in (2, 3):
        for a in range(81):
            for b in range(81):
                if disc(a, b) == 0:
                    continue
                F = trinomial(a, b)
                try:
                    analyses = naive_analyses(F, p)
                except ValueError:
                    continue  # a factor divides F exactly (reducible)
                if not all(an.regular for an in analyses):
                    continue
                total = sum(an.index for an in analyses)
                assert dedekind_divides(F, p) == (total > 0), (p, a, b)


def test_tame_discriminant_identity():
    # nu_p(disc) = 2 * index + sum (e-1) f  for p-regular, tame splittings
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        n = 0
        while n < 100:
            a, b = rng.randrange(-3000, 3000), rng.randrange(-3000, 3000)
            if disc(a, b) == 0:
                continue
            try:
                res = ore_analyze(trinomial(a, b), p)
            except (NotRegularError, ValueError):
                continue
            if any(e % p == 0 for e, _ in res.splitting.primes):
                continue
            lhs = val(p, disc(a, b))
            rhs = 2 * res.index + sum((e - 1) * f for e, f in res.splitting.primes)
            assert lhs == rhs, (p, a, b)
            n += 1


def _signed(digits: int, n: int, negative: bool) -> int:
    n = 10 ** (digits - 1) + n % (9 * 10 ** (digits - 1))  # exactly `digits` digits
    return -n if negative else n


BIG = st.builds(_signed, st.integers(1, 45), st.integers(0, 10**45), st.booleans())
SCALE = st.one_of(st.just(0), st.integers(1, 9))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(BIG, BIG, st.sampled_from((2, 3, 5, 7)), SCALE, SCALE)
def test_ore_invariants_on_big_pairs(a, b, q, ka, kb):
    # pairs of 1-45 digits, some scaled by powers of q: wherever the engine
    # is regular the splitting has mass 9, and where it is also tame,
    # nu_p(disc) = 2 * index + sum (e-1) f
    a, b = a * q**ka, b * q**kb
    for p in (2, 3, 5, 7):
        try:
            res = ore_analyze(trinomial(a, b), p)
        except (NotRegularError, ValueError):
            continue
        assert res.splitting.mass == 9, (p, a, b)
        if all(e % p for e, _ in res.splitting.primes):
            rhs = 2 * res.index + sum((e - 1) * f for e, f in res.splitting.primes)
            assert val(p, disc(a, b)) == rhs, (p, a, b)


def test_coeff_val():
    assert coeff_val(2, ()) == INFINITY
    assert coeff_val(2, (8, 12)) == 2
    assert coeff_val(3, (5,)) == 0


# entries m * p^k: zero, negative, and of more than 300 digits
ENTRY = st.tuples(
    st.one_of(st.just(0), st.integers(-(10**45), 10**45),
              st.builds(lambda m, s: s * m, st.integers(10**300, 10**320), st.sampled_from((-1, 1)))),
    st.integers(0, 60),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from((2, 3, 5, 7)), st.lists(ENTRY, max_size=6))
def test_coeff_val_matches_the_minimum_valuation(p, entries):
    c = tuple(m * p**k for m, k in entries)
    expected = min((val(p, x) for x in c if x), default=INFINITY)
    got = coeff_val(p, c)
    assert got == expected and type(got) is type(expected), (p, c)


def _brute_lattice_count(vertices) -> int:
    """Points (i, j), i >= 1, j >= 1, on or below the polygon through the
    vertices, over the columns it spans, by testing every j."""
    count = 0
    segments = list(zip(vertices, vertices[1:]))
    for i in range(max(vertices[0][0], 1), vertices[-1][0] + 1) if segments else ():
        (xa, ya), (xb, yb) = next(s for s in segments if s[0][0] <= i <= s[1][0])
        j = 1
        while j * (xb - xa) <= ya * (xb - xa) - (i - xa) * (ya - yb):
            count += 1
            j += 1
    return count


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 14), st.integers(-3, 20), min_size=1, max_size=12))
def test_lattice_index_matches_a_brute_force_count(heights):
    poly = principal_polygon(list(heights.items()))
    assert lattice_index(poly) == _brute_lattice_count(poly.vertices), poly


def _engine_records():
    # two linear lifts, and x^2 + x + 1 mod 2, whose residue field is an ExtField
    records = []
    for a, b, p, phi in ((5, 2, 2, (-1, 1)), (54, 35, 3, (-1, 1)), (2, 1, 2, (1, 1, 1))):
        an = analyze_phi(trinomial(a, b), p, phi)
        records += [an, an.polygon, *an.polygon.sides, *an.sides]
    res = ore_analyze(trinomial(5, 2), 2)
    return records + [res, res.splitting]


def test_engine_records_are_immutable_and_hashable():
    records = _engine_records()
    kinds = {type(r).__name__ for r in records}
    assert kinds == {"Side", "NewtonPolygon", "SideData", "PhiAnalysis", "Splitting", "OreResult"}
    assert any(type(sd.field).__name__ == "ExtField" for sd in records if hasattr(sd, "residual"))
    for record in records:
        hash(record)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_splitting_is_a_dict_key_and_keeps_its_str():
    s = Splitting.of([(7, 1), (1, 1), (1, 1)])
    assert str(s) == "(1,1) (1,1) (7,1)"
    table = {s: "first"}
    assert table[Splitting.of([(1, 1), (7, 1), (1, 1)])] == "first"
    assert Splitting.of([(1, 2), (2, 1)]) not in table
    assert str(Splitting.of([(1, 9)])) == "(1,9)"


def test_residue_fields_match_checked_construction():
    # residue_field trusts gf.factor; every factor of a trinomial mod p
    # (all residues of a, b, which covers |a|, |b| <= 64) passes the check
    for p in (2, 3, 5, 7):
        field = gf.PrimeField(p)
        for a in range(p):
            for b in range(p):
                for phibar, _m in gf.factor(field, gf.reduce_mod_p(trinomial(a, b), p)).factors:
                    if gf.pdeg(phibar) >= 2:
                        assert gf.ExtField(p, phibar) == residue_field(p, phibar)


def _full_expansion(F, p, phi):
    exp = phi_expand(F, phi)
    return tuple(exp), tuple(coeff_val(p, c) for c in exp)


def _lifts(a, b, p):
    """Naive lifts of every factor of F mod p, their refinements, and the
    critical-shift lift x - u when it is p-integral."""
    F = trinomial(a, b)
    lifts = []
    for phibar, _m in gf.factor(gf.PrimeField(p), gf.reduce_mod_p(F, p)).factors:
        lifts.append(phibar)
        try:
            lifts.append(analyze_phi_refined(F, p, phibar).phi)
        except ExactDivisorError:
            pass
    d = disc(a, b)
    if d:
        try:
            lifts.append(ztrim((-critical_shift(a, b, p, val(p, d) + 10), 1)))
        except ValueError:
            pass
    return lifts


HUGE = st.one_of(
    st.integers(-(10**45), 10**45),
    st.builds(_signed, st.integers(309, 420), st.integers(0, 10**420), st.booleans()),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(HUGE, HUGE, st.sampled_from((2, 3, 5, 7)), SCALE, SCALE,
       st.lists(st.integers(-50, 50), min_size=9, max_size=9))
def test_cached_expansion_matches_phi_expand(a, b, p, ka, kb, low):
    # the digits of x^9 come from the cache and ax + b is added; naive,
    # refined and shifted lifts, a degree-9 lift other than F, and an F
    # that is no trinomial (which must not touch the x^n cache) all give
    # phi_expand's digits and coeff_val's valuations
    a, b = a * p**ka, b * p**kb
    F = trinomial(a, b)
    lifts = _lifts(a, b, p)
    for phi in lifts + [tuple(low) + (1,)]:
        assert _expansion(F, p, phi) == _full_expansion(F, p, phi), (a, b, p, phi)
    k = 2 + low[1] % 7  # a term x^k, 2 <= k <= 8, makes F no trinomial
    G = F[:k] + (low[0] or 1,) + F[k + 1:]
    before = _power_digits.cache_info()
    for phi in lifts:
        assert _expansion(G, p, phi) == _full_expansion(G, p, phi)
    after = _power_digits.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
