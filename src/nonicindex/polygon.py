"""First-order Newton polygon machinery for prime ideal splitting.

Given a monic F in Z[x] and a prime p, each monic lift phi of an
irreducible factor of F mod p carries: the phi-adic expansion of F, the
principal polygon (negative-slope lower hull of the coefficient
valuations), residual polynomials over the residue field F_p[x]/(phi mod p),
and a lattice-point index count.  When every residual polynomial is
squarefree the polygon data determines the splitting of p exactly; when a
repeated linear residual root sits on a denominator-1 side, the lift can be
nudged (phi -> phi - p^h * root) and reanalyzed, which resolves every
first-order case the classifier needs.  Anything else raises NotRegular.

Integer polynomials are tuples of ints, lowest degree first.  The records
(Side, NewtonPolygon, SideData, PhiAnalysis, Splitting, OreResult) are
NamedTuples: immutable and hashable, and cheap to build once per lift.

Two bounded caches hold what a lift determines apart from F.  The
phi-adic expansion is linear in F, so for F = x^n + ax + b the digits of
x^n and their valuations, keyed on (n, phi, p), serve every a and b, and
ax + b changes only digit 0, or digits 0 and 1 when phi = x - s.  The
principal polygon and its lattice count depend only on the valuations,
and are keyed on that tuple.  Neither is keyed on F, a or b: such a
cache would save work only when the same trinomial comes again, as in a
seeded sweep run twice, and none on new inputs.  The cached values are
tuples and NamedTuples, never edited.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import gf
from .arith import INFINITY
from .gf import pdeg, ztrim


# ---------------------------------------------------------------------------
# integer polynomials


def zsub(f, g) -> tuple:
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, e in enumerate(g):
        out[i] -= e
    return ztrim(out)


def zmul(f, g) -> tuple:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return ztrim(out)


def zeval(f, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def trinomial(a: int, b: int) -> tuple:
    """x^9 + a*x + b as a coefficient tuple."""
    return (b, a, 0, 0, 0, 0, 0, 0, 0, 1)


def phi_expand(f, phi) -> list:
    """Coefficients a_0..a_l of the phi-adic expansion of f.

    Each a_i is an integer polynomial of degree < deg(phi), and
    sum a_i * phi^i reconstructs f exactly.  The divisions by phi run in
    place in one list: each leaves its remainder, the next digit, in the
    m = deg(phi) lowest places of what it divided, and its quotient, the
    next dividend, above them.  A linear phi = x - s takes the Taylor
    shift f(x + s) instead, by Horner's rule (von zur Gathen and Gerhard,
    ISSAC 1997).
    """
    if not phi or phi[-1] != 1 or pdeg(phi) < 1:
        raise ValueError("phi must be monic of degree >= 1")
    rem = list(ztrim(f))
    n = len(rem)
    if not n:
        return [()]
    m = pdeg(phi)
    if m == 1:
        s = -phi[0]
        if s:
            for i in range(n - 1):
                for j in range(n - 2, i - 1, -1):
                    rem[j] += s * rem[j + 1]
        return [(c,) if c else () for c in rem]
    terms = [(j, c) for j, c in enumerate(phi[:m]) if c]
    out = []
    for lo in range(0, n, m):
        for i in range(n - 1, lo + m - 1, -1):
            c = rem[i]
            if c:
                for j, y in terms:
                    rem[i - m + j] -= c * y
        out.append(ztrim(rem[lo : lo + m]))
    return out


def coeff_val(p: int, c) -> int | float:
    """min over coefficients of nu_p; INFINITY for the zero polynomial.

    p is prime, the engine's own.  Each nonzero coefficient is divided by p
    only while it may still lower the minimum.
    """
    best = INFINITY
    for x in c:
        if x:
            k = 0
            while k < best and not x % p:
                x //= p
                k += 1
            best = k
            if not k:
                break
    return best


@lru_cache(maxsize=256)
def _power_digits(n: int, phi: tuple, p: int) -> tuple:
    """(digits, valuations) of the phi-adic expansion of x^n, as tuples."""
    digits = tuple(phi_expand((0,) * n + (1,), phi))
    return digits, tuple(coeff_val(p, c) for c in digits)


def _expansion(F, p: int, phi: tuple) -> tuple:
    """(digits, valuations) of phi_expand(F, phi), as tuples.

    For F = x^n + ax + b with n >= 2 they are x^n's, from _power_digits,
    with ax + b added: to digit 0 when deg phi >= 2, and as
    a*(x - s) + (b + a*s) to digits 1 and 0 when phi = x - s.  Only the
    digits that change have their valuations taken again.  Any other F is
    expanded in full.
    """
    n = len(F) - 1
    if n < 2 or F[n] != 1 or any(F[2:n]):
        exp = tuple(phi_expand(F, phi))
        return exp, tuple(coeff_val(p, c) for c in exp)
    b, a = F[0], F[1]
    digits, vals = _power_digits(n, phi, p)
    if len(phi) == 2:
        c0 = (digits[0] or (0,))[0] + b - a * phi[0]
        c1 = (digits[1] or (0,))[0] + a
        low = ((c0,) if c0 else (), (c1,) if c1 else ())
    else:
        d0 = list(digits[0]) + [0] * (2 - len(digits[0]))
        d0[0] += b
        d0[1] += a
        low = (ztrim(d0),)
    k = len(low)
    return low + digits[k:], tuple(coeff_val(p, c) for c in low) + vals[k:]


# ---------------------------------------------------------------------------
# principal polygon


class Side(NamedTuple):
    """One segment of slope -h/e (gcd(h,e)=1), length l, degree d = l/e."""

    x0: int
    y0: int
    x1: int
    y1: int
    h: int
    e: int
    length: int
    degree: int


class NewtonPolygon(NamedTuple):
    vertices: tuple
    sides: tuple


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def principal_polygon(points) -> NewtonPolygon:
    """Negative-slope part of the lower convex hull of the given points.

    Collinear points merge into one side; the vertex list has no interior
    points.  Points at infinite valuation must be filtered out by the
    caller (zero coefficients never become hull candidates).
    """
    hull = _lower_hull(sorted(points))
    vertices = []
    sides = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if y1 >= y0:
            break
        dy, dx = y0 - y1, x1 - x0
        g = gcd(dy, dx)
        sides.append(
            Side(x0, y0, x1, y1, h=dy // g, e=dx // g, length=dx, degree=g)
        )
        if not vertices:
            vertices.append((x0, y0))
        vertices.append((x1, y1))
    return NewtonPolygon(vertices=tuple(vertices), sides=tuple(sides))


def lattice_index(polygon: NewtonPolygon) -> int:
    """Lattice points (i, j) with i >= 1, j >= 1 on or below the polygon."""
    total = 0
    for x0, y0, x1, _y1, h, e, _length, _degree in polygon.sides:
        # the columns x0 < i <= x1, i >= 1 (column x0 belongs to the side
        # before); num is e times the height at i, falling by h per column
        start = max(x0, 0) + 1
        num = y0 * e - (start - x0) * h
        for _ in range(start, x1 + 1):
            if num < 0:
                break
            total += num // e
            num -= h
    # leftmost column of the first side, if it is at x >= 1
    if polygon.sides and polygon.sides[0].x0 >= 1:
        total += max(0, polygon.sides[0].y0)
    return total


@lru_cache(maxsize=1024)
def _polygon_and_count(vals: tuple) -> tuple:
    """(principal polygon, lattice count) of an expansion's valuations."""
    polygon = principal_polygon([(i, v) for i, v in enumerate(vals) if v != INFINITY])
    return polygon, lattice_index(polygon)


# ---------------------------------------------------------------------------
# residual polynomials and per-phi analysis


def residue_field(p: int, phibar):
    """F_p[x]/(phibar): F_p itself for linear phibar.

    phibar is irreducible, being a factor that gf.factor returned (see
    analyze_phi), so the field is built without testing that again.
    """
    if pdeg(phibar) == 1:
        return gf.PrimeField(p)
    return gf.ExtField(p, phibar, _irreducible=True)


def residual_poly(expansion, vals, field, side: Side) -> tuple:
    """Residual polynomial of the side: t_d y^d + ... + t_0 over field = F_phi.

    vals are the p-adic valuations of the expansion's coefficients.  t_j is
    the residue of a_{x0+je} / p^(y0-jh) when the lattice point (x0+je, v)
    lies on the side, and 0 when it lies strictly above.
    """
    p = field.p
    coeffs = []
    for j in range(side.degree + 1):
        i = side.x0 + j * side.e
        target = side.y0 - j * side.h
        if vals[i] == target:
            q = p**target
            coeffs.append(field.from_coeffvec([x // q for x in expansion[i]]))
        elif vals[i] > target:
            coeffs.append(field.zero)
        else:  # pragma: no cover - would mean the side is not on the hull
            raise AssertionError("expansion point below its own side")
    if not gf.nonzero(coeffs[0]) or not gf.nonzero(coeffs[-1]):
        raise AssertionError("residual endpoints must be nonzero")
    return tuple(coeffs)


class SideData(NamedTuple):
    side: Side
    field: object
    residual: tuple
    factorization: gf.Factorization

    @property
    def squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factorization.factors)


class PhiAnalysis(NamedTuple):
    phi: tuple
    p: int
    expansion_vals: tuple
    polygon: NewtonPolygon
    sides: tuple  # SideData per polygon side
    index: int  # deg(phi) * lattice count
    regular: bool  # every side's residual polynomial is squarefree


class ExactDivisorError(ValueError):
    """A lift phi divides F exactly, so F is reducible."""


def analyze_phi(F, p: int, phi) -> PhiAnalysis:
    """Expansion, principal polygon, residuals and index for one lift phi.

    phi must reduce mod p to an irreducible polynomial, such as a factor
    that gf.factor returned: its residue field is built once, on that trust.

    Over a phi of degree >= 2 each residual polynomial must be linear, since
    gf.factor factors nothing longer over an extension field.  For
    F = x^9 + ax + b it always is: a repeated factor of F mod p divides
    9F - xF' = 8ax + 9b, which is linear for p >= 5 (or F = x^9); at p = 2
    it is b, so F mod 2 is squarefree for odd b and x(x + 1)^8 or x^9 for
    even b; at p = 3 it is -ax, so the repeated factor is x, or
    F = (x + b)^9 mod 3 when 3 | a.  A factor of degree >= 2 is therefore
    simple, and its polygon is one side of length 1.
    """
    phi = tuple(phi)
    exp, vals = _expansion(F, p, phi)
    if vals[0] == INFINITY:
        raise ExactDivisorError("phi divides F exactly; F is reducible")
    polygon, count = _polygon_and_count(vals)
    field = residue_field(p, gf.reduce_mod_p(phi, p))
    sides = []
    for side in polygon.sides:
        res = residual_poly(exp, vals, field, side)
        sides.append(
            SideData(side=side, field=field, residual=res,
                     factorization=gf.factor(field, res))
        )
    return PhiAnalysis(
        phi=phi,
        p=p,
        expansion_vals=vals,
        polygon=polygon,
        sides=tuple(sides),
        index=pdeg(phi) * count,
        regular=all(sd.squarefree for sd in sides),
    )


class NotRegularError(Exception):
    """First-order data is not enough: some residual stays non-squarefree."""

    def __init__(self, p, analyses):
        self.p = p
        self.analyses = analyses
        bad = [
            f"phi={a.phi}"
            for a in analyses
            if not a.regular
        ]
        super().__init__(f"polynomial is not {p}-regular ({'; '.join(bad)})")


def _refinement_step(analysis: PhiAnalysis):
    """(h, root) for a repeated linear residual root on an e=1 side, else None;
    root as the integer coefficients of its residue-field element."""
    for sd in analysis.sides:
        if sd.side.e != 1 or sd.squarefree:
            continue
        for psi, mult in sd.factorization.factors:
            if mult >= 2 and pdeg(psi) == 1:
                return sd.side.h, sd.field.to_coeffvec(sd.field.neg(psi[0]))
    return None


_REFINE_STEPS = 256  # a defensive cap on the refinement steps of one lift


def analyze_phi_refined(F, p: int, phi) -> PhiAnalysis:
    """analyze_phi, nudging phi while a repeated linear root allows it.

    Each step replaces phi by phi - p^h * root, the first-order step of
    Montes' algorithm, and is kept only when it strictly increases the
    valuation of the expansion's constant term, so the loop terminates
    for squarefree F.  Returns the last (possibly irregular) analysis
    when no step applies or a step gains nothing.
    """
    analysis = analyze_phi(F, p, phi)
    for _ in range(_REFINE_STEPS):
        if analysis.regular:
            return analysis
        step = _refinement_step(analysis)
        if step is None:
            return analysis
        h, root = step
        trial = analyze_phi(F, p, zsub(analysis.phi, tuple(c * p**h for c in root)))
        if trial.expansion_vals[0] <= analysis.expansion_vals[0]:
            return analysis
        analysis = trial
    return analysis  # pragma: no cover - defensive cap


# ---------------------------------------------------------------------------
# splitting types and Ore's theorem


class Splitting(NamedTuple):
    """Multiset of (ramification index e, residue degree f) pairs."""

    primes: tuple

    @staticmethod
    def of(pairs) -> "Splitting":
        return Splitting(primes=tuple(sorted(pairs, key=lambda ef: (ef[1], ef[0]))))

    @property
    def mass(self) -> int:
        return sum(e * f for e, f in self.primes)

    def residue_counts(self) -> dict:
        counts: dict = {}
        for _, f in self.primes:
            counts[f] = counts.get(f, 0) + 1
        return counts

    def __str__(self):
        return " ".join(f"({e},{f})" for e, f in self.primes)


class OreResult(NamedTuple):
    splitting: Splitting
    index: int  # sum over lifts of the lattice index
    analyses: tuple


def ore_analyze(F, p: int, lift=None) -> OreResult:
    """Splitting of p and the Ore index, via one analyzed lift per factor.

    When F mod p is irreducible and F is its own lift (its coefficients lie
    in [0, p)), p is inert: the splitting is (1, deg F), the index 0, and
    there is no analysis.  Each factor of F mod p is its own naive lift,
    refined.  A given lift is analyzed as given, in place of the one factor
    of F mod p; it raises ValueError when F mod p has more than one
    irreducible factor or the lift does not reduce to it.  Raises
    NotRegular when some factor stays irregular.  For F other than
    x^9 + ax + b, a repeated factor of degree >= 2 of F mod p can give a
    residual polynomial of degree >= 2 over its residue field (see
    analyze_phi), which raises ValueError.
    """
    field = gf.PrimeField(p)
    fbar = gf.reduce_mod_p(F, p)
    n = pdeg(F)
    if pdeg(fbar) != n:
        raise ValueError("F must be monic of positive degree")
    factors = gf.factor(field, fbar).factors
    if lift is not None and (len(factors) != 1 or gf.reduce_mod_p(lift, p) != factors[0][0]):
        raise ValueError("lift does not reduce to the one factor of F mod p")
    analyses = []
    pairs = []
    for phibar, _mult in factors:
        phi = lift or phibar
        if phi == tuple(F):  # p is inert
            return OreResult(splitting=Splitting.of([(1, n)]), index=0, analyses=())
        analysis = (analyze_phi if lift else analyze_phi_refined)(F, p, phi)
        analyses.append(analysis)
        if not analysis.regular:
            continue
        m = pdeg(phibar)
        for sd in analysis.sides:
            for psi, _one in sd.factorization.factors:
                pairs.append((sd.side.e, m * pdeg(psi)))
    if any(not a.regular for a in analyses):
        raise NotRegularError(p, analyses)
    splitting = Splitting.of(pairs)
    if splitting.mass != n:
        raise AssertionError(
            f"splitting mass {splitting.mass} != deg F = {n}"
        )  # pragma: no cover
    return OreResult(
        splitting=splitting,
        index=sum(a.index for a in analyses),
        analyses=tuple(analyses),
    )


# ---------------------------------------------------------------------------
# Dedekind's index-divisibility criterion (independent of the polygons)


def dedekind_divides(F, p: int) -> bool:
    """True iff p divides (Z_K : Z[alpha]) for alpha a root of monic F.

    Uses the g*h reconstruction form of the criterion with g the radical
    of F mod p and h its cofactor; only gcd arithmetic is needed, so any
    prime works.
    """
    field = gf.PrimeField(p)
    fbar = gf.reduce_mod_p(F, p)
    if pdeg(fbar) != pdeg(F):
        raise ValueError("F must be monic")
    gbar = gf.radical(field, fbar)
    hbar = gf.pdivmod(field, fbar, gbar)[0]
    diff = zsub(zmul(gbar, hbar), F)
    assert all(c % p == 0 for c in diff), "g*h must reconstruct F mod p"
    tbar = gf.reduce_mod_p((c // p for c in diff), p)
    g1 = gf.pgcd(field, tbar, gbar)
    return pdeg(gf.pgcd(field, g1, hbar)) >= 1
