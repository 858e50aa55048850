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

Integer polynomials are tuples of ints, lowest degree first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import gf
from .arith import INFINITY, val
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
    """min over coefficients of nu_p; INFINITY for the zero polynomial."""
    if not c:
        return INFINITY
    return min(val(p, x) for x in c)


# ---------------------------------------------------------------------------
# principal polygon


@dataclass(frozen=True)
class Side:
    """One segment of slope -h/e (gcd(h,e)=1), length l, degree d = l/e."""

    x0: int
    y0: int
    x1: int
    y1: int
    h: int
    e: int
    length: int
    degree: int

    def height_num(self, i: int) -> int:
        """e * (height of the side above x = i)."""
        return self.y0 * self.e - (i - self.x0) * self.h


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple
    sides: tuple

    @property
    def is_empty(self) -> bool:
        return not self.sides


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
    for side in polygon.sides:
        start = max(side.x0, 1)
        for i in range(start, side.x1 + 1):
            if i == side.x0:
                continue  # column counted by the previous side
            total += max(0, side.height_num(i) // side.e)
    # leftmost column of the first side, if it is at x >= 1
    if polygon.sides and polygon.sides[0].x0 >= 1:
        total += max(0, polygon.sides[0].y0)
    return total


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
            coeffs.append(field.from_coeffvec([x // p**target for x in expansion[i]]))
        elif vals[i] > target:
            coeffs.append(field.zero)
        else:  # pragma: no cover - would mean the side is not on the hull
            raise AssertionError("expansion point below its own side")
    if not gf.nonzero(coeffs[0]) or not gf.nonzero(coeffs[-1]):
        raise AssertionError("residual endpoints must be nonzero")
    return tuple(coeffs)


@dataclass(frozen=True)
class SideData:
    side: Side
    field: object
    residual: tuple
    factorization: gf.Factorization

    @property
    def squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factorization.factors)


@dataclass(frozen=True)
class PhiAnalysis:
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
    """
    exp = phi_expand(F, phi)
    vals = tuple(coeff_val(p, c) for c in exp)
    if vals[0] == INFINITY:
        raise ExactDivisorError("phi divides F exactly; F is reducible")
    polygon = principal_polygon([(i, v) for i, v in enumerate(vals) if v != INFINITY])
    field = residue_field(p, gf.reduce_mod_p(phi, p))
    sides = []
    for side in polygon.sides:
        res = residual_poly(exp, vals, field, side)
        sides.append(
            SideData(side=side, field=field, residual=res,
                     factorization=gf.factor(field, res))
        )
    return PhiAnalysis(
        phi=tuple(phi),
        p=p,
        expansion_vals=vals,
        polygon=polygon,
        sides=tuple(sides),
        index=pdeg(phi) * lattice_index(polygon),
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

    Each accepted step replaces phi by phi -+ p^h * root and strictly
    increases the valuation of the expansion's constant term, so the loop
    terminates for squarefree F.  Returns the last (possibly irregular)
    analysis if no step applies.
    """
    analysis = analyze_phi(F, p, phi)
    for _ in range(_REFINE_STEPS):
        if analysis.regular:
            return analysis
        step = _refinement_step(analysis)
        if step is None:
            return analysis
        h, root = step
        shift = ztrim(tuple(c * p**h for c in root))
        improved = None
        for cand in (zsub(analysis.phi, shift), zsub(analysis.phi, tuple(-c for c in shift))):
            trial = analyze_phi(F, p, cand)
            if trial.expansion_vals[0] > analysis.expansion_vals[0]:
                improved = trial
                break
        if improved is None:
            return analysis
        analysis = improved
    return analysis  # pragma: no cover - defensive cap


# ---------------------------------------------------------------------------
# splitting types and Ore's theorem


@dataclass(frozen=True)
class Splitting:
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


@dataclass(frozen=True)
class OreResult:
    splitting: Splitting
    index: int  # sum over lifts of the lattice index
    analyses: tuple


def ore_analyze(F, p: int, overrides=None) -> OreResult:
    """Splitting of p and the Ore index, via one analyzed lift per factor.

    When F mod p is irreducible and F is its own lift (its coefficients lie
    in [0, p)), p is inert: the splitting is (1, deg F), the index 0, and
    there is no analysis.  overrides maps a factor of F mod p (a gf poly
    tuple) to the integer lift to use for it, analyzed as given; other
    factors are their own naive lift, refined.  Raises NotRegular when
    some factor stays irregular.
    """
    field = gf.PrimeField(p)
    fbar = gf.reduce_mod_p(F, p)
    n = pdeg(F)
    if pdeg(fbar) != n:
        raise ValueError("F must be monic of positive degree")
    fact = gf.factor(field, fbar)
    analyses = []
    pairs = []
    for phibar, _mult in fact.factors:
        override = (overrides or {}).get(phibar)
        if override and gf.reduce_mod_p(override, p) != phibar:
            raise ValueError("override lift does not reduce to its factor")
        phi = override or phibar
        if phi == tuple(F):  # p is inert
            return OreResult(splitting=Splitting.of([(1, n)]), index=0, analyses=())
        analysis = (analyze_phi if override else analyze_phi_refined)(F, p, phi)
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


def ore_split(F, p: int, overrides=None) -> Splitting:
    return ore_analyze(F, p, overrides).splitting


def is_p_regular(F, p: int, phis=None):
    """(flag, analyses) for the given lifts (naive lifts by default).

    No refinement is applied: this reports regularity of the polynomial
    with respect to the lifts as supplied.  Supplied lifts must reduce to
    irreducible polynomials mod p.
    """
    field = gf.PrimeField(p)
    if phis is None:
        fbar = gf.reduce_mod_p(F, p)
        phis = [phibar for phibar, _ in gf.factor(field, fbar).factors]
    else:
        for phi in phis:
            if not gf.is_irreducible(field, gf.reduce_mod_p(phi, p)):
                raise ValueError(f"phi = {phi} is not irreducible mod {p}")
    analyses = [analyze_phi(F, p, phi) for phi in phis]
    return all(a.regular for a in analyses), analyses


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
