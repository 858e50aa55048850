"""Polynomial arithmetic and factorization over F_p, and extensions F_q.

Polynomials are tuples of field elements, lowest degree first, with no
trailing zeros (the zero polynomial is the empty tuple).  Elements of F_p
are ints in [0, p); elements of F_q = F_p[x]/(m) are fixed-length tuples of
ints.  The polynomial algorithms run over F_p only, on plain ints, reducing
mod p once per coefficient: over an extension the polygon engine meets
only linear residual polynomials (see factor), which need no algorithm.
One in-place remainder loop on int lists, _rem_ints, serves pdivmod,
which also collects the quotient, pmod, which builds none, and pgcd's
Euclid; ExtField.mul and ExtField.inv are built on them.  distinct_degree
is one pass on int lists: it takes each next Frobenius power as one
product with a matrix built once per polynomial, whose rows are, while
p < deg f, shifts by p reduced with f's nonzero coefficients, and takes
each step's gcd with the same Euclid.  Everything is deterministic:
factor() returns a linear input as it is, and otherwise takes the
squarefree decomposition, pairs (g, m) from one derivative loop, then
splits each g by distinct degree, then by equal degree with an exhaustive
search over the p^d monic candidates of the factor degree d; every
factor of g has multiplicity m.  radical is the product of the g, and
is_irreducible asks for the one pair (f, 1), then one distinct-degree pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .arith import _SMALL_PRIME_SET, is_prime, trial_divide


def ztrim(c) -> tuple:
    """A sequence of ints, such as an integer or F_p polynomial, without
    its trailing zeros."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def ptrim(c) -> tuple:
    """A polynomial over any field without its trailing zeros."""
    c = tuple(c)
    n = len(c)
    while n and not nonzero(c[n - 1]):
        n -= 1
    return c[:n]


def nonzero(e) -> bool:
    return any(e) if isinstance(e, tuple) else bool(e)


class PrimeField:
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p", "q", "degree", "zero", "one")
    trim = staticmethod(ztrim)  # elements are ints: no per-coefficient type test

    def __init__(self, p: int):
        if p not in _SMALL_PRIME_SET and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.q = p
        self.degree = 1
        self.zero = 0
        self.one = 1

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def from_coeffvec(self, ints):
        """Element from the integer coefficients of a representative."""
        return ints[0] % self.p if ints else 0

    def to_coeffvec(self, a) -> tuple:
        """The element's integer coefficients, inverse to from_coeffvec."""
        return (a,)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtField:
    """F_q = F_p[x]/(modulus), elements as coefficient tuples of length d.

    The modulus must be monic and irreducible over F_p; irreducibility is
    checked at construction time, except when the caller passes
    _irreducible=True for a modulus that factor() returned, which is
    irreducible already.
    """

    __slots__ = ("p", "modulus", "degree", "q", "zero", "one", "_base")
    trim = staticmethod(ptrim)

    def __init__(self, p: int, modulus: tuple, *, _irreducible: bool = False):
        base = PrimeField(p)
        modulus = ztrim(modulus)
        d = len(modulus) - 1
        if d < 2:
            raise ValueError("extension modulus must have degree >= 2")
        if modulus[-1] != 1:
            raise ValueError("extension modulus must be monic")
        if not _irreducible and not is_irreducible(base, modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self._base = base
        self.modulus = modulus
        self.degree = d
        self.q = p**d
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)

    def _pad(self, c) -> tuple:
        return tuple(c) + (0,) * (self.degree - len(c))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        return self._pad(pmod(self._base, pmul(self._base, a, b), self.modulus))

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in F_p[x] against the modulus, on int tuples
        p = self.p
        r0, r1 = self.modulus, ztrim(a)
        s0, s1 = (), (1,)
        while len(r1) > 1:
            quo, rem = pdivmod(self._base, r0, r1)
            r0, r1 = r1, rem
            s = list(s0) + [0] * (len(quo) + len(s1) - 1 - len(s0))  # s0 - quo * s1
            for i, x in enumerate(quo):
                for j, y in enumerate(s1):
                    s[i + j] -= x * y
            s0, s1 = s1, ztrim([c % p for c in s])
        lead_inv = pow(r1[0], -1, p)
        return self._pad(tuple(c * lead_inv % p for c in s1))

    def from_coeffvec(self, ints) -> tuple:
        """Element from integer coefficients of a residue representative."""
        if len(ints) > self.degree:
            raise ValueError("representative too long")
        return self._pad(tuple(c % self.p for c in ints))

    def to_coeffvec(self, a) -> tuple:
        """The element's integer coefficients, inverse to from_coeffvec."""
        return a

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self):
        return f"ExtField({self.p}, {self.modulus})"


# ---------------------------------------------------------------------------
# polynomial arithmetic over a field


def pdeg(c) -> int:
    return len(c) - 1


def pmul(F, f, g) -> tuple:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    p = F.p
    return ztrim([c % p for c in out])


def pdivmod(F, f, g) -> tuple:
    quo = []
    rem = _rem_ints(F.p, list(f), g, quo)
    return ztrim(quo[::-1]), tuple(rem)


def pmod(F, f, g) -> tuple:
    return tuple(_rem_ints(F.p, list(f), g))  # no quotient built


def _rem_ints(p: int, f: list, g, quo=None) -> list:
    """f mod g over F_p, as a trimmed list of ints in [0, p), for a list f
    of ints, which it consumes, and a nonzero g, trailing zeros allowed.

    The division runs in place in f, using only g's nonzero low
    coefficients, and takes each coefficient mod p once, at the end.  When
    quo is a list, the quotient's coefficients are appended to it, highest
    first.
    """
    m = len(g) - 1
    while m >= 0 and not g[m]:
        m -= 1
    if m < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) > m:
        lead_inv = pow(g[m], -1, p)
        low = [(j, y) for j, y in enumerate(g[:m]) if y]
        for i in range(len(f) - m - 1, -1, -1):
            c = f[i + m] * lead_inv % p
            if quo is not None:
                quo.append(c)
            if c:
                for j, y in low:
                    f[i + j] -= c * y
    f = [c % p for c in f[:m]]
    while f and not f[-1]:
        f.pop()
    return f


def pmonic(F, f) -> tuple:
    """Split f as (leading unit, monic polynomial)."""
    f = F.trim(f)
    if not f:
        raise ValueError("zero polynomial has no monic part")
    lead = f[-1]
    inv = F.inv(lead)
    return lead, tuple(F.mul(c, inv) for c in f)  # a unit multiple of a trimmed f is trimmed


def pgcd(F, f, g) -> tuple:
    return _pgcd_ints(F.p, list(ztrim(f)), list(ztrim(g)))


def _pgcd_ints(p: int, f: list, g: list) -> tuple:
    """Monic gcd over F_p of two trimmed lists of ints in [0, p), which it
    consumes: Euclid's algorithm, each remainder taken by _rem_ints."""
    while g:
        f, g = g, _rem_ints(p, f, g)
    if not f:
        return ()
    lead_inv = pow(f[-1], -1, p)
    return tuple(c * lead_inv % p for c in f)


def pderiv(F, f) -> tuple:
    p = F.p
    return ztrim([f[i] * i % p for i in range(1, len(f))])


def enumerate_monic(F, d: int):
    """All monic degree-d polynomials over F, in a fixed order."""
    for lower in itertools.product(range(F.p), repeat=d):
        yield tuple(lower) + (F.one,)


# ---------------------------------------------------------------------------
# irreducibility and factorization


def is_irreducible(F, f) -> bool:
    """Whether f is irreducible over F_p.

    f is irreducible exactly when it is squarefree and one distinct-degree
    pass leaves a single part, of degree deg f: every factor of a reducible
    squarefree f of degree n shows up by degree n // 2.
    """
    f = F.trim(f)
    n = pdeg(f)
    if n <= 0:
        return False
    _, f = pmonic(F, f)
    return _squarefree_parts(F, f) == [(f, 1)] and distinct_degree(F, f) == [(f, n)]


def _pth_root_poly(F, f) -> tuple:
    """For f with zero derivative, the g with g(x)^p = f(x): Frobenius is
    the identity on F_p, so g's coefficients are every p-th one of f's."""
    return ztrim(f[::F.p])


def _squarefree_parts(F, f) -> list:
    """The squarefree decomposition of monic f over F_p: pairs (g, m) of
    pairwise coprime squarefree g of positive degree with f = prod g^m.

    The derivative loop (von zur Gathen and Gerhard, Modern Computer
    Algebra, 14.6): c = gcd(f, f') holds each factor to one less than its
    multiplicity, or to all of it when p divides that, and w = f / c is the
    product of the others.  Step i splits off the factors of multiplicity i
    as w / gcd(w, c) and divides c by that gcd; once c = 1, what is left of
    w has multiplicity i.  A remainder c is a p-th power and goes on as its
    p-th root, with every multiplicity multiplied by p.
    """
    parts = []
    scale = 1
    while pdeg(f) > 0:
        c = pgcd(F, f, pderiv(F, f))
        w = pdivmod(F, f, c)[0]
        i = 1
        while pdeg(w) > 0:
            if pdeg(c) == 0:
                parts.append((w, i * scale))
                break
            y = pgcd(F, w, c)
            if pdeg(y) < pdeg(w):
                parts.append((pdivmod(F, w, y)[0], i * scale))
            c = pdivmod(F, c, y)[0]
            w = y
            i += 1
        f = _pth_root_poly(F, c)
        scale *= F.p
    return parts


def distinct_degree(F, f):
    """Split monic squarefree f over F_p into [(product of its degree-d
    factors, d)], on plain int lists.

    Step d takes gcd(x^(p^d) - x, rem), where rem is what the earlier steps
    left of f.

    w -> w^p mod f is linear over F_p, so w^p is a combination of the rows
    x^(i p) mod f of Berlekamp's matrix (Bell Syst. Tech. J. 1967), built
    once per f: iterating it gives x^(p^d) for each d in turn (von zur
    Gathen and Shoup, Comput. Complexity 1992), and w mod f serves for
    w mod rem, a divisor of f.  Each row is the one before times x^p mod f,
    which is a shift by p while p < deg f; products are reduced with f's
    nonzero low coefficients only, 2 of them for a trinomial.
    """
    p = F.p
    n = len(f) - 1
    out = []
    rem = f
    if n >= 2:
        low = [(j, y) for j, y in enumerate(f[:n]) if y]

        def reduce(acc):  # acc mod monic f, length n; _rem_ints would rebuild low per call
            for i in range(len(acc) - n - 1, -1, -1):
                c = acc[i + n] % p
                if c:
                    for j, y in low:
                        acc[i + j] -= c * y
            return [c % p for c in acc[:n]]

        xp = [(j, y) for j, y in enumerate(reduce([0] * p + [1])) if y]
        width = n + max((j for j, _ in xp), default=0)
        rows = [[1] + [0] * (n - 1)]
        while len(rows) < n:
            acc = [0] * width
            for i, c in enumerate(rows[-1]):
                if c:
                    for j, y in xp:
                        acc[i + j] += c * y
            rows.append(reduce(acc))
        w = [0, 1]
        d = 0
        while len(rem) - 1 >= 2 * (d + 1):
            d += 1
            acc = [0] * n
            for c, row in zip(w, rows):
                if c:
                    acc = [a + c * r for a, r in zip(acc, row)]
            w = [c % p for c in acc]
            h = w[:]  # w - x
            h[1] = (h[1] - 1) % p
            while h and not h[-1]:
                h.pop()
            g = _pgcd_ints(p, list(rem), h)
            if len(g) > 1:
                out.append((g, d))
                rem = pdivmod(F, rem, g)[0]
                w = _rem_ints(p, w, rem)
    if len(rem) > 1:
        out.append((rem, len(rem) - 1))
    return out


def _equal_degree_exhaustive(F, f, d: int):
    """Factor monic f whose irreducible factors all have degree d."""
    out = []
    rem = f
    if pdeg(rem) == d:
        return [rem]
    for cand in enumerate_monic(F, d):
        quo, r = pdivmod(F, rem, cand)
        if not r:
            out.append(cand)
            rem = quo
            if pdeg(rem) == d:
                out.append(rem)
                return out
    raise AssertionError("equal-degree splitting failed")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """unit * prod(poly^mult) over the field the input lived in."""

    unit: object
    factors: tuple  # ((monic irreducible poly, multiplicity), ...) sorted


@lru_cache(maxsize=1 << 16)
def factor(F, f) -> Factorization:
    """Complete factorization of a nonzero polynomial into monic irreducibles.

    Over F_p any polynomial; over an extension F_q one of degree <= 1, and
    anything longer raises ValueError.  That is all the polygon engine needs for a trinomial
    F = x^9 + ax + b.  A repeated factor of F mod p divides F and F', so it
    divides 9F - xF' = 8ax + 9b.  For p >= 5 that is linear, or a nonzero
    constant, or 0 with F = x^9.  At p = 2 it is b: F mod 2 is squarefree
    for odd b, and x(x + 1)^8 or x^9 for even b.  At p = 3 it is -ax: a
    repeated factor is x when 3 does not divide a, and F = (x + b)^9 mod 3
    when it does.  So every repeated factor is linear, a lift of degree >= 2
    has multiplicity 1, its polygon is one side of length 1, and its
    residual polynomial over F_q is linear.

    Over F_p each factor of a part (g, m) of the squarefree decomposition
    has multiplicity m, so no factor is divided out again.

    Cached: fields and coefficient tuples are immutable and hashable, and
    the sweeps ask for the same small reductions over and over.
    """
    f = F.trim(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if F.degree > 1 and len(f) > 2:
        raise ValueError(f"over {F}, factor takes degree <= 1 only")
    unit, monic = pmonic(F, f)
    if len(monic) == 2:
        return Factorization(unit, ((monic, 1),))
    found = [(psi, m) for g, m in _squarefree_parts(F, monic)
             for part, d in distinct_degree(F, g)
             for psi in _equal_degree_exhaustive(F, part, d)]
    return Factorization(unit, tuple(sorted(found, key=lambda fm: (len(fm[0]), fm[0]))))


def radical(F, f) -> tuple:
    """Monic product of the distinct irreducible factors of f: the product
    of its squarefree parts.

    Needs no factorization (gcd arithmetic only), so it works over F_p for
    any p, including primes far outside the factoring envelope.
    """
    f = F.trim(f)
    if not f:
        raise ValueError("zero polynomial has no radical")
    rad = (F.one,)
    for g, _ in _squarefree_parts(F, pmonic(F, f)[1]):
        rad = pmul(F, rad, g)
    return rad


def reduce_mod_p(coeffs, p: int) -> tuple:
    """Image of an integer polynomial in F_p[x]."""
    return ztrim([c % p for c in coeffs])


def _mobius(n: int) -> int:
    factors = {}
    rest = trial_divide(n, factors)  # a prime rest > 1 is not in factors
    if any(e > 1 for e in factors.values()):
        return 0
    return (-1) ** (len(factors) + (rest > 1))


@lru_cache(maxsize=256)
def count_monic_irreducible(p: int, f: int) -> int:
    """Number of monic irreducible polynomials of degree f over F_p.

    Gauss's necklace formula: (1/f) * sum over d | f of mu(d) p^(f/d).
    """
    if f < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, f + 1):
        if f % d == 0:
            total += _mobius(d) * p ** (f // d)
    return total // f


def format_poly(coeffs, var: str = "y") -> str:
    """An F_p polynomial as text, highest degree first."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xpart = var if i == 1 else f"{var}^{i}"
            terms.append(xpart if c == 1 else f"{c}*{xpart}")
    return " + ".join(terms) or "0"
