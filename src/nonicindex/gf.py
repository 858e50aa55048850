"""Polynomial arithmetic and factorization over F_p and small extensions F_q.

Polynomials are tuples of field elements, lowest degree first, with no
trailing zeros (the zero polynomial is the empty tuple).  Elements of F_p
are ints in [0, p); elements of F_q = F_p[x]/(m) are fixed-length tuples of
ints.  Over F_p (F.degree == 1), pmul and pdivmod work on plain ints,
reducing mod p once per coefficient, and go through the field's add/mul
only over extensions; pgcd and ppowmod are built on them, and
distinct_degree takes each next Frobenius power as one product with a
matrix built once per polynomial.  Everything is deterministic: factor()
uses squarefree splitting, then distinct-degree splitting, then
equal-degree splitting by exhaustive search over monic candidates, which
is fine for the operating envelope (degree <= 9, q <= 343).
is_irreducible is the same squarefree test followed by one
distinct-degree pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .arith import is_prime


class PrimeField:
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p", "q", "degree", "zero", "one")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.q = p
        self.degree = 1
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def from_int(self, n: int):
        return n % self.p

    def from_coeffvec(self, ints):
        """Element from the integer coefficients of a representative."""
        return ints[0] % self.p if ints else 0

    def to_coeffvec(self, a) -> tuple:
        """The element's integer coefficients, inverse to from_coeffvec."""
        return (a,)

    def pth_root(self, a):
        return a  # Frobenius is the identity on F_p

    def elements(self):
        return range(self.p)

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

    def __init__(self, p: int, modulus: tuple, *, _irreducible: bool = False):
        base = PrimeField(p)
        modulus = ptrim(modulus)
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

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        return self._pad(pmod(self._base, pmul(self._base, a, b), self.modulus))

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in F_p[x] against the modulus
        F = self._base
        r0, r1 = self.modulus, ptrim(a)
        s0, s1 = (), (F.one,)
        while pdeg(r1) > 0:
            quo, rem = pdivmod(F, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, psub(F, s0, pmul(F, quo, s1))
        lead_inv = F.inv(r1[0])
        return self._pad(tuple(F.mul(lead_inv, c) for c in s1))

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.degree - 1)

    def from_coeffvec(self, ints) -> tuple:
        """Element from integer coefficients of a residue representative."""
        if len(ints) > self.degree:
            raise ValueError("representative too long")
        return self._pad(tuple(c % self.p for c in ints))

    def to_coeffvec(self, a) -> tuple:
        """The element's integer coefficients, inverse to from_coeffvec."""
        return a

    def pth_root(self, a):
        # a -> a^(q/p); the p-th power map is a bijection with this inverse
        return _elem_pow(self, a, self.q // self.p)

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.degree):
            yield tup

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


def _elem_pow(F, a, n: int):
    result = F.one
    base = a
    while n:
        if n & 1:
            result = F.mul(result, base)
        base = F.mul(base, base)
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# polynomial arithmetic over a field


def ptrim(c) -> tuple:
    c = tuple(c)
    n = len(c)
    while n and not nonzero(c[n - 1]):
        n -= 1
    return c[:n]


def nonzero(e) -> bool:
    return any(e) if isinstance(e, tuple) else bool(e)


def pdeg(c) -> int:
    return len(c) - 1


def psub(F, f, g) -> tuple:
    out = list(f) + [F.zero] * max(0, len(g) - len(f))
    for i, e in enumerate(g):
        out[i] = F.sub(out[i], e)
    return ptrim(out)


def pscale(F, f, e) -> tuple:
    return ptrim(tuple(F.mul(c, e) for c in f))


def ztrim(c) -> tuple:
    """A sequence of ints, such as an integer or F_p polynomial, without
    its trailing zeros."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def pmul(F, f, g) -> tuple:
    if not f or not g:
        return ()
    if F.degree == 1:
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g):
                    out[i + j] += x * y
        p = F.p
        return ztrim([c % p for c in out])
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if nonzero(x):
            for j, y in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(out)


def pdivmod(F, f, g) -> tuple:
    if F.degree == 1:
        return _pdivmod_ints(F.p, f, g)
    f, g = ptrim(f), ptrim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), f
    lead_inv = F.inv(g[-1])
    rem = list(f)
    quo = [F.zero] * (len(f) - len(g) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = F.mul(rem[i + len(g) - 1], lead_inv)
        quo[i] = c
        if nonzero(c):
            for j, y in enumerate(g):
                rem[i + j] = F.sub(rem[i + j], F.mul(c, y))
    return ptrim(quo), ptrim(rem)


def _pdivmod_ints(p: int, f, g) -> tuple:
    """pdivmod over F_p on plain ints, reduced mod p once per coefficient."""
    f, g = ztrim(f), ztrim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    m = len(g)
    if len(f) < m:
        return (), f
    lead_inv = pow(g[-1], -1, p)
    rem = list(f)
    quo = [0] * (len(f) - m + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + m - 1] * lead_inv % p
        quo[i] = c
        if c:
            for j, y in enumerate(g):
                rem[i + j] -= c * y
    return ztrim(quo), ztrim([c % p for c in rem[: m - 1]])


def pmod(F, f, g) -> tuple:
    return pdivmod(F, f, g)[1]


def pmonic(F, f) -> tuple:
    """Split f as (leading unit, monic polynomial)."""
    f = ptrim(f)
    if not f:
        raise ValueError("zero polynomial has no monic part")
    lead = f[-1]
    return lead, pscale(F, f, F.inv(lead))


def pgcd(F, f, g) -> tuple:
    f, g = ptrim(f), ptrim(g)
    while g:
        f, g = g, pmod(F, f, g)
    if not f:
        return ()
    return pmonic(F, f)[1]


def ppowmod(F, f, n: int, mod) -> tuple:
    result = (F.one,)
    base = pmod(F, f, mod)
    while n:
        if n & 1:
            result = pmod(F, pmul(F, result, base), mod)
        base = pmod(F, pmul(F, base, base), mod)
        n >>= 1
    return result


def pderiv(F, f) -> tuple:
    return ptrim(
        tuple(F.mul(f[i], F.from_int(i)) for i in range(1, len(f)))
    )


def enumerate_monic(F, d: int):
    """All monic degree-d polynomials over F, in a fixed order."""
    for lower in itertools.product(F.elements(), repeat=d):
        yield tuple(lower) + (F.one,)


# ---------------------------------------------------------------------------
# irreducibility and factorization


def is_irreducible(F, f) -> bool:
    """Whether f is irreducible over F, for any q in the envelope.

    f is irreducible exactly when it is squarefree and one distinct-degree
    pass leaves a single part, of degree deg f: every factor of a reducible
    squarefree f of degree n shows up by degree n // 2.
    """
    f = ptrim(f)
    n = pdeg(f)
    if n <= 0:
        return False
    _, f = pmonic(F, f)
    df = pderiv(F, f)
    if not df or pdeg(pgcd(F, f, df)) > 0:
        return False
    return distinct_degree(F, f) == [(f, n)]


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _pth_root_poly(F, f) -> tuple:
    """For f with zero derivative, the g with g(x)^p = f(x)."""
    p = F.p
    return ptrim(tuple(F.pth_root(f[i]) for i in range(0, len(f), p)))


def _squarefree_parts(F, f):
    """Squarefree divisors of monic f that together hold each of its
    irreducible factors.

    Each step divides g by gcd(g, g') and goes on with that gcd; a g with
    zero derivative is a p-th power and goes on as its p-th root.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        if pdeg(g) <= 0:
            continue
        dg = pderiv(F, g)
        if not dg:
            stack.append(_pth_root_poly(F, g))
            continue
        core = pgcd(F, g, dg)
        yield pdivmod(F, g, core)[0]
        stack.append(core)


def distinct_degree(F, f):
    """Split monic squarefree f into [(product of its degree-d factors, d)].

    Step d takes gcd(x^(q^d) - x, rem), where rem is what the earlier steps
    left of f.  Over an extension each step raises w = x^(q^(d-1)) to the
    q-th power mod rem; over F_p it is one product with f's Frobenius
    matrix instead (_frobenius_ints), whose result mod f serves for rem,
    a divisor of f.
    """
    out = []
    x = (F.zero, F.one)
    w = x
    d = 0
    rem = f
    frobenius = _frobenius_ints(F, f) if F.degree == 1 and pdeg(f) >= 2 else None
    while pdeg(rem) >= 2 * (d + 1):
        d += 1
        w = frobenius(w) if frobenius else ppowmod(F, w, F.q, rem)
        g = pgcd(F, psub(F, w, x), rem)
        if pdeg(g) > 0:
            out.append((g, d))
            rem = pdivmod(F, rem, g)[0]
            w = pmod(F, w, rem)
    if pdeg(rem) > 0:
        out.append((rem, pdeg(rem)))
    return out


def _frobenius_ints(F, f):
    """The map w -> w^p mod f over F_p, for w of degree < deg f.

    It is linear over F_p, so w^p is a combination of the rows x^(i p) mod f
    of Berlekamp's matrix (Bell Syst. Tech. J. 1967), built once per f:
    iterating it gives x^(p^d) for each d in turn (von zur Gathen and
    Shoup, Comput. Complexity 1992).  x^p is a monomial while p < deg f.
    """
    p, n = F.p, pdeg(f)
    xp = (0,) * p + (1,) if p < n else ppowmod(F, (0, 1), p, f)
    rows = [(1,), xp]
    while len(rows) < n:
        rows.append(pmod(F, pmul(F, xp, rows[-1]), f))

    def frobenius(w):
        acc = [0] * n
        for c, row in zip(w, rows):
            if c:
                for j, r in enumerate(row):
                    acc[j] += c * r
        return ztrim([c % p for c in acc])

    return frobenius


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

    def expand(self, F) -> tuple:
        acc = (self.unit,)
        for poly, mult in self.factors:
            for _ in range(mult):
                acc = pmul(F, acc, poly)
        return ptrim(acc)


@lru_cache(maxsize=1 << 16)
def factor(F, f) -> Factorization:
    """Complete factorization of a nonzero polynomial into monic irreducibles.

    Cached: fields and coefficient tuples are immutable and hashable, and
    the sweeps ask for the same small reductions over and over.
    """
    f = ptrim(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    unit, monic = pmonic(F, f)
    # collect the set of irreducible factors, then read off multiplicities
    irreducibles = set()
    for squarefree in _squarefree_parts(F, monic):
        for part, d in distinct_degree(F, squarefree):
            irreducibles.update(_equal_degree_exhaustive(F, part, d))
    found = []
    rem = monic
    for psi in sorted(irreducibles, key=lambda c: (len(c), c)):
        mult = 0
        while True:
            quo, r = pdivmod(F, rem, psi)
            if r:
                break
            rem = quo
            mult += 1
        found.append((psi, mult))
    if pdeg(rem) != 0:
        raise AssertionError("factorization incomplete")  # pragma: no cover
    return Factorization(unit=unit, factors=tuple(found))


def radical(F, f) -> tuple:
    """Monic product of the distinct irreducible factors of f.

    Needs no factorization (gcd arithmetic only), so it works over F_p for
    any p, including primes far outside the factoring envelope.
    """
    f = ptrim(f)
    if not f:
        raise ValueError("zero polynomial has no radical")
    rad = (F.one,)
    for squarefree in _squarefree_parts(F, pmonic(F, f)[1]):
        rad = pmul(F, rad, pdivmod(F, squarefree, pgcd(F, rad, squarefree))[0])
    return rad


def reduce_mod_p(coeffs, p: int) -> tuple:
    """Image of an integer polynomial in F_p[x]."""
    return ztrim([c % p for c in coeffs])


def _mobius(n: int) -> int:
    mu = 1
    for q in _prime_divisors(n):
        if n % (q * q) == 0:
            return 0
        mu = -mu
    return mu


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
