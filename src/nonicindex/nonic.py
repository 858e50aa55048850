"""Index classifier for nonic trinomial fields K = Q[x]/(x^9 + ax + b).

For each prime p this decides whether p divides the field index i(K),
gives the exact valuation nu_p(i(K)) where it is determined, and the
splitting type of pZ_K.  Only p = 2 and p = 3 can divide i(K); no p >= 5
ever does.  Where p in {2, 3} does not divide the discriminant (b odd,
3 not dividing a), Dedekind's theorem settles p: it is unramified, and
pZ_K splits like F mod p, one prime (1, d) per factor of degree d.  Those
degrees sit in the irreducibility certificate's mod-p table, the one store
of F mod p, and nu2's and nu3's unramified entries are built from its
slots at import, so the certificate and nu2/nu3 share one factorization,
and the certificate, not the classifier, meets a naive lift that divides
F.  The certificate reads residues only: a and b are reduced once mod the
product of the primes up to 97, and every fact it uses comes from those
two residues; only its root search, with no usable prime, builds the
discriminant.  The other first-order-resolvable
branches run through the polygons of the same engine; the branches that
genuinely require higher-order data are encoded as congruence tables
keyed on (a, b) residues plus nu_p(Delta) and Delta_p mod 8 or mod 3.
No branch re-checks its shape: the deep (x - s)^9 shapes at 3 are
checked by the agreement sweep, where engine_split analyzes the critical
lift x - u, u = -9b/(8a).  Every exact valuation is produced by the
Engstrom lookup on the splitting type, so values have a single source of
truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count
from math import gcd, prod

from . import gf
from .arith import (
    INFINITY,
    TRIAL_LIMIT,
    bounded_factor,
    inv_mod_pk,
    is_prime,
    primes_upto,
    trial_divide,
    unit_part,
    val,
)
from .arith import iroot as _iroot
from .engstrom import IndexValuation, nu_lookup
from .polygon import (
    ExactDivisorError,
    NotRegularError,
    Splitting,
    ore_analyze,
    trinomial,
    zeval,
)


class ClassifierError(Exception):
    pass


class Unclassified(ClassifierError):
    """The decision tree has a gap for this input (transcription bug)."""


class ReduciblePolynomial(ClassifierError):
    pass


class IndeterminateFactorization(ClassifierError):
    """An integer did not factor within the effort bound; refusing to guess."""


_SHOWN_DIGITS = 2000  # a message prints an integer of more digits in short
_LEAD_DIGITS = 20


def _show(n: int) -> str:
    """n in decimal for a message.  Past _SHOWN_DIGITS digits, its leading
    digits and its digit count: str() refuses an int of more than 4300
    digits, and the discriminant has about nine times the input's digits."""
    m = abs(n)
    if m < 10**_SHOWN_DIGITS:
        return str(n)
    digits = int(m.bit_length() * 0.30102999566398120) + 1  # log10(2); at most 1 too many
    while m < 10 ** (digits - 1):
        digits -= 1
    lead = m // 10 ** (digits - _LEAD_DIGITS)
    return f"{'-' if n < 0 else ''}{lead}... ({digits} digits)"


# ---------------------------------------------------------------------------
# discriminant and normalization


def disc(a: int, b: int) -> int:
    """Discriminant of x^9 + ax + b."""
    return 2**24 * a**9 + 3**18 * b**8


def delta_unit(a: int, b: int, p: int) -> int:
    """The prime-to-p part of the discriminant, sign preserved."""
    d = disc(a, b)
    if d == 0:
        raise ReduciblePolynomial("discriminant is zero")
    return unit_part(p, d)


def is_normalized(a: int, b: int) -> bool:
    """True when no prime has nu_p(a) >= 8 and nu_p(b) >= 9 simultaneously.

    Raises IndeterminateFactorization when no prime could be stripped but
    gcd(a, b) keeps an unfactored part that might hide such a prime.
    """
    if (a, b) == (0, 0):
        return False
    stripped, gcd_factored = _normalize(a, b)
    if stripped != (a, b):
        return False
    leftover = gcd_factored[1] if gcd_factored else 1
    if leftover >= TRIAL_LIMIT**8:
        raise IndeterminateFactorization(f"gcd(a,b) has an unfactored part {_show(leftover)}")
    return True


def normalize(a: int, b: int) -> tuple:
    """Strip substitutions x -> px: divide (a, b) by (p^8, p^9) while possible.

    The result defines the same field.  A prime that can be stripped has
    p^8 | gcd(a, b), so only the primes of the gcd are visited, and a
    coprime pair returns at once.  The gcd is trial-divided first, and goes
    to bounded_factor only when the part past trial division is at least
    TRIAL_LIMIT^8, so that it may hide a p^8.  A prime that the budget
    cannot split out (one of more than about 15 digits) is not stripped;
    is_normalized raises and classify warns when that may have happened.
    """
    return _normalize(a, b)[0]


def _normalize(a: int, b: int) -> tuple:
    """((a, b) normalized, gcd_factored): gcd_factored is bounded_factor of
    gcd(a, b), or None when the gcd is below 2^8 or trial division settles
    it: the part of the gcd past trial division is then below
    TRIAL_LIMIT^8, and no prime past TRIAL_LIMIT has its p^8 in it.

    Every prime found is tested, whatever its count, so a prime that was
    not stripped but should have been lies wholly in the unfactored part,
    eight times over.
    """
    g = gcd(a, b)
    if g < 2**8:
        return (a, b), None
    small = {}
    gcd_factored = bounded_factor(g) if trial_divide(g, small) >= TRIAL_LIMIT**8 else None
    for p in gcd_factored[0] if gcd_factored else small:
        while a % p**8 == 0 and b % p**9 == 0:
            a //= p**8
            b //= p**9
    return (a, b), gcd_factored


# ---------------------------------------------------------------------------
# irreducibility certificate


class Certificate(enum.Enum):
    PROVEN = "proven"
    REDUCIBLE = "reducible"
    UNKNOWN = "unknown"


_CERT_PRIMES = primes_upto(100)
# every residue the certificate reads is one of (a, b) mod this product of
# 25 primes, a number of 121 bits
_CERT_PRODUCT = prod(_CERT_PRIMES)


# The mod-p table, nonic's one store of F mod p, which depends on a mod p
# and b mod p alone: row p <= 97 has a slot per residue pair, allocated the
# first time a certificate reaches p.  All 25 rows hold 65,796 slots, about
# 0.5 MB, and nothing is evicted: the slots share one record per pattern,
# at most one per partition of 9, kept in _PATTERNS.
_ROWS = dict.fromkeys(_CERT_PRIMES)
_PATTERNS = {}


def _factor_degrees(p: int, a: int, b: int) -> tuple | bool:
    """The slot of x^9 + ax + b mod p in row p, a and b reduced mod p,
    filled on its first read: False when p divides disc(a, b), that is
    2^24 a^9 + 3^18 b^8 mod p, and otherwise the record (degrees, sums) of
    the squarefree F mod p: the degrees of its irreducible factors,
    ascending, by one distinct-degree pass, and their subset sums as a
    bitmask, bit s set when some of the degrees sum to s, the degrees of
    the factors of F over Z they allow.  Both are computed once per
    pattern, and every slot of that pattern holds the same record."""
    row = _ROWS[p]
    if row is None:
        row = _ROWS[p] = [None] * (p * p)
    slot = row[a * p + b]
    if slot is None:
        slot = False
        if (2**24 * a**9 + 3**18 * b**8) % p:
            parts = gf.distinct_degree(gf.PrimeField(p), trinomial(a, b))
            degrees = tuple(d for part, d in parts for _ in range(gf.pdeg(part) // d))
            slot = _PATTERNS.get(degrees)
            if slot is None:
                sums = 1
                for d in degrees:
                    sums |= sums << d
                slot = _PATTERNS[degrees] = degrees, sums
        row[a * p + b] = slot
    return slot


def _smallest_integer_root(a: int, b: int, mod_p: tuple | None) -> int | None:
    """The smallest integer root of x^9 + ax + b, b != 0, or None if it has
    none.  mod_p is (p, a mod p, b mod p) for a usable prime p, or None.

    F mod p is squarefree, so each of its roots, found by p evaluations, is
    simple, and Newton's step x -= F(x) / F'(x) lifts it to the one root
    mod q = p^(2^k) above it (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 15).  An integer root r lifts r mod p, and |r| <= R =
    iroot(|a| + |b|, 8) + 1, so once q > 2R the symmetric residue of its
    lift is r, tested over Z: O(log(digits)) steps.

    With no usable prime up to 97 the discriminant is built.  If it is 0,
    a = -9s^8 and b = 8s^9, and F = s^9 G(x/s) with G = y^9 - 9y + 8, whose
    only rational root is 1: the root is s = -9b/(8a).  Otherwise the lift
    starts at the least prime past 97 that does not divide it.
    """
    if mod_p is None:
        d = disc(a, b)
        if d == 0:
            return -9 * b // (8 * a)
        p = next(q for q in count(101, 2) if d % q and is_prime(q))
        mod_p = p, a % p, b % p
    p, ap, bp = mod_p
    bound = 2 * (_iroot(abs(a) + abs(b), 8) + 1)
    roots = []
    for x in (x for x in range(p) if (x**9 + ap * x + bp) % p == 0):
        q = p
        while q <= bound:
            q *= q
            x8 = pow(x, 8, q)
            x = (x - (x8 * x + a * x + b) * pow(9 * x8 + a, -1, q)) % q
        x = x - q if 2 * x > q else x
        if x**9 + a * x + b == 0:
            roots.append(x)
    return min(roots, default=None)


def irreducibility_certificate(a: int, b: int) -> tuple:
    """(Certificate, detail) for x^9 + ax + b, by cheap deterministic means.

    Proven: a totally-ramified polygon at some small prime, an irreducible
    reduction mod p <= 100, or mod-p factor-degree patterns whose subset
    sums only allow the trivial factor degrees.  Reducible: an integer
    root, the smallest one being reported, or a = 0 with b a cube.
    Reducible too: a naive lift of a factor of F mod p that divides F over
    Z, for p in {2, 3} not dividing disc(a, b), the one test run last.
    Unknown otherwise.  The proofs are tried first, and the root search and
    the cube test run only when none succeeds: a proof rules out both, so
    the order changes no verdict, and a proven F pays for no root search.

    F is monic, so F mod p is squarefree exactly when p does not divide
    disc(a, b); such a p <= 100 is usable, and the degrees of the
    irreducible factors of F mod p give both mod-p proofs: a single factor
    of degree 9 means F is irreducible mod p.  The usable primes are
    visited in order, each with one distinct-degree pass, whose Frobenius
    powers x^(p^d) mod F are products with one Frobenius matrix per prime.
    The degree-sum proof folds the bitmask of subset sums that each
    pattern's record carries, and ends when only the bits 0 and 9 are left.

    Every fact read at a prime p <= 100 is a function of a mod p and b mod
    p, so a and b are reduced once mod _CERT_PRODUCT, the product of those
    primes, and every residue comes from those two numbers below 2^121.
    The polygon proves F irreducible only at a p dividing both a and b
    (else 8 v_p(b) < 9 v_p(a) fails), so the scan visits the prime
    factors of one gcd of the residues with _CERT_PRODUCT, in order.  The
    discriminant, whose digits are nine times the input's, is built only
    by the root search, and only when no prime up to 97 is usable.

    The mod-p facts sit in one table, a row per prime p <= 97 and a slot
    per (a mod p, b mod p), since F mod p depends on nothing else: False
    when p divides disc(a, b), the pattern's record (degrees, sums)
    otherwise (_factor_degrees).  A slot is filled on its first read and
    never evicted, and is shared by every pair in its residue class, so a
    caller with fresh pairs fills the table too; the loop reads one slot
    per prime and keeps the first usable one for the root search.  A
    record is a tuple, which no caller can change.  F has a root mod p
    when the pattern has a 1, which sets bit 1 of its subset sums.  An
    integer root is one mod every p, so the search runs only when bit 1
    survives the fold, every pattern having a 1 or no prime being usable,
    and then no proof can succeed.

    The last step, before Unknown, is ore_analyze's exact-divisor test at
    2 and 3 when they do not divide disc(a, b): it divides F by the naive
    lift of each factor of F mod p of degree below 9 that may divide it.
    There nu2 and nu3 read the splitting off the table with no engine
    call, so the certificate is what meets such a lift.
    """
    if b == 0:
        return Certificate.REDUCIBLE, "x divides x^9 + ax"
    ar, br = a % _CERT_PRODUCT, b % _CERT_PRODUCT
    # one-sided polygon of totally ramified shape at a small prime: it
    # divides b, and a too, or 8 v_p(b) < 9 v_p(a) fails
    g = gcd(ar, br, _CERT_PRODUCT)
    for p in _CERT_PRIMES:
        if g == 1:
            break
        if g % p:
            continue
        g //= p
        vb = val(p, b)
        va = val(p, a)
        if 8 * vb < 9 * va and gcd(vb, 9) == 1:
            return Certificate.PROVEN, f"one-sided polygon at p = {p} (slope -{vb}/9)"
    allowed = (1 << 10) - 1  # the degrees 0 to 9
    first = None  # the first usable (p, a mod p, b mod p)
    for p in _CERT_PRIMES:
        ap, bp = ar % p, br % p
        slot = _factor_degrees(p, ap, bp)
        if slot:  # False when p divides disc(a, b)
            allowed &= slot[1]
            if allowed == 1 | 1 << 9:
                return Certificate.PROVEN, (f"irreducible mod {p}" if slot[0] == (9,) else
                                            "mod-p factor degrees only allow trivial splits")
            if first is None:
                first = p, ap, bp
    # bit 1 is left when every pattern has a 1, a root mod every usable p
    root = _smallest_integer_root(a, b, first) if allowed & 2 else None
    if root is not None:
        return Certificate.REDUCIBLE, f"integer root x = {_show(root)}"
    if a == 0:
        # Capelli: x^9 + b is reducible exactly when b = c^3, with factor x^3 + c
        c = _iroot(abs(b), 3)
        if c**3 == abs(b):
            sign = "+" if b > 0 else "-"
            return Certificate.REDUCIBLE, f"b is a cube: factor x^3 {sign} {_show(c)}"
    for p in (2, 3):
        if not _factor_degrees(p, ar % p, br % p):
            continue
        try:
            ore_analyze(trinomial(a, b), p)
        except ExactDivisorError as exc:
            return Certificate.REDUCIBLE, str(exc)
    return Certificate.UNKNOWN, "no cheap certificate found"


# ---------------------------------------------------------------------------
# Theorem-of-maximality check for Z[alpha]

_MOD9_MAXIMAL = {
    (0, 2), (0, 5), (3, 8), (3, 2), (6, 8), (6, 5),
    (0, 4), (0, 7), (3, 1), (3, 7), (6, 1), (6, 4),
}

_MOD4_MAXIMAL = {(1, 0), (3, 2)}


def is_order_maximal(a: int, b: int) -> tuple:
    """Is Z[alpha] integrally closed?  Returns (flag, failing condition).

    Needs the odd primes >= 5 dividing the discriminant; raises
    IndeterminateFactorization when the bounded factoring pass cannot
    certify squarefreeness of the relevant part.
    """
    failing = _local_failure(a, b, bounded_factor(gcd(a, b))) or _square_failure(
        a, b, bounded_factor(_disc_prime_to_6(a, b))
    )
    return failing is None, failing


def _disc_prime_to_6(a: int, b: int) -> int:
    return abs(unit_part(3, delta_unit(a, b, 2)))


def _local_failure(a: int, b: int, gcd_factored: tuple) -> str | None:
    """The failing maximality condition at 2, 3 or a prime dividing gcd(a, b).

    gcd_factored is bounded_factor of gcd(a, b), or of a multiple of it
    such as the gcd before normalization: its found primes that divide
    gcd(a, b) are tested, and what they leave of gcd(a, b) is unfactored.
    A failure found at those primes, mod 4 or mod 9 decides; only when
    none is found does an unfactored part raise IndeterminateFactorization.
    """
    g = gcd(a, b)
    primes = [p for p in gcd_factored[0] if g % p == 0]
    for p in primes:
        while g % p == 0:
            g //= p
    for p in primes:
        if b % (p * p) == 0:  # p divides b, so this is nu_p(b) != 1
            return f"p={_show(p)} divides a and b with nu_p(b) != 1"
    if a % 2 and b % 2 == 0:
        if (a % 4, b % 4) not in _MOD4_MAXIMAL:
            return f"(a,b) = ({a % 4},{b % 4}) mod 4"
    if a % 3 == 0 and b % 3:
        if (a % 9, b % 9) not in _MOD9_MAXIMAL:
            return f"(a,b) = ({a % 9},{b % 9}) mod 9"
    if g > 1:
        raise IndeterminateFactorization(f"gcd(a,b) has an unfactored part {_show(g)}")
    return None


def _square_failure(a: int, b: int, factored: tuple) -> str | None:
    """The smallest found prime p coprime to 6ab with p^2 | disc, as a
    failing condition.  factored: bounded_factor of the disc's part prime
    to 6.

    Any such p proves Z[alpha] non-maximal.  A part left unfactored decides
    nothing without one.  Beside a p up to TRIAL_LIMIT it hides nothing
    smaller: every prime of that part is larger, and trial division found
    p's full exponent.  Beside a larger p the detail says that a smaller
    such prime may divide that part, and it gives nu_p(disc) only when p
    does not divide the part.
    """
    dfac, leftover = factored
    ab = abs(a * b)
    while (shared := gcd(leftover, ab)) > 1:
        leftover //= shared
    p = next((p for p in sorted(dfac) if dfac[p] >= 2 and ab % p), None)
    if p is None and leftover != 1:
        raise IndeterminateFactorization(f"disc has an unfactored part {_show(leftover)}")
    if p is None:
        return None
    detail = (f"nu_{_show(p)}(disc) = {dfac[p]} > 1" if leftover % p
              else f"p^2 divides disc for p={_show(p)}") + " with p coprime to 6ab"
    if leftover != 1 and p > TRIAL_LIMIT:
        detail += f"; a smaller such prime may divide the unfactored part {_show(leftover)}"
    return detail


# ---------------------------------------------------------------------------
# per-prime classification


@dataclass(frozen=True)
class PrimeEntry:
    p: int
    nu: IndexValuation
    splitting: Splitting | None
    rule: str
    warnings: tuple = ()


_S = Splitting.of


def _entry(p: int, split: Splitting, rule: str, *warnings: str) -> PrimeEntry:
    """The entry whose exact valuation the Engstrom lookup reads off split."""
    return PrimeEntry(p, nu_lookup(split, p), split, rule, warnings)


# nu2's and nu3's entry at an unramified p in {2, 3} (b odd, 3 not dividing
# a), one prime (1, d) per factor degree d of F mod p, keyed on (p, a mod p,
# b mod p): eight frozen entries, built from the mod-p table at import.
_UNRAMIFIED = {
    (p, a, b): _entry(p, _S((1, d) for d in _factor_degrees(p, a, b)[0]), rule)
    for p, rule in ((2, "2:unit-b"), (3, "3:unit-a"))
    for a in range(p) for b in range(p) if _factor_degrees(p, a, b)
}


# splitting shorthands shared by several rules
_TOTALLY_RAMIFIED = _S([(9, 1)])
_RAMIFIED_3_3 = _S([(3, 1), (3, 2)])
_ONE_EIGHT = _S([(1, 1), (8, 1)])
_THREE_LINEAR_7 = _S([(1, 1), (1, 1), (7, 1)])
_QUARTIC_F2 = _S([(1, 1), (4, 2)])
_T3_DIVIDING = _S([(1, 1), (1, 1), (3, 1), (4, 1)])
_T3_QUAD = _S([(1, 1), (2, 2), (4, 1)])
_SHAPE_EXACT3 = _S([(1, 1), (2, 1), (2, 1), (4, 1)])
_SHAPE_FIVE = _S([(1, 1), (1, 1), (1, 1), (2, 1), (4, 1)])
_SHAPE_QUAD = _S([(1, 1), (1, 2), (2, 1), (4, 1)])
_TWO_QUARTIC = _S([(1, 1), (4, 1), (4, 1)])
_TWO_QUAD_F2 = _S([(1, 1), (2, 2), (2, 2)])
_QUAD_MIXED = _S([(1, 1), (2, 1), (2, 1), (2, 2)])
_FOUR_DOUBLES = _S([(1, 1), (2, 1), (2, 1), (2, 1), (2, 1)])

# p = 2, nu_2(a) = 2 (a = 4 mod 8, b = 0 mod 8): rows (modulus, classes,
# splitting).  These shapes come from order-2 polygon data and are pure
# lookup; the classes partition the domain.
_TABLE_A2 = (
    (16, ((4, 8), (12, 8)), _ONE_EIGHT),
    (32, ((12, 16), (28, 16)), _ONE_EIGHT),
    (32, ((12, 0),), _QUARTIC_F2),
    (32, ((28, 0),), _TWO_QUARTIC),
    (32, ((4, 16), (20, 16)), _ONE_EIGHT),
    (64, ((4, 32), (36, 32)), _ONE_EIGHT),
    (64, ((36, 0),), _QUARTIC_F2),
    (64, ((4, 0),), _TWO_QUARTIC),
    (64, ((20, 0), (52, 0)), _ONE_EIGHT),
    (64, ((20, 32),), _QUARTIC_F2),
    (64, ((52, 32),), _TWO_QUARTIC),
)

# p = 2, nu_2(a) = 4 (a = 16 mod 32, b = 0 mod 32): order-2/3 polygon data.
_TABLE_A4 = (
    (64, ((16, 32), (48, 32)), _ONE_EIGHT),
    (64, ((16, 0),), _ONE_EIGHT),
    (128, ((48, 64), (112, 64)), _ONE_EIGHT),
    (128, ((48, 0),), _QUARTIC_F2),
    (256, ((112, 128), (240, 128)), _TWO_QUARTIC),
    (512, ((112, 0), (368, 0)), _T3_QUAD),
    (512, ((368, 256),), _TWO_QUAD_F2),
    (512, ((112, 256),), _QUAD_MIXED),
    (512, ((240, 256), (496, 256)), _SHAPE_EXACT3),
    (512, ((240, 0),), _QUAD_MIXED),
    (512, ((496, 0),), _FOUR_DOUBLES),
)

# p = 2, nu_2(a) = 6 (a = 64 mod 128, b = 0 mod 128).  The (576,512) class
# is printed as (566,512) in the source table; 566 is not 64 mod 128, so
# the corrected class is encoded and flagged when matched.
_TABLE_A6 = (
    (256, ((64, 128), (192, 128)), _ONE_EIGHT),
    (512, ((64, 256), (320, 256)), _ONE_EIGHT),
    (1024, ((64, 512), (576, 512)), _ONE_EIGHT),
    (1024, ((576, 0),), _QUARTIC_F2),
    (1024, ((64, 0),), _TWO_QUARTIC),
    (1024, ((320, 512), (832, 512)), _ONE_EIGHT),
    (1024, ((320, 0), (832, 0)), _ONE_EIGHT),
    (512, ((192, 256), (448, 256)), _ONE_EIGHT),
    (512, ((192, 0),), _QUARTIC_F2),
    (512, ((448, 0),), _TWO_QUARTIC),
)


def _table_entry(a, b, table, tag):
    for modulus, classes, splitting in table:
        cell = (a % modulus, b % modulus)
        if cell in classes:
            rule = f"2:{tag}:{cell[0]},{cell[1]}m{modulus}"
            if tag == "a6" and cell == (576 % 1024, 512 % 1024) and modulus == 1024:
                return _entry(2, splitting, rule,
                              "class (576,512) mod 1024: source row printed as (566,512), "
                              "encoded with the congruence-consistent 576")
            return _entry(2, splitting, rule)
    raise Unclassified(f"no {tag} row matches ({_show(a)}, {_show(b)})")


def critical_shift(a: int, b: int, p: int, precision: int) -> int:
    """Integer u = -9b/(8a) mod p^precision (the double root direction)."""
    g = val(p, 8 * a)
    num = -9 * b
    if val(p, num) < g:
        raise ValueError("shift is not p-integral")
    pk = p**precision
    return (num // p**g) * inv_mod_pk(p, (8 * a) // p**g, precision) % pk


def critical_lift(a: int, b: int, p: int) -> tuple:
    """The lift x - u toward the repeated root, u = critical_shift(a, b, p,
    nu_p(disc) + 10).  Raises ReduciblePolynomial on a zero discriminant and
    ValueError when u is not p-integral."""
    d = disc(a, b)
    if d == 0:
        raise ReduciblePolynomial("discriminant is zero")
    return gf.ztrim((-critical_shift(a, b, p, int(val(p, d)) + 10), 1))


def engine_split(a: int, b: int, p: int):
    """Ore engine result for x^9 + ax + b at p: naive lifts, refined.

    When p = 3 and F = (x - s)^9 mod 3 (3 | a, 3 not dividing b) stays
    irregular, the engine tries once more with the critical lift of the
    repeated root in place of x - s.  The retry reads no classifier rule,
    so the sweep compares nu3's deep shapes with an independent answer.
    """
    F = trinomial(a, b)
    try:
        return ore_analyze(F, p)
    except NotRegularError:
        if p != 3 or a % 3 or b % 3 == 0:
            raise
    return ore_analyze(F, 3, lift=critical_lift(a, b, 3))


def nu2(a: int, b: int) -> PrimeEntry:
    """nu_2(i(K)), splitting of 2Z_K and the matched rule.

    Input must be normalized and irreducible.  For b odd, 2 does not divide
    disc(a, b), F mod 2 is squarefree, and 2 splits by Dedekind's theorem,
    one prime (1, d) per factor degree d of F mod 2: an entry of
    _UNRAMIFIED, read with no engine call and no slot read.
    """
    if b == 0:
        raise ReduciblePolynomial("b = 0: x divides the trinomial")
    if b % 2:
        return _UNRAMIFIED[2, a % 2, 1]
    va, vb = val(2, a), val(2, b)
    if va >= 8 and vb >= 9:
        raise ValueError("input not normalized at 2")
    if va >= 1:
        if 8 * vb < 9 * va:
            if gcd(int(vb), 9) == 1:
                return _entry(2, _TOTALLY_RAMIFIED, f"2:x:one-side:d1:vb={vb}")
            return _entry(2, _RAMIFIED_3_3, f"2:x:one-side:d3:vb={vb}")
        d = gcd(int(va), 8)
        if d == 1:
            return _entry(2, _ONE_EIGHT, f"2:x:two-sides:d1:va={va}")
        if va == 2:
            return _table_entry(a, b, _TABLE_A2, "a2")
        if va == 4:
            return _table_entry(a, b, _TABLE_A4, "a4")
        if va == 6:
            return _table_entry(a, b, _TABLE_A6, "a6")
        raise Unclassified(f"unexpected nu_2(a) = {va}")  # pragma: no cover
    # a odd, b even: the polygon sits over the lift of x - 1
    w0, w1 = val(2, a + b + 1), val(2, a + 9)
    if w0 == 1:
        return _entry(2, _ONE_EIGHT, "2:lin:(1,0)|(3,2)m4")
    if w1 == 1:
        return _entry(2, _THREE_LINEAR_7, "2:lin:(1,2)m4")
    if w0 == 2:
        return _entry(2, _QUARTIC_F2, "2:lin:(3,0)|(7,4)m8")
    if w1 == 2:
        return _entry(2, _T3_DIVIDING, "2:lin:(3,4)m8")
    if w0 == 3:
        return _entry(2, _T3_QUAD, "2:lin:(7,0)|(15,8)m16")
    if w1 == 3:
        return _entry(2, _SHAPE_QUAD if w0 == 4 else _SHAPE_FIVE,
                      f"2:lin:(15,0)m16:w0={'4' if w0 == 4 else '5+'}",
                      "class (15,0) mod 16: the source table's splitting row is "
                      "unreachable for this class; splitting taken from the polygon")
    # w0 >= 4 and w1 >= 4, i.e. (a,b) = (7,8) mod 16: two-step shift territory
    d = disc(a, b)
    v = val(2, d)
    if v % 2:  # d = 0 ends here too: INFINITY % 2 is nan, which is true
        return _entry(2, _SHAPE_EXACT3, "2:lin:(7,8)m16:vodd")
    u8 = unit_part(2, d) % 8
    if v == 28:
        shape = {1: _SHAPE_FIVE, 5: _SHAPE_QUAD, 3: _SHAPE_EXACT3, 7: _SHAPE_EXACT3}[u8]
    else:
        shape = {7: _SHAPE_FIVE, 3: _SHAPE_QUAD, 1: _SHAPE_EXACT3, 5: _SHAPE_EXACT3}[u8]
    return _entry(2, shape, f"2:lin:(7,8)m16:v={'28' if v == 28 else '30+'}:D2={u8}m8")


def nu3(a: int, b: int) -> PrimeEntry:
    """nu_3(i(K)), splitting of 3Z_K and the matched rule.

    Input must be normalized and irreducible.  For 3 not dividing a, 3 does
    not divide disc(a, b), F mod 3 is squarefree, and 3 splits by
    Dedekind's theorem, one prime (1, d) per factor degree d of F mod 3:
    an entry of _UNRAMIFIED, read with no engine call and no slot read.
    Where F = (x - s)^9 mod 3 and the lift x - s stays irregular, the
    "deep" shape is a lookup on nu_3(disc) and Delta_3 mod 3 with no
    engine call; engine_split's critical lift is what checks it.
    """
    if b == 0:
        raise ReduciblePolynomial("b = 0: x divides the trinomial")
    if a % 3:
        return _UNRAMIFIED[3, a % 3, b % 3]
    F = trinomial(a, b)
    va, vb = val(3, a), val(3, b)
    if b % 3 == 0:
        if va >= 8 and vb >= 9:
            raise ValueError("input not normalized at 3")
        if 8 * vb < 9 * va:
            if gcd(int(vb), 9) == 1:
                return _entry(3, _TOTALLY_RAMIFIED, f"3:x:one-side:d1:vb={vb}")
            # slope -vb/9 with e = 3: every ramification index above 3 is a
            # multiple of 3, so at most three primes of residue degree 1 and
            # one of degree 2 can occur; 3 never divides i(K) here.  The
            # residual y^3 +- 1 is a cube, so first-order data cannot name
            # the splitting.
            return PrimeEntry(3, IndexValuation.exact(0), None,
                              f"3:x:one-side:d3:vb={vb}",
                              warnings=("splitting needs data beyond this engine",))
        d = gcd(int(va), 8)
        if d == 1:
            return _entry(3, _ONE_EIGHT, f"3:x:two-sides:d1:va={va}")
        return _entry(3, ore_analyze(F, 3).splitting, f"3:x:two-sides:d{d}:va={va}")
    # 3 | a, 3 does not divide b: the reduction is (x - s)^9 with s = -b mod 3
    s = 1 if b % 3 == 2 else -1
    w0, w1 = val(3, zeval(F, s)), val(3, a + 9)
    tag = f"3:lin{'+' if s == 1 else '-'}"
    if w0 == 1:
        return _entry(3, _TOTALLY_RAMIFIED, f"{tag}:w0=1")
    if w1 == 1:
        return _entry(3, _ONE_EIGHT, f"{tag}:w1=1")
    if w0 == 2:
        return _entry(3, _S([(3, 1), (6, 1)]), f"{tag}:w0=2")
    if w1 == 2:
        return _entry(3, _S([(1, 1), (2, 1), (6, 1)]), f"{tag}:w1=2")
    if w0 == 3:
        return _entry(3, _S([(3, 1), (6, 1)]), f"{tag}:w0=3")
    # w0 >= 4, w1 >= 3: residual factorization decides, or, when the lift
    # x - s is irregular, nu_3(disc) and Delta_3
    try:
        return _entry(3, ore_analyze(F, 3, lift=(-s, 1)).splitting,
                      f"{tag}:w0={_fmt_w(w0)}:w1={_fmt_w(w1)}:res")
    except NotRegularError:
        pass
    d = disc(a, b)
    if val(3, d) % 2:  # d = 0 too, as in nu2
        shape, sub = _S([(1, 1), (2, 1), (6, 1)]), "vodd"
    elif unit_part(3, d) % 3 == 1:
        shape, sub = _S([(1, 1), (1, 2), (6, 1)]), "veven:D3=1"
    else:
        shape, sub = _S([(1, 1), (1, 1), (1, 1), (6, 1)]), "veven:D3=-1"
    return _entry(3, shape, f"{tag}:w0={_fmt_w(w0)}:w1={_fmt_w(w1)}:deep:{sub}")


def _fmt_w(w) -> str:
    return "inf" if w == INFINITY else str(int(w))


# ---------------------------------------------------------------------------
# the assembled report


@dataclass
class ClassifierReport:
    a_input: int
    b_input: int
    a: int
    b: int
    certificate: str
    certificate_detail: str
    entries: dict  # p -> PrimeEntry
    monogenic_order: bool | None
    monogenic_order_detail: str | None
    field_monogenic: bool | None
    i_K: int | None
    i_K_known_divisor: int
    warnings: list = field(default_factory=list)

    def describe_index(self) -> str:
        if self.i_K is not None:
            return str(self.i_K)
        parts = []
        for p in (2, 3):
            nu = self.entries[p].nu
            if nu.is_exact and nu.value == 0:
                continue
            if nu.is_exact:
                parts.append(f"{p}^{nu.value}")
            else:
                parts.append(f"{p}^(>={nu.value})")
        return " * ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        def entry_json(e: PrimeEntry) -> dict:
            return {
                "p": e.p,
                "nu": {"kind": e.nu.kind, "value": e.nu.value},
                "splitting": [list(ef) for ef in e.splitting.primes] if e.splitting else None,
                "rule": e.rule,
            }

        return {
            "input": {"a": self.a_input, "b": self.b_input},
            "normalized": {"a": self.a, "b": self.b},
            "certificate": self.certificate,
            "certificate_detail": self.certificate_detail,
            "primes": {str(p): entry_json(e) for p, e in sorted(self.entries.items())},
            "monogenic_order": self.monogenic_order,
            "monogenic_order_detail": self.monogenic_order_detail,
            "field_monogenic": self.field_monogenic,
            "i_K": self.i_K,
            "i_K_known_divisor": self.i_K_known_divisor,
            "i_K_description": self.describe_index(),
            "warnings": list(self.warnings),
        }


def classify(a: int, b: int) -> ClassifierReport:
    """Full index report for x^9 + ax + b.

    Normalizes the input, certifies irreducibility (an Unknown certificate
    is reported, not fatal; a Reducible one, or a factor of F that the
    polygon engine meets at a prime p >= 5, raises ReduciblePolynomial),
    computes nu_2 and nu_3, records nu_p = 0 for the primes p >= 5
    dividing the discriminant, and assembles i(K) = 2^nu2 * 3^nu3 when both are exact.
    Each integer is factored once: the discriminant's part prime to 6, and
    gcd(a, b), whose factors serve both normalization and the maximality
    test.
    """
    a_in, b_in = a, b
    warnings = []
    (a, b), gcd_factored = _normalize(a, b)
    if (a, b) != (a_in, b_in):
        warnings.append(f"input normalized to (a, b) = ({_show(a)}, {_show(b)})")
    if gcd_factored and gcd_factored[1] >= TRIAL_LIMIT**8:
        warnings.append("normalization undecided: gcd(a,b) has an unfactored part "
                        f"{_show(gcd_factored[1])}")
    cert, cert_detail = irreducibility_certificate(a, b)
    if cert is Certificate.REDUCIBLE:
        raise ReduciblePolynomial(cert_detail)
    if cert is Certificate.UNKNOWN:
        warnings.append("irreducibility not certified; report assumes it")
    entries = {2: nu2(a, b), 3: nu3(a, b)}
    for e in entries.values():
        warnings.extend(e.warnings)
    factored = bounded_factor(_disc_prime_to_6(a, b))
    dfac, leftover = factored
    for p in sorted(dfac):
        try:
            # no splitting above 7: gf.factor's exhaustive equal-degree
            # search takes 0.6-0.8 s on some F mod p at p = 19 and 23
            split = engine_split(a, b, p).splitting if p <= 7 else None
        except NotRegularError:  # pragma: no cover - not expected for p >= 5
            split = None
        except ExactDivisorError as exc:
            raise ReduciblePolynomial(str(exc)) from None
        entries[p] = PrimeEntry(p, IndexValuation.exact(0), split, f"{p}:ge5")
    if leftover != 1:
        warnings.append(
            f"disc has an unfactored part ({_show(leftover)}); primes >= 5 dividing "
            "it are omitted from the report (their nu is 0 regardless)"
        )
    try:
        failing = (_local_failure(a, b, gcd_factored or bounded_factor(gcd(a, b)))
                   or _square_failure(a, b, factored))
        maximal = failing is None
    except IndeterminateFactorization as exc:
        maximal, failing = None, str(exc)
        warnings.append(f"maximality undecided: {exc}")
    nu2_val, nu3_val = entries[2].nu, entries[3].nu
    known = 2**nu2_val.value * 3**nu3_val.value
    i_K = known if nu2_val.is_exact and nu3_val.is_exact else None
    # a proven index divisor > 1 rules monogenicity out; index 1 alone does not decide it
    field_monogenic = False if known > 1 else (True if maximal else None)
    return ClassifierReport(
        a_input=a_in,
        b_input=b_in,
        a=a,
        b=b,
        certificate=cert.value,
        certificate_detail=cert_detail,
        entries=entries,
        monogenic_order=maximal,
        monogenic_order_detail=failing,
        field_monogenic=field_monogenic,
        i_K=i_K,
        i_K_known_divisor=known,
        warnings=warnings,
    )
