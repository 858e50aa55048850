"""Exact integer utilities: primality, integer roots, perfect powers,
p-adic valuations, unit parts and modular inverses.

All arithmetic is exact big-integer arithmetic; valuations of 0 are the
float infinity sentinel so that zero polygon coefficients sort above every
finite lattice point.
"""

from __future__ import annotations

import math

INFINITY = math.inf

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)


# _PSI[k - 1] is the smallest strong pseudoprime to all of the first k prime
# bases (OEIS A014233; Jaeschke, Math. Comp. 1993, and Sorenson and Webster,
# Math. Comp. 2017, for k = 12 and 13).
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Primality of n: a proof below _PSI[-1] (about 3.3e24), the
    Baillie-PSW test above.

    Trial division by the primes up to 47 settles every n < 2209.  Below
    _PSI[-1], n gets the strong probable-prime test to the prime bases 2,
    3, 5, ... in turn, until it fails one or n < _PSI[k - 1] after k of
    them, which proves n prime.  Above, base 2 and the strong Lucas test
    with Selfridge's parameters make the Baillie-PSW test (Baillie and
    Wagstaff, Math. Comp. 1980), which has no known counterexample.
    sympy.isprime without gmpy2 is exact below the same bound and runs the
    same test above it, so the two give the same answers.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 47 * 47:
        return True
    if n < _PSI[-1]:
        for q, psi in zip(_SMALL_PRIMES, _PSI):
            if not _is_strong_probable_prime(n, q):
                return False
            if n < psi:
                return True
    return _is_strong_probable_prime(n, 2) and _is_strong_lucas_probable_prime(n)


def _is_strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin: is the odd n > base a strong probable prime to base?"""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(base, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 47.

    D is the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and
    Q = (1 - D) / 4.  With n + 1 = d * 2^s, d odd, n passes when U_d = 0
    or V_(d * 2^r) = 0 for some 0 <= r < s (all mod n).  A square has no
    such D, so it is rejected first.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) < n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        # k -> 2k
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # k -> k + 1: U' = (U + V) / 2, V' = (D U + V) / 2, halved mod odd n
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            U, V, Qk = U % n, V % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def iroot(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0, exactly, by integer Newton iteration."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x < 2:
        return x
    # start above the root; from there each Newton step decreases until the
    # floor of the root is reached
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def perfect_power(n: int):
    """(base, e) with base^e = n and e >= 2 as large as possible, or False
    when there is none (also for n <= 3); for n >= 0 the answer of
    sympy.perfect_power.

    Only prime exponents are tried: the first prime e with n = r^e exact
    is followed by a search of r itself, which makes the exponent maximal.
    When a prime q <= 47 divides n, e must divide nu_q(n); otherwise the
    base exceeds 47, so e is at most log_53(n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 3:
        return False
    k = next((val(q, n) for q in _SMALL_PRIMES if n % q == 0), 0)
    e = 1
    while True:
        e += 1
        if k:
            if e > k:
                return False
            if k % e:
                continue
        elif 53**e > n:
            return False
        if not is_prime(e):
            continue
        r = iroot(n, e)
        if r**e == n:
            inner = perfect_power(r)
            return (inner[0], e * inner[1]) if inner else (r, e)


def _require_prime(p: int) -> None:
    if p not in _SMALL_PRIME_SET and not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def val(p: int, m: int) -> int | float:
    """nu_p(m): the largest k with p^k | m, or INFINITY for m = 0."""
    if p not in _SMALL_PRIME_SET:
        _require_prime(p)
    if m == 0:
        return INFINITY
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def unit_part(p: int, m: int) -> int:
    """m / p^val(p, m); coprime to p, sign of m preserved."""
    _require_prime(p)
    if m == 0:
        raise ValueError("unit_part of 0 is undefined")
    while m % p == 0:
        m //= p
    return m


def inv_mod_pk(p: int, x: int, k: int) -> int:
    """Inverse of x modulo p^k, for x coprime to p.  Result in [0, p^k)."""
    _require_prime(p)
    if k < 1:
        raise ValueError("k must be positive")
    if x % p == 0:
        raise ValueError(f"{x} is divisible by {p}, not invertible mod {p}^{k}")
    return pow(x, -1, p**k)
