"""Exact integer utilities: primality, integer roots, perfect powers,
p-adic valuations, unit parts, modular inverses and a bounded factorer.

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


# ---------------------------------------------------------------------------
# bounded integer factoring

# The chain's effort is counted in units.  A rho step (a modular squaring
# and a product) on an operand of b bits costs 1 + (b // 256)^2 units, since
# schoolbook products grow with the square of the length.  Counting units,
# not seconds, gives an input the same answer on every machine.
TRIAL_LIMIT = 30_000  # trial division by every prime up to this
_TRIAL_BLOCK = 64  # primes per block product
_RHO_ROUNDS = 16  # rho walks per composite, each from its own start
_RHO_BATCH = 128  # rho steps per gcd
_RHO_UNITS = 1 << 17  # rho effort per composite, over all its rounds
_ECM_B1, _ECM_B2 = 2_000, 200_000  # stage bounds, suited to factors of ~15 digits
_ECM_CURVES = 16  # curves per ECM call
_ECM_CURVE_UNITS = 1 << 16  # one curve at these bounds costs about this many rho steps
_FACTOR_BUDGET = 1 << 22  # all effort of one bounded_factor call
_FACTOR_DIGITS = 300  # a cofactor with more digits is left unfactored at once
_FACTOR_CEILING = 10**_FACTOR_DIGITS


def primes_upto(limit: int) -> tuple:
    """Every prime up to limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return tuple(i for i in range(2, limit + 1) if sieve[i])


def _trial_blocks() -> tuple:
    """(product, primes) blocks over every prime up to TRIAL_LIMIT."""
    primes = primes_upto(TRIAL_LIMIT)
    blocks = (primes[i : i + _TRIAL_BLOCK] for i in range(0, len(primes), _TRIAL_BLOCK))
    return tuple((math.prod(block), block) for block in blocks)


_TRIAL_BLOCKS = _trial_blocks()  # built once, at import


def trial_divide(n: int, factors: dict) -> int:
    """Divide the primes up to TRIAL_LIMIT out of n into factors; return
    the rest.  One gcd per block; only a block sharing a prime is scanned."""
    for block, primes in _TRIAL_BLOCKS:
        if primes[0] * primes[0] > n:
            break  # n is 1 or a prime
        shared = math.gcd(block, n % block)
        if shared == 1:
            continue
        for p in primes:
            if shared % p == 0:
                while n % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    n //= p
    return n


def _brent(n: int, c: int, y: int, cap: int) -> tuple:
    """Brent's rho walk y -> y^2 + c mod n, at most cap steps before the
    final backtrack, with one gcd per _RHO_BATCH steps (Brent, BIT 1980).

    Returns (d, steps): d is a divisor 1 < d < n, or None when the walk hit
    its cap or closed its cycle on n itself.
    """
    g = q = r = 1
    steps = 0
    while g == 1:
        if steps + r > cap:
            return None, steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            batch = min(_RHO_BATCH, r - k, cap - steps)
            if batch <= 0:
                return None, steps
            ys = y
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            steps += batch
            k += batch
        r *= 2
    if g == n:
        # the batch's product hit both factors; redo it one gcd per step
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            steps += 1
    return (g if g < n else None), steps


def bounded_factor(n: int) -> tuple:
    """Factor |n| by a bounded, seeded chain.

    Trial division by the primes up to TRIAL_LIMIT, then for each
    remaining composite: _RHO_ROUNDS rounds of Brent's rho, round r walking
    from y = 2 + r with c = 1 + r, for at most _RHO_UNITS in all; then ECM
    calls of up to _ECM_CURVES curves (Lenstra, Annals 1987) with seeds 1,
    2, ..., each call as many curves as the budget still affords.  Every
    step is charged to one budget of _FACTOR_BUDGET units per call; a part
    the budget cannot afford, or with more than _FACTOR_DIGITS digits, is
    left unfactored.  The same n always gets the same answer.

    Returns (factors, leftover): factors maps primes to exponents, in
    increasing order, and leftover is 1 on success, else the product of
    the parts that were left unfactored.
    """
    n = abs(n)
    if n <= 1:
        return {}, 1
    factors: dict = {}
    n = trial_divide(n, factors)
    if n == 1:
        return factors, 1
    budget = _FACTOR_BUDGET
    stack = [n]
    leftover = 1
    while stack:
        m = stack.pop()
        if m > _FACTOR_CEILING:
            leftover *= m
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        power = perfect_power(m)
        if power:
            base, exp = power
            for _ in range(exp):
                stack.append(base)
            continue
        weight = 1 + (m.bit_length() >> 8) ** 2
        d = None
        allowance = min(_RHO_UNITS, budget) // weight
        for r in range(_RHO_ROUNDS):
            if allowance <= 0:
                break
            d, steps = _brent(m, 1 + r, 2 + r, allowance)
            allowance -= steps
            budget -= steps * weight
            if d is not None:
                break
        seed = 1
        while d is None:
            curves = min(_ECM_CURVES, budget // (_ECM_CURVE_UNITS * weight))
            if not curves:
                break
            budget -= curves * _ECM_CURVE_UNITS * weight
            from sympy.ntheory import ecm  # imported on first use: few inputs get here

            try:
                # a set of distinct primes of m: take one, split m by it
                d = min(ecm(m, _ECM_B1, _ECM_B2, curves, seed))
            except ValueError:
                seed += 1
        if d is None:
            leftover *= m
        else:
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(factors.items())), leftover
