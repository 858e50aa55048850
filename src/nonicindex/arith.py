"""Exact integer utilities: primality, integer roots, perfect powers,
p-adic valuations, unit parts, modular inverses and a bounded factorer
(trial division, Brent's rho and ECM on Montgomery curves), all on plain
ints with no third-party package.

All arithmetic is exact big-integer arithmetic; valuations of 0 are the
float infinity sentinel so that zero polygon coefficients sort above every
finite lattice point.
"""

from __future__ import annotations

import array
import functools
import itertools
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
# schoolbook products grow with the square of the length; ECM is charged the
# same, one unit per two modular multiplications it runs.  Counting units,
# not seconds, gives an input the same answer on every machine.
TRIAL_LIMIT = 30_000  # trial division by every prime up to this
_TRIAL_BLOCK = 64  # primes per block product
_RHO_ROUNDS = 16  # rho walks per composite, each from its own start
_RHO_BATCH = 128  # rho steps per gcd
_RHO_UNITS = 1 << 12  # rho effort per composite, over all its rounds
_FACTOR_BUDGET = 1 << 22  # all effort of one bounded_factor call
_FACTOR_DIGITS = 300  # a cofactor with more digits is left unfactored at once
_FACTOR_CEILING = 10**_FACTOR_DIGITS

# ECM's stage-1 bound B1 and the curves run at it, in order (None: until
# the budget runs out); B2 = 100 B1.  Measured on seeded semiprimes
# (BENCH_12.json), rho and ECM cost the same units for a factor of 7
# digits: rho's mean to a split rises from 1.3k units at 6 digits to 15k at
# 8 and 165k at 10, ECM's at B1 = 150 from 2.2k to 6.4k and 29k.  So rho's
# allowance covers factors of about 6-7 digits, B1 = 150 (the cheapest for
# 8-11 digits) takes the next ones, then B1 = 600 (12-13 digits) and
# Zimmermann and Dodson's table (15 digits: 2000, 20 digits: 11000).
_ECM_SCHEDULE = ((150, 20), (600, 30), (2_000, 30), (11_000, None))
_ECM_D = 210  # stage 2's giant step; its baby steps are the j < D/2 prime to D
_ECM_BABY = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)


def _sieve(limit: int) -> bytearray:
    """sieve[i] is 1 exactly when i <= limit is prime (Eratosthenes)."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return sieve


def primes_upto(limit: int) -> tuple:
    """Every prime up to limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return ()
    return tuple(itertools.compress(range(limit + 1), _sieve(limit)))


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
    The product of the differences is reduced mod n once per four steps.

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
            for _ in range(batch >> 2):
                y1 = (y * y + c) % n
                y2 = (y1 * y1 + c) % n
                y3 = (y2 * y2 + c) % n
                y = (y3 * y3 + c) % n
                q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
            for _ in range(batch & 3):
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


# Montgomery's curves B y^2 = x^3 + A x^2 + x in x-only coordinates (X : Z),
# with a24 = (A + 2) / 4.  xDBL costs 5 multiplications mod n, xADD 6.
def _xdbl(X: int, Z: int, n: int, a24: int) -> tuple:
    s, d = (X + Z) ** 2 % n, (X - Z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(X1: int, Z1: int, X2: int, Z2: int, Xd: int, Zd: int, n: int) -> tuple:
    """P1 + P2 from P1, P2 and their difference (Xd : Zd)."""
    u, v = (X1 - Z1) * (X2 + Z2), (X1 + Z1) * (X2 - Z2)
    return Zd * (u + v) ** 2 % n, Xd * (u - v) ** 2 % n


def _ladder_mults(k: int) -> int:
    return 5 + 11 * (k.bit_length() - 1)


def _ladder(k: int, X: int, Z: int, n: int, a24: int) -> tuple:
    """(kP, (k + 1)P) for P = (X : Z) and k >= 1, by Montgomery's ladder;
    _ladder_mults(k) multiplications.  xADD and xDBL are written out, so
    that each step shares the sums and differences of its two points."""
    s, d = (X + Z) ** 2 % n, (X - Z) ** 2 % n
    t = s - d
    X0, Z0, X1, Z1 = X, Z, s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        p0, m0 = X0 + Z0, X0 - Z0
        p1, m1 = X1 + Z1, X1 - Z1
        u, v = m0 * p1, p0 * m1  # P0 + P1 is (Z (u + v)^2 : X (u - v)^2)
        if bit == "1":  # (P0 + P1, 2 P1)
            X0, Z0 = Z * (u + v) ** 2 % n, X * (u - v) ** 2 % n
            s, d = p1 * p1 % n, m1 * m1 % n
            t = s - d
            X1, Z1 = s * d % n, t * (d + a24 * t) % n
        else:  # (2 P0, P0 + P1)
            X1, Z1 = Z * (u + v) ** 2 % n, X * (u - v) ** 2 % n
            s, d = p0 * p0 % n, m0 * m0 % n
            t = s - d
            X0, Z0 = s * d % n, t * (d + a24 * t) % n
    return (X0, Z0), (X1, Z1)


_ECM_SETUP_MULTS = 16  # Suyama's point and a24, besides one inversion


@functools.lru_cache(maxsize=len(_ECM_SCHEDULE))
def _ecm_plan(b1: int) -> tuple:
    """(E, k0, ends, baby, stage-1 mults, stage-2 mults) for the bounds B1
    = b1 and B2 = 100 b1; built on first use, one per B1.

    E is the product of the largest power of each prime up to B1 that is at
    most B1.  Stage 2 meets each prime q in (B1, B2] as q = k D +- j, j one
    of _ECM_BABY: giant step k, from k0 on, pairs with the baby steps whose
    indices are baby[ends[k - k0 - 1] : ends[k - k0]] (one entry also
    covers k D - j and k D + j both prime).
    """
    b2 = 100 * b1
    sieve = _sieve(b2)
    e = 1
    for p in itertools.compress(range(b1 + 1), sieve):
        power = p
        while power * p <= b1:
            power *= p
        e *= power
    half, width = _ECM_D // 2, len(_ECM_BABY)
    k0 = (b1 + 1 + half) // _ECM_D
    k1 = (b2 + half) // _ECM_D
    index = {j: i for i, j in enumerate(_ECM_BABY)}
    marks = bytearray(width * (k1 - k0 + 1))
    for q in itertools.compress(range(b1 + 1, b2 + 1), sieve[b1 + 1 :]):
        k = (q + half) // _ECM_D
        marks[(k - k0) * width + index[abs(q - k * _ECM_D)]] = 1
    baby, ends = bytearray(), array.array("I")
    for row in range(0, len(marks), width):
        baby.extend(itertools.compress(range(width), marks[row : row + width]))
        ends.append(len(baby))
    mults1 = _ECM_SETUP_MULTS + _ladder_mults(e)
    # 2Q; 3Q, 5Q ... (D/2)Q; D Q; x = X / Z of the baby steps; the giant
    # ladder; per giant step the next one; per pair two multiplications
    mults2 = 5 + 6 * (half // 2) + 5 + 2 * width + _ladder_mults(k0) + 6 * len(ends) + 2 * len(baby)
    return e, k0, ends, bytes(baby), mults1, mults2


def _ecm_curve(n: int, sigma: int, plan: tuple) -> tuple:
    """One ECM curve on n, Suyama's curve sigma: (d, mults), d a divisor
    1 < d < n or None, and mults the multiplications mod n it ran (a stage
    left early is charged in full)."""
    e, k0, ends, baby, mults1, mults2 = plan
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    u3, v3 = u * u * u % n, v * v * v % n
    # x = u^3 / v^3 and a24 = (v - u)^3 (3u + v) / (16 u^3 v), by one inverse
    den = 16 * u3 * v % n
    g = math.gcd(den * v3 % n, n)
    if g != 1:
        return (g if g < n else None), _ECM_SETUP_MULTS
    inv = pow(den * v3 % n, -1, n)  # 1 / (16 u^3 v^4)
    x = den * u3 * inv % n
    a24 = pow(v - u, 3, n) * (3 * u + v) * v3 * inv % n
    (X, Z), _ = _ladder(e, x, 1, n, a24)
    g = math.gcd(Z, n)
    if g != 1:
        return (g if g < n else None), mults1
    # stage 2: the baby steps jQ for odd j up to D/2, each from (j - 2)Q and 2Q
    X2, Z2 = _xdbl(X, Z, n, a24)
    odd = [(X, Z), _xadd(X2, Z2, X, Z, X, Z, n)]
    for _ in range(_ECM_D // 4 - 1):
        odd.append(_xadd(*odd[-1], X2, Z2, *odd[-2], n))
    XG, ZG = _xdbl(*odd[-1], n, a24)  # D Q
    # x_j = X_j / Z_j by one inversion (Montgomery's simultaneous inverse):
    # prefix products of the Z_j, the inverse of the last, then a backward pass
    steps = [odd[j // 2] for j in _ECM_BABY]
    prefix, acc = [], 1
    for _, Zj in steps:
        acc = acc * Zj % n
        prefix.append(acc)
    g = math.gcd(acc, n)
    if g != 1:
        return (g if g < n else None), mults1 + mults2
    inv = pow(acc, -1, n)  # 1 / (Z_0 ... Z_last)
    xs = [0] * len(steps)
    for i in range(len(steps) - 1, 0, -1):
        Xj, Zj = steps[i]
        xs[i] = Xj * prefix[i - 1] % n * inv % n
        inv = inv * Zj % n  # 1 / (Z_0 ... Z_(i-1))
    xs[0] = steps[0][0] * inv % n
    (Xk, Zk), (Xn, Zn) = _ladder(k0, XG, ZG, n, a24)
    # X_k - x_j Z_k is 0 mod p when k D Q = +-j Q mod p
    acc, start = 1, 0
    for end in ends:
        for i in baby[start:end]:
            acc = acc * (Xk - xs[i] * Zk) % n
        start = end
        (Xk, Zk), (Xn, Zn) = (Xn, Zn), _xadd(Xn, Zn, XG, ZG, Xk, Zk, n)
    g = math.gcd(acc, n)
    return (g if 1 < g < n else None), mults1 + mults2


def _ecm(n: int, cap: int) -> tuple:
    """One factor of the composite n by ECM with Montgomery's curves
    (Montgomery, Math. Comp. 48, 1987): Suyama's curves sigma = 6, 7, ...,
    a ladder by E to B1 and baby-step giant-step to B2, B1 as _ECM_SCHEDULE
    gives it.  A curve runs only if the units left afford all of it.

    Returns (d, units): d is a divisor 1 < d < n or None, units the effort
    spent, one per two multiplications mod n run, never more than cap.
    """
    spent, sigma = 0, 6
    for b1, curves in _ECM_SCHEDULE:
        plan = _ecm_plan(b1)
        whole = (plan[4] + plan[5] + 1) // 2  # the units of a curve run to B2
        for _ in range(curves) if curves else itertools.count():
            if spent + whole > cap:
                return None, spent
            d, mults = _ecm_curve(n, sigma, plan)
            spent += (mults + 1) // 2
            sigma += 1
            if d is not None:
                return d, spent
    return None, spent


def bounded_factor(n: int) -> tuple:
    """Factor |n| by a bounded, seeded chain.

    Trial division by the primes up to TRIAL_LIMIT, then for each
    remaining composite: _RHO_ROUNDS rounds of Brent's rho, round r walking
    from y = 2 + r with c = 1 + r, for at most _RHO_UNITS in all; then ECM
    (Lenstra, Annals 1987) on Montgomery's curves, with B1 rising by
    _ECM_SCHEDULE.  Every modular multiplication is charged to one budget
    of _FACTOR_BUDGET units per call; a part the budget cannot afford, or
    with more than _FACTOR_DIGITS digits, is left unfactored.  The same n
    always gets the same answer.

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
        if d is None:
            d, units = _ecm(m, budget // weight)
            budget -= units * weight
        if d is None:
            leftover *= m
        else:
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(factors.items())), leftover
