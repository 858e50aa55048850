import random

import pytest

from nonicindex.arith import INFINITY, inv_mod_pk, is_prime, unit_part, val
from nonicindex.nonic import disc


def test_val_basic():
    assert val(2, 24) == 3
    assert val(3, 24) == 1
    assert val(5, 24) == 0
    assert val(7, -49) == 2


def test_val_zero_is_infinite():
    assert val(2, 0) == INFINITY
    assert val(2, 0) > 10**9


def test_val_rejects_composite_p():
    with pytest.raises(ValueError):
        val(4, 8)
    with pytest.raises(ValueError):
        val(1, 8)


def test_val_proves_primes_outside_the_small_set():
    # val takes p = 2, ..., 47 on sight and proves any other p prime;
    # 2209 = 47^2 is the first composite with no prime factor below 47
    for p in (1, 4, 9, 2209):
        with pytest.raises(ValueError):
            val(p, p)
    assert val(53, 53**3 * 2) == 3  # the first prime past the set


def test_val_on_discriminants():
    # worked examples: nu_2 = 29 for (183, 296), nu_3 = 26 for (126, 40130)
    assert val(2, disc(183, 296)) == 29
    assert val(3, disc(126, 40130)) == 26


def test_unit_part():
    assert unit_part(2, 24) == 3
    assert unit_part(2, -24) == -3
    assert unit_part(2, disc(7335, 24184)) % 8 == 3
    assert unit_part(3, disc(126, 40130)) % 3 == 2
    with pytest.raises(ValueError):
        unit_part(2, 0)


def test_inv_mod_pk():
    assert inv_mod_pk(2, 3, 3) == 3  # 3*3 = 9 = 1 mod 8
    assert inv_mod_pk(3, 8, 2) == 8  # exhaustive: 8*8 = 64 = 1 mod 9
    assert inv_mod_pk(5, 1, 4) == 1
    with pytest.raises(ValueError):
        inv_mod_pk(2, 6, 3)


def test_inv_mod_pk_exhaustive_small():
    # independent oracle: search [0, p^k) directly
    for p, k in ((2, 3), (3, 2), (5, 2)):
        pk = p**k
        for x in range(1, pk):
            if x % p == 0:
                continue
            brute = next(y for y in range(pk) if x * y % pk == 1)
            assert inv_mod_pk(p, x, k) == brute


def test_unit_times_power_reconstructs():
    rng = random.Random(101)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randrange(-10**9, 10**9)
        if m == 0:
            continue
        v = val(p, m)
        u = unit_part(p, m)
        assert m == p**v * u
        assert u % p != 0


def test_valuation_additivity():
    rng = random.Random(202)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randrange(1, 10**8) * rng.choice((-1, 1))
        n = rng.randrange(1, 10**8) * rng.choice((-1, 1))
        assert val(p, m * n) == val(p, m) + val(p, n)


def test_inv_roundtrip_random():
    rng = random.Random(303)
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randrange(1, 31)
        x = rng.randrange(1, p**k)
        while x % p == 0:
            x = rng.randrange(1, p**k)
        assert (x * inv_mod_pk(p, x, k)) % p**k == 1


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(2, 60):
        assert is_prime(n) == (n in primes)
