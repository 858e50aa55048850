"""The bounded factoring chain behind the maximality test: block trial
division, Brent's rho and ECM under one deterministic budget, and the
totality of classify above the chain's digit ceiling."""

import os
import random
import subprocess
import sys
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

from nonicindex import arith, nonic
from nonicindex.arith import bounded_factor
from nonicindex.nonic import _disc_prime_to_6, classify

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HUGE = (10**399 + 7, 10**400 + 1)  # a discriminant of 3,599 digits


def _record_effort(monkeypatch):
    """Count the rho steps, ECM calls, curves and units and primality-test
    arguments of the chain."""
    effort = {"rho_steps": 0, "ecm_calls": 0, "ecm_curves": 0, "ecm_units": 0,
              "isprime_digits": []}
    walk, ecm, curve, prime = arith._brent, arith._ecm, arith._ecm_curve, arith.is_prime

    def counted_walk(n, c, y, cap):
        d, steps = walk(n, c, y, cap)
        effort["rho_steps"] += steps
        return d, steps

    def counted_ecm(n, cap):
        d, units = ecm(n, cap)
        effort["ecm_calls"] += 1
        effort["ecm_units"] += units
        return d, units

    def counted_curve(*args):
        effort["ecm_curves"] += 1
        return curve(*args)

    def counted_isprime(n):
        effort["isprime_digits"].append(len(str(n)))
        return prime(n)

    monkeypatch.setattr(arith, "_brent", counted_walk)
    monkeypatch.setattr(arith, "_ecm", counted_ecm)
    monkeypatch.setattr(arith, "_ecm_curve", counted_curve)
    monkeypatch.setattr(arith, "is_prime", counted_isprime)
    return effort


def test_effort_recorder_sees_the_chain(monkeypatch):
    # the recorder patches the names the chain calls: on an ordinary pair it
    # sees the primality tests and rho steps that split the discriminant
    effort = _record_effort(monkeypatch)
    classify(51, 122)  # leaves the cofactor 1041857 x 2938654097
    assert len(str(1041857 * 2938654097)) in effort["isprime_digits"]
    assert effort["rho_steps"] > 0


def test_exhausted_budget_leaves_the_composite(monkeypatch):
    effort = _record_effort(monkeypatch)
    monkeypatch.setattr(arith, "_FACTOR_BUDGET", 64)
    n = 1000003 * 1000033  # rho needs about a thousand steps for it
    assert bounded_factor(n) == ({}, n)
    assert 0 < effort["rho_steps"] <= 64 and effort["ecm_curves"] == 0


def _brent_reference(n, c, y, cap):
    """Brent's rho as _brent runs it, with the product reduced every step."""
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
            batch = min(arith._RHO_BATCH, r - k, cap - steps)
            if batch <= 0:
                return None, steps
            ys = y
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            steps += batch
            k += batch
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
            steps += 1
    return (g if g < n else None), steps


def test_unrolled_rho_matches_the_reference():
    # reducing the product once per four steps changes no gcd, so the
    # divisor and the step count are the reference's
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(10**12, 10**20) | 1
        c, cap = rng.randrange(1, 4), rng.randrange(1, 5000)
        assert arith._brent(n, c, c + 1, cap) == _brent_reference(n, c, c + 1, cap), (n, c, cap)


def _ladder_reference(k, X, Z, n, a24):
    """Montgomery's ladder as _ladder runs it, by separate xDBL and xADD."""

    def xdbl(X, Z):
        s, d = (X + Z) ** 2 % n, (X - Z) ** 2 % n
        t = s - d
        return s * d % n, t * (d + a24 * t) % n

    def xadd(X1, Z1, X2, Z2):
        u, v = (X1 - Z1) * (X2 + Z2), (X1 + Z1) * (X2 - Z2)
        return Z * (u + v) ** 2 % n, X * (u - v) ** 2 % n

    P0, P1 = (X, Z), xdbl(X, Z)
    for bit in bin(k)[3:]:
        if bit == "1":
            P0, P1 = xadd(*P0, *P1), xdbl(*P1)
        else:
            P0, P1 = xdbl(*P0), xadd(*P0, *P1)
    return P0, P1


def test_inlined_ladder_matches_the_reference():
    # writing xDBL and xADD out changes no product mod n
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(10**12, 10**40) | 1
        k = rng.randrange(1, 1 << rng.randrange(1, 300))
        X, Z, a24 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert arith._ladder(k, X, Z, n, a24) == _ladder_reference(k, X, Z, n, a24), (k, X, Z, n, a24)


def test_trial_division_reaches_the_largest_sieved_prime():
    # 29989 is the largest prime up to TRIAL_LIMIT
    n = 2**5 * 29989 * 29983**2 * 1000003
    assert bounded_factor(n) == ({2: 5, 29983: 2, 29989: 1, 1000003: 1}, 1)


@pytest.mark.parametrize("a, b", [(707, 549), (203, 993), (80, 31), (-82, 22), (-75080, -30531)])
def test_hard_discriminants_factor_completely(a, b, monkeypatch):
    # past rho, ECM's work: cofactors of 33 and 34 digits with a 14-digit
    # prime, two of the benchmark pool's with a 10-digit prime, and a
    # 44-digit one with a 17-digit prime; classify's own call is checked,
    # so the discriminant is factored once
    calls = {}

    def recorded(m):
        calls[m] = result = bounded_factor(m)
        return result

    monkeypatch.setattr(nonic, "bounded_factor", recorded)
    assert classify(a, b).monogenic_order is not None
    n = _disc_prime_to_6(a, b)
    factors, leftover = calls[n]
    assert leftover == 1
    # by unique factorization, the same proof as factors == factorint(n)
    assert all(isprime(p) and e >= 1 for p, e in factors.items())
    assert prod(p**e for p, e in factors.items()) == n


def test_ecm_runs_within_the_budget_on_a_large_cofactor(monkeypatch):
    # a 179-digit cofactor (592 bits, weight 5): ECM runs the curves the
    # budget affords after rho, each charged per multiplication at weight 5
    effort = _record_effort(monkeypatch)
    q, r = nextprime(10**20), nextprime(10**18)
    n = q**8 * r
    weight = 1 + (n.bit_length() >> 8) ** 2
    assert weight == 5
    factors, leftover = bounded_factor(n)
    assert prod(p**e for p, e in factors.items()) * leftover == n
    assert effort["ecm_calls"] >= 1 and effort["ecm_curves"] >= 1
    spent = (effort["rho_steps"] + effort["ecm_units"]) * weight
    assert spent <= arith._FACTOR_BUDGET


_rng = random.Random(2026)
SEMIPRIMES = [  # (p, q): p of d digits and q of 24 - d, d = 8 ... 12, then 6 and 7
    (nextprime(_rng.randrange(10 ** (d - 1), 10**d)), nextprime(_rng.randrange(10 ** (23 - d), 10 ** (24 - d))))
    for d in (*range(8, 13), 6, 7)
]


@pytest.mark.parametrize("p, q", SEMIPRIMES)
def test_ecm_splits_semiprimes(p, q):
    d, units = arith._ecm(p * q, arith._FACTOR_BUDGET)
    assert d in (p, q)
    assert 0 < units <= arith._FACTOR_BUDGET
    assert arith._ecm(p * q, arith._FACTOR_BUDGET) == (d, units)  # the same factor again


def test_ecm_never_spends_more_than_its_cap():
    n = nextprime(10**19) * nextprime(10**20)  # primes of 20 and 21 digits
    for cap in (0, 1, 10_000, 60_000, 200_000):
        d, units = arith._ecm(n, cap)
        assert units <= cap
        assert d is None or n % d == 0 and 1 < d < n


def test_classify_is_total_above_the_digit_ceiling(monkeypatch):
    effort = _record_effort(monkeypatch)
    report = classify(*HUGE)
    assert report.monogenic_order is None
    assert any(w.startswith("maximality undecided") for w in report.warnings)
    # the cofactor goes straight to leftover: no rho step, ECM curve or
    # primality test is spent on it
    assert effort["rho_steps"] == 0 and effort["ecm_calls"] == 0
    assert all(d <= arith._FACTOR_DIGITS for d in effort["isprime_digits"])


def test_cli_is_total_above_the_digit_ceiling():
    a, b = HUGE
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "nonicindex.cli", "classify", "--a", str(a), "--b", str(b), "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode in (0, 1, 2, 3)
    assert "Traceback" not in proc.stderr + proc.stdout
    assert '"monogenic_order": null' in proc.stdout


PRIMES = st.builds(
    lambda digits, offset: nextprime(10 ** (digits - 1) + offset),
    st.integers(5, 14), st.integers(0, 10**4),
)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(PRIMES, min_size=2, max_size=4), st.data())
def test_bounded_factor_is_exact(primes, data):
    primes += data.draw(st.lists(st.sampled_from(primes), max_size=2))  # repeats
    n = prod(primes)
    factors, leftover = bounded_factor(n)
    assert prod(p**e for p, e in factors.items()) * leftover == n
    assert all(isprime(p) for p in factors)
    if leftover != 1:
        assert not isprime(leftover)
        assert gcd(leftover, prod(block for block, _ in arith._TRIAL_BLOCKS)) == 1
