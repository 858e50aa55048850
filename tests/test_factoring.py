"""The bounded factoring chain behind the maximality test: block trial
division, Brent's rho and ECM under one deterministic budget, and the
totality of classify above the chain's digit ceiling."""

import os
import subprocess
import sys
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime

from nonicindex import arith
from nonicindex.arith import bounded_factor
from nonicindex.nonic import _disc_prime_to_6, classify

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HUGE = (10**399 + 7, 10**400 + 1)  # a discriminant of 3,599 digits


def _record_effort(monkeypatch):
    """Count the rho steps, ECM calls and curves and primality-test arguments
    of the chain."""
    effort = {"rho_steps": 0, "ecm_calls": 0, "ecm_curves": 0, "isprime_digits": []}
    walk, ecm, prime = arith._brent, sympy.ntheory.ecm, arith.is_prime

    def counted_walk(n, c, y, cap):
        d, steps = walk(n, c, y, cap)
        effort["rho_steps"] += steps
        return d, steps

    def counted_ecm(*args):
        effort["ecm_calls"] += 1
        effort["ecm_curves"] += args[3]  # ecm(n, B1, B2, max_curve, seed)
        return ecm(*args)

    def counted_isprime(n):
        effort["isprime_digits"].append(len(str(n)))
        return prime(n)

    monkeypatch.setattr(arith, "_brent", counted_walk)
    monkeypatch.setattr(sympy.ntheory, "ecm", counted_ecm)
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
    assert 0 < effort["rho_steps"] <= 64 and effort["ecm_calls"] == 0


def test_trial_division_reaches_the_largest_sieved_prime():
    # 29989 is the largest prime up to TRIAL_LIMIT
    n = 2**5 * 29989 * 29983**2 * 1000003
    assert bounded_factor(n) == ({2: 5, 29983: 2, 29989: 1, 1000003: 1}, 1)


@pytest.mark.parametrize("a, b", [(707, 549), (203, 993)])
def test_hard_discriminants_factor_completely(a, b):
    # cofactors of 33 and 34 digits with a 14-digit prime: past rho, ECM's work
    n = _disc_prime_to_6(a, b)
    factors, leftover = bounded_factor(n)
    assert leftover == 1
    assert factors == factorint(n)
    assert classify(a, b).monogenic_order is not None


def test_ecm_runs_within_the_budget_on_a_large_cofactor(monkeypatch):
    # a 179-digit cofactor (592 bits, weight 5): 16 curves would cost more
    # than the whole budget, so a call runs the curves the budget affords
    effort = _record_effort(monkeypatch)
    q, r = nextprime(10**20), nextprime(10**18)
    n = q**8 * r
    weight = 1 + (n.bit_length() >> 8) ** 2
    assert arith._ECM_CURVES * arith._ECM_CURVE_UNITS * weight > arith._FACTOR_BUDGET
    factors, leftover = bounded_factor(n)
    assert prod(p**e for p, e in factors.items()) * leftover == n
    assert effort["ecm_calls"] >= 1
    spent = (effort["rho_steps"] + effort["ecm_curves"] * arith._ECM_CURVE_UNITS) * weight
    assert spent <= arith._FACTOR_BUDGET


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
