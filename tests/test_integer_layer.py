"""The integer layer behind the factoring chain: arith.is_prime and
arith.perfect_power against sympy, and a classifier that never imports
sympy."""

import ast
import os
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime
from sympy.ntheory.primetest import is_strong_selfridge_prp

from nonicindex import arith
from nonicindex.arith import (
    _PSI,
    _is_strong_lucas_probable_prime,
    _is_strong_probable_prime,
    is_prime,
    perfect_power,
)
from nonicindex.nonic import classify

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PSI13 = 3317044064679887385961981  # the Miller-Rabin bound, _PSI[-1]

PSEUDOPRIMES = [
    # the smallest strong pseudoprimes to the first 1, 4, 9, 12 and 13 prime bases
    2047, 3215031751, 3825123056546413051, 318665857834031151167461, PSI13,
    # Carmichael numbers, three of them (6k+1)(12k+1)(18k+1) above PSI13
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    3556406972273962762722241, 3556575393317182200121489, 3556772780402016598720321,
    # a strong pseudoprime to base 2 above PSI13, 1300000007197 x 2600000014393:
    # the Lucas half of the Baillie-PSW test rejects it
    3380000037423100103586421,
    # strong Lucas pseudoprimes (Selfridge's parameters)
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
]
SQUARES = [p * p for p in (53, 1093, 3511, 1000003, nextprime(10**12), nextprime(2 * 10**12),
                           nextprime(10**20))]


@pytest.mark.parametrize("n", PSEUDOPRIMES + SQUARES)
def test_is_prime_rejects_pseudoprimes_and_squares(n):
    assert is_prime(n) is False
    assert isprime(n) is False


def test_psi_table():
    # each bound is composite and a strong pseudoprime to all of its bases
    bases = list(sympy.primerange(2, 42))
    assert len(_PSI) == len(bases) == 13 and _PSI[-1] == PSI13
    for k, psi in enumerate(_PSI, 1):
        assert not isprime(psi)
        assert all(_is_strong_probable_prime(psi, q) for q in bases[:k])


def test_strong_lucas_matches_sympy():
    for n in list(range(49, 20001, 2)) + PSEUDOPRIMES + SQUARES:
        if n % 2 and all(n % q for q in sympy.primerange(3, 48)):
            assert _is_strong_lucas_probable_prime(n) == is_strong_selfridge_prp(n), n


NUMBERS = st.one_of(
    st.integers(-10, 10**6),
    st.integers(2, PSI13 - 1),
    st.integers(PSI13, 10**45),
    st.integers(0, 10**45).map(nextprime),  # primes on both sides of PSI13
    st.builds(lambda p, q: nextprime(p) * nextprime(q),
              st.integers(10**5, 10**16), st.integers(10**5, 10**16)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(NUMBERS)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(4, 10**12).filter(lambda b: not isprime(b)), st.integers(2, 40))
def test_perfect_power_matches_sympy_on_powers(base, e):
    n = base**e
    assert perfect_power(n) == sympy.perfect_power(n)
    assert perfect_power(n + 1) == sympy.perfect_power(n + 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.integers(0, 10**6), st.integers(0, 10**60),
                 st.builds(lambda p, e: nextprime(p) ** e, st.integers(2, 10**8), st.integers(1, 12))))
def test_perfect_power_matches_sympy(n):
    assert perfect_power(n) == sympy.perfect_power(n)


def test_common_path_does_not_import_sympy():
    # (51, 122): rho splits the cofactor 1041857 x 2938654097;
    # (67, -35): ECM splits the cofactor 122137355819 x 3744328045883
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for a, b in ((51, 122), (67, -35)):
        code = (
            "import sys\n"
            "from nonicindex import cli\n"
            f"assert cli.main(['classify', '--a', '{a}', '--b', '{b}', '--json']) == 0\n"
            "print('sympy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", (a, b)


def test_no_module_imports_sympy():
    package = os.path.join(SRC, "nonicindex")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "sympy" for m in modules), (name, node.lineno)


def test_ecm_still_decides(monkeypatch):
    calls = []
    ecm = arith._ecm

    def counted_ecm(*args):
        calls.append(args)
        return ecm(*args)

    monkeypatch.setattr(arith, "_ecm", counted_ecm)
    assert classify(67, -35).monogenic_order is not None
    assert calls  # the cofactor got past rho
