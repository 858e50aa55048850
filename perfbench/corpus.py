"""Seeded inputs for the three workloads.  The same seed gives the same inputs.

classify-small  the seven worked examples of the paper, then pairs drawn by
                the seed from the oracle's fixed pool of irreducible pairs
                with 0 < |a|, |b| < 100 (see classify_small).
index-wide      pairs of 20 to 45 digits in INDEX_BANDS, some built as
                (a0*p^8, b0*p^9), plus the fixed >308-digit slice.
sweep-agreement the full p = 2 grid mod 64 and the p = 3 grid mod 243 with
                3 | a; the seed draws the sweeps' lifts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd

# classify-small takes every pool pair whose discriminant has a second-largest
# prime factor (prime to 6) of HARD_FACTOR_DIGITS digits or more: these few
# pairs carry about half of classify's time, so drawing them by seed would
# move the run's figures more than any program change of interest.  Of every
# other stratum it draws EASY_SHARE by seed.
HARD_FACTOR_DIGITS = 8
EASY_SHARE = 0.75

# (digits, plain pairs, scaled pairs) per band.  Every number starts with the
# digits 10, so all pairs of a band cost about the same, whatever the seed.
# A scaled pair is (a0*p^8, b0*p^9) with (a0, b0) of the band's size, so it
# costs what a plain pair of its band costs plus the stripping of p.  Of the
# 44 pairs, the 30-digit band (20 pairs, ranks 13-32) holds the median op and
# the 45-digit band (4 pairs, a tenth) the 95th percentile, so neither sits
# on the boundary between two bands.  The 30-digit pairs cost 9-16 ms each,
# by their residues mod 2 and 3; there are many, so that their median hardly
# depends on the seed.
INDEX_BANDS = ((20, 4, 2), (25, 4, 2), (30, 16, 4), (35, 3, 1), (40, 4, 0), (45, 4, 0))
# The primes stripped from scaled pairs, taken in turn.
SCALE_PRIMES = (2, 3, 5, 7, 11, 13)
# (a, b) mod 7 with x^9 + ax + b irreducible over F_7, so every index-wide
# pair is irreducible over Q.  `python3 perfbench/corpus.py` checks the list.
IRREDUCIBLE_MOD7 = (
    (0, 2), (0, 3), (0, 4), (0, 5), (1, 1), (1, 6), (2, 1), (2, 6), (4, 1), (4, 6),
)
# Above about 308 digits nonic._iroot overflows a float.  These pairs (sizes
# in OVERFLOW_DIGITS) do not depend on the seed, and each op on them fails with
# OverflowError until that fault is mended.
OVERFLOW_DIGITS = ((310, 312), (330, 320))

SWEEP_GRIDS = ((2, 64), (3, 243))


@dataclass(frozen=True)
class Pair:
    a: int
    b: int
    expect_normalized: tuple | None = None  # index-wide: what normalize must give
    expect_overflow: bool = False  # the >308-digit slice
    published: tuple | None = None  # the worked examples' i(K)
    oracle: dict | None = None  # classify-small: the cached oracle answer


def classify_small(seed: int, cache: dict) -> list:
    """The examples, then a seeded draw from the pool, stratified by how hard
    the discriminant is to factor (oracle.second_factor_digits)."""
    examples = [
        Pair(ans["a"], ans["b"], published=tuple(ans["published"]), oracle=ans)
        for ans in cache["examples"]
    ]
    strata: dict = {}
    for ans in cache["pool"]:
        if ans["irreducible"]:
            strata.setdefault(ans["second_factor_digits"], []).append(ans)
    rng = random.Random(seed)
    drawn = []
    for digits in sorted(strata):
        members = strata[digits]
        take = len(members) if digits >= HARD_FACTOR_DIGITS else math.ceil(len(members) * EASY_SHARE)
        drawn += rng.sample(members, take)
    rng.shuffle(drawn)
    return examples + [Pair(ans["a"], ans["b"], oracle=ans) for ans in drawn]


def _leading_ten(rng: random.Random, digits: int) -> int:
    """A random signed number of `digits` digits that starts with 10."""
    digits = max(digits, 3)
    return rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 11 * 10 ** (digits - 2))


def _normalized_pair(rng: random.Random, digits_a: int, digits_b: int) -> tuple:
    """Coprime (a, b), irreducible mod 7, so (a, b) is already normalized."""
    ra, rb = rng.choice(IRREDUCIBLE_MOD7)
    a = _leading_ten(rng, digits_a)
    b = _leading_ten(rng, digits_b)
    a += (ra - a) % 7
    b += (rb - b) % 7
    while gcd(a, b) != 1:
        b += 7
    return a, b


def index_wide(seed: int) -> list:
    rng = random.Random(seed)
    pairs = []
    primes = iter(SCALE_PRIMES * len(INDEX_BANDS))
    for digits, plain, scaled in INDEX_BANDS:
        for _ in range(plain):
            a, b = _normalized_pair(rng, digits, digits)
            pairs.append(Pair(a, b, expect_normalized=(a, b)))
        for _ in range(scaled):
            p = next(primes)
            a0, b0 = _normalized_pair(rng, digits, digits)
            pairs.append(Pair(a0 * p**8, b0 * p**9, expect_normalized=(a0, b0)))
    fixed = random.Random(308)
    for digits_a, digits_b in OVERFLOW_DIGITS:
        a, b = _normalized_pair(fixed, digits_a, digits_b)
        pairs.append(Pair(a, b, expect_normalized=(a, b), expect_overflow=True))
    return pairs


def _check_irreducible_mod7() -> None:
    from sympy import Poly, Symbol

    x = Symbol("x")
    found = tuple(
        (a, b) for a in range(7) for b in range(7)
        if Poly(x**9 + a * x + b, x, modulus=7).is_irreducible
    )
    if found != IRREDUCIBLE_MOD7:
        raise SystemExit(f"IRREDUCIBLE_MOD7 should be {found}")
    print("IRREDUCIBLE_MOD7 matches sympy")


if __name__ == "__main__":
    _check_irreducible_mod7()
