"""Common index divisor test and the exact index valuations known by type.

A prime p divides the field index i(K) exactly when, for some residue
degree f, more primes of pZ_K have residue degree f than there are monic
irreducible degree-f polynomials over F_p.  For a handful of degree-9
splitting types the exact valuation nu_p(i(K)) is known; everything else
that divides gets the honest lower bound AtLeast(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf import count_monic_irreducible
from .polygon import Splitting


@dataclass(frozen=True)
class IndexValuation:
    """Exact(n) or AtLeast(n) - the answer for nu_p(i(K))."""

    kind: str  # "exact" | "at_least"
    value: int

    @staticmethod
    def exact(n: int) -> "IndexValuation":
        return IndexValuation("exact", n)

    @staticmethod
    def at_least(n: int) -> "IndexValuation":
        if n < 1:
            raise ValueError("AtLeast bound must be >= 1")
        return IndexValuation("at_least", n)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def divides(self) -> bool:
        """True when the prime certainly divides i(K)."""
        return self.value >= 1

    def __str__(self):
        return str(self.value) if self.kind == "exact" else f">={self.value}"


# Splitting types whose exact nu_p(i(K)) is known for nonic fields.  Keys
# are (p, primes) of Splitting.of, which sorts the pairs by (f, e).
EXACT_NU: dict = {
    (2, Splitting.of([(1, 1), (1, 1), (7, 1)]).primes): 1,
    (2, Splitting.of([(1, 1), (2, 1), (2, 1), (4, 1)]).primes): 3,
    (2, Splitting.of([(1, 1), (2, 2), (2, 2)]).primes): 1,
    (3, Splitting.of([(1, 1), (1, 1), (1, 1), (6, 1)]).primes): 1,
}


def divides_index(split: Splitting, p: int) -> bool:
    """Does p divide i(K), given the splitting type of pZ_K?

    True iff P_f > N_f for some f, with P_f the number of primes of
    residue degree f and N_f the count of monic irreducibles of degree f.
    """
    for f, count in split.residue_counts().items():
        if count > count_monic_irreducible(p, f):
            return True
    return False


# A splitting of degree 9 is one of 145 types, and the classifier reaches
# the lookup at p = 2 and 3 only: 290 keys
@lru_cache(maxsize=512)
def nu_lookup(split: Splitting, p: int) -> IndexValuation:
    """Exact(0) when p does not divide; a known exact value when the
    (p, type) pair is in the table; otherwise AtLeast(1).  Cached on
    (split, p): both are immutable, and so is the answer."""
    if not divides_index(split, p):
        return IndexValuation.exact(0)
    exact = EXACT_NU.get((p, split.primes))
    if exact is not None:
        return IndexValuation.exact(exact)
    return IndexValuation.at_least(1)
