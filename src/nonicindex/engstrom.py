"""Common index divisor test and the exact index valuations known by type.

A prime p divides the field index i(K) exactly when, for some residue
degree f, more primes of pZ_K have residue degree f than there are monic
irreducible degree-f polynomials over F_p.  For a handful of degree-9
splitting types the exact valuation nu_p(i(K)) is known; everything else
that divides gets the honest lower bound AtLeast(1).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _key(split: Splitting) -> tuple:
    return tuple(sorted(split.primes, key=lambda ef: (ef[1], ef[0])))


# Splitting types whose exact nu_p(i(K)) is known for nonic fields.  Keys
# are (p, canonical type); canonical order is lexicographic by (f, e).
EXACT_NU: dict = {
    (2, _key(Splitting.of([(1, 1), (1, 1), (7, 1)]))): 1,
    (2, _key(Splitting.of([(1, 1), (2, 1), (2, 1), (4, 1)]))): 3,
    (2, _key(Splitting.of([(1, 1), (2, 2), (2, 2)]))): 1,
    (3, _key(Splitting.of([(1, 1), (1, 1), (1, 1), (6, 1)]))): 1,
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


def nu_lookup(split: Splitting, p: int) -> IndexValuation:
    """Exact(0) when p does not divide; a known exact value when the
    (p, type) pair is in the table; otherwise AtLeast(1)."""
    if not divides_index(split, p):
        return IndexValuation.exact(0)
    exact = EXACT_NU.get((p, _key(split)))
    if exact is not None:
        return IndexValuation.exact(exact)
    return IndexValuation.at_least(1)
