"""Common index divisors and prime splitting for fields x^9 + ax + b."""

from .arith import INFINITY, inv_mod_pk, unit_part, val
from .engstrom import IndexValuation, divides_index, nu_lookup
from .nonic import (
    Certificate,
    ClassifierReport,
    IndeterminateFactorization,
    ReduciblePolynomial,
    Unclassified,
    classify,
    delta_unit,
    disc,
    irreducibility_certificate,
    is_order_maximal,
    normalize,
    nu2,
    nu3,
)
from .polygon import (
    NotRegularError,
    Splitting,
    dedekind_divides,
    is_p_regular,
    ore_analyze,
    ore_split,
    trinomial,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Certificate",
    "ClassifierReport",
    "IndexValuation",
    "IndeterminateFactorization",
    "NotRegularError",
    "ReduciblePolynomial",
    "Splitting",
    "Unclassified",
    "classify",
    "dedekind_divides",
    "delta_unit",
    "disc",
    "divides_index",
    "inv_mod_pk",
    "irreducibility_certificate",
    "is_order_maximal",
    "is_p_regular",
    "normalize",
    "nu2",
    "nu3",
    "nu_lookup",
    "ore_analyze",
    "ore_split",
    "trinomial",
    "unit_part",
    "val",
]
