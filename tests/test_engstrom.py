import gzip
import json
import os
import random

from nonicindex.engstrom import EXACT_NU, IndexValuation, divides_index, nu_lookup
from nonicindex.gf import count_monic_irreducible
from nonicindex.polygon import Splitting


def _all_splittings(total=9):
    """Every multiset of (e, f) pairs with sum e*f = total."""
    pairs = [(e, f) for e in range(1, total + 1) for f in range(1, total + 1)
             if e * f <= total]
    pairs.sort()
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(Splitting.of(acc))
            return
        for i in range(idx, len(pairs)):
            e, f = pairs[i]
            if e * f <= remaining:
                rec(i, remaining - e * f, acc + [(e, f)])

    rec(0, total, [])
    return out


ALL_SPLITTINGS = _all_splittings()


def test_divides_examples():
    assert divides_index(Splitting.of([(1, 1), (1, 1), (7, 1)]), 2) is True
    assert divides_index(Splitting.of([(1, 1), (4, 2)]), 2) is False
    assert divides_index(Splitting.of([(1, 1), (8, 1)]), 2) is False
    assert divides_index(Splitting.of([(1, 1), (2, 2), (2, 2)]), 2) is True
    assert divides_index(Splitting.of([(1, 1), (4, 1), (4, 1)]), 2) is True
    assert divides_index(Splitting.of([(1, 1), (4, 1), (4, 1)]), 3) is False


def test_p_at_least_11_never_divides():
    # N_f >= 11 > 9 >= P_f for every f, for every nonic splitting type
    for split in ALL_SPLITTINGS:
        assert divides_index(split, 11) is False
        assert divides_index(split, 13) is False


def test_divides_matches_direct_count():
    for split in ALL_SPLITTINGS:
        for p in (2, 3, 5, 7):
            counts = split.residue_counts()
            brute = any(c > count_monic_irreducible(p, f) for f, c in counts.items())
            assert divides_index(split, p) == brute


def test_monotone_in_added_primes():
    # appending a prime of some residue degree never flips True -> False
    rng = random.Random(5)
    for _ in range(300):
        split = rng.choice(ALL_SPLITTINGS)
        p = rng.choice((2, 3, 5, 7))
        before = divides_index(split, p)
        bigger = Splitting.of(list(split.primes) + [(1, rng.randrange(1, 4))])
        if before:
            assert divides_index(bigger, p)


def test_lookup_examples():
    assert nu_lookup(Splitting.of([(1, 1), (1, 1), (7, 1)]), 2) == IndexValuation.exact(1)
    assert nu_lookup(Splitting.of([(1, 1), (2, 1), (2, 1), (4, 1)]), 2) == IndexValuation.exact(3)
    assert nu_lookup(Splitting.of([(1, 1), (2, 2), (2, 2)]), 2) == IndexValuation.exact(1)
    assert nu_lookup(Splitting.of([(1, 1), (1, 1), (1, 1), (6, 1)]), 3) == IndexValuation.exact(1)
    assert nu_lookup(Splitting.of([(1, 1), (4, 2)]), 2) == IndexValuation.exact(0)


def test_lookup_soundness():
    # Exact(0) iff the divisibility test is false; everything else divisible
    for split in ALL_SPLITTINGS:
        for p in (2, 3, 5, 7):
            nu = nu_lookup(split, p)
            if divides_index(split, p):
                assert nu.divides and nu.value >= 1
            else:
                assert nu == IndexValuation.exact(0)


def test_exact_table_is_exactly_the_known_rows():
    # the table must contain nothing beyond the four published values
    def key(pairs):
        return tuple(sorted(pairs, key=lambda ef: (ef[1], ef[0])))

    assert EXACT_NU == {
        (2, key(((1, 1), (1, 1), (7, 1)))): 1,
        (2, key(((1, 1), (2, 1), (2, 1), (4, 1)))): 3,
        (2, key(((1, 1), (2, 2), (2, 2)))): 1,
        (3, key(((1, 1), (1, 1), (1, 1), (6, 1)))): 1,
    }


def test_at_least_rows_stay_lower_bounds():
    # the five-linear-primes type divides but has no published exact value
    nu = nu_lookup(Splitting.of([(1, 1), (1, 1), (1, 1), (2, 1), (4, 1)]), 2)
    assert nu.kind == "at_least" and nu.value == 1
    assert str(nu) == str(IndexValuation.at_least(1)) == ">=1"


def test_cached_lookup_matches_the_uncached_function_on_the_golden_corpus():
    # nu_lookup is cached on (splitting, p): on every splitting of the
    # pinned classify corpus, cold and warm, it equals the function under
    # the cache, and at 2 and 3 it gives the corpus's recorded valuation
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "classify_golden.jsonl.gz")
    keys = set()
    with gzip.open(golden, "rt") as lines:
        for line in lines:
            for entry in json.loads(line).get("primes", {}).values():
                if entry["splitting"] is not None:
                    split = Splitting.of(tuple(ef) for ef in entry["splitting"])
                    nu = IndexValuation(entry["nu"]["kind"], entry["nu"]["value"])
                    keys.add((split, entry["p"], nu if entry["p"] < 5 else None))
    assert len(keys) == 34
    nu_lookup.cache_clear()
    for _ in range(2):
        for split, p, recorded in keys:
            assert nu_lookup(split, p) == nu_lookup.__wrapped__(split, p), (split, p)
            assert recorded in (None, nu_lookup(split, p)), (split, p)
    assert nu_lookup.cache_info().maxsize is not None
