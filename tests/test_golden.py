"""The pinned classify corpus: every output must stay byte-identical.

tests/data/classify_golden.jsonl.gz holds one JSON line per pair: the
seven worked examples, then every pair in [-30, 30]^2 in order, then 500
seeded pairs with 30 < max(|a|, |b|) < 100, whose discriminants reach
Brent's rho and ECM far more often than those of the box do.  A pair
that classify accepts is written as its to_json() report; a pair it
rejects (a reducible trinomial) is written with the error's class and
message.

The same corpus checks that is_order_maximal, on the normalized pair,
gives classify's maximality verdict on every accepted pair of the box.

Rebuild the file (only when an output change is intended, and say so in
CHANGES.md) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import gzip
import json
import os
import random

import pytest

from nonicindex.nonic import (
    ClassifierError,
    IndeterminateFactorization,
    classify,
    is_order_maximal,
    normalize,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "classify_golden.jsonl.gz")
WORKED_EXAMPLES = ((51, 122), (1392, 768), (126, 40130), (15381, 6634),
                   (183, 296), (7335, 24184), (35, 20))
BOX = 30
OUTER = 100  # the seeded pairs lie in (-OUTER, OUTER)^2, outside the box
OUTER_PAIRS = 500


def corpus_pairs():
    yield from WORKED_EXAMPLES
    for a in range(-BOX, BOX + 1):
        for b in range(-BOX, BOX + 1):
            yield a, b
    rng = random.Random(10)
    drawn = 0
    while drawn < OUTER_PAIRS:
        a, b = rng.randrange(1 - OUTER, OUTER), rng.randrange(1 - OUTER, OUTER)
        if max(abs(a), abs(b)) > BOX:
            drawn += 1
            yield a, b


def corpus_line(a: int, b: int) -> str:
    try:
        record = classify(a, b).to_json()
    except (ClassifierError, ValueError) as exc:
        record = {"input": {"a": a, "b": b}, "error": type(exc).__name__,
                  "detail": str(exc)}
    return json.dumps(record, separators=(",", ":"))


def test_classify_matches_golden_corpus():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    pairs = list(corpus_pairs())
    assert len(golden) == len(pairs)
    for (a, b), want in zip(pairs, golden):
        assert corpus_line(a, b) == want, (a, b)


def _maximality(a: int, b: int) -> tuple:
    """is_order_maximal on the normalized pair, an undecided one as (None, message)."""
    try:
        return is_order_maximal(*normalize(a, b))
    except IndeterminateFactorization as exc:
        return None, str(exc)


def test_is_order_maximal_agrees_with_classify_on_the_box():
    # classify decides maximality on the gcd it factored for normalization,
    # is_order_maximal on its own factorization; the corpus holds classify's
    # answers (test above), so the box is read from it, not recomputed
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    checked = 0
    for record in records[len(WORKED_EXAMPLES):len(WORKED_EXAMPLES) + (2 * BOX + 1) ** 2]:
        if "error" not in record:
            want = (record["monogenic_order"], record["monogenic_order_detail"])
            assert _maximality(record["input"]["a"], record["input"]["b"]) == want, record["input"]
            checked += 1
    assert checked > 3000


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_order_maximal_agrees_with_classify_past_normalization(p):
    # maximal, a prime of gcd(a, b), mod 9, and squares of 5 and 131 in the disc
    for a0, b0 in ((-30, -23), (-30, -28), (-30, -25), (-30, -11), (-29, -29), (-7, -9)):
        a, b = a0 * p**8, b0 * p**9
        report = classify(a, b)
        assert (report.a, report.b) == (a0, b0)
        assert _maximality(a, b) == (report.monogenic_order, report.monogenic_order_detail)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    text = "".join(corpus_line(a, b) + "\n" for a, b in corpus_pairs())
    # mtime=0 keeps the file's bytes a function of its content alone
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    print(f"wrote {text.count(chr(10))} lines to {GOLDEN}")
