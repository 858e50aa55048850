"""The pinned classify corpus: every output must stay byte-identical.

tests/data/classify_golden.jsonl.gz holds one JSON line per pair: the
seven worked examples, then every pair in [-30, 30]^2 in order, then 500
seeded pairs with 30 < max(|a|, |b|) < 100, whose discriminants reach
Brent's rho and ECM far more often than those of the box do.  A pair
that classify accepts is written as its to_json() report; a pair it
rejects (a reducible trinomial) is written with the error's class and
message.

Rebuild the file (only when an output change is intended, and say so in
CHANGES.md) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import gzip
import json
import os
import random

from nonicindex.nonic import ClassifierError, classify

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


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    text = "".join(corpus_line(a, b) + "\n" for a, b in corpus_pairs())
    # mtime=0 keeps the file's bytes a function of its content alone
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    print(f"wrote {text.count(chr(10))} lines to {GOLDEN}")
