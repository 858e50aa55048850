"""The pinned engine corpus: the polygon engine's outputs must stay byte-identical.

tests/data/engine_golden.jsonl.gz holds one JSON line per record:

- ore_analyze(trinomial(a, b), p) on 300 seeded pairs, p cycling through
  2, 3, 5 and 7: a third of the pairs have up to 4 digits, a third 20-30
  and a third 40-45 digits, and about two in five are scaled to
  (a p^8, b p^9), which sends some of them down the engine's refinement
  path.  A line holds the splitting, the index, and the phi, expansion
  valuations and polygon vertices of the analysis of each repeated factor
  of F mod p, its refined lift; a simple factor takes Dedekind's rule and
  has no analysis.  Where ore_analyze raises, the line holds the error's
  class and message instead;
- the CSV rows of sweep_agreement(2, 64, 1, 1), and of
  sweep_agreement(3, 81, 1, 1) over the classes with 3 | a.

Rebuild the file (only when an output change is intended, and say so in
CHANGES.md) with

    PYTHONPATH=src python3 tests/test_engine_golden.py
"""

import gzip
import json
import os
import random

from nonicindex.polygon import NotRegularError, ore_analyze, trinomial
from nonicindex.verify import sweep_agreement

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "engine_golden.jsonl.gz")
PAIRS = 300
PRIMES = (2, 3, 5, 7)
DIGITS = ((1, 4), (20, 30), (40, 45))


def _draw(rng: random.Random, digits: tuple) -> int:
    d = rng.randint(*digits)
    return rng.choice((-1, 1)) * rng.randrange(10 ** (d - 1), 10**d)


def engine_cases():
    """(a, b, p) for the corpus, from one seeded generator."""
    rng = random.Random(8)
    for i in range(PAIRS):
        p = PRIMES[i % len(PRIMES)]
        digits = DIGITS[(i // len(PRIMES)) % len(DIGITS)]
        a, b = _draw(rng, digits), _draw(rng, digits)
        if rng.random() < 0.4:
            a, b = a * p**8, b * p**9
        yield a, b, p


def _vals(vals) -> list:
    return [None if v == float("inf") else v for v in vals]


def engine_record(a: int, b: int, p: int) -> dict:
    record = {"a": a, "b": b, "p": p}
    try:
        res = ore_analyze(trinomial(a, b), p)
    except (NotRegularError, ValueError) as exc:
        record.update(error=type(exc).__name__, detail=str(exc))
        return record
    record.update(
        splitting=str(res.splitting),
        index=res.index,
        analyses=[
            {"phi": list(an.phi), "expansion_vals": _vals(an.expansion_vals),
             "vertices": [list(v) for v in an.polygon.vertices]}
            for an in res.analyses
        ],
    )
    return record


def corpus_lines():
    for a, b, p in engine_cases():
        yield json.dumps(engine_record(a, b, p), separators=(",", ":"))
    sweeps = (sweep_agreement(2, 64, 1, 1),
              sweep_agreement(3, 81, 1, 1, class_filter=lambda a, b: a % 3 == 0))
    for report in sweeps:
        for row in report.rows:
            yield json.dumps(list(row), separators=(",", ":"))


def test_engine_matches_golden_corpus():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    lines = list(corpus_lines())
    assert len(golden) == len(lines)
    for i, (got, want) in enumerate(zip(lines, golden)):
        assert got == want, i


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    text = "".join(line + "\n" for line in corpus_lines())
    # mtime=0 keeps the file's bytes a function of its content alone
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    print(f"wrote {text.count(chr(10))} lines to {GOLDEN}")
