"""An oracle for x^9 + a*x + b computed with sympy alone.

Nothing here imports nonicindex.  The answers come from sympy's Round Two
(an integral basis, hence d_K and the splitting of 2 and 3), from sympy's
factorization over Z and over F_p, and from two criteria written out below:
Dedekind's index criterion and Gauss's necklace count of monic irreducibles.

Round Two is slow or fails (sympy's ClosureFailure) on some small pairs, so
its answers for a fixed pool of pairs are cached in oracle_cache.json.
Remake the cache with

    python3 perfbench/oracle.py --remake

which takes about eight minutes on one core.  With no arguments it prints
how many cached answers are of each kind.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time


CACHE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_cache.json")

# The pool that classify-small draws from: seeded pairs with 0 < |a|, |b| < 100.
POOL_SEED = 230703284
POOL_SIZE = 400
ROUND_TWO_TIMEOUT_S = 20

# The seven worked examples and their published i(K): ("exact", n) or, for
# (35, 20), only "2 divides i(K)".
PUBLISHED = (
    (51, 122, ("exact", 1)),
    (35, 20, ("divisible", 2)),
    (1392, 768, ("exact", 2)),
    (126, 40130, ("exact", 3)),
    (15381, 6634, ("exact", 6)),
    (183, 296, ("exact", 8)),
    (7335, 24184, ("exact", 24)),
)


def _sympy():
    """sympy is imported on first use, so the pure checks below stay cheap."""
    import sympy

    return sympy


def trinomial(a: int, b: int):
    sp = _sympy()
    x = sp.Symbol("x")
    return sp.Poly(x**9 + a * x + b, x, domain=sp.ZZ)


def _mod_p(poly, p: int):
    """poly (an integer Poly) reduced into F_p[x]."""
    return _sympy().Poly(poly.as_expr(), *poly.gens, modulus=p)


def pool_pairs() -> list:
    """The fixed pool of (a, b), before reducible pairs are dropped."""
    rng = random.Random(POOL_SEED)
    seen = set()
    out = []
    while len(out) < POOL_SIZE:
        a = rng.randrange(1, 100) * rng.choice((1, -1))
        b = rng.randrange(1, 100) * rng.choice((1, -1))
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# criteria written out


def mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def necklace_count(p: int, f: int) -> int:
    """Monic irreducible polynomials of degree f over F_p (Gauss)."""
    return sum(mobius(d) * p ** (f // d) for d in range(1, f + 1) if f % d == 0) // f


def divides_index(splitting, p: int) -> bool:
    """p | i(K) iff some residue degree f has more primes than N_p(f)."""
    counts: dict = {}
    for _e, f in splitting:
        counts[f] = counts.get(f, 0) + 1
    return any(c > necklace_count(p, f) for f, c in counts.items())


def factor_pattern(a: int, b: int, p: int) -> list:
    """Sorted [(degree, multiplicity)] of F mod p."""
    _, facs = _mod_p(trinomial(a, b), p).factor_list()
    return sorted([g.degree(), m] for g, m in facs)


def dedekind_divides(a: int, b: int, p: int) -> bool:
    """Dedekind's criterion: does p divide (Z_K : Z[alpha])?

    With F = prod phi_i^e_i mod p, g = prod phi_i, h = prod phi_i^(e_i - 1)
    (monic integer lifts) and G = (g*h - F)/p, p divides the index iff
    gcd(G mod p, g mod p, h mod p) is not constant.
    """
    sp = _sympy()
    F = trinomial(a, b)
    _, facs = _mod_p(F, p).factor_list()
    g = h = sp.Poly(1, *F.gens, domain=sp.ZZ)
    for phi, e in facs:
        lift = sp.Poly([int(c) % p for c in phi.monic().all_coeffs()], *F.gens, domain=sp.ZZ)
        g *= lift
        h *= lift ** (e - 1)
    G = (g * h - F).exquo_ground(p)
    common = _mod_p(G, p)
    for q in (g, h):
        common = common.gcd(_mod_p(q, p))
    return common.degree() > 0


def second_factor_digits(disc: int) -> int:
    """Digits of the second-largest prime factor of disc's part prime to 6.

    This is the factor a factoring routine has to find after it has split off
    the small primes, so it measures how hard the discriminant is to factor.
    """
    rough = abs(disc)
    for q in (2, 3):
        while rough % q == 0:
            rough //= q
    primes = sorted(p for p, e in _sympy().factorint(rough).items() for _ in range(e))
    return len(str(primes[-2])) if len(primes) >= 2 else 0


def fits_pattern(splitting, pattern) -> bool:
    """Can the primes (e, f) be grouped by the factors (deg, mult) of F mod p?

    The primes above a factor phi of F mod p with multiplicity m have
    deg(phi) | f and sum of e*f equal to m*deg(phi).
    """
    primes = sorted(splitting, reverse=True)
    need = [d * m for d, m in pattern]

    def place(i: int) -> bool:
        if i == len(primes):
            return all(n == 0 for n in need)
        e, f = primes[i]
        for j, (d, _m) in enumerate(pattern):
            if f % d == 0 and need[j] >= e * f:
                need[j] -= e * f
                if place(i + 1):
                    return True
                need[j] += e * f
        return False

    return place(0)


# ---------------------------------------------------------------------------
# the cache


class _Timeout(BaseException):
    """Raised from SIGALRM; a BaseException so sympy's handlers let it pass."""


def _on_alarm(signum, frame):
    raise _Timeout()


def answer(a: int, b: int, timeout_s: int = ROUND_TWO_TIMEOUT_S) -> dict:
    """Every oracle fact about (a, b); round_two may time out or fail."""
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.primes import prime_decomp

    T = trinomial(a, b)
    _, facs = T.factor_list()
    irreducible = len(facs) == 1 and facs[0][1] == 1 and facs[0][0].degree() == 9
    out = {
        "a": a,
        "b": b,
        "irreducible": irreducible,
        "disc": int(T.discriminant()),
        "patterns": {str(p): factor_pattern(a, b, p) for p in (2, 3)},
        "dedekind": {str(p): dedekind_divides(a, b, p) for p in (2, 3)},
        "splitting": None,
        "d_K": None,
        "round_two": "skipped",
        "second_factor_digits": second_factor_digits(int(T.discriminant())),
    }
    if not irreducible:
        return out
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(timeout_s)
    try:
        ZK, dK = round_two(T)
        out["splitting"] = {
            str(p): sorted([P.e, P.f] for P in prime_decomp(p, T=T, dK=dK, ZK=ZK))
            for p in (2, 3)
        }
        out["d_K"] = int(dK)
        out["round_two"] = "ok"
    except _Timeout:
        out["round_two"] = f"timeout>{timeout_s}s"
    except Exception as exc:  # sympy raises ClosureFailure on some of these
        out["round_two"] = type(exc).__name__
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return out


def remake(path: str = CACHE_PATH) -> None:
    started = time.perf_counter()
    pool = []
    for i, (a, b) in enumerate(pool_pairs()):
        t = time.perf_counter()
        pool.append(answer(a, b))
        print(f"[{i + 1}/{POOL_SIZE}] ({a}, {b}) {pool[-1]['round_two']} "
              f"{time.perf_counter() - t:.2f}s", file=sys.stderr, flush=True)
    examples = []
    for a, b, published in PUBLISHED:
        ans = answer(a, b)
        ans["published"] = list(published)
        examples.append(ans)
    data = {
        "pool_seed": POOL_SEED,
        "pool_size": POOL_SIZE,
        "round_two_timeout_s": ROUND_TWO_TIMEOUT_S,
        "pool": pool,
        "examples": examples,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path} in {time.perf_counter() - started:.0f}s", file=sys.stderr)


def load(path: str = CACHE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--remake", action="store_true", help="recompute oracle_cache.json")
    args = ap.parse_args(argv)
    if args.remake:
        remake()
    else:
        data = load()
        kinds: dict = {}
        for ans in data["pool"] + data["examples"]:
            key = ans["round_two"] if ans["irreducible"] else "reducible"
            kinds[key] = kinds.get(key, 0) + 1
        print(json.dumps(kinds, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
