"""Reference computations that only the tests use.

The discriminant of x^9 + ax + b as a Sylvester resultant, an oracle for
the closed form nonic.disc, the product a gf.Factorization stands for, and
the smallest integer root of x^9 + ax + b by bisection, an oracle for the
certificate's lifted root search, the usable primes read off the
certificate's mod-p table, and a watch that counts what the table is asked.
"""

from nonicindex import gf, nonic
from nonicindex.arith import iroot
from nonicindex.gf import pmul, ptrim
from nonicindex.polygon import trinomial


def _bareiss_det(rows) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def sylvester_matrix(f, g) -> list:
    """Sylvester matrix of f, g given as low-first coefficient tuples."""
    mdeg, ndeg = len(f) - 1, len(g) - 1
    size = mdeg + ndeg
    rows = []
    frev = list(reversed(f))
    grev = list(reversed(g))
    for i in range(ndeg):
        rows.append([0] * i + frev + [0] * (size - i - len(frev)))
    for i in range(mdeg):
        rows.append([0] * i + grev + [0] * (size - i - len(grev)))
    return rows


def disc_resultant(a: int, b: int) -> int:
    """Discriminant of x^9 + ax + b via Res(F, F'), fraction-free.

    For a monic degree-9 polynomial the sign factor (-1)^(9*8/2) is +1,
    so this is exactly the Sylvester determinant.
    """
    f = trinomial(a, b)
    fprime = (a, 0, 0, 0, 0, 0, 0, 0, 9)
    return _bareiss_det(sylvester_matrix(f, fprime))


def expand(F, fact) -> tuple:
    """unit * prod(poly^mult) of a gf.Factorization, over the field F."""
    acc = (fact.unit,)
    for poly, mult in fact.factors:
        for _ in range(mult):
            acc = pmul(F, acc, poly)
    return ptrim(acc)


def smallest_integer_root(a: int, b: int) -> int | None:
    """The smallest integer root of x^9 + ax + b, or None if it has none,
    by bisection on the monotone pieces of F."""
    # |r| >= 2 forces |r|^8 <= |a| + |b|
    bound = max(1, iroot(abs(a) + abs(b), 8) + 1)
    if a >= 0:
        pieces = ((-bound, bound, 1),)
    else:
        # F' = 9x^8 + a is <= 0 on [-k, k] and > 0 for |x| >= k + 1;
        # k < bound, so no piece is empty
        k = iroot(-a // 9, 8)
        pieces = ((-bound, -k - 1, 1), (-k, k, -1), (k + 1, bound, 1))
    for lo, hi, sign in pieces:
        # the smallest x in [lo, hi] with sign * F(x) >= 0; sign * F rises
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * (mid**9 + a * mid + b) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if lo**9 + a * lo + b == 0:
            return lo
    return None


def usable_primes(a: int, b: int) -> list:
    """(p, a mod p, b mod p) for each p <= 97, in order, whose slot in the
    certificate's mod-p table holds a record: each p not dividing disc(a, b)."""
    return [(p, a % p, b % p) for p in nonic._CERT_PRIMES
            if nonic._factor_degrees(p, a % p, b % p)]


def clear_table() -> None:
    """Empty the certificate's mod-p table: every row unallocated."""
    nonic._ROWS.update(dict.fromkeys(nonic._ROWS))


def filled_slots() -> int:
    """The number of filled slots in the certificate's mod-p table."""
    return sum(slot is not None for row in nonic._ROWS.values() if row for slot in row)


class TableWatch:
    """The certificate's mod-p table, emptied, with two counts: reads, the
    slots read from its rows, and passes, the distinct-degree passes run to
    fill them.  Each row becomes a list of p^2 empty slots that counts its
    reads; monkeypatch puts the rows and gf.distinct_degree back."""

    def __init__(self, monkeypatch):
        self.reads = self.passes = 0
        self._monkeypatch = monkeypatch
        watch = self
        distinct_degree = gf.distinct_degree

        def counted(*args):
            watch.passes += 1
            return distinct_degree(*args)

        class Row(list):
            def __getitem__(self, i):
                watch.reads += 1
                return list.__getitem__(self, i)

        self._row = Row
        monkeypatch.setattr(gf, "distinct_degree", counted)
        self.clear()

    def clear(self) -> None:
        """Empty every row again; the counts go on."""
        for p in nonic._ROWS:
            self._monkeypatch.setitem(nonic._ROWS, p, self._row([None] * (p * p)))
