"""Independent exact checks used to verify benchmark outputs.

Nothing here imports the package under test: shapes, determinants,
twists and strips are recomputed from their definitions with plain
fractions, so a defect in a fast path cannot hide behind itself.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


def scalar(x) -> Fraction:
    """A JSON entry (int or "p/q" string) as an exact rational."""
    return Fraction(x)


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def solve(rows, rhs) -> list[Fraction]:
    """The unique solution of a square system; raises if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            raise ValueError("singular system")
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[r][n] for r in range(n)]


def matrix_entries(obj: dict) -> list[list[Fraction]]:
    return [[scalar(x) for x in row] for row in obj["entries"]]


def maximal_minors(entries, n: int) -> dict[tuple[int, ...], Fraction]:
    """All k x k minors of a k x n matrix, keyed by 0-based column sets."""
    return {cols: det([[row[j] for j in cols] for row in entries])
            for cols in combinations(range(n), len(entries))}


class Shape:
    """A juggling function from its throw list, by definition only."""

    def __init__(self, throws):
        self.n = len(throws)
        self.values = [i + t for i, t in enumerate(throws, start=1)]
        self.inv = {}
        for i, v in enumerate(self.values, start=1):
            r = (v - 1) % self.n + 1
            self.inv[r] = i - (v - r)

    def __call__(self, a: int) -> int:
        r = (a - 1) % self.n + 1
        return self.values[r - 1] + (a - r)

    def inverse(self, b: int) -> int:
        r = (b - 1) % self.n + 1
        return self.inv[r] + (b - r)

    def landing_schedule(self, a: int) -> list[int]:
        return [b for b in range(a, a + self.n) if self.inverse(b) < a]


def twist_by_definition(entries, shape: Shape) -> list[list[Fraction]]:
    """Column a pairs to 1 with column a and to 0 with the other
    landing-schedule columns; loops give zero columns."""
    n, k = shape.n, len(entries)
    cols = []
    for a in range(1, n + 1):
        if shape(a) == a:
            cols.append([Fraction(0)] * k)
            continue
        sched = sorted((b - 1) % n for b in shape.landing_schedule(a))
        system = [[entries[r][j] for r in range(k)] for j in sched]
        rhs = [int(j == a - 1) for j in sched]
        cols.append(solve(system, rhs))
    return [[cols[j][r] for j in range(n)] for r in range(k)]


def twist_pairs(twisted, entries, shape: Shape) -> bool:
    """Whether twisted satisfies the defining pairing with entries."""
    n, k = shape.n, len(entries)
    for a in range(1, n + 1):
        col = [twisted[r][a - 1] for r in range(k)]
        if shape(a) == a:
            if any(col):
                return False
            continue
        for b in shape.landing_schedule(a):
            j = (b - 1) % n
            dot = sum(col[r] * entries[r][j] for r in range(k))
            if dot != int(j == a - 1):
                return False
    return True


def complement_holds(comp, entries, n: int) -> bool:
    """Minors of comp on complementary column sets equal those of entries."""
    mine = maximal_minors(entries, n)
    theirs = maximal_minors(comp, n)
    full = set(range(n))
    return all(theirs[tuple(sorted(full - set(cols)))] == d
               for cols, d in mine.items())


def catalan(h: int) -> int:
    return comb(2 * h, h) // (h + 1)


def reduces_by_ears(quiddity) -> bool:
    """Whether repeatedly cutting an ear (an entry 1, decrementing both
    neighbours) brings the cyclic sequence down to (1, 1, 1)."""
    q = list(quiddity)
    while len(q) > 3:
        i = next((i for i, v in enumerate(q) if v == 1), None)
        if i is None:
            return False
        q[i - 1] -= 1
        q[(i + 1) % len(q)] -= 1
        del q[i]
    return q == [1, 1, 1]


def strip_columns(quiddity, height: int) -> list[list[int]]:
    """Columns 0..n of the classical strip by the diamond rule
    e(d, b) e(d-2, b+1) = e(d-1, b) e(d-1, b+1) - 1."""
    n = len(quiddity)
    rows = [[1] * n, list(quiddity)]
    for d in range(2, height + 1):
        rows.append([(rows[d - 1][b] * rows[d - 1][(b + 1) % n] - 1)
                     // rows[d - 2][(b + 1) % n] for b in range(n)])
    return [[rows[d][b] for d in range(height + 1)] + [0] * (n - height)
            for b in range(n)]
