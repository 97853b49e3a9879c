"""Seeded random instances for the property suite.

Unimodular matrices for arbitrary shapes are hard to sample directly,
so random instances come from four sources: the worked-example pool
composed with random integer determinant-1 matrices, quiddity-derived
matrices for two-ball uniform shapes, copies grown from those by
inserting loops and coloops, and plain rejection sampling for the
properties that only need full rank.
"""
import random
from fractions import Fraction

from jugglerfrieze import (JugglingFunction, Matrix, enumerate_sl2_positive,
                           frieze_to_matrix, is_pi_unimodular)

import fixture_data as fx
from exact_oracles import rank

# (matrix, shape) pool; every entry is checked unimodular on import
UNIMODULAR_POOL = [
    (fx.CONSEC_3x8, fx.UNIFORM_8_3),
    (fx.TWIST_3x8, fx.UNIFORM_8_3),
    (fx.UNIMOD_4x8, fx.PI_23345357),
    (fx.TWIST_4x8, fx.PI_23345357),
    (fx.COMPLEMENT_4x8, fx.PI_53635514),
    (fx.INVERSE_TWIST_4x8, fx.PI_53635514),
    (fx.MATRIX_003, fx.PI_003),
    (fx.MATRIX_4400, fx.PI_4400),
    (fx.MATRIX_4130, fx.PI_4130),
]
for _m, _pi in UNIMODULAR_POOL:
    assert is_pi_unimodular(_m, _pi).ok

_QUIDDITY_MATRICES = None


def _quiddity_matrices():
    """Two-row matrices for every positive integral strip of height 2..4."""
    global _QUIDDITY_MATRICES
    if _QUIDDITY_MATRICES is None:
        pool = []
        for h in (2, 3, 4):
            for f in enumerate_sl2_positive(h, h):
                pool.append((frieze_to_matrix(f), JugglingFunction.uniform(h + 2, 2)))
        _QUIDDITY_MATRICES = pool
    return _QUIDDITY_MATRICES


def random_juggling(rng: random.Random, max_period: int = 8) -> JugglingFunction:
    n = rng.randint(1, max_period)
    perm = list(range(n))
    rng.shuffle(perm)
    throws = [(perm[i] - i) % n for i in range(n)]
    throws = [n if t == 0 and rng.random() < 0.5 else t for t in throws]
    return JugglingFunction(i + t for i, t in enumerate(throws, start=1))


def random_determinant_one(rng: random.Random, k: int, steps: int = 4) -> Matrix:
    rows = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        if k < 2:
            break
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(rows, cols=k)


def random_unimodular(rng: random.Random):
    """A random unimodular (matrix, shape) pair."""
    if rng.random() < 0.3:
        m, pi = rng.choice(_quiddity_matrices())
    else:
        m, pi = rng.choice(UNIMODULAR_POOL)
    return random_determinant_one(rng, m.nrows) * m, pi


def _insert_time(pi: JugglingFunction, j: int, throw_at_j: int):
    """The values of pi with one new moment j (1-based, in [1, n+1]) of
    the period n+1 throwing to j + throw_at_j: every old time t moves
    to t + [residue of t >= j] within its period."""
    n = pi.period

    def moved(t):
        q, r = divmod(t - 1, n)
        return q * (n + 1) + r + 1 + (r + 1 >= j)

    return [j + throw_at_j if i == j else moved(pi(i - (i > j)))
            for i in range(1, n + 2)]


def grown(rng: random.Random, m: Matrix, pi: JugglingFunction):
    """A unimodular (m, pi) grown by one loop or one coloop at a seeded
    place j: a loop is a zero column and a throw 0 at j; a coloop is a
    zero column at j in the old rows with the columns before j negated,
    a new last row with (-1)**k at j and zeros elsewhere, and a throw
    n + 1 at j.  Both keep the matrix unimodular for the new shape
    (Knutson-Lam-Speyer, arXiv:1111.3660)."""
    k, n = m.nrows, m.ncols
    j = rng.randint(1, n + 1)
    rows = [list(row) for row in m.entries]
    if rng.random() < 0.5:
        values = _insert_time(pi, j, 0)
        rows = [row[:j - 1] + [0] + row[j - 1:] for row in rows]
    else:
        values = _insert_time(pi, j, n + 1)
        rows = [[-x for x in row[:j - 1]] + [0] + row[j - 1:]
                for row in rows]
        rows.append([(-1) ** k if c == j - 1 else 0 for c in range(n + 1)])
    shape = JugglingFunction(values)
    out = Matrix(rows, cols=n + 1)
    assert is_pi_unimodular(out, shape).ok
    return out, shape


def random_full_rank(rng: random.Random, k: int, n: int) -> Matrix:
    while True:
        m = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
        if rank(m) == k:
            return m
