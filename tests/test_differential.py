"""Fast exact paths against their definitional oracles.

Matrices come with mixed denominators, rank deficiency, zero rows and
empty shapes; dual inputs are arrays that are not friezes at all, with
diagonal entries other than 1 (0 included), rational entries and ragged
shapes with loops and coloops.
"""
import random
from fractions import Fraction

import pytest

from jugglerfrieze import (JugglingFunction, Matrix, PeriodicFrieze,
                           dual_frieze, parse_siteswap)

from exact_oracles import gauss_jordan, kernel_rows, minor_dual
from samplers import random_juggling


def _scalar(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4, 6, 9)))


def _dense(rng, k, n):
    return Matrix([[_scalar(rng) for _ in range(n)] for _ in range(k)], cols=n)


def _rank_deficient(rng, k, n):
    r = rng.randint(0, min(k, n) - 1)
    return _dense(rng, k, r) * _dense(rng, r, n) if r else Matrix.zero(k, n)


def _with_zero_rows(rng, k, n):
    m = _dense(rng, k, n)
    zeros = set(rng.sample(range(k), rng.randint(1, k)))
    return Matrix([[0] * n if i in zeros else row
                   for i, row in enumerate(m.entries)], cols=n)


def _matrix_cases(seed, count=40):
    rng = random.Random(seed)
    cases = [Matrix([], cols=0), Matrix([], cols=3), Matrix([[], [], []])]
    for i in range(count):
        k, n = rng.randint(1, 6), rng.randint(1, 7)
        build = (_dense, _rank_deficient, _with_zero_rows)[i % 3]
        cases.append(build(rng, k, n))
    return cases


def _square_cases(seed, count=40):
    rng = random.Random(seed)
    cases = [Matrix([], cols=0)]
    for i in range(count):
        n = rng.randint(1, 7)
        build = (_dense, _rank_deficient, _with_zero_rows)[i % 3]
        cases.append(build(rng, n, n))
    return cases


def test_cases_cover_the_hard_shapes():
    cases = _matrix_cases(11)
    assert any(m.nrows == 0 for m in cases)
    assert any(m.ncols == 0 and m.nrows > 0 for m in cases)
    assert any(0 < m.rank() < min(m.nrows, m.ncols) for m in cases)
    assert any(any(x.denominator > 1 for row in m.entries for x in row)
               for m in cases)
    assert any(m.det() == 0 for m in _square_cases(12) if m.nrows > 0)


def test_rref_rank_kernel_match_gauss_jordan():
    for m in _matrix_cases(11):
        reduced, pivots = m.rref()
        oracle, oracle_pivots, _ = gauss_jordan(m.entries, m.ncols)
        assert reduced == Matrix(oracle, cols=m.ncols)
        assert pivots == oracle_pivots
        assert m.rank() == len(oracle_pivots)
        assert m.kernel_basis() == Matrix(kernel_rows(m.entries, m.ncols),
                                          cols=m.ncols)


def test_det_matches_gauss_jordan():
    for m in _square_cases(12):
        assert m.det() == gauss_jordan(m.entries, m.ncols)[2]


def test_solve_matches_gauss_jordan():
    rng = random.Random(13)
    for m in _square_cases(13):
        rhs = [_scalar(rng) for _ in range(m.nrows)]
        aug = [list(row) + [b] for row, b in zip(m.entries, rhs)]
        reduced, pivots, _ = gauss_jordan(aug, m.ncols + 1)
        if pivots != tuple(range(m.ncols)):
            with pytest.raises(ValueError):
                m.solve(rhs)
            continue
        assert m.solve(rhs) == tuple(row[-1] for row in reduced)


def _array(rng, shape, rational):
    """Random columns of one fundamental domain: no frieze conditions."""
    n = shape.period

    def value():
        if rational and rng.random() < 0.4:
            return _scalar(rng)
        return rng.choice((0, 0, 1, 1, -1, 2, 3, -2))

    return PeriodicFrieze(shape, [[value() for _ in range(n + 1)]
                                  for _ in range(n)])


def test_dual_frieze_matches_minor_oracle():
    rng = random.Random(14)
    shapes = [parse_siteswap(p) for p in ("3,3,0", "0,0,4,4", "000", "4130")]
    shapes += [JugglingFunction.uniform(7, 2)]
    shapes += [random_juggling(rng, 7) for _ in range(25)]
    assert any(s.loops() for s in shapes) and any(s.coloops() for s in shapes)
    diagonals = set()
    for i, shape in enumerate(shapes):
        c = _array(rng, shape, rational=i % 2 == 1)
        diagonals.update(col[0] for col in c.columns)
        assert dual_frieze(c) == minor_dual(c)
    assert {0, -1, 2} <= diagonals


def test_dual_shape_is_cached_and_involutive():
    rng = random.Random(15)
    for pi in [parse_siteswap("53635514")] + [random_juggling(rng) for _ in range(10)]:
        assert pi.dual() is pi.dual()
        assert pi.dual().dual() is pi
