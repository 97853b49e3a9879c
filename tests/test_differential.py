"""Fast exact paths against their definitional oracles.

Matrices come with mixed denominators, rank deficiency, zero rows and
empty shapes; dual inputs are arrays that are not friezes at all, with
diagonal entries other than 1 (0 included), rational entries and ragged
shapes with loops and coloops.  Frieze checks run on valid friezes and
on their one- and two-entry perturbations.
"""
import json
import random
from copy import deepcopy
from fractions import Fraction
from itertools import chain, product
from operator import mul
from pathlib import Path

import pytest

from jugglerfrieze import (JugglingFunction, Matrix, PeriodicFrieze,
                           build_frieze_det, build_frieze_twist,
                           check_frieze, construct, dual_frieze,
                           enumerate_sl2_positive,
                           frieze_from_quiddity,
                           frieze_entry, frieze_to_matrix, inverse_twist,
                           is_frieze,
                           is_pi_unimodular, is_positive, matrices,
                           parse_siteswap, positive_complement,
                           solution_matrix, twist)
from jugglerfrieze.construct import _necklace_charts, frieze_entries
from jugglerfrieze import frieze as frieze_module
from jugglerfrieze.frieze import _exchange_row
from jugglerfrieze.juggling import residue
from jugglerfrieze.matrices import (border, chart_kernel, greedy_chart,
                                    integer_cross, integer_eliminate,
                                    integer_exchange, integer_solve, ratio,
                                    sparsest_first)

import fixture_data as fx
from exact_oracles import (_minor, adjugate, counted_sign, counted_skeleton,
                           dense_dual_column, entry_sign_is_positive, exchange_minor,
                           exhaustive_complement, full_product_frieze,
                           full_window_frieze, gauss_jordan, identity,
                           interval_rank_certificate, kernel_complement,
                           kernel_rows, left_twist_by_definition,
                           minor_dual, minor_report, off_skeleton_slots,
                           rank, recurrence_solutions,
                           rref_complement, rref_frieze_to_matrix,
                           scale_row, schedule_charts, schedule_twist,
                           schedules, slot_tables, solutions_kernel_matrix,
                           system_kernel_matrix,
                           verify_superperiodic_kernel, zero)
from samplers import (UNIMODULAR_POOL, grown, random_determinant_one,
                      random_juggling, random_unimodular)

DATA = Path(__file__).parent / "data"


def _scalar(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4, 6, 9)))


def _dense(rng, k, n):
    return Matrix([[_scalar(rng) for _ in range(n)] for _ in range(k)], cols=n)


def _rank_deficient(rng, k, n):
    r = rng.randint(0, min(k, n) - 1)
    return _dense(rng, k, r) * _dense(rng, r, n) if r else zero(k, n)


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
    assert any(0 < rank(m) < min(m.nrows, m.ncols) for m in cases)
    assert any(any(x.denominator > 1 for row in m.entries for x in row)
               for m in cases)
    assert any(m.det() == 0 for m in _square_cases(12) if m.nrows > 0)


def test_rref_rank_kernel_match_gauss_jordan():
    for m in _matrix_cases(11):
        reduced, pivots = m.rref()
        oracle, oracle_pivots, _ = gauss_jordan(m.entries, m.ncols)
        assert reduced == Matrix(oracle, cols=m.ncols)
        # equal pivots give equal ranks
        assert pivots == oracle_pivots
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


# Integer views.  A matrix's view, like a frieze's, scales the whole
# grid by one common lcm L; minors and eliminations run on the views.
# The cases give each row its own denominators, so L differs from every
# row's own lcm and a minor that divides by the wrong power of L is
# off, and put zeros at the leading pivots, so every elimination swaps
# rows.

_ROW_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


def _view_case(rng, k, n):
    """Row i has entries over _ROW_DENOMINATORS[i]; the top rows are
    zero in the first column, so eliminations swap."""
    rows = [[Fraction(rng.randint(-5, 5), _ROW_DENOMINATORS[i])
             for _ in range(n)] for i in range(k)]
    for row in rows[:rng.randint(1, k)]:
        row[0] = Fraction(0)
    if rng.random() < 0.3:  # singular: a copy of another row, rescaled
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        rows[i] = [x * 2 for x in rows[j]]
    return Matrix(rows, cols=n)


def _view_cases(seed, count=40):
    rng = random.Random(seed)
    cases = [Matrix([], cols=0), Matrix([], cols=3)]
    for _ in range(count):
        k = rng.randint(1, 6)
        cases.append(_view_case(rng, k, rng.randint(k, 7)))
    return cases


def test_matrix_minors_match_gauss_jordan():
    rng = random.Random(21)
    swapped = subsets = 0
    for m in _view_cases(21):
        k, n = m.nrows, m.ncols
        if k == n:
            assert m.det() == gauss_jordan(m.entries, n)[2]
        for size in range(k + 1):
            rows = sorted(rng.sample(range(k), size))
            cols = sorted(rng.sample(range(n), size))
            expected = _minor([m.entries[i] for i in rows], cols)
            assert m.minor(rows, cols) == expected, (m, rows, cols)
            subsets += 0 < size < k and expected != 0
        swapped += 0 < k == n and m.entries[0][0] == 0 and m.det() != 0
    assert m.minor([], []) == 1
    # nonzero minors on proper row subsets, and nonsingular swapped dets
    assert subsets > 20 and swapped > 3


def test_elimination_kernel_determinant_matches_gauss_jordan():
    # the necklace walk reads its anchor's minor off one elimination;
    # invert-F eliminates its rows with their columns ascending, then
    # exchanges toward the greedy basis along the descending order,
    # which must give the basis, determinant and chart of one
    # descending elimination
    continued = 0
    for m in _view_cases(22):
        ints, scale = m.integer_view()
        rows = [list(row) for row in ints]
        pivots, d, sign = integer_eliminate(rows, range(m.ncols))
        if m.nrows == m.ncols:
            det = (Fraction(sign * d, scale ** m.nrows)
                   if len(pivots) == m.ncols else 0)
            assert det == gauss_jordan(m.entries, m.ncols)[2], m
        if not 0 < len(pivots) == m.nrows:
            continue
        descending = range(m.ncols)[::-1]
        got = greedy_chart(ints, descending, range(m.ncols))
        once = greedy_chart(ints, descending, descending)
        assert got[:2] == once[:2], m
        # the slots may differ: compare every chart entry by its column
        assert chart_kernel(*got) == chart_kernel(*once), m
        continued += 1
    assert continued >= 10, continued


def _chart_by_minors(ints, cols, out):
    """det B and its chart by gauss_jordan determinants, B the columns
    cols (1-based) of ints: entry (i, t) of the chart is det B with its
    column i replaced by column out[t] (Cramer), or None when det B is 0."""
    at = [j - 1 for j in cols]
    d = _minor(ints, at)
    return d, None if d == 0 else [
        [_minor(ints, at[:i] + [j - 1] + at[i + 1:]) for j in out]
        for i in range(len(at))]


def test_integer_solve_and_exchange_match_gauss_jordan():
    # the necklace walk's two kernels on seeded integer charts: one
    # integer_solve anchors, then integer_exchange trades the column at
    # position p for the chart's column in slot s, which the leaving
    # column takes, until a minor is 0; every step equals determinants
    # taken afresh
    rng = random.Random(31)
    seen = {"singular B": 0, "into d = 0": 0, "odd p - q": 0,
            "even p - q": 0, "k = 1": 0, "n - k = 1": 0, "k = n": 0}
    for _ in range(120):
        k = rng.randint(1, 4)
        n = k + rng.choice((0, 1, rng.randint(2, 4)))
        ints = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)]
                for _ in range(k)]
        cols = sorted(rng.sample(range(1, n + 1), k))
        out = [j for j in range(1, n + 1) if j not in cols]
        got = integer_solve(ints, cols,
                            [[row[j - 1] for j in out] for row in ints])
        assert got == _chart_by_minors(ints, cols, out), (ints, cols)
        d, chart = got
        seen["singular B"] += d == 0
        seen["k = 1"] += k == 1
        seen["n - k = 1"] += n - k == 1
        seen["k = n"] += k == n
        for _ in range(3):
            if d == 0 or not out:
                break
            s, p = rng.randrange(n - k), rng.randrange(k)
            new, leaving = out[s], cols[p]
            cols = sorted(cols[:p] + cols[p + 1:] + [new])
            out = out[:s] + [leaving] + out[s + 1:]
            q = cols.index(new)
            d, chart = integer_exchange(d, chart, s, p, q)
            assert (d, chart) == _chart_by_minors(ints, cols, out), \
                (ints, cols, s, p)
            seen["into d = 0"] += d == 0
            seen["odd p - q" if (p - q) % 2 else "even p - q"] += 1
    assert min(seen.values()) >= 5, seen


def _greedy_by_gauss_jordan(ints, order):
    """The first basis of the columns of ints along order, ascending,
    and the reduced row of each of its columns, {column: value}, by one
    gauss_jordan of the columns read in that order."""
    reduced, pivots, _ = gauss_jordan([[row[c] for c in order]
                                       for row in ints], len(order))
    rows = {order[p]: dict(zip(order, reduced[i]))
            for i, p in enumerate(pivots)}
    return sorted(rows), rows


def test_greedy_chart_matches_gauss_jordan(monkeypatch):
    # seeded integer rows, with a zero, doubled or combined row, k = 0
    # and k = n, in random column orders, from each kind of start: an
    # elimination along the order itself, in natural, reversed, random
    # and sparsest-first order, and the chart of another basis.  The
    # basis is the gauss_jordan pivots read in that order, d is its
    # minor at full rank, the chart over d is the reduced form on it,
    # and a chart start is left as it was
    exchanges = []
    exchange = matrices.integer_exchange
    monkeypatch.setattr(matrices, "integer_exchange",
                        lambda *args: exchanges.append(1) or exchange(*args))
    rng = random.Random(43)
    seen = dict.fromkeys(("k = 0", "k = n", "rank < k", "zero row",
                          "exchanges", "chart start"), 0)
    for _ in range(160):
        k = rng.randint(0, 4)
        n = k + rng.choice((0, 1, 2, rng.randint(3, 5)))
        ints = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                for _ in range(k)]
        if k > 1 and rng.random() < 0.4:
            ints[-1] = rng.choice(([0] * n, [2 * x for x in ints[0]],
                                   [x - 3 * y for x, y in zip(*ints[:2])]))
        order = rng.sample(range(n), n)
        basis, reduced = _greedy_by_gauss_jordan(ints, order)
        starts = [order, list(range(n)), list(range(n))[::-1],
                  rng.sample(range(n), n), sparsest_first(ints, range(n))]
        other = greedy_chart(ints, starts[3], starts[3])
        if len(other[0]) == k:
            starts.append(other)
        for start in starts:
            kept = deepcopy(start)
            exchanges.clear()
            got, d, slots, chart = greedy_chart(ints, order, start)
            assert start == kept and got == basis, (ints, order, start)
            if len(basis) == k:
                assert d == _minor(ints, basis), (ints, order, start)
            width = n - len(basis)
            for i, c in enumerate(basis):
                row = [d if j == c else 0 if s == width else chart[i][s]
                       for j, s in enumerate(slots)]
                assert [Fraction(x, d) for x in row] == \
                    [reduced[c][j] for j in range(n)], (ints, order, start)
            seen["exchanges"] += bool(exchanges)
            seen["chart start"] += isinstance(start, tuple)
        seen["k = 0"] += k == 0
        seen["k = n"] += 0 < k == n
        seen["rank < k"] += len(basis) < k
        seen["zero row"] += [0] * n in ints
    assert min(seen.values()) >= 10, seen


def test_border_and_row_exchange_match_gauss_jordan():
    # the interval walk's two updates on seeded nonsingular B, against
    # cofactors taken afresh: border appends a column, a zero row and a
    # corner, into a singular matrix when the corner is 0, and
    # _exchange_row drops column p and appends a column x, into a
    # singular matrix too (a repeated column)
    rng = random.Random(37)
    seen = {"k = 0": 0, "border into d = 0": 0,
            "exchange into d = 0": 0, "exchange": 0}
    entries = (0, 0, 1, -1, 2, -3, 5)
    for _ in range(150):
        k = rng.randint(0, 4)
        b = [[rng.choice(entries) for _ in range(k)] for _ in range(k)]
        d = _minor(b, range(k))
        if not d:
            continue
        adj = adjugate(b)
        u = [rng.choice(entries) for _ in range(k)]
        w = rng.choice(entries)
        bordered = [row + [x] for row, x in zip(b, u)] + [[0] * k + [w]]
        got = border(d, [list(row) for row in adj], u, w)
        assert got == (_minor(bordered, range(k + 1)), adjugate(bordered)), \
            (b, u, w)
        seen["k = 0"] += k == 0
        seen["border into d = 0"] += got[0] == 0
        if not k:
            continue
        p = rng.randrange(k)
        x = ([row[rng.randrange(k)] for row in b] if rng.random() < 0.3
             else [rng.choice(entries) for _ in range(k)])
        ax = [sum(map(mul, row, x)) for row in adj]
        swapped = [row[:p] + row[p + 1:] + [y] for row, y in zip(b, x)]
        d2 = _minor(swapped, range(k))
        got = _exchange_row(d, [list(row) for row in adj], ax, p)
        assert got == (d2, adjugate(swapped) if d2 else None), (b, x, p)
        seen["exchange"] += 1
        seen["exchange into d = 0"] += d2 == 0
    assert min(seen.values()) >= 5, seen


def test_view_rref_and_solve_match_gauss_jordan():
    rng = random.Random(23)
    singular = 0
    for m in _view_cases(23):
        reduced, pivots = m.rref()
        oracle, oracle_pivots, _ = gauss_jordan(m.entries, m.ncols)
        assert (reduced, pivots) == (Matrix(oracle, cols=m.ncols),
                                     oracle_pivots)
        if m.nrows != m.ncols:
            continue
        rhs = [_scalar(rng) for _ in range(m.nrows)]
        aug = [list(row) + [b] for row, b in zip(m.entries, rhs)]
        oracle, oracle_pivots, _ = gauss_jordan(aug, m.ncols + 1)
        if oracle_pivots[:m.ncols] != tuple(range(m.ncols)):
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                m.solve(rhs)
        else:
            assert m.solve(rhs) == tuple(row[-1] for row in oracle)
    assert singular > 2


def test_frieze_minors_match_gauss_jordan():
    # rows and columns anywhere: a - b = n reads the stored loop slot,
    # a - b < 0 or > n leaves the window and reads 0
    rng = random.Random(24)
    shapes = [parse_siteswap(p) for p in ("3,3,0", "0,0,4,4", "000", "4130")]
    shapes += [random_juggling(rng, 6) for _ in range(12)]
    loop_slots = 0
    for i, shape in enumerate(shapes):
        c = _array(rng, shape, rational=i % 2 == 0)
        n = shape.period
        for b in range(-n, 2 * n):
            for a in range(b - 1, b + n + 2):
                assert c.minor([a], [b]) == c.entry(a, b)
                loop_slots += a - b == n and c.entry(a, b) != 0
        for size in range(min(5, 3 * n + 1)):
            rows = sorted(rng.sample(range(-n, 2 * n), size))
            cols = sorted(rng.sample(range(-n, 2 * n), size))
            grid = [[c.entry(a, b) for b in cols] for a in rows]
            assert c.minor(rows, cols) == _minor(grid, range(size))
    assert loop_slots > 10


def test_twist_matches_determinant_and_solve_oracle():
    rng = random.Random(25)
    cases = _perturbed_pool(rng, per_matrix=6)
    for m, pi in UNIMODULAR_POOL[:6]:
        # rescale two rows by inverse factors: the minors keep their
        # values, the rows their own denominators
        rows = [list(row) for row in m.entries]
        if len(rows) > 1:
            rows[0] = [x * Fraction(3, 2) for x in rows[0]]
            rows[1] = [x * Fraction(2, 3) for x in rows[1]]
        cases.append((Matrix(rows, cols=m.ncols), pi))
    cases += _walk_cases(26)
    outcomes = [_outcome(twist, m, pi) for m, pi in cases]
    for (m, pi), got in zip(cases, outcomes):
        assert got == schedule_twist(m, pi), (m, pi)
    assert sum(isinstance(t, Matrix) for t in outcomes) > 6
    assert sum(isinstance(t, str) for t in outcomes) > 6


def test_inverse_twist_matches_left_twist_and_inverts_exactly():
    # the inverse twist, the twist of the mirror shape on the rotated
    # matrix, against the left twist solved column by column on the
    # balls in the air after each moment; both compositions with the
    # twist give back the matrix itself
    rng = random.Random(29)
    pairs = _grown_pool(rng, draws=6)
    pairs += [(fx.MATRIX_000, fx.IDENTITY_3)]
    pairs += [(random_determinant_one(rng, n, steps=2 * n),
               JugglingFunction.uniform(n, n)) for n in range(1, 5)]
    pairs += [(Matrix.from_json(json.loads(
        (DATA / "rational" / name).read_text())), fx.PI_23345357)
        for name in ("matrix.json", "matrix_mixed.json")]
    assert any(pi.loops() for _, pi in pairs)
    assert any(pi.coloops() for _, pi in pairs)
    assert any(m.integer_view()[1] > 1 for m, _ in pairs)
    for m, pi in pairs:
        inv = inverse_twist(m, pi)
        assert inv == left_twist_by_definition(m, pi), (m, pi)
        assert twist(inv, pi) == m, (m, pi)
        assert inverse_twist(twist(m, pi), pi) == m, (m, pi)


def _outcome(f, *args):
    """The value of f, or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _complement_cases(seed):
    """For every n <= 8 and 0 <= k <= n: an integer, a rational and a
    rank-deficient k x n matrix, and for k = n two of determinant 1,
    the second with two rows rescaled by inverse rationals."""
    rng = random.Random(seed)
    cases = []
    for n in range(9):
        for k in range(n + 1):
            cases.append(Matrix([[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(k)], cols=n))
            cases.append(_dense(rng, k, n))
            if k:
                cases.append(_rank_deficient(rng, k, n))
        m = random_determinant_one(rng, n, steps=2 * n)
        cases.append(m)
        if n > 1:
            r = Fraction(rng.choice((2, 3, 5)), rng.choice((3, 7)))
            cases.append(scale_row(scale_row(m, 0, r), n - 1, 1 / r))
    return cases


def test_positive_complement_matches_exhaustive_oracle():
    outcomes = []
    for m in _complement_cases(16):
        expected = _outcome(exhaustive_complement, m)
        assert _outcome(positive_complement, m) == expected, m
        outcomes.append(expected)
    # every path is taken: complements with several rows, rank failures
    # and square matrices both of determinant 1 and of another
    assert any(isinstance(c, Matrix) and c.nrows > 1 for c in outcomes)
    texts = {c.split(" on ")[0] for c in outcomes if isinstance(c, str)}
    assert texts == {"ValueError: matrix does not have full row rank",
                     "ValueError: complement identity fails"}
    assert sum(isinstance(c, Matrix) and c.nrows == 0 for c in outcomes) > 2


def test_positive_complement_matches_natural_order_kernel():
    # the complement from a sparsest-first elimination and exchanges to
    # the first basis, against one natural-order integer kernel: equal
    # entries or the same error, on integer, rational, rank-deficient
    # and square inputs, and on the sparse fan strips and their duals
    cases = _complement_cases(17)
    for n in (5, 9, 16):
        q = [n - 2, 1] + [2] * (n - 3) + [1]
        strip = frieze_to_matrix(frieze_from_quiddity(q))
        cases += [strip, positive_complement(strip)]
    rng = random.Random(17)
    cases += [grown(rng, *rng.choice(UNIMODULAR_POOL))[0] for _ in range(20)]
    texts = set()
    for m in cases:
        got, want = (_outcome(positive_complement, m),
                     _outcome(kernel_complement, m))
        if isinstance(want, str):
            assert got == want, m
            texts.add(want.split(" on ")[0])
        else:
            assert got.entries == want.entries and got.ncols == want.ncols, m
    assert texts == {"ValueError: matrix does not have full row rank",
                     "ValueError: complement identity fails"}
    assert sum(0 < m.nrows < m.ncols for m in cases) > 50


def _perturbed_pool(rng, per_matrix=12):
    """Each pool matrix and some of its single-entry +-1 perturbations."""
    cases = []
    for m, pi in UNIMODULAR_POOL:
        cases.append((m, pi))
        for _ in range(per_matrix):
            i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
            rows = [list(row) for row in m.entries]
            rows[i][j] += rng.choice((1, -1))
            cases.append((Matrix(rows, cols=m.ncols), pi))
    return cases


def _walk_cases(seed):
    """Matrices for the necklace walk: the pool, random unimodular draws
    with one row rescaled by a rational, single-entry perturbations,
    k = 0 and k = n, and small-entry matrices on random shapes, whose
    schedule minors are often 0, at L_1 or mid-walk."""
    rng = random.Random(seed)
    cases = _perturbed_pool(rng, per_matrix=4)
    for _ in range(30):
        m, pi = random_unimodular(rng)
        r = Fraction(rng.choice((1, 2, -3, 5)), rng.choice((2, 3, 7)))
        cases.append((scale_row(m, rng.randrange(m.nrows), r), pi))
    cases += [(fx.MATRIX_000, fx.IDENTITY_3), (Matrix([], cols=1),
                                                 parse_siteswap("0"))]
    for n in range(1, 5):
        cases.append((_dense(rng, n, n), JugglingFunction.uniform(n, n)))
    for _ in range(80):
        pi = random_juggling(rng, 7)
        k, n = pi.balls, pi.period
        cases.append((Matrix([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
                              for _ in range(k)], cols=n), pi))
    return cases


def _walked(m, pi):
    """The necklace walk's steps with each chart as {j: y_j}, copied
    before the walk moves on."""
    n = pi.period
    return [(cols, d, None if chart is None else {
                j: [row[s] for row in chart]
                for j, s in enumerate(slots, start=1) if s < n - len(cols)})
            for cols, d, slots, chart, _ in _necklace_charts(m, pi)]


def test_necklace_walk_matches_exchange_minors():
    # the walk's determinant d and every y_j after every exchange equal
    # determinants taken afresh: det B and B with one column replaced
    seen = {"singular L_1": 0, "re-anchored": 0, "loop": 0, "coloop": 0,
            "odd re-sort": 0, "minors change": 0, "k = 0": 0, "k = n": 0}
    for m, pi in _walk_cases(27):
        oracle = schedule_charts(m, pi)
        assert _walked(m, pi) == oracle, (m, pi)
        n = pi.period
        scheds = [cols for cols, _, _ in oracle]
        dets = [d for _, d, _ in oracle]
        exchanges = [a for a in range(1, n) if pi(a) not in (a, a + n)]
        seen["singular L_1"] += dets[0] == 0
        seen["re-anchored"] += any(dets[a - 1] == 0 and dets[a] != 0
                                   for a in exchanges)
        seen["odd re-sort"] += any(
            (scheds[a - 1].index(a) - scheds[a].index(residue(pi(a), n))) % 2
            for a in exchanges)
        seen["minors change"] += len(set(dets) - {0}) > 1
        seen["loop"] += bool(pi.loops())
        seen["coloop"] += 0 < len(pi.coloops()) < n
        seen["k = 0"] += pi.balls == 0
        seen["k = n"] += pi.balls == n
    assert all(count >= 2 for count in seen.values()), seen


def test_unimodular_certificate_matches_interval_ranks():
    rng = random.Random(17)
    cases = _perturbed_pool(rng) + _walk_cases(28)[::2]
    for i in range(60):
        pi = random_juggling(rng, 7)
        k, n = pi.balls, pi.period
        build = (_dense, _rank_deficient, _with_zero_rows)[i % 3]
        cases.append(((build if k else _dense)(rng, k, n), pi))
    assert any(pi.loops() for _, pi in cases)
    assert any(pi.coloops() for _, pi in cases)
    certs = []
    for m, pi in cases:
        cert = is_pi_unimodular(m, pi)
        assert (cert.checked_minors, cert.rank_violations) == \
            interval_rank_certificate(m, pi), (m, pi)
        certs.append(cert)
    # both the rank bounds and the minors decide some cases
    assert sum(bool(c.rank_violations) for c in certs) > 10
    assert any(c.bad_minors() and not c.rank_violations for c in certs)
    assert any(c.ok and not pi.is_uniform()
               for c, (_, pi) in zip(certs, cases))


def _unit_perturbed(rng, m, count):
    """count copies of m, each with 1 to 3 entries moved by +-1."""
    copies = []
    for _ in range(count if m.nrows else 0):
        rows = [list(row) for row in m.entries]
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(m.nrows)][rng.randrange(m.ncols)] += \
                rng.choice((1, -1))
        copies.append(Matrix(rows, cols=m.ncols))
    return copies


def test_certificate_reads_rank_bounds_off_the_walk_charts(monkeypatch):
    # seeded samplers.grown instances up to period 16, k = 0 and k = n,
    # each with and without +-1 perturbations: the certificate, which
    # reads a start column's rank bounds off the greedy basis reached
    # from the walk's chart by exchanges, or from an elimination where
    # the minor is 0, matches the interval ranks by definition
    rng = random.Random(31)
    bases = [(Matrix([], cols=3), parse_siteswap("000")),
             (random_determinant_one(rng, 4, 8), JugglingFunction.uniform(4, 4)),
             grown(rng, Matrix([], cols=2), parse_siteswap("00"))]
    for _ in range(10):
        m, pi = rng.choice(UNIMODULAR_POOL)
        for _ in range(rng.randint(1, 16 - pi.period)):
            m, pi = grown(rng, m, pi)
        bases.append((m, pi))
    assert max(pi.period for _, pi in bases) >= 14
    cases = [(copy, pi) for m, pi in bases
             for copy in [m] + _unit_perturbed(rng, m, 2)]
    counts = {"eliminate": 0, "exchange": 0}
    greedy, exchange = construct.greedy_chart, matrices.integer_exchange

    def chart(ints, order, start):
        # a start column with a zero minor has no chart to start from
        counts["eliminate"] += not isinstance(start, tuple)
        return greedy(ints, order, start)

    def swap(*args):
        counts["exchange"] += 1
        return exchange(*args)

    monkeypatch.setattr(construct, "greedy_chart", chart)
    monkeypatch.setattr(matrices, "integer_exchange", swap)
    seen = {"zero minor": 0, "not greedy": 0, "violations": 0, "loop": 0,
            "coloop": 0, "k = 0": 0, "k = n": 0}
    for m, pi in cases:
        counts.update(dict.fromkeys(counts, 0))
        cert = is_pi_unimodular(m, pi)
        assert (cert.checked_minors, cert.rank_violations) == \
            interval_rank_certificate(m, pi), (m, pi)
        seen["zero minor"] += counts["eliminate"] > 0
        # a chart that is not its greedy basis takes an exchange
        seen["not greedy"] += counts["exchange"] > 0
        seen["violations"] += bool(cert.rank_violations)
        seen["loop"] += bool(pi.loops())
        seen["coloop"] += 0 < len(pi.coloops()) < pi.period
        seen["k = 0"] += pi.balls == 0
        seen["k = n"] += pi.balls == pi.period
    assert all(count >= 1 for count in seen.values()), seen
    assert seen["not greedy"] >= 5 and seen["violations"] >= 10, seen


def test_certified_unit_perturbations_keep_the_frieze_up_to_sl_k():
    # a frieze fixes its matrix up to left multiplication by SL_k
    # (Knutson-Lam-Speyer, arXiv:1111.3660), so a +-1 change to one entry
    # need not fail the certificate or change the frieze: on 4400,
    # m = [[1, 0, 0, 0], [0, 1, 0, 0]] with entry (0, 1) raised is
    # [[1, 1], [0, 1]] m.  A certified m' keeps the frieze of m exactly
    # when m' = g m, g solved on the first schedule's columns B of m from
    # g B = B'; both minors on B are 1, so det g = 1
    rng = random.Random(29)
    pairs = []
    for m, pi in UNIMODULAR_POOL:
        pairs.append((m, pi))
        for _ in range(2):
            m, pi = grown(rng, m, pi)
            pairs.append((m, pi))
    outcomes = {"uncertified": 0, "certified": 0}
    for m, pi in pairs:
        k, n = m.nrows, m.ncols
        frieze = build_frieze_twist(m, pi)
        first = [j - 1 for j in schedules(pi)[0]]
        for i, j, delta in product(range(k), range(n), (1, -1)):
            rows = [list(row) for row in m.entries]
            rows[i][j] += delta
            perturbed = Matrix(rows, cols=n)
            if not is_pi_unimodular(perturbed, pi).ok:
                outcomes["uncertified"] += 1
                continue
            outcomes["certified"] += 1
            # [B^T | B'^T] reduces to [I | g^T]
            reduced = gauss_jordan([[m[r, c] for r in range(k)]
                                    + [rows[r][c] for r in range(k)]
                                    for c in first], k)[0]
            g = [[reduced[c][k + r] for c in range(k)] for r in range(k)]
            assert gauss_jordan(g, k)[2] == 1
            gm = [[sum(g[r][s] * m[s, c] for s in range(k)) for c in range(n)]
                  for r in range(k)]
            assert (build_frieze_twist(perturbed, pi) == frieze) == \
                (gm == rows), (m, pi, i, j, delta)
    assert len(pairs) == 27 and min(outcomes.values()) > 0, outcomes


def _array(rng, shape, rational):
    """Random columns of one fundamental domain: no frieze conditions."""
    n = shape.period

    def value():
        if rational and rng.random() < 0.4:
            return _scalar(rng)
        return rng.choice((0, 0, 1, 1, -1, 2, 3, -2))

    return PeriodicFrieze(shape, [[value() for _ in range(n + 1)]
                                  for _ in range(n)])


def test_frieze_builds_match_full_window_and_full_product():
    # the builds compute only the free slots and take the fixed ones
    # from the skeleton; the oracles compute every slot by its exchange
    # minor, or read the free ones off the whole product twist(m)^T m
    def check(m, pi):
        assert is_pi_unimodular(m, pi).ok
        expected = full_window_frieze(m, pi)
        assert full_product_frieze(m, pi) == expected
        assert build_frieze_det(m, pi) == expected
        assert build_frieze_twist(m, pi) == expected

    fixtures = UNIMODULAR_POOL + [(fx.MATRIX_000, fx.IDENTITY_3)]
    assert {pi.balls for _, pi in fixtures} == {0, 1, 2, 3, 4}
    for m, pi in fixtures:
        check(m, pi)
    rng = random.Random(8)
    for _ in range(30):
        check(*random_unimodular(rng))
    # rows over 2 and 3, so the twist route divides by a power of a view
    # scale L other than 1, as they are and mixed by a determinant-1 matrix
    for m, pi in UNIMODULAR_POOL:
        k = pi.balls
        scaled = scale_row(scale_row(m, 0, Fraction(3, 2)), k - 1,
                           Fraction(2, 3))
        mixed = random_determinant_one(rng, k, steps=40) * scaled
        for case in (scaled, mixed):
            assert k == 1 or case.integer_view()[1] > 1
            check(case, pi)


def _entry_cases(rng):
    """Pairs for frieze_entry: the pool, seeded draws and grown steps,
    their positive complements (so 2k > n), and of each one variant in
    turn: a +-1 perturbation, rows over 2 and 3, and rank below k; then
    k = 0, k = n and small-entry matrices on random shapes."""
    pairs = list(UNIMODULAR_POOL) + [random_unimodular(rng) for _ in range(2)]
    for m, pi in UNIMODULAR_POOL[6:]:
        pairs.append(grown(rng, *grown(rng, m, pi)))
    pairs.append(grown(rng, *UNIMODULAR_POOL[0]))
    pairs += [(positive_complement(m), pi.dual()) for m, pi in list(pairs)]
    cases = list(pairs)
    for t, (m, pi) in enumerate(pairs):
        k, n = m.nrows, m.ncols
        rows = [list(row) for row in m.entries]
        if t % 3 == 0:
            rows[rng.randrange(k)][rng.randrange(n)] += rng.choice((1, -1))
        elif t % 3 == 1:
            rows[0] = [x * Fraction(3, 2) for x in rows[0]]
            rows[-1] = [Fraction(x, 3) - y for x, y in zip(rows[-1], rows[0])]
        else:
            rows[-1] = [x * Fraction(-2, 3) for x in rows[0]] if k > 1 \
                else [0] * n
        cases.append((Matrix(rows, cols=n), pi))
    for n in range(1, 4):
        cases.append((Matrix([], cols=n), JugglingFunction.uniform(n, 0)))
        cases.append((_dense(rng, n, n), JugglingFunction.uniform(n, n)))
    for _ in range(8):
        pi = random_juggling(rng, 7)
        k, n = pi.balls, pi.period
        cases.append((Matrix([[rng.choice((0, 1, -1, 2)) for _ in range(n)]
                              for _ in range(k)], cols=n), pi))
    return cases


def test_frieze_entry_matches_exchange_minor(monkeypatch):
    # one reader per matrix reads every window slot off one cofactor
    # vector per schedule; with 2k > n (k < n) the vector is taken on
    # m's positive complement, built once per reader; the oracle takes
    # the k x k minor of m itself at each slot, and frieze_entry, a
    # one-slot reader, agrees at seeded slots of any period shift
    built = []
    build = construct._build_complement
    monkeypatch.setattr(construct, "_build_complement",
                        lambda m: built.append(m) or build(m))
    rng = random.Random(25)
    seen = {"2k > n": 0, "2k <= n": 0, "loops": 0, "rank < k": 0,
            "2k > n, rank < k": 0, "rational": 0, "k = 0": 0, "k = n": 0}
    for m, pi in _entry_cases(random.Random(24)):
        k, n = m.nrows, m.ncols
        built.clear()
        entry = frieze_entries(m, pi)
        for b in range(1, n + 1):
            for a in range(b, b + n + 1):
                assert entry(a, b) == exchange_minor(m, pi, a, b), \
                    (m, pi, a, b)
        larger = n < 2 * k < 2 * n
        assert built == ([m] if larger else [])
        for _ in range(2):
            b = rng.randint(-2 * n, 2 * n)
            a = b + rng.randint(-1, n + 1)
            assert frieze_entry(m, pi, a, b) == \
                exchange_minor(m, pi, a, b), (m, pi, a, b)
        deficient = rank(m) < k
        seen["2k > n" if larger else "2k <= n"] += 1
        seen["loops"] += bool(pi.loops())
        seen["rank < k"] += deficient
        seen["2k > n, rank < k"] += larger and deficient
        seen["rational"] += m.integer_view()[1] > 1
        seen["k = 0"] += k == 0
        seen["k = n"] += k == n
    assert min(seen.values()) >= 2, seen


def test_integer_cross_matches_minors_by_definition():
    # the r + 1 signed maximal minors of r x (r + 1) integer rows from
    # one elimination, against each minor by gauss_jordan, on seeded
    # rows of full rank and with a row doubled, zeroed or combined; the
    # dot product with a row x is the determinant of x over the rows
    rng = random.Random(26)
    seen = {"full": 0, "deficient": 0}
    for r in chain(range(7), range(7)):
        rows = [[rng.randint(-9, 9) for _ in range(r + 1)] for _ in range(r)]
        variants = [rows]
        if r > 1:
            variants += [rows[:-1] + [[2 * x for x in rows[0]]],
                         rows[:-1] + [[0] * (r + 1)],
                         rows[:-1] + [[x - 3 * y for x, y in
                                       zip(rows[0], rows[1])]]]
        for case in variants:
            got = integer_cross([list(row) for row in case], r + 1)
            want = [(-1) ** j * _minor(case, [c for c in range(r + 1)
                                              if c != j])
                    for j in range(r + 1)]
            assert got == want and all(type(x) is int for x in got), case
            x = [rng.randint(-9, 9) for _ in range(r + 1)]
            assert sum(map(mul, got, x)) == _minor([x] + case, range(r + 1))
            seen["full" if any(got) else "deficient"] += 1
    assert integer_cross([], 1) == [1]
    assert seen["deficient"] >= 10 and seen["full"] >= 10, seen


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


def _band_cases(rng):
    """Arrays for the dual recurrence: pool, quiddity and grown friezes
    and their duals (fan strips up to n = 40, loops and coloops, the
    rational strip's lcm 3), a +-1 move of a free and of a fixed entry of
    each, and random arrays with entries anywhere below the diagonal,
    diagonals among 0, -1, 1, 2, 3 and -2, and rational entries, on
    random shapes and on both shapes of period 1."""
    strips = [frieze_from_quiddity([n - 2, 1] + [2] * (n - 3) + [1])
              for n in (5, 17, 40)]
    strips += rng.sample(enumerate_sl2_positive(4, 4), 3)
    friezes = [build_frieze_det(m, pi) for m, pi in UNIMODULAR_POOL]
    friezes += [d for c in strips for d in (c, dual_frieze(c))]
    small, large = _grown_friezes(rng)
    friezes += small + large
    for c in friezes:
        yield c
        for fixed in (None, 0):
            slots = [(b, d) for b, col in enumerate(c.shape.skeleton())
                     for d, x in enumerate(col) if (x is None) == (fixed is None)]
            b, d = rng.choice(slots)
            cols = [list(col) for col in c.columns]
            cols[b][d] += rng.choice((1, -1))
            yield PeriodicFrieze(c.shape, cols)
    shapes = [JugglingFunction([1]), JugglingFunction([2])]
    shapes += [random_juggling(rng, 12) for _ in range(30)]
    for i, shape in enumerate(shapes):
        yield _array(rng, shape, rational=i % 3 == 1)


def test_banded_dual_columns_match_the_dense_recurrence():
    # the dual recurrence over the nonzero minors within the band of the
    # integer view, column by column, against the sum over every earlier
    # minor; the band is the largest offset below n of a nonzero entry
    seen = {"loop": 0, "coloop": 0, "rational": 0, "n": set(), "diag": set()}
    for c in _band_cases(random.Random(36)):
        window, scale = c.integer_view()
        n = c.shape.period
        band = frieze_module._band(window)
        assert band == max((d for col in window for d in range(1, n)
                            if col[d]), default=0)
        for b in range(1, n + 1):
            assert frieze_module._dual_column(window, b, band) == \
                dense_dual_column(window, b), (c, b)
        seen["loop"] += bool(c.shape.loops())
        seen["coloop"] += bool(c.shape.coloops())
        seen["rational"] += scale > 1
        seen["n"].add(n)
        seen["diag"].update(x for col in window for x in col[:1])
    assert min(seen["loop"], seen["coloop"], seen["rational"]) >= 5, seen
    assert {1, 40} <= seen["n"] and {0, -1, 2} <= seen["diag"]


def _with_fraction_ones(c):
    """c with each entry that is 1 at a slot its skeleton fixes stored
    as Fraction(1): equal to the int, but not an int."""
    return PeriodicFrieze(c.shape, [
        [Fraction(x) if fixed is not None and x == 1 else x
         for fixed, x in zip(skel, col)]
        for skel, col in zip(c.shape.skeleton(), c.columns)])


def test_decided_dual_matches_the_decision_by_dual_minors():
    # the decision by the dual array against the oracle that compares
    # each dual minor with L**t times its fixed value and skips loops:
    # the same decision and error text, and on a frieze the signed dual
    # columns that solution_matrix prints are the oracle's solutions
    # over L**(n-1); whole-column skeleton checks against the
    # slot-by-slot scan
    seen = {"frieze": 0, "dual entry": 0, "entry": 0, "loop": 0,
            "coloop": 0, "rational": 0, "Fraction(1)": 0}
    for i, case in enumerate(_band_cases(random.Random(38))):
        for c in (case, _with_fraction_ones(case)) if i % 3 == 0 else (case,):
            want = _outcome(recurrence_solutions, c)
            got = _outcome(frieze_module._decided_dual, c)
            assert is_frieze(c) == (not isinstance(want, str))
            if isinstance(want, str):
                assert got == want, c
                seen["dual entry" if "dual entry" in want else "entry"] += 1
            else:
                assert got == dual_frieze(c)
                n, scale = c.shape.period, c.integer_view()[1]
                assert solution_matrix(c).columns == tuple(
                    tuple(ratio(x, scale ** (n - 1)) for x in col)
                    for col in want), c
                seen["frieze"] += 1
                seen["loop"] += bool(c.shape.loops())
                seen["coloop"] += bool(c.shape.coloops())
                seen["rational"] += scale > 1
            seen["Fraction(1)"] += c is not case
            for v in (c, dual_frieze(c)):
                assert list(frieze_module._off_skeleton(v)) == \
                    list(off_skeleton_slots(v)), v
    assert min(seen.values()) >= 5, seen


def test_shape_tables_match_the_slot_by_slot_oracle():
    # skeleton() from slices of the inverse and signs() as a running
    # product, against one pass down each column, slot by slot
    rng = random.Random(37)
    shapes = [JugglingFunction([1]), JugglingFunction([2])]
    shapes += [random_juggling(rng, 16) for _ in range(300)]
    assert sum(bool(pi.loops()) for pi in shapes) > 50
    assert sum(bool(pi.coloops()) for pi in shapes) > 50
    for pi in shapes:
        assert (pi.skeleton(), pi.signs()) == slot_tables(pi), pi


def test_dual_shape_is_cached_and_involutive():
    rng = random.Random(15)
    for pi in [parse_siteswap("53635514")] + [random_juggling(rng) for _ in range(10)]:
        assert pi.dual() is pi.dual()
        assert pi.dual().dual() is pi


def _skeleton_frieze(n, balls):
    """The frieze of uniform(n, balls) from the matrix of its dual shape:
    no rows for balls = n, the identity for balls = 0."""
    pi = JugglingFunction.uniform(n, n - balls)
    m = Matrix([[int(i == j) for j in range(n)] for i in range(n - balls)],
               cols=n)
    return build_frieze_det(m, pi)


def _valid_friezes():
    """Fixtures, the rational strip (lcm 3), the friezes of the
    zero-heavy ragged shapes 003, 4400 and 4130 (loops and coloops),
    and those of uniform(n, 0) and uniform(n, n) for n <= 6."""
    strip = PeriodicFrieze.from_json(json.loads(
        (DATA / "rational" / "strip.json").read_text()))
    friezes = [fx.SL3_H5, fx.SL3_H5_DUAL, fx.SL2_H6, fx.JUG_FRIEZE,
               fx.JUG_FRIEZE_DUAL, fx.IDENTITY_FRIEZE_3, strip]
    friezes += [build_frieze_det(m, pi) for m, pi in UNIMODULAR_POOL
                if pi in (fx.PI_003, fx.PI_4400, fx.PI_4130)]
    return friezes + [_skeleton_frieze(n, balls)
                      for n in range(1, 7) for balls in (0, n)]


def _entry_variants(c, rng, single, pairs):
    """c with one entry moved by +1, -1 or +1/2 at every free slot of
    the shape when `single`, and at every fixed slot too for n <= 4
    (those leave the prefrieze, so only the minor scan sees them); then
    `pairs` variants with two free entries moved by random rationals."""
    n = c.shape.period
    free = [(b, d) for b, col in enumerate(c.shape.skeleton())
            for d, x in enumerate(col) if x is None]
    slots = [(b, d) for b in range(n) for d in range(n + 1)] if n <= 4 else free
    moves = [[(slot, delta)] for slot in slots if single
             for delta in (1, -1, Fraction(1, 2))]
    if len(free) > 1:
        moves += [[(slot, _scalar(rng) or 1) for slot in rng.sample(free, 2)]
                  for _ in range(pairs)]
    for move in moves:
        cols = [list(col) for col in c.columns]
        for (b, d), delta in move:
            cols[b][d] += delta
        yield PeriodicFrieze(c.shape, cols)


def _grown_friezes(rng):
    """Friezes with loops and coloops, each followed by its dual: the
    rational strip's matrix grown by one, two and three steps of
    samplers.grown (lcm 3, periods 5 to 7), and two pool matrices grown
    by one step each."""
    strip = PeriodicFrieze.from_json(json.loads(
        (DATA / "rational" / "strip.json").read_text()))
    m, pi = frieze_to_matrix(strip), strip.shape.dual()
    small = []
    for _ in range(3):
        m, pi = grown(rng, m, pi)
        small.append(build_frieze_twist(m, pi))
    large = [build_frieze_twist(*grown(rng, *pair))
             for pair in rng.sample(UNIMODULAR_POOL, 2)]
    return ([d for c in small for d in (c, dual_frieze(c))],
            [d for c in large for d in (c, dual_frieze(c))])


def _decision_cases(rng, friezes, draws, large=()):
    """Each of friezes with its single- and two-entry variants, then
    draws seeded unimodular friezes and each of large with two-entry
    variants only."""
    for c in friezes:
        yield c
        yield from _entry_variants(c, rng, single=True, pairs=4)
    drawn = (build_frieze_det(*random_unimodular(rng)) for _ in range(draws))
    for c in chain(drawn, large):
        yield c
        yield from _entry_variants(c, rng, single=False, pairs=4)


def test_check_frieze_matches_minor_report():
    # the decision by the dual's skeleton and the minor scan that
    # explains a failure, against every unit and vanishing minor by
    # definition and against C x = 0 summed row by row
    friezes = _valid_friezes()
    small, large = _grown_friezes(random.Random(17))
    for group in (friezes, small + large):
        assert any(c.shape.loops() for c in group)
        assert any(c.shape.coloops() for c in group)
    assert any(c.integer_view()[1] > 1 for c in friezes)
    assert all(c.integer_view()[1] == 3 for c in small)
    found = {True: 0, False: 0}
    for v in chain(_decision_cases(random.Random(16), friezes, draws=20),
                   _decision_cases(random.Random(18), small, draws=0,
                                   large=large)):
        expected = minor_report(v)
        assert check_frieze(v).to_json() == expected.to_json()
        assert is_frieze(v) == expected.ok == verify_superperiodic_kernel(v)
        found[expected.ok] += 1
    assert found[True] >= len(friezes) + 20 + len(small) + len(large)
    assert found[False] > 1000


def _inversion_cases(rng, draws):
    """(frieze, matrix or None): SL3_H5 and the rational strip, the
    round-trip fixtures, k = 0 on 000 and k = n on 333, and seeded
    unimodular draws, every other one with two rows rescaled by
    inverse rationals."""
    strip = PeriodicFrieze.from_json(json.loads(
        (DATA / "rational" / "strip.json").read_text()))
    pairs = [(fx.CONSEC_3x8, fx.UNIFORM_8_3), (fx.UNIMOD_4x8, fx.PI_23345357),
             (fx.MATRIX_003, fx.PI_003), (fx.MATRIX_000, fx.IDENTITY_3),
             (identity(3), parse_siteswap("333"))]
    for i in range(draws):
        m, pi = random_unimodular(rng)
        if i % 2 and m.nrows > 1:
            r = _scalar(rng) or Fraction(5, 7)
            rows = [list(row) for row in m.entries]
            rows[0] = [x * r for x in rows[0]]
            rows[1] = [x / r for x in rows[1]]
            m = Matrix(rows, cols=m.ncols)
        pairs.append((m, pi))
    return [(fx.SL3_H5, None), (strip, None)] + [
        (build_frieze_det(m, pi), m) for m, pi in pairs]


def test_frieze_to_matrix_matches_system_kernel_oracle():
    # invert-F takes the solutions that decided the frieze; the oracle
    # folds and eliminates one period of the recurrence system itself
    rng = random.Random(27)
    cases = _inversion_cases(rng, draws=24)
    assert {c.shape.dual().balls for c, _ in cases} >= {0, 1, 2, 3, 4}
    assert any(m is not None and m.integer_view()[1] != 1
               for _, m in cases)
    rejected = 0
    for c, m in cases:
        got = frieze_to_matrix(c)
        assert got == system_kernel_matrix(c), c
        if m is not None:
            assert got.maximal_minors() == m.maximal_minors()
        free = [(b, d) for b, col in enumerate(c.shape.skeleton())
                for d, x in enumerate(col) if x is None]
        for b, d in rng.sample(free, min(len(free), 3)):
            cols = [list(col) for col in c.columns]
            cols[b][d] += rng.choice((1, -1, Fraction(1, 2)))
            v = PeriodicFrieze(c.shape, cols)
            with pytest.raises(ValueError):
                frieze_to_matrix(v)
            with pytest.raises(ValueError):
                system_kernel_matrix(v)
            rejected += 1
    assert rejected > 60


def _strip_pairs(rng):
    """For n = 6..18: the classical strip S of the fan quiddity and of a
    seeded random triangulation's, each followed by its dual D."""
    pairs = []
    for n in range(6, 19):
        fan = [n - 2, 1] + [2] * (n - 3) + [1]
        # a random triangulation: glue an ear at a random vertex
        q = [1, 1, 1]
        while len(q) < n:
            i = rng.randrange(len(q))
            q[i] += 1
            q[(i + 1) % len(q)] += 1
            q.insert(i + 1, 1)
        for quiddity in (fan, q):
            strip = frieze_from_quiddity(quiddity)
            pairs += [strip, dual_frieze(strip)]
    return pairs


def test_frieze_to_matrix_matches_solutions_kernel_oracle():
    # invert-F reads the matrix off the frieze's rows; the oracle takes
    # the kernel of the solutions that decided the frieze, as the
    # package did before: equal JSON on every frieze, and the same error
    # on seeded +-1 moves of a free entry (a prefrieze still) or of a
    # fixed one
    rng = random.Random(41)
    rational = [PeriodicFrieze.from_json(json.loads(
        (DATA / "rational" / name).read_text()))
        for name in ("strip.json", "strip_near_miss.json")]
    fixtures = [fx.SL3_H5, fx.SL3_H5_DUAL, fx.SL2_H6, fx.JUG_FRIEZE,
                fx.JUG_FRIEZE_DUAL, fx.IDENTITY_FRIEZE_3]
    pairs = _grown_pool(rng, draws=8)
    catalan = [f for h in range(1, 6) for f in enumerate_sl2_positive(h, h)]
    cases = (rational + fixtures + [build_frieze_twist(m, pi)
                                    for m, pi in pairs]
             + _strip_pairs(rng) + catalan)
    assert any(c.shape.loops() for c in cases)
    assert any(c.shape.coloops() for c in cases)
    seen = {"valid": 0, "free move": 0, "fixed move": 0}
    for c in cases:
        want = _outcome(solutions_kernel_matrix, c)
        got = _outcome(frieze_to_matrix, c)
        if isinstance(want, str):
            # the rational near-miss
            assert got == want and want.startswith("ValueError: not a")
        else:
            assert got.to_json() == want.to_json(), c
            seen["valid"] += 1
        n = c.shape.period
        skeleton = c.shape.skeleton()
        for _ in range(2 if n > 8 else 4):
            b, d = rng.randrange(n), rng.randrange(n + 1)
            cols = [list(col) for col in c.columns]
            cols[b][d] += rng.choice((1, -1))
            v = PeriodicFrieze(c.shape, cols)
            want = _outcome(solutions_kernel_matrix, v)
            assert _outcome(frieze_to_matrix, v) == want, v
            if isinstance(want, str):
                seen["free move" if skeleton[b][d] is None
                     else "fixed move"] += 1
    assert seen["valid"] > 150, seen
    assert seen["free move"] > 50 and seen["fixed move"] > 200, seen


def _grown_pool(rng, draws):
    """The sampler pool, seeded unimodular draws, and copies of both
    grown by one to three loops or coloops."""
    pairs = list(UNIMODULAR_POOL)
    pairs += [random_unimodular(rng) for _ in range(draws)]
    for m, pi in list(pairs):
        for _ in range(rng.randint(1, 3)):
            m, pi = grown(rng, m, pi)
        pairs.append((m, pi))
    return pairs


def test_integer_kernel_matches_rref_oracles():
    # positive_complement and frieze_to_matrix read their kernel off one
    # integer elimination; the oracles take the Fraction reduced form,
    # read the kernel off it and pay one more minor, as the package did
    rng = random.Random(33)
    pairs = _grown_pool(rng, draws=12)
    assert any(pi.loops() for _, pi in pairs)
    assert any(pi.coloops() for _, pi in pairs)
    cases = []
    for m, pi in pairs:
        cases += [m, twist(m, pi)]
        if m.nrows > 1:
            # rank-deficient near-misses: a row doubled, a row of zeros
            rows = [list(row) for row in m.entries]
            cases.append(Matrix(rows[:-1] + [[2 * x for x in rows[0]]],
                                   cols=m.ncols))
            cases.append(Matrix(rows[:-1] + [[0] * m.ncols], cols=m.ncols))
    for n in range(1, 5):
        # square: determinant 1, and 2 after doubling a row
        m = random_determinant_one(rng, n, steps=2 * n)
        cases += [m, scale_row(m, 0, 2)]
    texts = set()
    for m in cases:
        got, want = (_outcome(positive_complement, m),
                     _outcome(rref_complement, m))
        if isinstance(want, str):
            assert got == want, m
            texts.add(want.split(" on ")[0])
        else:
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert got.entries == want.entries, m
    assert texts == {"ValueError: matrix does not have full row rank",
                     "ValueError: complement identity fails"}
    rejected = 0
    for m, pi in pairs:
        c = build_frieze_twist(m, pi)
        got = frieze_to_matrix(c)
        assert got.entries == rref_frieze_to_matrix(c).entries, c
        free = [(b, d) for b, col in enumerate(c.shape.skeleton())
                for d, x in enumerate(col) if x is None]
        for b, d in rng.sample(free, min(len(free), 2)):
            cols = [list(col) for col in c.columns]
            cols[b][d] += rng.choice((1, -1, Fraction(1, 2)))
            v = PeriodicFrieze(c.shape, cols)
            want = _outcome(rref_frieze_to_matrix, v)
            assert want.startswith("ValueError: ")
            assert _outcome(frieze_to_matrix, v) == want, v
            rejected += 1
    assert rejected > 40


def test_sign_table_matches_counted_definition():
    # the shape's one sign table, its skeleton and entry_sign against
    # (-1)**|S(b, a)| counted off the s-set, on seeded shapes of period
    # up to 12 with loops and coloops, and their duals
    rng = random.Random(34)
    seen = {"loop": 0, "coloop": 0}
    for _ in range(2000):
        pi = random_juggling(rng, 12)
        seen["loop"] += bool(pi.loops())
        seen["coloop"] += bool(pi.coloops())
        n = pi.period
        assert pi.signs() == tuple(
            tuple(counted_sign(pi, a, b) for a in range(b, b + n + 1))
            for b in range(1, n + 1)), pi
        assert pi.skeleton() == counted_skeleton(pi), pi
        for f in (pi, pi.dual()):
            for _ in range(3):
                b = rng.randint(-n, 2 * n)
                a = b + rng.randint(-2, 2 * n + 2)
                assert f.entry_sign(a, b) == counted_sign(f, a, b), (f, a, b)
    assert min(seen.values()) > 500


def test_is_positive_matches_entry_sign_oracle():
    # every shape of period <= 5 with each entry at the sign of its
    # twist, which is positive only when the running sign matches every
    # twist it checks; for period <= 4 also each window entry flipped in
    # turn; then seeded shapes up to period 8 with random entries
    shapes = []
    for n in range(1, 6):
        for throws in product(range(n + 1), repeat=n):
            if sorted((i + t) % n for i, t in enumerate(throws)) == \
                    list(range(n)):
                shapes.append(JugglingFunction.from_throws(throws))
    assert len(shapes) == 414
    for pi in shapes:
        n = pi.period
        cols = [[pi.entry_sign(a, b) for a in range(b, b + n + 1)]
                for b in range(1, n + 1)]
        assert is_positive(PeriodicFrieze(pi, cols))
        if n > 4:
            continue
        for b in range(n):
            for d in range(n + 1):
                flipped = [list(col) for col in cols]
                flipped[b][d] = -flipped[b][d]
                v = PeriodicFrieze(pi, flipped)
                assert is_positive(v) == entry_sign_is_positive(v)
    rng = random.Random(28)
    found = {True: 0, False: 0}
    for _ in range(300):
        pi = random_juggling(rng)
        n = pi.period
        cols = [[pi.entry_sign(a, b) * rng.randint(1, 3)
                 for a in range(b, b + n + 1)] for b in range(1, n + 1)]
        if rng.random() < 0.6:
            b, d = rng.randrange(n), rng.randrange(n + 1)
            cols[b][d] *= rng.choice((0, -1, Fraction(-1, 2)))
        v = PeriodicFrieze(pi, cols)
        expected = entry_sign_is_positive(v)
        assert is_positive(v) == expected
        found[expected] += 1
    assert min(found.values()) > 50
